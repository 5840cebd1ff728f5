import itertools
import json
import math
import re

import numpy as np
import pytest

from entroprod import core, lindblad as lb, resource as rs
from entroprod.core import (
    CoreError,
    DensityOperator,
    HermitianOperator,
    HilbertDims,
    PAULI_X,
    PAULI_Z,
    UnitaryOperator,
)
from entroprod.rand import random_density, random_hermitian, random_unitary

RNG = np.random.default_rng(1234)


def test_tensor_identity_and_kron():
    i2 = np.eye(2)
    assert np.allclose(core.tensor([i2, i2]), np.eye(4))
    sz_kron = core.tensor([PAULI_Z, i2])
    assert np.allclose(np.diag(sz_kron), [1, 1, -1, -1])


def test_tensor_vector_action():
    a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    x = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    y = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    lhs = core.tensor([a, b]) @ np.kron(x, y)
    rhs = np.kron(a @ x, b @ y)
    assert np.abs(lhs - rhs).max() < 1e-12


def _wrapped(k, m):
    """Square factors alternate between a Hamiltonian and a state."""
    if m.shape[0] != m.shape[1]:
        return m
    if k % 2:
        g = m @ m.conj().T
        return DensityOperator.from_matrix(g / np.trace(g))
    return HermitianOperator.from_matrix(m + m.conj().T)


@pytest.mark.parametrize("shapes", [[(3, 3)], [(2, 2), (3, 3)], [(3, 2), (2, 4)],
                                    [(2, 2), (1, 3), (4, 2)], [(2, 2), (2, 2), (2, 2)]])
@pytest.mark.parametrize("kind", ["real", "complex", "wrapped"])
def test_tensor_equals_kron(shapes, kind):
    """Bit for bit a chain of np.kron, for square and rectangular factors."""
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=s) for s in shapes]
    if kind != "real":
        mats = [m + 1j * rng.normal(size=m.shape) for m in mats]
    ops = mats
    if kind == "wrapped":
        ops = [_wrapped(k, m) for k, m in enumerate(mats)]
        mats = [getattr(op, "matrix", op) for op in ops]
    want = mats[0]
    for m in mats[1:]:
        want = np.kron(want, m)
    assert np.array_equal(core.tensor(ops), want)


def test_tensor_of_stacks_is_the_kron_of_each_element():
    # leading axes broadcast: a stack of states against one ancilla state
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    b = rng.normal(size=(3, 3))
    want = np.array([np.kron(m, b) for m in stack])
    assert np.array_equal(core.tensor([stack, b]), want)
    assert core.tensor([stack[:, None], stack]).shape == (5, 5, 4, 4)


def test_tensor_empty_errors():
    with pytest.raises(CoreError):
        core.tensor([])
    with pytest.raises(CoreError):
        core.tensor([np.ones(2), np.eye(2)])


def test_partial_trace_product_state():
    rho_s = random_density(2, RNG)
    rho_e = random_density(3, RNG)
    joint = DensityOperator.from_matrix(core.tensor([rho_s, rho_e]), (2, 3))
    reduced = core.partial_trace(joint, [0])
    assert np.abs(reduced.matrix - rho_s.matrix).max() < 1e-12
    assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12


def test_partial_trace_bell_state():
    bell = DensityOperator.pure([1, 0, 0, 1], dims=(2, 2))
    reduced = core.partial_trace(bell, [0])
    assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_expectation_consistency():
    rho = random_density(6, RNG, dims=(2, 3))
    rho_a = core.partial_trace(rho, [0])
    for _ in range(10):
        x_a = random_hermitian(2, RNG).matrix
        lhs = np.trace(x_a @ rho_a.matrix)
        rhs = np.trace(core.tensor([x_a, np.eye(3)]) @ rho.matrix)
        assert abs(lhs - rhs) < 1e-12


def test_partial_trace_index_errors():
    rho = random_density(4, RNG, dims=(2, 2))
    with pytest.raises(CoreError):
        core.partial_trace(rho, [3])
    with pytest.raises(CoreError):
        core.partial_trace(rho, [])


def test_von_neumann_entropy_values():
    pure = DensityOperator.pure(RNG.normal(size=4) + 1j * RNG.normal(size=4))
    assert core.von_neumann_entropy(pure) < 1e-12
    mixed = DensityOperator.from_matrix(np.eye(5) / 5)
    assert abs(core.von_neumann_entropy(mixed) - math.log(5)) < 1e-12
    diag = DensityOperator.from_matrix(np.diag([0.25, 0.75]))
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert abs(core.von_neumann_entropy(diag) - expected) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vector, unit", [([1e200, 0.0], [1.0, 0.0]),
                                          ([1e-200, 0.0], [1.0, 0.0]),
                                          ([3e-160, 4e-160], [0.6, 0.8])])
def test_pure_state_of_a_vector_at_an_extreme_scale(vector, unit):
    """Its norm neither overflows nor underflows: the state is that of the unit vector."""
    rho = DensityOperator.pure(vector)
    assert np.abs(rho.matrix - np.outer(unit, unit)).max() < 1e-15


def test_von_neumann_entropy_rejects_nonhermitian():
    with pytest.raises(CoreError):
        core.von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_relative_entropy_basics():
    rho = random_density(4, RNG)
    assert abs(core.relative_entropy(rho, rho)) < 1e-12
    zero = DensityOperator.pure([1, 0])
    one = DensityOperator.pure([0, 1])
    assert core.relative_entropy(zero, one) == math.inf
    p = np.array([0.2, 0.8])
    q = np.array([0.5, 0.5])
    val = core.relative_entropy(np.diag(p), np.diag(q))
    assert abs(val - np.sum(p * np.log(p / q))) < 1e-12


def test_relative_entropy_dim_mismatch():
    with pytest.raises(CoreError):
        core.relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_relative_entropy_nonnegative_random_pairs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rho = random_density(d, rng)
        sigma = random_density(d, rng)
        val = core.relative_entropy(rho, sigma)
        assert val >= -1e-12
    rho = random_density(5, rng)
    assert abs(core.relative_entropy(rho, rho)) < 1e-11


def test_data_processing_inequality():
    rng = np.random.default_rng(88)
    for _ in range(20):
        rho = random_density(3, rng)
        sigma = random_density(3, rng)
        u = random_unitary(9, rng)
        anc = DensityOperator.pure([1, 0, 0])

        def channel(state):
            big = core.tensor([state, anc])
            out = u.matrix @ big @ u.matrix.conj().T
            return core._ptrace_matrix(out, (3, 3), [0])

        before = core.relative_entropy(rho, sigma)
        after = core.relative_entropy(channel(rho), channel(sigma))
        assert after <= before + 1e-10


def test_mutual_information_values():
    prod = DensityOperator.from_matrix(
        core.tensor([random_density(2, RNG), random_density(2, RNG)]), (2, 2))
    assert abs(core.mutual_information(prod, [0])) < 1e-10
    bell = DensityOperator.pure([1, 0, 0, 1], dims=(2, 2))
    assert abs(core.mutual_information(bell, [0]) - 2 * math.log(2)) < 1e-12


def test_mutual_information_relative_entropy_form():
    rho = random_density(4, RNG, dims=(2, 2))
    mi = core.mutual_information(rho, [0])
    rho_a = core.partial_trace(rho, [0])
    rho_b = core.partial_trace(rho, [1])
    alt = core.relative_entropy(rho, core.tensor([rho_a, rho_b]))
    assert abs(mi - alt) < 1e-10


def test_mutual_information_bad_split():
    rho = random_density(4, RNG, dims=(2, 2))
    with pytest.raises(CoreError):
        core.mutual_information(rho, [0, 1])
    with pytest.raises(CoreError):
        core.mutual_information(rho, [])


def test_renyi_divergence_limits_and_monotonicity():
    p = np.diag([0.3, 0.7])
    q = np.diag([0.6, 0.4])
    near_one = core.renyi_divergence(p, q, 1.0 + 1e-9)
    assert abs(near_one - core.relative_entropy(p, q)) < 1e-6
    rho = random_density(3, RNG)
    for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert abs(core.renyi_divergence(rho, rho, alpha)) < 1e-10
    vals = [core.renyi_divergence(p, q, a) for a in (0.0, 0.5, 1.0, 2.0, math.inf)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_renyi_divergence_alpha2_commuting_oracle():
    rng = np.random.default_rng(5)
    p = rng.random(4)
    p /= p.sum()
    q = rng.random(4)
    q /= q.sum()
    val = core.renyi_divergence(np.diag(p), np.diag(q), 2.0)
    assert abs(val - math.log(np.sum(p ** 2 / q))) < 1e-12


def test_renyi_divergence_negative_alpha():
    rho = random_density(2, RNG)
    with pytest.raises(CoreError):
        core.renyi_divergence(rho, rho, -0.5)


def _spectrum_test_states(rng):
    """Random states, d = 1-6: full rank, pure and rank-deficient."""
    for d in range(1, 7):
        for rank in sorted({d, 1, max(1, d - 1)}):
            yield random_density(d, rng, rank=rank)


def test_density_operator_keeps_its_spectrum(count_spectral):
    rng = np.random.default_rng(77)
    states = list(_spectrum_test_states(rng))
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    for rho in states:
        vals, vecs = rho.eig()
        assert vals.min() >= 0.0 and np.all(np.diff(vals) >= 0.0)
        assert np.abs((vecs * vals) @ vecs.conj().T - rho.matrix).max() < 1e-14
        for arr in (vals, vecs):
            with pytest.raises(ValueError):
                arr[0] = 0.5
        assert rho.eig()[0] is vals
    assert calls == []


def test_entropies_same_for_state_and_bare_matrix():
    rng = np.random.default_rng(78)
    states = list(_spectrum_test_states(rng))
    for rho in states:
        sigma = random_density(rho.dim, rng, rank=max(1, rho.dim - 1))
        pairs = [
            (core.von_neumann_entropy, (rho,)),
            (core.logm_psd, (rho,)),
            (core.relative_entropy, (rho, sigma)),
            (core.relative_entropy, (sigma, rho)),
        ] + [(core.renyi_divergence, (x, y, a)) for x, y in ((rho, sigma), (sigma, rho))
             for a in (0.0, 0.5, 1.0, 2.0, math.inf)]
        for fn, args in pairs:
            # a bare matrix is validated as a state: one path, the same bits
            got = np.asarray(fn(*args))
            bare = np.asarray(fn(*(a.matrix if isinstance(a, DensityOperator) else a
                                   for a in args)))
            assert np.array_equal(got, bare), fn.__name__


def test_thermal_state_limits():
    h = random_hermitian(4, RNG)
    uniform = core.thermal_state(h, 0.0)
    assert np.abs(uniform.matrix - np.eye(4) / 4).max() < 1e-12
    for dims in (4, (2, 2), HilbertDims((2, 2))):
        mixed = DensityOperator.maximally_mixed(dims)
        assert np.abs(mixed.matrix - uniform.matrix).max() < 1e-12
    eps_gap = 1.3
    qubit = core.thermal_state(np.diag([0.0, eps_gap]), 2.0)
    f = 1.0 / (math.exp(2.0 * eps_gap) + 1.0)
    assert abs(qubit.matrix[1, 1].real - f) < 1e-12


@pytest.mark.parametrize("spread", [1.0, 30.0, 34.0, 100.0, 700.0])
def test_relative_entropy_to_a_cold_gibbs_state(spread):
    # S(rho || e^{-beta H}/Z) = -S(rho) + beta Tr(H rho) + ln Z, with
    # beta (E_max - E_min) = spread: the Gibbs weights are kept as made, so
    # e^{-spread} below the eigensolver round-off cut keeps its logarithm
    rng = np.random.default_rng(int(spread))
    h = random_hermitian(3, rng)
    levels = np.linalg.eigvalsh(h.matrix)
    beta = spread / (levels[-1] - levels[0])
    rho = random_density(3, rng)
    energy = np.trace((h.matrix - levels[0] * np.eye(3)) @ rho.matrix).real
    want = (-core.von_neumann_entropy(rho) + beta * energy
            + math.log(np.exp(-beta * (levels - levels[0])).sum()))
    got = core.relative_entropy(rho, core.thermal_state(h, beta))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_cold_gibbs_state_is_at_zero_divergence_from_itself(seed):
    # beta (E_max - E_min) = 100 on a non-diagonal qutrit H: the kept Gibbs
    # weights reach e^-100, far below the round-off cut, where the overlaps
    # of the state with itself carry ~1e-16 of round-off; orders above 1
    # must not read that round-off over e^-50 as a ratio
    rng = np.random.default_rng(seed)
    h = random_hermitian(3, rng)
    levels = np.linalg.eigvalsh(h.matrix)
    sigma = core.thermal_state(h, 100.0 / (levels[-1] - levels[0]))
    for alpha in (0.5, 1.0, 2.0, math.inf):
        assert abs(core.renyi_divergence(sigma, sigma, alpha)) < 1e-7


def test_gibbs_states_are_decomposed_once(monkeypatch, count_spectral):
    # thermal_state and the stacked _gibbs_states take one eigh of H and keep
    # the Gibbs weights on its eigenvectors; maximally_mixed takes none
    h = random_hermitian(3, RNG)
    stack = np.stack([random_hermitian(3, RNG).matrix for _ in range(4)])
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    rho = core.thermal_state(h, 0.8)
    assert len(calls) == 1
    m, w, v, _ = core._gibbs_states(stack, np.linspace(0.5, 2.0, 4))
    assert len(calls) == 2
    mixed = DensityOperator.maximally_mixed((2, 3))
    cold = core.thermal_state(np.diag([0.0, 1.0]), 40.0)
    assert len(calls) == 3
    monkeypatch.undo()
    for matrix, (weights, vecs) in [(rho.matrix, rho.eig()), (mixed.matrix, mixed.eig()),
                                    *zip(m, zip(w, v))]:
        assert abs(weights.sum() - 1.0) < 1e-14
        assert np.abs((vecs * weights) @ vecs.conj().T - matrix).max() < 1e-14
    for state in (rho, mixed, cold):
        assert np.all(np.diff(state.eig()[0]) >= 0.0)
    assert np.array_equal(mixed.matrix, np.eye(6) / 6)
    assert cold.eig()[0][0] == pytest.approx(math.exp(-40.0) / (1.0 + math.exp(-40.0)),
                                             rel=1e-14)
    for weights in (np.array([0.5, 0.6]), np.array([1.2, -0.2]), np.array([math.nan, 1.0])):
        with pytest.raises(CoreError):
            core._exact_spectra(None, weights, np.eye(2))


def test_thermal_state_of_a_stack_is_each_row(monkeypatch, count_spectral):
    # one stacked eigh for n Hamiltonians; each state is the one-row call, bit
    # for bit, and beta is shared or one per Hamiltonian (`core._shared_or_rows`)
    stack = np.stack([random_hermitian(3, RNG).matrix for _ in range(4)])
    betas = np.array([0.5, 1.0, 40.0, 300.0])
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    states = core.thermal_state(stack, betas)
    assert len(calls) == 1
    monkeypatch.undo()
    assert len(states) == 4 and all(s.dims == HilbertDims((3,)) for s in states)
    for h, beta, state in zip(stack, betas, states):
        alone = core.thermal_state(h, beta)
        for kept, own in zip((state.matrix,) + state.eig(), (alone.matrix,) + alone.eig()):
            assert np.array_equal(kept, own) and not kept.flags.writeable
    shared = core.thermal_state(stack, 1.0)
    for h, state in zip(stack, shared):
        assert np.array_equal(state.matrix, core.thermal_state(h, 1.0).matrix)
    for beta, shapes in ((betas[:3], "(3,): one value, or one per row of (4,)"),
                         (np.ones((4, 1)), "(4, 1): one value, or one per row of (4,)")):
        with pytest.raises(CoreError, match=re.escape("inverse temperature has shape " + shapes)):
            core.thermal_state(stack, beta)
    with pytest.raises(CoreError, match=re.escape("(1,): one value, or one per row of ()")):
        core.thermal_state(stack[0], betas[:1])


def test_thermal_state_of_hamiltonian_rows_keeps_their_factor_dims():
    # rows that are HermitianOperators give their shared dims to the Gibbs states (the
    # `_stack_dims` rule), with the exact `_gibbs` weights of the bare stack; mixed dims raise
    rows = [random_hermitian(4, RNG, dims=(2, 2)) for _ in range(3)]
    betas = np.array([0.5, 2.0, 300.0])
    states = core.thermal_state(rows, betas)
    bare = core.thermal_state(np.stack([h.matrix for h in rows]), betas)
    weights = np.sort(core._gibbs(np.linalg.eigh(np.stack([h.matrix for h in rows]))[0],
                                  betas)[0], kind="stable")
    assert [s.dims.factors for s in states] == [(2, 2)] * 3
    assert [s.dims.factors for s in bare] == [(4,)] * 3
    for state, plain, w in zip(states, bare, weights):
        assert np.array_equal(state.eig()[0], w)
        for kept, own in zip((state.matrix,) + state.eig(), (plain.matrix,) + plain.eig()):
            assert np.array_equal(kept, own)
    with pytest.raises(CoreError, match=r"factor dims \(2, 2\) and \(4,\) in one stack"):
        core.thermal_state([rows[0], HermitianOperator.from_matrix(rows[1].matrix)], betas[:2])


def test_a_stack_of_states_is_read_by_the_spectra_they_keep(monkeypatch, count_spectral):
    # a sequence of states is neither decomposed nor checked again: one state
    # by views, n by one copy per array; a bare stack by one stacked eigh
    states = [core.thermal_state(np.diag([0.0, 1.0]), b) for b in (0.5, 40.0, 700.0)]
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    one, three = core._density_stack(states[:1]), core._density_stack(tuple(states))
    assert calls == []
    bare = core._density_stack(np.stack([s.matrix for s in states]))
    assert len(calls) == 1
    monkeypatch.undo()
    assert all(np.shares_memory(x, y) for x, y in zip((one.matrices,) + one.eig(),
                                                      (states[0].matrix,) + states[0].eig()))
    for k, state in enumerate(states):
        for kept, own in zip((three.matrices,) + three.eig(), (state.matrix,) + state.eig()):
            assert np.array_equal(kept[k], own) and not kept.flags.writeable
    assert three.weights[2, 0] == math.exp(-700.0) / (1.0 + math.exp(-700.0)) > 0.0
    assert bare.weights[2, 0] == 0.0                 # eigensolver output: cut
    mixed = [states[0], DensityOperator.maximally_mixed(3)]
    with pytest.raises(CoreError, match=r"matrix 1 of the stack: shape \(3, 3\), expected \(2"):
        core._density_stack(mixed)
    with pytest.raises(CoreError, match="matrix is 2x2, expected 3x3"):
        core._density_stack(states, dim=3)


def test_thermal_state_energy_monotone_in_beta():
    h = random_hermitian(5, RNG)
    energies = []
    for beta in np.linspace(0.0, 3.0, 13):
        th = core.thermal_state(h, beta)
        energies.append(float(np.real(np.trace(h.matrix @ th.matrix))))
    assert all(energies[i + 1] <= energies[i] + 1e-12 for i in range(len(energies) - 1))


def test_trace_distance_values():
    rho = random_density(3, RNG)
    assert core.trace_distance(rho, rho) < 1e-14
    zero = DensityOperator.pure([1, 0])
    one = DensityOperator.pure([0, 1])
    assert abs(core.trace_distance(zero, one) - 1.0) < 1e-12


def test_trace_distance_contractive_under_channel():
    rng = np.random.default_rng(6)
    rho = random_density(2, rng)
    sigma = random_density(2, rng)
    u = random_unitary(4, rng)
    anc = DensityOperator.pure([1, 0])

    def channel(state):
        big = core.tensor([state, anc])
        out = u.matrix @ big @ u.matrix.conj().T
        return core._ptrace_matrix(out, (2, 2), [0])

    assert (core.trace_distance(channel(rho), channel(sigma))
            <= core.trace_distance(rho, sigma) + 1e-12)


def test_dephase_and_coherence():
    h = PAULI_Z
    diag = DensityOperator.from_matrix(np.diag([0.3, 0.7]))
    assert np.abs(core.dephase(diag, h).matrix - diag.matrix).max() < 1e-14
    assert core.relative_entropy_of_coherence(diag, h) < 1e-12
    plus = DensityOperator.pure([1, 1])
    dephased = core.dephase(plus, h)
    assert np.abs(dephased.matrix - np.eye(2) / 2).max() < 1e-12
    assert abs(core.relative_entropy_of_coherence(plus, h) - math.log(2)) < 1e-12


def test_coherence_matches_relative_entropy_form():
    rho = random_density(3, RNG)
    h = random_hermitian(3, RNG)
    c = core.relative_entropy_of_coherence(rho, h)
    alt = core.relative_entropy(rho, core.dephase(rho, h))
    assert abs(c - alt) < 1e-10
    assert c >= -1e-12


def test_dephase_degenerate_blocks():
    # degenerate pair must stay a block, not be diagonalized arbitrarily
    h = np.diag([0.0, 0.0, 1.0])
    rho = random_density(3, RNG)
    deph = core.dephase(rho, h)
    assert abs(deph.matrix[0, 1] - rho.matrix[0, 1]) < 1e-12
    assert abs(deph.matrix[0, 2]) < 1e-14


def test_constructors_reject_invalid():
    with pytest.raises(CoreError):
        DensityOperator.from_matrix(np.diag([0.6, 0.6]))
    with pytest.raises(CoreError):
        DensityOperator.from_matrix(np.array([[1.1, 0], [0, -0.1]]))
    with pytest.raises(CoreError):
        DensityOperator.from_matrix(np.array([[0.5, 0.4], [0.1, 0.5]]))
    with pytest.raises(CoreError):
        UnitaryOperator.from_matrix(np.array([[1, 0], [0, 2]]))
    with pytest.raises(CoreError):
        HermitianOperator.from_matrix(np.array([[0, 1], [2, 0]]))
    with pytest.raises(CoreError):
        HilbertDims(())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls", [DensityOperator, HermitianOperator, UnitaryOperator])
def test_constructors_reject_nonfinite(cls, bad):
    m = np.eye(2, dtype=complex) / (2.0 if cls is DensityOperator else 1.0)
    m[1, 1] = bad
    with pytest.raises(CoreError):
        cls.from_matrix(m)


def test_vec_is_column_stacking():
    a, x, b = np.random.default_rng(3).normal(size=(3, 3, 3))
    assert np.abs(core.unvec(np.kron(b.T, a) @ core.vec(x)) - a @ x @ b).max() < 1e-12
    assert np.array_equal(core.vec(x), x.T.ravel())


def test_superop_terms_match_kron_formulas():
    rng = np.random.default_rng(12)
    d = 3
    a, b, left, right = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    eye = np.eye(d)
    rate = 0.4 - 0.3j
    bda = b.conj().T @ a
    superop = np.zeros((d * d, d * d), dtype=complex)
    core.add_lindblad_term(superop, a, b, rate)
    expected = rate * (np.kron(b.conj(), a) - 0.5 * np.kron(eye, bda) - 0.5 * np.kron(bda.T, eye))
    assert np.abs(superop - expected).max() < 1e-14
    core.add_sided_term(superop, left, right)
    expected += np.kron(eye, left) + np.kron(right.T, eye)
    assert np.abs(superop - expected).max() < 1e-14
    with pytest.raises(CoreError):
        core.add_sided_term(np.zeros((d * d, d * d), dtype=complex).T, left, right)


def test_hermitian_coords_roundtrip_and_real_generator():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a + a.conj().T
        a /= np.abs(a).max()
        x = core.hermitian_coords(a)
        assert x.dtype == float
        assert np.abs(core.from_hermitian_coords(x) - a).max() < 1e-15
        # columns of T: the Hermitian basis elements, vec-ordered
        eye = np.eye(d * d)
        t = np.stack([core.vec(core.from_hermitian_coords(e)) for e in eye], axis=1)
        assert np.abs(t.conj().T @ t - eye).max() < 1e-15
        assert np.abs(t @ x - core.vec(a)).max() < 1e-15
        # a stack of matrices reads as each matrix alone
        assert np.array_equal(core.hermitian_coords(np.stack([a, 2 * a])), np.stack([x, 2 * x]))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        model = lb.LindbladModel(h + h.conj().T, ((op, 0.7),))
        expected = t.conj().T @ lb.build(model) @ t
        real = lb.real_generator(model)
        assert real.dtype == float
        assert np.abs(real - expected).max() < 1e-13 * max(1.0, np.abs(expected).max())


def test_json_roundtrip():
    rho = random_density(4, RNG, dims=(2, 2))
    blob = json.dumps(rho.to_json())
    back = DensityOperator.from_json(json.loads(blob))
    assert np.abs(back.matrix - rho.matrix).max() < 1e-15
    assert back.dims.factors == (2, 2)
    with pytest.raises(CoreError):
        core.matrix_from_json({"dims": [2], "re": [[0, 0]], "im": [[0, 0]]})


def test_from_stack_is_the_validation_of_each_state():
    rng = np.random.default_rng(77)
    mats = np.array([random_density(3, rng).matrix for _ in range(5)])
    states = DensityOperator.from_stack(mats, (3,))
    for m, state in zip(mats, states):
        alone = DensityOperator(m, (3,))
        assert np.array_equal(state.matrix, alone.matrix)
        for kept, own in zip(state.eig(), alone.eig()):
            assert np.array_equal(kept, own) and not kept.flags.writeable
    bad = mats.copy()
    bad[3] = np.diag([1.0 + 5e-9, -5e-9, 0.0])
    with pytest.raises(CoreError, match="matrix 3 of the stack: .*negative eigenvalue"):
        DensityOperator.from_stack(bad)
    with pytest.raises(CoreError, match="negative eigenvalue"):
        DensityOperator.from_matrix(bad[3])
    bad[1, 0, 0] += 0.1
    with pytest.raises(CoreError, match="matrix 1 of the stack: .*trace"):
        DensityOperator.from_stack(bad)
    with pytest.raises(CoreError, match="stack"):
        DensityOperator.from_stack(mats[0])


def test_a_stack_of_states_keeps_their_factor_dims():
    # the states' dims travel with them; `dims` puts dims on bare matrices
    rho = random_density(4, RNG, dims=(2, 2))
    for states in (DensityOperator.from_stack([rho, rho]),
                   DensityOperator.from_stack([rho, rho], HilbertDims((2, 2))),
                   DensityOperator.from_stack(np.array([rho.matrix] * 2), (2, 2))):
        assert [s.dims.factors for s in states] == [(2, 2)] * 2
    assert DensityOperator.from_stack([rho.matrix] * 2)[0].dims.factors == (4,)
    with pytest.raises(CoreError, match=r"factor dims \(4,\) and \(2, 2\) in one stack"):
        DensityOperator.from_stack([rho, rho], (4,))
    with pytest.raises(CoreError, match=r"factor dims \(2, 2\) and \(4,\) in one stack"):
        DensityOperator.from_stack([rho, DensityOperator.from_matrix(rho.matrix)])


def test_equality_never_raises_on_array_holders():
    import dataclasses
    import importlib
    import pkgutil

    import entroprod
    from entroprod import episodes as eps

    holders = []
    for info in pkgutil.iter_modules(entroprod.__path__):
        module = importlib.import_module(f"entroprod.{info.name}")
        for obj in vars(module).values():
            if (dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))):
                holders.append(obj)
    assert {core.DensityOperator, core.HermitianOperator, core.UnitaryOperator} <= set(holders)
    assert len(holders) >= 20
    for cls in holders:
        twins = []
        for _ in range(2):
            obj = object.__new__(cls)
            for f in dataclasses.fields(cls):
                object.__setattr__(obj, f.name, np.zeros(2))
            twins.append(obj)
        a, b = twins
        assert (a == b) is False and (a == a) is True and (a != b) is True, cls
    assert (DensityOperator.maximally_mixed(2) == DensityOperator.maximally_mixed(2)) is False
    # an Episode compares its operators by identity; its evolution stays out
    rng = np.random.default_rng(5)
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    parts = (h, h, random_unitary(4, rng, dims=(2, 2)), random_density(2, rng),
             random_density(2, rng))
    ep = eps.Episode(*parts)
    eps.evolve(ep)
    assert (ep == dataclasses.replace(ep)) is True
    twin = eps.Episode(*(type(p).from_matrix(p.matrix, p.dims) for p in parts))
    assert (ep == twin) is False


@pytest.mark.parametrize("kind, matrix", [(UnitaryOperator, PAULI_X), (HermitianOperator, PAULI_Z)])
def test_a_bare_operator_is_checked_once(monkeypatch, kind, matrix):
    # `_typed` makes the type's instance of the matrix it checked, checking it no second time
    checks, check = [], kind._check
    monkeypatch.setattr(kind, "_check", staticmethod(lambda m, *a: checks.append(1) or check(m, *a)))
    op = core._typed(kind, matrix, CoreError, 2, (2,))
    assert checks == [1] and type(op) is kind and op.dims == HilbertDims((2,))
    assert np.array_equal(op.matrix, matrix) and not op.matrix.flags.writeable


def _einsum_partial_trace(mat, factors, keep):
    n = len(factors)
    t = np.asarray(mat, dtype=complex).reshape(tuple(factors) * 2)
    col = [n + k if k in keep else k for k in range(n)]
    d = math.prod(factors[k] for k in keep)
    return np.einsum(t, list(range(n)) + col, list(keep) + [n + k for k in keep]).reshape(d, d)


def test_partial_trace_is_the_einsum():
    # tracing one factor at a time gives the one-call einsum's bits on one
    # and two factors, for one matrix and a stack; on three factors the one
    # call adds the traced entries in another order, so the two agree to round-off
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for factors in itertools.product((2, 3, 5) if n < 3 else (2, 3), repeat=n):
            size = math.prod(factors)
            for r in range(1, n + 1):
                for keep in itertools.combinations(range(n), r):
                    stack = rng.normal(size=(3, size, size)) + 1j * rng.normal(size=(3, size, size))
                    got = core._ptrace_matrix(stack, factors, keep)
                    for m, g in zip(stack, got):
                        want = _einsum_partial_trace(m, factors, keep)
                        assert np.array_equal(core._ptrace_matrix(m, factors, keep), g)
                        if n < 3:
                            assert np.array_equal(g, want), (factors, keep)
                        else:
                            assert np.abs(g - want).max() <= 1e-14, (factors, keep)


def test_tiny_mass_off_the_support_is_finite_classically_too():
    # the classical divergences read probability vectors under the quantum
    # support rule: mass <= SUPPORT_OVERLAP_TOL on q's zero levels is finite
    p, q = [1.0 - 1e-10, 1e-10], [1.0, 0.0]
    quantum = core.relative_entropy(np.diag(p), np.diag(q))
    assert math.isfinite(quantum)
    assert abs(rs.classical_renyi_divergence(p, q, 1.0) - quantum) <= 1e-15
    for alpha in (0.5, 1.0, 2.0, math.inf):
        classical = rs.classical_renyi_divergence(p, q, alpha)
        assert math.isfinite(classical)
        assert abs(classical - core.renyi_divergence(np.diag(p), np.diag(q), alpha)) <= 1e-15
    assert math.isinf(rs.classical_renyi_divergence([0.9, 0.1], q, 1.0))


def test_charge_sectors_match_the_dense_function():
    # random block-diagonal Hermitian matrices under shuffled integer
    # charges: the sector route equals hermitian_function and the dense
    # conjugation U rho U^dag
    rng = np.random.default_rng(23)
    for d in (1, 5, 12, 30):
        charges = rng.permutation(rng.integers(-3, 4, size=d))
        same = charges[:, None] == charges[None, :]
        h = random_hermitian(d, rng).matrix * same
        sectors = core.ChargeSectors(charges)
        assert sorted(np.concatenate(sectors.index)) == list(range(d))
        rows, cols = np.nonzero(h)
        blocks, leak = sectors.split(rows, cols, h[rows, cols])
        assert leak == 0.0
        fn = lambda x: np.exp(-0.7j * x)
        u = sectors.function(blocks, fn)
        dense = core.hermitian_function(h, fn)
        for idx, b in zip(sectors.index, u):
            assert np.abs(dense[np.ix_(idx, idx)] - b).max() <= 1e-12
        rho = random_density(d, rng).matrix
        given = rho.copy()
        got = sectors.conjugate(u, given)
        assert got is given     # overwritten in place
        assert np.abs(got - dense @ rho @ dense.conj().T).max() <= 1e-12
        # one entry between sectors is left out of the blocks and reported
        if len(sectors.index) > 1:
            r, c = sectors.index[0][0], sectors.index[1][0]
            _, leak = sectors.split(np.append(rows, r), np.append(cols, c),
                                    np.append(h[rows, cols], 3e-4))
            assert leak == 3e-4


def test_charge_sectors_shifted_blocks():
    # a^2 on one mode lowers the charge n by 2: block q maps sector q to q - 2
    n = 6
    a2 = np.diag(np.sqrt(np.arange(1, n)), 1) @ np.diag(np.sqrt(np.arange(1, n)), 1)
    sectors = core.ChargeSectors(np.arange(n))
    rows, cols = np.nonzero(a2)
    blocks, leak = sectors.split(rows, cols, a2[rows, cols], shift=-2)
    assert leak == 0.0
    assert [b.shape for b in blocks] == [(0, 1), (0, 1)] + [(1, 1)] * (n - 2)
    assert [b[0, 0] for b in blocks[2:]] == list(a2[np.arange(n - 2), np.arange(2, n)])
    _, leak = sectors.split(rows, cols, a2[rows, cols])
    assert leak == a2.max()
    with pytest.raises(CoreError):
        core.ChargeSectors(np.arange(n) * 0.5)
