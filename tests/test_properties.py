"""Property tests on generated inputs (hypothesis, derandomized, no example
database): the invariants hold on drawn instances, not only on seeds."""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings, strategies as st

import scipy.linalg

from entroprod import (classical as cl, collisional as cm, core, episodes as eps,
                       lindblad as lb, resource as rs, trajectories as tj)
from entroprod.core import (CoreError, DensityOperator, HermitianOperator, UnitaryOperator,
                            _petz_renyi, _unitary, kraus_superop, partial_trace,
                            relative_entropy, renyi_divergence, tensor, thermal_state,
                            von_neumann_entropy)
from entroprod.resource import classical_renyi_divergence
from entroprod.rand import (density_matrices, ginibre, haar_unitaries, random_density,
                            random_unitary)

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

letter = st.fixed_dictionaries({
    "dim": st.integers(2, 3),
    "state": st.sampled_from(["thermal", "mixed", "pure"]),
    "exchange": st.booleans(),
})
collision = st.fixed_dictionaries({
    "dim_system": st.integers(2, 3),
    "letters": st.lists(letter, min_size=1, max_size=3),
    "system_unitaries": st.booleans(),
    "n_strokes": st.integers(1, 9),
    "seed": st.integers(0, 2**32 - 1),
})


def build(draw):
    """A collision spec and initial state from a drawn description.  A
    letter with equal dimensions may use the partial swap, S and A with the
    same Hamiltonian, which turns on the tier-3 fixed-point sigma.  A mixed
    ancilla carries no beta."""
    rng = np.random.default_rng(draw["seed"])
    ds = draw["dim_system"]
    strokes, hs = [], []
    for spec in draw["letters"]:
        da = spec["dim"]
        gaps = np.sort(rng.uniform(0.0, 2.0, max(ds, da)))
        h_a = HermitianOperator.from_matrix(np.diag(gaps[:da]))
        h_s = HermitianOperator.from_matrix(np.diag(gaps[:ds]))
        beta = float(rng.uniform(0.2, 2.0))
        if spec["state"] == "thermal":
            rho_a = thermal_state(h_a, beta)
        elif spec["state"] == "mixed":
            rho_a = random_density(da, rng)
        else:
            rho_a = DensityOperator.pure(rng.normal(size=da) + 1j * rng.normal(size=da))
            beta = None
        if spec["exchange"] and ds == da:
            # exp(-i g SWAP) conserves H x 1 + 1 x H
            swap = np.eye(ds * ds)[[j * ds + i for i in range(ds) for j in range(ds)]]
            g = rng.uniform(0.1, 1.5)
            u = UnitaryOperator.from_matrix(math.cos(g) * np.eye(ds * ds)
                                            - 1j * math.sin(g) * swap, (ds, ds))
        else:
            u = random_unitary(ds * da, rng, dims=(ds, da))
        if spec["state"] == "mixed":
            # a drawn state is not Gibbs: declaring its beta is an error
            with pytest.raises(cm.CollisionalError, match="ancilla is not thermal"):
                cm.AncillaStroke(rho_a, h_a, u, beta)
            beta = None
        strokes.append(cm.AncillaStroke(rho_a, h_a, u, beta))
        hs.append(h_s)
    us = None
    if draw["system_unitaries"]:
        us = tuple(random_unitary(ds, rng) for _ in strokes)
    spec = cm.CollisionSpec(tuple(strokes), tuple(hs), us)
    return spec, random_density(ds, rng)


def stroke_by_stroke(spec, rho0, n_strokes):
    """The chain as one Episode and one `episodes.balance` per stroke."""
    rho, states, rows = rho0, [rho0], []
    for n in range(n_strokes):
        stroke, h_now, h_next = spec.stroke(n), spec.h_at(n), spec.h_at(n + 1)
        ep = eps.Episode(h_now, stroke.hamiltonian, stroke.unitary, rho, stroke.rho)
        bal = eps.balance(ep)
        mid = eps.evolve(ep).rho_system
        u = spec.u_at(n)
        nxt = mid if u is None else DensityOperator(
            u.matrix @ mid.matrix @ u.matrix.conj().T, mid.dims)
        e_now, e_mid, e_next = (float(np.real(np.trace(h.matrix @ r.matrix)))
                                for h, r in ((h_now, rho), (h_now, mid), (h_next, nxt)))
        sigma_t = None if stroke.beta is None else bal.d_entropy_system + stroke.beta * bal.heat_env
        sigma_f = None
        if stroke.beta is not None and eps.is_strict_energy_conserving(
                stroke.unitary, h_now, stroke.hamiltonian)[0]:
            sigma_f = eps.fixed_point_sigma(rho, mid, thermal_state(h_now, stroke.beta))
        rows.append((bal.heat_env, e_next - e_now, bal.work, e_next - e_mid, bal.sigma,
                     sigma_t, sigma_f))
        states.append(nxt)
        rho = nxt
    return states, rows


def same(a, b, tol):
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def assert_run_is_stroke_by_stroke(spec, rho0, n):
    states, records = cm.run(spec, rho0, n)
    want_states, want_rows = stroke_by_stroke(spec, rho0, n)
    assert len(states) == n + 1 and len(records) == n
    for got, want in zip(states, want_states):
        assert np.abs(got.matrix - want.matrix).max() <= 1e-12
        assert np.abs(got.eig()[0] - want.eig()[0]).max() <= 1e-12
    for rec, want in zip(records, want_rows):
        got = (rec.q_ancilla, rec.d_h_system, rec.w_onoff, rec.w_unitary,
               rec.sigma_general, rec.sigma_thermal, rec.sigma_fixed_point)
        assert all(same(x, y, 1e-12) for x, y in zip(got, want)), (got, want)
        assert abs(rec.first_law_residual) <= 1e-12
        assert rec.sigma_general >= -1e-12


@PROPERTY
@given(collision)
def test_stacked_run_is_the_stroke_by_stroke_balance(draw):
    assert_run_is_stroke_by_stroke(*build(draw), draw["n_strokes"])


def test_long_chain_is_the_stroke_by_stroke_balance():
    # 200 strokes stepped by the stroke channels: a pure qutrit ancilla
    # (whose zero weights `ancilla_kraus` drops) and a thermal partial swap,
    # each followed by a system unitary
    letters = [{"dim": 3, "state": "pure", "exchange": False},
               {"dim": 2, "state": "thermal", "exchange": True}]
    draw = {"dim_system": 2, "letters": letters, "system_unitaries": True, "seed": 3}
    assert_run_is_stroke_by_stroke(*build(draw), 200)


def test_one_letter_chain_reaches_the_limit_cycle():
    letters = [{"dim": 2, "state": "mixed", "exchange": False}]
    spec, rho0 = build({"dim_system": 2, "letters": letters, "system_unitaries": True,
                        "seed": 3})
    states, _ = cm.run(spec, rho0, 200)
    assert np.abs(states[-1].matrix - cm.limit_cycle(spec).matrix).max() <= 1e-10


@PROPERTY
@given(collision, st.data())
def test_doubled_chain_is_the_sequential_loop(draw, data):
    # rho_0 .. rho_n by powers of the cycle channel against one stroke channel per
    # state, at the lengths around one cycle and at 200 strokes
    spec, rho0 = build(draw)
    length = len(spec.alphabet)
    n = data.draw(st.sampled_from(sorted({1, length - 1, length, length + 1, 200} - {0})))
    vecs = [core.vec(rho0.matrix)]
    for k in range(n):
        vecs.append(spec._channels[k % length] @ vecs[-1])
    want = np.array([core.unvec(v) for v in vecs[1:]])
    want /= np.trace(want, axis1=1, axis2=2)[:, None, None]
    states = cm._chain(spec, rho0, n)
    assert len(states) == n + 1 and states.dims == rho0.dims
    for row, kept in zip((states.matrices, states.weights, states.vectors),
                         (rho0.matrix,) + rho0.eig()):
        assert np.array_equal(row[0], kept)
    assert np.abs(states.matrices[1:] - want).max() <= 1e-14
    assert np.abs(states.weights[1:] - np.linalg.eigvalsh(want)).max() <= 1e-14


def exact_levels(m):
    """The two levels of each Hermitian 2 x 2 matrix (lower triangle), from its float
    entries in 50-digit decimal arithmetic, rounded once to floats."""
    out = []
    with localcontext() as context:
        context.prec = 50
        for row in m.reshape(-1, 2, 2).astype(complex):
            a, d = Decimal(row[0, 0].real), Decimal(row[1, 1].real)
            b2 = Decimal(row[1, 0].real) ** 2 + Decimal(row[1, 0].imag) ** 2
            r = (((a - d) / 2) ** 2 + b2).sqrt()
            out.append([float((a + d) / 2 - r), float((a + d) / 2 + r)])
    return np.array(out).reshape(m.shape[:-1])


qubit_stack = st.fixed_dictionaries({
    "rows": st.integers(core._CLOSED_FORM_ROWS, 64),
    "kind": st.sampled_from(["complex", "real", "degenerate", "diagonal", "near-pure",
                             "scaled"]),
    "seed": st.integers(0, 2**32 - 1),
})


def draw_qubit_stack(draw):
    """A stack of Hermitian 2 x 2 matrices of one kind: complex or real (float) entries, equal
    diagonals, diagonal (either order, some equal), states with a weight <= 1e-15, or
    complex rows scaled by 10^-100 .. 10^100."""
    rng, n = np.random.default_rng(draw["seed"]), draw["rows"]
    x = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)) * (draw["kind"] != "real")
    if draw["kind"] == "near-pure":
        basis = haar_unitaries(ginibre(rng, (n, 2, 2)))
        small = 10.0 ** rng.uniform(-18.0, -15.0, n)
        x = (basis * np.stack([1.0 - small, small], -1)[:, None, :]) @ basis.conj().swapaxes(1, 2)
    m = (x + x.conj().swapaxes(1, 2)) / 2.0
    if draw["kind"] == "degenerate":
        m[:, 1, 1] = m[:, 0, 0]
    if draw["kind"] == "diagonal":
        m[:, 1, 0] = m[:, 0, 1] = 0.0
        m[::3, 1, 1] = m[::3, 0, 0]
    if draw["kind"] == "scaled":
        m *= 10.0 ** rng.uniform(-100.0, 100.0, (n, 1, 1))
    return m.real if draw["kind"] == "real" else m


@PROPERTY
@given(qubit_stack)
def test_closed_form_is_the_hermitian_decomposition(draw):
    # the levels within 4 eps max|m| of the exact ones (LAPACK's own differ from those by
    # up to about 5.5 eps max|m|, so it is held to the sum of both), the eigenvectors an
    # orthonormal basis of each matrix, and diagonal input read exactly
    m = draw_qubit_stack(draw)
    eps, scale = np.finfo(float).eps, np.abs(m).max(axis=(1, 2))
    vals, vecs = core._eigh(m)
    assert np.array_equal(core._eigvalsh(m), vals)
    assert (np.diff(vals, axis=-1) >= 0.0).all()
    assert (np.abs(vals - exact_levels(m)).max(-1) <= 4 * eps * scale).all()
    assert (np.abs(vals - np.linalg.eigvalsh(m)).max(-1) <= 10 * eps * scale).all()
    residual = np.abs(m @ vecs - vecs * vals[:, None, :]).max(axis=(1, 2))
    assert (residual <= 4 * eps * scale).all()
    gram = vecs.conj().swapaxes(1, 2) @ vecs
    assert np.abs(gram - np.eye(2)).max() <= 4 * eps
    if draw["kind"] == "diagonal":
        assert np.array_equal(vals, np.sort(m.real.diagonal(axis1=1, axis2=2), -1))
        low_first = (m[:, 0, 0].real <= m[:, 1, 1].real)[:, None, None]
        assert np.array_equal(np.abs(vecs), np.where(low_first, np.eye(2), 1.0 - np.eye(2)))
        assert np.array_equal(vecs[low_first[:, 0, 0]].real, np.eye(2)[None].repeat(
            int(low_first.sum()), 0))


def test_short_and_single_stacks_stay_on_lapack():
    # one matrix, a stack below the crossover and every size but 2 x 2: LAPACK's bits
    rng = np.random.default_rng(38)
    for shape in [(2, 2), (core._CLOSED_FORM_ROWS - 1, 2, 2), (40, 3, 3), (1, 2, 2)]:
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        m = (x + x.conj().swapaxes(-1, -2)) / 2.0
        for got, want in zip(core._eigh(m), np.linalg.eigh(m)):
            assert np.array_equal(got, want)
        assert np.array_equal(core._eigvalsh(m), np.linalg.eigvalsh(m))


weights = st.lists(st.integers(0, 4), min_size=1, max_size=5)


@PROPERTY
@given(st.data(), weights)
def test_classical_divergences_are_the_diagonal_case(data, raw_p):
    # probability vectors with zeros, against diagonal density matrices
    raw_q = data.draw(st.lists(st.integers(0, 4), min_size=len(raw_p), max_size=len(raw_p)))
    raw_p[0] += sum(raw_p) == 0             # at least one positive weight each
    raw_q[-1] += sum(raw_q) == 0
    p, q = np.array(raw_p) / sum(raw_p), np.array(raw_q) / sum(raw_q)
    for alpha in (0.0, 0.5, 1.0, 2.0, 7.0, math.inf):
        want = renyi_divergence(np.diag(p), np.diag(q), alpha)
        value = classical_renyi_divergence(p, q, alpha)
        assert math.isinf(value) == math.isinf(want), (alpha, value, want)
        assert same(value, want, 1e-12), (alpha, value, want)


episode = st.fixed_dictionaries({
    "dim_system": st.integers(2, 3),
    "dim_env": st.integers(2, 3),
    "deficient": st.sampled_from(["system", "env"]),
    "seed": st.integers(0, 2**32 - 1),
})


@PROPERTY
@given(episode)
def test_ensemble_verdict_survives_round_off(draw):
    # a zero eigenvalue of rho_S or rho_E that comes out as +-1e-17 must not
    # turn <sigma> between +inf and a finite value
    rng = np.random.default_rng(draw["seed"])
    ds, de = draw["dim_system"], draw["dim_env"]
    d = ds if draw["deficient"] == "system" else de
    states = [random_density(ds, rng), random_density(de, rng)]
    states[draw["deficient"] == "env"] = random_density(d, rng, rank=rng.integers(1, d))
    u = random_unitary(ds * de, rng, dims=(ds, de))
    hs, he = (HermitianOperator.from_matrix(np.diag(rng.uniform(0.0, 2.0, n))) for n in (ds, de))
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    z = z + z.conj().T
    z = 1e-17 * (z - np.trace(z).real / d * np.eye(d)) / np.abs(z).max()
    episodes = []
    for sign in (0.0, 1.0, -1.0):
        pair = list(states)
        k = draw["deficient"] == "env"
        pair[k] = DensityOperator(pair[k].matrix + sign * z, pair[k].dims)
        episodes.append(eps.Episode(hs, he, u, *pair))
    for choice in tj.BackwardChoice:
        verdicts = {math.isinf(tj.backward_ensemble(ep, choice).average_sigma())
                    for ep in episodes}
        assert len(verdicts) == 1, choice


@PROPERTY
@given(st.floats(math.log(0.1), math.log(700.0)), st.integers(0, 2**32 - 1))
def test_information_balance_is_clausius_against_a_cold_gibbs_bath(log_beta, seed):
    # Sigma = I + S(rho_E' || rho_E) is dS_S + beta Q_E for rho_E thermal
    # (ln rho_E = -beta H_E - ln Z): a qubit and a thermal qubit (omega = 1)
    # under a Haar U, beta omega drawn on a log scale in [0.1, 700], past where a
    # Gibbs weight e^{-beta omega} falls below the eigensolver round-off cut
    rng = np.random.default_rng(seed)
    beta, h = math.exp(log_beta), HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    ep = eps.Episode(h, h, random_unitary(4, rng, dims=(2, 2)), random_density(2, rng),
                     thermal_state(h, beta))
    assert eps.balance(ep).sigma == pytest.approx(eps.thermal_balance(ep, beta).sigma, rel=1e-10)


@PROPERTY
@given(st.lists(st.floats(math.log(0.1), math.log(700.0)), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_a_stack_of_cold_gibbs_baths_reads_clausius(log_beta_omega, seed):
    # the stack form of the property above: rows of H_E = omega |e><e| with
    # omega drawn in [0.5, 2], beta omega drawn on a log scale in [0.1, 700],
    # and rho_E the thermal_state rows of one stacked call
    rng = np.random.default_rng(seed)
    n = len(log_beta_omega)
    omega = rng.uniform(0.5, 2.0, n)
    beta, h = np.exp(log_beta_omega) / omega, omega[:, None, None] * np.diag([0.0, 1.0])
    z4, z2 = (rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)) for d in (4, 2))
    stack = eps.EpisodeStack.of(h, h, haar_unitaries(z4), density_matrices(z2),
                                thermal_state(h, beta))
    assert stack.balance.sigma == pytest.approx(eps.thermal_balance_rows(stack, beta).sigma,
                                                rel=1e-10)


@PROPERTY
@given(st.sampled_from([(2,), (3,), (2, 2)]), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_joint_state_is_made_from_its_product_spectrum(env_dims, rank, seed):
    # rho_SE' = U (rho_S x rho_E) U^dag is never decomposed: its kept spectrum,
    # the weights p_n q_nu on the columns U (V_S x V_E), is ascending, rebuilds
    # the matrix, is its eigvalsh spectrum and keeps S(rho_SE') = S(rho_S) + S(rho_E);
    # rho_E complex and non-diagonal, rho_S of rank 1 or 2
    rng = np.random.default_rng(seed)
    de = math.prod(env_dims)
    rho_s = random_density(2, rng, rank=rank)
    rho_e = random_density(de, rng, dims=env_dims)
    hs, he = (HermitianOperator.from_matrix(np.diag(rng.uniform(0.0, 2.0, d)), dims)
              for d, dims in ((2, (2,)), (de, env_dims)))
    ep = eps.Episode(hs, he, random_unitary(2 * de, rng, dims=(2,) + env_dims), rho_s, rho_e)
    joint = eps.evolve(ep).rho_joint
    w, v = joint.eig()
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs((v * w) @ v.conj().T - joint.matrix).max() <= 1e-12
    assert np.abs(w - np.linalg.eigvalsh(joint.matrix)).max() <= 1e-12
    assert von_neumann_entropy(joint) == pytest.approx(
        von_neumann_entropy(rho_s) + von_neumann_entropy(rho_e), abs=1e-12)


# clusters on a lattice 0.37 apart, members within 1e-13 max(1, |c|) of the
# centre, so no run can reach from one cluster to the next; +-inf join as is
cluster = st.tuples(st.one_of(st.integers(-20, 20).map(lambda k: 0.37 * k),
                              st.sampled_from([-math.inf, math.inf])),
                    st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 4)),
                             min_size=1, max_size=4))


@PROPERTY
@given(st.lists(cluster, min_size=1, max_size=8))
def test_merged_support_is_one_value_per_run(clusters):
    values, weights = [], []
    for centre, members in clusters:
        for jitter, weight in members:
            spread = 1e-13 * max(1.0, abs(centre)) if math.isfinite(centre) else 0.0
            values.append(centre + jitter * spread)
            weights.append(float(weight))
    weights[0] += sum(weights) == 0
    v, p = np.array(values), np.array(weights) / sum(weights)
    dist = tj.ScalarDistribution.from_samples(v, p)
    x, q = dist.values, dist.probabilities
    assert (q > 0).all() and abs(q.sum() - 1.0) <= 1e-12
    gap = np.diff(x[np.isfinite(x)])
    assert (gap > 1e-10 * np.maximum(1.0, np.abs(x[np.isfinite(x)][1:]))).all()
    assert len(set(x[~np.isfinite(x)])) == (~np.isfinite(x)).sum()
    for inf in (-math.inf, math.inf):                 # no infinity joins a finite value
        assert q[x == inf].sum() == pytest.approx(p[v == inf].sum(), abs=1e-15)
    fin, live = np.isfinite(x), np.isfinite(v) & (p > 0)
    assert abs(np.dot(x[fin], q[fin]) - np.dot(v[live], p[live])) <= 1e-12


def heat_distribution_loop(ep, tol=1e-10):
    """The four-deep transition loop with round(q / tol) buckets."""
    evals_e, evecs_e = np.linalg.eigh(ep.h_env.matrix)
    lam, svecs = ep.rho_system.eig()
    ds, de = ep.rho_system.dim, ep.rho_env.dim
    rho_e_diag = np.real(np.diag(evecs_e.conj().T @ ep.rho_env.matrix @ evecs_e))
    u_t = ep.unitary.matrix.reshape(ds, de, ds, de)
    support = {}
    for j in range(ds):
        for k in range(ds):
            block = np.einsum("a,aibj,b->ij", svecs[:, k].conj(), u_t, svecs[:, j])
            a_kj = math.sqrt(lam[j]) * (evecs_e.conj().T @ block @ evecs_e)
            w = np.abs(a_kj) ** 2 * rho_e_diag[None, :]
            for n in range(de):
                for m in range(de):
                    if w[n, m] < 1e-16:
                        continue
                    q = evals_e[n] - evals_e[m]
                    key = round(q / tol)
                    support[key] = (q, support.get(key, (q, 0.0))[1] + w[n, m])
    values, probs = (np.array(x) for x in zip(*sorted(support.values())))
    return values, probs


@PROPERTY
@given(episode)
def test_heat_distribution_is_the_transition_loop(draw):
    # degenerate environment levels make equal heats from distinct transitions
    rng = np.random.default_rng(draw["seed"])
    ds, de = draw["dim_system"], draw["dim_env"]
    rank = rng.integers(1, ds + 1) if draw["deficient"] == "system" else None
    he = HermitianOperator.from_matrix(np.diag(0.5 * rng.integers(0, 3, de)))
    ep = eps.Episode(HermitianOperator.from_matrix(np.diag(rng.uniform(0.0, 2.0, ds))), he,
                     random_unitary(ds * de, rng, dims=(ds, de)),
                     random_density(ds, rng, rank=rank), random_density(de, rng))
    values, probs, _ = eps.heat_distribution(ep)
    want_v, want_p = heat_distribution_loop(ep)
    assert values.shape == want_v.shape
    assert np.abs(values - want_v).max() <= 1e-12
    assert np.abs(probs - want_p).max() <= 1e-13


@PROPERTY
@given(episode)
def test_pure_environment_bath_reset_keeps_infinite_sigma(draw):
    # paths into the empty levels of a pure rho_E have sigma = +inf under
    # BATH_RESET; merging must not fold them into a finite value
    rng = np.random.default_rng(draw["seed"])
    ds, de = draw["dim_system"], draw["dim_env"]
    hs, he = (HermitianOperator.from_matrix(np.diag(rng.uniform(0.0, 2.0, n))) for n in (ds, de))
    ep = eps.Episode(hs, he, random_unitary(ds * de, rng, dims=(ds, de)),
                     random_density(ds, rng), random_density(de, rng, rank=1))
    ens = tj.backward_ensemble(ep, tj.BackwardChoice.BATH_RESET)
    dist = ens.sigma_distribution()
    assert ens.average_sigma() == math.inf
    assert dist.mean() == math.inf
    assert dist.probabilities[dist.values == math.inf].sum() == pytest.approx(
        ens.p_forward[ens.sigma == math.inf].sum(), abs=1e-15)
    with pytest.raises(tj.TrajectoryError, match="value inf carries probability"):
        dist.cumulants()


stack_draw = st.fixed_dictionaries({
    "env": st.sampled_from([(2,), (3,), (2, 2)]),
    "thermal": st.booleans(),
    "rows": st.integers(1, 4),
    "deficient": st.integers(0, 3),
    "seed": st.integers(0, 2**32 - 1),
})


def build_stack(draw):
    """Episodes of one shape, S a qubit and E of factor dims draw["env"], with
    per-row Hamiltonians, betas and (for a thermal E) bath parts, one bath per
    E factor; a non-thermal E has a pure row, row draw["deficient"] if any.
    Returns the episodes, the same episodes as one validated stack, the betas
    and the bath parts of each row."""
    rng = np.random.default_rng(draw["seed"])
    env = draw["env"]
    de = math.prod(env)
    episodes, betas, parts = [], [], []
    for k in range(draw["rows"]):
        beta = float(rng.uniform(0.3, 2.0))
        h_parts = [np.diag(np.sort(rng.uniform(0.0, 2.0, d))) for d in env]
        h_env = sum(np.kron(np.kron(np.eye(math.prod(env[:i])), h), np.eye(math.prod(env[i + 1:])))
                    for i, h in enumerate(h_parts))
        if draw["thermal"]:
            rho_env = thermal_state(HermitianOperator.from_matrix(h_env, env), beta)
        else:
            rho_env = random_density(de, rng, rank=1 if k == draw["deficient"] else None, dims=env)
        h_s = HermitianOperator.from_matrix(rng.normal() * np.diag([1.0, -1.0])
                                            + rng.normal() * np.array([[0, 1], [1, 0]]))
        episodes.append(eps.Episode(h_s, HermitianOperator.from_matrix(h_env, env),
                                    random_unitary(2 * de, rng, dims=(2,) + env),
                                    random_density(2, rng), rho_env))
        betas.append(beta)
        parts.append([eps.BathPart((i,), HermitianOperator.from_matrix(h), beta)
                      for i, h in enumerate(h_parts)])
    stack = eps.EpisodeStack.of(*(np.array([getattr(ep, name).matrix for ep in episodes])
                                  for name in ("h_system", "h_env", "unitary", "rho_system")),
                                DensityOperator.from_stack(
                                    np.array([ep.rho_env.matrix for ep in episodes]), env))
    return episodes, stack, np.array(betas), parts


def assert_rows(rows, ones):
    """Row k of a row form's record is the one-episode record k, bit for bit."""
    for k, one in enumerate(ones):
        for name, value in vars(one).items():
            row = getattr(rows, name)
            if value is None or (isinstance(row, np.ndarray) and np.isnan(row[k]).all()):
                assert value is None and (row is None or np.isnan(row[k]).all()), name
            else:
                assert np.array_equal(row[k], value), (name, row[k], value)


@PROPERTY
@given(stack_draw)
def test_row_forms_are_the_one_episode_calls(draw):
    # every row form on a stack equals the one-episode call on each row:
    # sigma, flux and heats, each backward choice, and the Landauer bounds
    # as the row form on each episode's own one-row stack
    episodes, stack, betas, parts = build_stack(draw)
    assert_rows(stack.balance, [eps.balance(ep) for ep in episodes])
    for choice in tj.BackwardChoice:
        rows = tj.backward_ensemble_rows(stack, choice)
        ones = [tj.backward_ensemble(ep, choice) for ep in episodes]
        assert np.array_equal(rows.average_sigma(), [e.average_sigma() for e in ones])
        assert np.array_equal(rows.integral_ft(), [e.integral_ft() for e in ones])
    if not draw["thermal"]:
        pure = [k for k, ep in enumerate(episodes) if ep.rho_env.eig()[0][-2] == 0.0]
        assert pure == ([draw["deficient"]] if draw["deficient"] < draw["rows"] else [])
        assert (stack.balance.sigma[pure] == math.inf).all()
        with pytest.raises(eps.EpisodeError, match="not thermal"):
            eps.thermal_balance_rows(stack, betas)
        return
    assert_rows(eps.thermal_balance_rows(stack, betas),
                [eps.thermal_balance(ep, b) for ep, b in zip(episodes, betas)])
    bath_rows = [eps.BathPart((i,), np.array([p[i].hamiltonian.matrix for p in parts]), betas)
                 for i in range(len(draw["env"]))]
    assert_rows(eps.multibath_balance_rows(stack, bath_rows),
                [eps.multibath_balance(ep, p) for ep, p in zip(episodes, parts)])
    landauer = eps.landauer_rows(stack, betas)
    for k, (ep, b) in enumerate(zip(episodes, betas)):
        one = eps.landauer_rows(ep.stack, b)
        for rows, ones in ((vars(landauer), vars(one)), (landauer.satisfied, one.satisfied)):
            for name, value in ones.items():
                if name != "satisfied":
                    assert np.array_equal(rows[name][k], value[0], equal_nan=True), name
    gibbs = DensityOperator.from_stack(
        [thermal_state(ep.h_system, b).matrix for ep, b in zip(episodes, betas)])
    fixed = eps.fixed_point_sigma_rows(stack.rho_system, stack.evolved[1], gibbs)
    assert np.array_equal(fixed, [eps.fixed_point_sigma(ep.rho_system, eps.evolve(ep).rho_system, g)
                                  for ep, g in zip(episodes, gibbs)])


# the orders of the majorization suite's grid
SUITE_ORDERS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, math.inf)


@st.composite
def weight_rows(draw, dim=None):
    """Two (n, d) stacks of probability rows with zero weights, so that
    some rows leave the other's support."""
    d = draw(st.integers(2, 4)) if dim is None else dim
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    p, q = (np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=float) for _ in "pq")
    p[p.sum(-1) == 0, 0] = 1.0
    q[q.sum(-1) == 0, -1] = 1.0
    return p / p.sum(-1, keepdims=True), q / q.sum(-1, keepdims=True)


@PROPERTY
@given(weight_rows(), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_petz_renyi_is_the_one_order_loop(rows, quantum, seed):
    # every order of the grid over a stack, diagonal or with eigenvectors, is
    # the one-order call on each row, bit for bit; sigma's eigenvectors are the
    # identity, so the overlaps are rho's Haar-random eigenvectors
    p, q = rows
    n, d = p.shape
    rho, sigma = (p,), (q,)
    if quantum:
        rng = np.random.default_rng(seed)
        rho += (haar_unitaries(np.array([ginibre(rng, (d, d)) for _ in range(n)])),)
        sigma += (np.broadcast_to(np.eye(d), (n, d, d)),)

    def spectra(x, at):
        return tuple(a[at] for a in x) if quantum else x[0][at]

    grid = (slice(None), None)
    got = _petz_renyi(np.array(SUITE_ORDERS), spectra(rho, grid), spectra(sigma, grid))
    assert got.shape == (n, len(SUITE_ORDERS))
    for k in range(n):
        want = [_petz_renyi(a, spectra(rho, k), spectra(sigma, k)) for a in SUITE_ORDERS]
        assert np.array_equal(got[k], want), (k, got[k], want)
        if not quantum:
            assert np.array_equal(rs.classical_renyi_rows(p[k], q[k], SUITE_ORDERS), want)
            assert [classical_renyi_divergence(p[k], q[k], a) for a in SUITE_ORDERS] == want
    # alpha >= 1 is +inf exactly where a row leaves the support
    leaves = ((q == 0.0) & (p > 0.0)).any(-1)
    if not quantum:
        assert np.array_equal(np.isinf(got[:, 3:]).all(-1), leaves)


def reference_verdict(e, p1, p2, beta):
    """The curve verdict by the textbook route: beta-order by np.lexsort,
    both curves read by np.interp on the union of their breakpoints."""
    curves = []
    for p in (p1, p2):
        order = np.lexsort((np.arange(len(e)), e, -p * np.exp(beta * (e - e.max()))))
        curves.append((np.concatenate([[0.0], np.cumsum(np.exp(-beta * e[order]))]),
                       np.concatenate([[0.0], np.cumsum(p[order])])))
    grid = np.union1d(curves[0][0], curves[1][0])
    v1, v2 = (np.interp(grid, x, y) for x, y in curves)
    scale = max(1.0, float(np.abs(v1).max()))
    first = bool(np.all(v1 >= v2 - rs.CURVE_TOL * scale))
    second = bool(np.all(v2 >= v1 - rs.CURVE_TOL * scale))
    return {(True, True): rs.MajorizationVerdict.EQUIVALENT,
            (True, False): rs.MajorizationVerdict.YES,
            (False, True): rs.MajorizationVerdict.DOMINATED,
            (False, False): rs.MajorizationVerdict.INCOMPARABLE}[first, second]


levels = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=4)
betas = st.sampled_from([0.0, 0.3, 1.0, 2.5])


@PROPERTY
@given(st.data(), levels, betas)
def test_row_forms_are_the_one_pair_calls(data, energies, beta):
    # the thermo-majorization verdict (also against np.interp on the
    # breakpoint union) and, on two levels, the Gibbs-stochastic oracle
    e = np.array(energies)
    p1, p2 = data.draw(weight_rows(len(e)))
    pops = [(rs.EnergyPopulations(e, a), rs.EnergyPopulations(e, b)) for a, b in zip(p1, p2)]
    rows = rs.thermo_majorizes_rows(e, p1, p2, beta)
    assert list(rows) == [rs.thermo_majorizes(a, b, beta) for a, b in pops]
    assert list(rows) == [reference_verdict(e, a, b, beta) for a, b in zip(p1, p2)]
    if len(e) == 2:
        feasible = rs.gibbs_stochastic_feasible_2d_rows(e, p1, p2, beta)
        assert list(feasible) == [rs.gibbs_stochastic_feasible_2d_rows(e, a, b, beta)
                                  for a, b in zip(p1, p2)]


quench = st.fixed_dictionaries({
    "rows": st.integers(1, 4),
    "dim": st.integers(2, 3),
    "pure": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


@PROPERTY
@given(quench)
def test_work_bounds_rows_are_the_one_quench_calls(draw):
    rng = np.random.default_rng(draw["seed"])
    n, d = draw["rows"], draw["dim"]
    g = np.array([ginibre(rng, (d, d)) for _ in range(n)])
    h_f = g + g.conj().swapaxes(-1, -2)
    rho = density_matrices(np.array([ginibre(rng, (d, 1 if draw["pure"] else d))
                                     for _ in range(n)]))
    beta = rng.uniform(0.3, 2.0, n)
    mean_work, delta_f = rng.normal(size=n), rng.normal(size=n)
    eta = np.linspace(0.0, beta, 5, axis=-1)
    rows = rs.work_bounds_rows(h_f, beta, rho, mean_work, delta_f, eta)
    for k in range(n):
        one = rs.work_bounds_rows([h_f[k]], beta[k], [rho[k]], mean_work[k], delta_f[k],
                                  eta[k]).row(0)
        row = rows.row(k)
        for name, value in vars(one).items():
            assert np.array_equal(getattr(row, name), value), (name, getattr(row, name), value)


@PROPERTY
@given(st.integers(0, 64), st.integers(0, 64), betas, st.sampled_from([0.5, 1.0, 3.0]))
def test_curve_verdict_is_the_embedding_verdict(k1, k2, beta, gap):
    # qubit pairs on a grid of 1/64; the embedding rounds the thermal weights
    # to 1e-4, so states within 1e-3 of the thermal state are left out
    e = np.array([0.0, gap])
    ground = rs.EnergyPopulations(e, [1.0, 0.0]).thermal_weights(beta)[0]
    hypothesis.assume(all(abs(k / 64 - ground) > 1e-3 for k in (k1, k2)))
    pops = [rs.EnergyPopulations(e, [k / 64, 1.0 - k / 64]) for k in (k1, k2)]
    embedded = [rs.gamma_embed(pop, beta, 10_000)[0] for pop in pops]
    assert (rs.majorization_verdict(*embedded, tol=1e-9)
            is rs.thermo_majorizes(*pops, beta))


thermal_stack = st.fixed_dictionaries({
    "env": st.sampled_from([(2,), (3,), (2, 2), (2, 3)]),
    "thermal": st.just(True),
    "rows": st.integers(1, 4),
    "deficient": st.just(0),
    "seed": st.integers(0, 2**32 - 1),
})


@PROPERTY
@given(thermal_stack)
def test_multibath_reads_the_kept_marginals(draw):
    # one part over all of E is the thermal balance bit for bit; a part per
    # factor matches a partial trace of each episode's own states
    episodes, stack, betas, parts = build_stack(draw)
    thermal = eps.thermal_balance_rows(stack, betas)
    whole = eps.multibath_balance_rows(
        stack, [eps.BathPart(tuple(range(len(draw["env"]))), stack.h_env, betas)])
    for name in ("sigma", "heat_env", "flux", "env_displacement"):
        assert np.array_equal(getattr(whole, name), getattr(thermal, name)), name
    if len(draw["env"]) == 1:
        return
    rows = eps.multibath_balance_rows(stack, [
        eps.BathPart((i,), np.array([p[i].hamiltonian.matrix for p in parts]), betas)
        for i in range(len(draw["env"]))])
    for k, ep in enumerate(episodes):
        joint = eps.evolve(ep).rho_joint
        heats, displacement, entropies = [], 0.0, 0.0
        for i, part in enumerate(parts[k]):
            before, after = partial_trace(ep.rho_env, [i]), partial_trace(joint, [1 + i])
            heats.append(float(np.real(np.trace(part.hamiltonian.matrix
                                                 @ (after.matrix - before.matrix)))))
            displacement += relative_entropy(after, before)
            entropies += von_neumann_entropy(after)
        sigma = thermal.d_entropy_system[k] + betas[k] * sum(heats)
        correlations = (von_neumann_entropy(partial_trace(joint, [0])) + entropies
                        - von_neumann_entropy(joint))
        for got, want in ((rows.heat_per_bath[k], heats), (rows.sigma[k], sigma),
                          (rows.env_displacement[k], displacement),
                          (rows.total_correlations[k], correlations)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def hamiltonians(rng, d, levels):
    """H = W diag(levels) W^dag for a Haar-random W: repeated levels are
    degenerate eigenspaces in a random basis."""
    w = random_unitary(d, rng).matrix
    return (w * np.asarray(levels, dtype=float)) @ w.conj().T


work_quench = st.fixed_dictionaries({
    "initial": st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=4),
    "final": st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.5]), min_size=4, max_size=4),
    "beta": st.sampled_from([0.3, 1.0, 2.5]),
    "protocol": st.booleans(),
    "rows": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
})


@PROPERTY
@given(work_quench)
def test_work_rows_match_the_decomposed_states(draw):
    # lag, <W> and dF from the spectra the quench already holds, against
    # Gibbs matrices by expm and the relative entropy of their eigh; row k
    # of a stack is the one-quench work_distribution
    rng = np.random.default_rng(draw["seed"])
    d, beta, n = len(draw["initial"]), draw["beta"], draw["rows"]
    h_i = np.array([hamiltonians(rng, d, draw["initial"]) for _ in range(n)])
    h_f = np.array([hamiltonians(rng, d, draw["final"][:d]) for _ in range(n)])
    v = np.array([random_unitary(d, rng).matrix if draw["protocol"] else np.eye(d)
                  for _ in range(n)])
    rows = tj.work_rows(h_i, h_f, v, beta)
    for k in range(n):
        rho_i, rho_f = (scipy.linalg.expm(-beta * h) for h in (h_i[k], h_f[k]))
        z_i, z_f = (float(np.real(np.trace(r))) for r in (rho_i, rho_f))
        rho_i, rho_f = rho_i / z_i, rho_f / z_f
        evolved = v[k] @ rho_i @ v[k].conj().T
        want = {"lag": relative_entropy(evolved, rho_f),
                "mean_work": float(np.real(np.trace(h_f[k] @ evolved) - np.trace(h_i[k] @ rho_i))),
                "delta_f": (math.log(z_i) - math.log(z_f)) / beta}
        one = tj.work_distribution(h_i[k], h_f[k], v[k], beta)
        for name, value in want.items():
            assert abs(getattr(rows, name)[k] - value) <= 1e-13, (name, getattr(rows, name)[k], value)
            assert getattr(one, name) == getattr(rows, name)[k], name


_GL64 = np.polynomial.legendre.leggauss(64)


def gauss_legendre(fn, a, b):
    """The 64-node Gauss-Legendre rule of fn on [a, b]."""
    nodes, weights = _GL64
    half = 0.5 * (b - a)
    return half * np.sum(weights * fn(half * nodes + 0.5 * (a + b)))


level_pair = st.tuples(
    st.sampled_from(["equal", "near", "zero", "free"]),
    st.floats(1e-6, 1.0), st.floats(1e-6, 1.0), st.floats(-1e-8, 1e-8))


@PROPERTY
@given(level_pair, st.floats(0.0, 1.0))
def test_closed_form_y_integrals_are_the_quadrature(pair, lam):
    # int_x^(1-x) a^y b^(1-y) dy over [0, 1] (the logarithmic mean) and over
    # x in [0, lam] against nested 64-node rules: at r = a/b = 1, at
    # |ln r| < 1e-8 and with a zero weight
    kind, a, b, tiny = pair
    a = {"equal": b, "near": b * math.exp(tiny), "zero": 0.0, "free": a}[kind]
    vals = np.array([a, b])

    def inner(x):
        return np.array([gauss_legendre(lambda y: a ** y * b ** (1.0 - y), t, 1.0 - t)
                         for t in np.atleast_1d(x)])

    for closed, want in ((tj._log_mean(vals), inner(0.0)[0]),
                         (tj._xy_integral(vals, lam), gauss_legendre(inner, 0.0, lam))):
        assert abs(closed[0, 1] - want) <= 1e-13 and closed[0, 1] == closed[1, 0], (closed, want)
    assert np.array_equal(np.diag(tj._log_mean(vals)), vals)


@st.composite
def trace_pair(draw):
    """Two complex stacks (n, d, d), one of them (d, d) when `broadcast`."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (np.array([ginibre(rng, (d, d)) for _ in range(n)]) * 10.0 ** rng.integers(-3, 4)
            for _ in "ab")
    return (a[0] if draw(st.booleans()) else a), b


@PROPERTY
@given(trace_pair())
def test_trace_rows_is_the_trace_of_the_product(pair):
    # Re Tr(ab) as one contraction, against the trace of the product matrix,
    # within 4 ulp of the scale sum_ij |a_ij b_ji|
    a, b = pair
    got = eps._trace_rows(a, b)
    want = np.real(np.trace(a @ b, axis1=-2, axis2=-1))
    scale = np.einsum("...ij,...ji->...", np.abs(a), np.abs(b))
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 4 * np.finfo(float).eps * scale).all()


def head_backward_ensemble(stack, choice):
    """The ensemble by one fresh transition build per call, each choice
    from its own final basis: (p_forward, p_backward, sigma)."""
    ds, de = stack.rho_system.dims.total, stack.rho_env.dims.total
    joint, (ps_fin, vs_fin), (qe_fin, ve_fin) = (stack.evolved[0].matrices,
                                                 *(rows.eig() for rows in stack.evolved[1:]))
    (p_init, vs_init), (q_init, ve_init) = stack.rho_system.eig(), stack.rho_env.eig()
    outer = lambda a, b: a[..., :, None] * b[..., None, :]
    basis_s, basis_e, ref = {
        tj.BackwardChoice.BATH_RESET: (vs_fin, ve_init, outer(ps_fin, q_init)),
        tj.BackwardChoice.CORRELATIONS_DESTROYED: (vs_fin, ve_fin, outer(ps_fin, qe_fin)),
        tj.BackwardChoice.POST_MEASUREMENT_STATE: (vs_fin, ve_fin, np.maximum(tj.populations(
            joint, tensor([vs_fin, ve_fin])), 0.0).reshape(-1, ds, de)),
        tj.BackwardChoice.BOTH_RESET: (vs_init, ve_init, outer(p_init, q_init)),
    }[choice]
    final = tensor([basis_s, basis_e]).conj().swapaxes(-1, -2)
    w = np.abs(final @ stack.unitary @ tensor([vs_init, ve_init])) ** 2
    w = w.reshape(-1, ds, de, ds, de)
    ref = ref[..., None, None]
    pf, pb = w * p_init[:, None, None, :, None] * q_init[:, None, None, None, :], w * ref
    with np.errstate(divide="ignore"):
        sigma = np.where(pf > 0.0, np.where(pb > 0.0, np.log(
            outer(p_init, q_init)[:, None, None] / np.where(pb > 0.0, ref, 1.0)), math.inf), 0.0)
    return pf, pb, sigma


def kind_of_state(rng, d, kind):
    """A mixed, maximally mixed (degenerate) or rank-one state of dimension d."""
    return {"mixed": lambda: random_density(d, rng).matrix,
            "degenerate": lambda: np.eye(d) / d,
            "rank-one": lambda: random_density(d, rng, rank=1).matrix}[kind]()


state_kind = st.sampled_from(["mixed", "degenerate", "rank-one"])


@PROPERTY
@given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.lists(st.tuples(state_kind, state_kind),
                                                            min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_kept_transitions_are_the_per_choice_build(dims, kinds, seed):
    # every choice's ensemble from the transitions kept per final basis
    # equals one fresh build per choice within 1e-15, degenerate and
    # rank-deficient rho_S and rho_E included
    rng = np.random.default_rng(seed)
    ds, de = dims
    n = len(kinds)
    stack = eps.EpisodeStack.of(
        np.array([np.diag(rng.uniform(0, 2, ds)) for _ in range(n)]),
        np.array([np.diag(rng.uniform(0, 2, de)) for _ in range(n)]),
        np.array([random_unitary(ds * de, rng).matrix for _ in range(n)]),
        np.array([kind_of_state(rng, ds, s) for s, _ in kinds]),
        np.array([kind_of_state(rng, de, e) for _, e in kinds]))
    for choice in tj.BackwardChoice:
        got = tj.backward_ensemble_rows(stack, choice)
        for new, old in zip((got.p_forward, got.p_backward, got.sigma),
                            head_backward_ensemble(stack, choice)):
            assert np.array_equal(np.isinf(new), np.isinf(old)), choice
            finite = np.isfinite(old)
            assert np.abs(new[finite] - old[finite]).max() <= 1e-15, choice


def two_cumsum_verdict(gamma1, gamma2, tol):
    """Plain majorization from the two descending partial sums."""
    a, b = (np.cumsum(np.sort(g)[::-1]) for g in (gamma1, gamma2))
    return {(True, True): rs.MajorizationVerdict.EQUIVALENT,
            (True, False): rs.MajorizationVerdict.YES,
            (False, True): rs.MajorizationVerdict.DOMINATED,
            (False, False): rs.MajorizationVerdict.INCOMPARABLE}[
        bool(np.all(a >= b - tol)), bool(np.all(b >= a - tol))]


@PROPERTY
@given(st.integers(1, 40), st.sampled_from([0.0, 1e-12, 1e-9]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_one_cumsum_verdict_is_the_two_cumsum_verdict(d, tol, equal, seed):
    # the partial sums of the sorted difference give the verdict of the two
    # partial sums wherever no partial-sum gap lies within 1e-13 of +-tol
    rng = np.random.default_rng(seed)
    g1 = rng.dirichlet(np.ones(d))
    g2 = rng.permutation(g1) if equal else rng.dirichlet(np.ones(d) * rng.uniform(0.2, 5.0))
    gap = np.cumsum(np.sort(g1)[::-1]) - np.cumsum(np.sort(g2)[::-1])
    hypothesis.assume(np.abs(np.abs(gap) - tol).min() > 1e-13 or equal)
    assert rs.majorization_verdict(g1, g2, tol) is two_cumsum_verdict(g1, g2, tol)


def largest_remainders(weights, denominators):
    """Counts k with k/D near the weights (..., d), one row per entry of
    denominators (..., 1): the floors of D w, plus one each for the
    largest fractions until they sum to D."""
    raw = weights * denominators
    counts = np.floor(raw).astype(int)
    order = np.argsort(-(raw - counts), -1)
    extra = np.arange(raw.shape[-1]) < denominators - counts.sum(-1, keepdims=True)
    np.put_along_axis(counts, order, np.take_along_axis(counts, order, -1) + extra, -1)
    return counts


@PROPERTY
@given(st.data(), st.integers(2, 5), st.booleans())
def test_embedding_rows_are_the_materialized_verdicts(data, d, equal):
    # every row pair written out as its D entries, sorted, and compared by
    # its two partial sums, from the smallest D that gives every level an
    # entry up to 10 000; draws with a partial-sum gap within 1e-13 of
    # +-MAJORIZATION_TOL are left out
    tol = rs.MAJORIZATION_TOL
    e = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                    min_size=d, max_size=d)))
    p1, p2 = data.draw(weight_rows(d))
    p2 = p1 if equal else p2
    beta = np.array(data.draw(st.lists(betas, min_size=len(p1), max_size=len(p1))))
    gibbs = np.exp(-beta[:, None] * (e - e.min()))
    gibbs /= gibbs.sum(-1, keepdims=True)
    every = np.arange(1, 10_001)[:, None, None]
    resolved = (largest_remainders(gibbs, every) >= 1).all((-2, -1))
    denominator = data.draw(st.integers(int(every[resolved.argmax(), 0, 0]), 10_000))
    counts = largest_remainders(gibbs, denominator)
    if counts.min() < 1:                  # largest remainders need not resolve a larger D
        with pytest.raises(rs.ResourceError, match="too small"):
            rs.embedding_verdict_rows(e, p1, p2, beta, denominator)
        return
    embedded = [[np.repeat(p / k, k) for p, k in zip(rows, counts)] for rows in (p1, p2)]
    for g1, g2 in zip(*embedded):
        gap = np.cumsum(np.sort(g1)[::-1]) - np.cumsum(np.sort(g2)[::-1])
        hypothesis.assume(np.abs(np.abs(gap) - tol).min() > 1e-13 or equal)
    assert list(rs.embedding_verdict_rows(e, p1, p2, beta, denominator)) == \
        [two_cumsum_verdict(g1, g2, tol) for g1, g2 in zip(*embedded)]


@PROPERTY
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
def test_energy_populations_are_read_only_copies(weights, seed):
    rng = np.random.default_rng(seed)
    p = np.array(weights) + 1e-3
    p /= p.sum()
    e = rng.uniform(-1.0, 1.0, len(p))
    pop = rs.EnergyPopulations(e, p)
    for name in ("probabilities", "energies"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(pop, name)[0] = 0.5
    p[0], e[0] = 7.0, 7.0                 # the caller's arrays are not the kept ones
    assert pop.probabilities[0] != 7.0 and pop.energies[0] != 7.0


@PROPERTY
@given(st.integers(2, 4), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_kraus_superop_is_the_kron_sum(d, n, seed):
    # one stacked tensor summed over the Kraus axis gives the bits of the
    # Python sum of np.kron terms
    rng = np.random.default_rng(seed)
    kraus = np.array([ginibre(rng, (d, d)) for _ in range(n)])
    want = sum(np.kron(k.conj(), k) for k in kraus)
    assert np.array_equal(kraus_superop(kraus), want)


lindblad_model = st.fixed_dictionaries({
    "dim": st.integers(2, 4),
    "n_jumps": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(PROPERTY, max_examples=40)
@given(lindblad_model)
def test_drawn_lindblad_models_keep_the_trace_and_reach_a_steady_state(draw):
    # a random Hermitian H and 1-3 Ginibre jumps with random rates; the 40
    # derandomized examples take about 0.2 s
    rng = np.random.default_rng(draw["seed"])
    d = draw["dim"]
    h = ginibre(rng, (d, d))
    h = h + h.conj().T
    jumps = tuple((ginibre(rng, (d, d)), float(rng.uniform(0.1, 2.0)))
                  for _ in range(draw["n_jumps"]))
    gen = lb.build(lb.LindbladModel(h, jumps))
    assert lb.trace_preservation_residual(gen) <= 1e-12
    rho = lb.steady_state(lb.LindbladModel(h, jumps))
    assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
    assert np.abs(lb.apply_superop(gen, rho)).max() <= 1e-8
    h[0, -1] += 1.0                       # the same H, no longer Hermitian
    with pytest.raises(lb.LindbladError, match="not Hermitian"):
        lb.LindbladModel(h, jumps)


class _Rejected(ValueError):
    """The caller's error class handed to `core._unitary`."""


@settings(PROPERTY, max_examples=50)
@given(st.integers(1, 4), st.lists(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6]),
                                   min_size=1, max_size=3),
       st.sampled_from(["none", "nan", "non-square"]), st.integers(0, 2**32 - 1))
def test_bare_unitaries_pass_exactly_the_unitary_operator_check(d, scales, defect, seed):
    # a stack of Haar unitaries, each scaled by 1 + eps, maybe with a NaN
    # entry or a column too many: core._unitary raises the caller's error
    # exactly when UnitaryOperator rejects some matrix of the stack, else it
    # returns the stack as a read-only copy; 50 examples, about 0.2 s
    rng = np.random.default_rng(seed)
    stack = haar_unitaries(np.array([ginibre(rng, (d, d)) for _ in scales]))
    stack = stack * (1.0 + np.array(scales))[:, None, None]
    if defect == "nan":
        stack[tuple(rng.integers(n) for n in stack.shape)] = math.nan
    elif defect == "non-square":
        stack = np.concatenate([stack, stack[..., :1]], axis=-1)

    def accepted(m):
        try:
            UnitaryOperator.from_matrix(m)
        except CoreError:
            return False
        return True

    for m, ok in [(stack, all(map(accepted, stack)))] + [(m, accepted(m)) for m in stack]:
        if ok:
            got = _unitary(m, _Rejected)
            assert np.array_equal(got, m) and not got.flags.writeable
        else:
            with pytest.raises(_Rejected):
                _unitary(m, _Rejected)
    op = UnitaryOperator.from_matrix(haar_unitaries(ginibre(rng, (d, d))))
    assert _unitary(op, _Rejected) is op.matrix


@st.composite
def rate_matrices(draw):
    """An irreducible generator on 2-6 states, with both directions of every
    edge of a random spanning tree and of some further pairs, and a drawn p.
    With `balanced` the rates are K_ij sqrt(pi_i / pi_j) for a symmetric K,
    so W_ij pi_j = W_ji pi_i: detailed balance with the stationary pi."""
    n, balanced = draw(st.integers(2, 6)), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.zeros((n, n), dtype=bool)
    for k in range(1, n):
        edges[k, rng.integers(k)] = True
    edges |= np.triu(rng.random((n, n)) < 0.4, 1).T
    edges |= edges.T
    if balanced:
        pi = rng.dirichlet(np.ones(n))
        k = np.triu(rng.uniform(0.1, 3.0, (n, n)), 1)
        rates = (k + k.T) * np.sqrt(pi[:, None] / pi[None, :])
    else:
        rates = rng.uniform(0.1, 3.0, (n, n))
    w = cl.RateMatrix.from_offdiagonal(np.where(edges, rates, 0.0))
    return w, rng.dirichlet(np.ones(n)), balanced


@PROPERTY
@given(rate_matrices())
def test_entropy_production_splits_into_two_nonnegative_parts(draw):
    # Sigma = Sigma_na + Sigma_a with both parts >= 0 (Esposito & Van den
    # Broeck, PRL 104, 090601 (2010)): the non-adiabatic part is the KL rate
    # to the stationary distribution, and the split closes under detailed
    # balance; 80 examples, about 0.2 s
    rates, p, balanced = draw
    sigma = cl.schnakenberg(rates, p).sigma_rate
    non_adiabatic = cl.kl_divergence_rate(rates, p, cl.stationary_distribution(rates))
    tol = 1e-12 * max(1.0, sigma)
    assert sigma >= non_adiabatic - tol and non_adiabatic >= -tol
    if balanced:
        assert abs(sigma - non_adiabatic) <= tol


def _dense_schnakenberg(parts, p):
    """The per-reservoir Schnakenberg sum as it was read from dense parts: the
    i < j pairs of each part with a nonzero rate, one at a time (p > 0)."""
    sigma = 0.0
    for part in parts:
        for i, j in zip(*np.nonzero(np.triu(part != 0.0, 1))):
            x, y = part[i, j] * p[j], part[j, i] * p[i]
            sigma += (x - y) * math.log(x / y)
    return sigma


def _dense_sum_rule(w, parts):
    """The reservoir-sum rule as it was written for dense parts: w minus the
    parts within 1e-9 of w's largest rate, entry by entry."""
    rest = w.copy()
    for part in parts:
        rest -= part
    return max(rest.max(), -rest.min()) <= 1e-9 * max(1.0, w.max(), -w.min())


@PROPERTY
@given(rate_matrices(), st.integers(0, 2**32 - 1))
def test_edge_parts_are_the_dense_parts(draw, seed):
    # two reservoirs share the transitions of a drawn generator, each pair of
    # directions wholly in one part or each direction split between both: the parts given
    # dense and given on edges make the same sigma, lumped rate and TUR, the
    # dense per-part loop gives that sigma, and w with rates moved by about the
    # 1e-9 tolerance is accepted or rejected as the dense rule does;
    # 80 examples, about 0.3 s
    rates, p, _ = draw
    n = len(p)
    rng = np.random.default_rng(seed)
    whole = np.triu(rng.integers(0, 3, (n, n)), 1)     # 1, 2: the pair in part 0, 1
    whole += whole.T
    share = np.select([whole == 1, whole == 2], [1.0, 0.0], rng.uniform(0.1, 0.9, (n, n)))
    off = rates.w - np.diag(np.diag(rates.w))
    parts = [off * share, off * (1.0 - share)]
    dense = cl.RateMatrix.from_offdiagonal(parts[0] + parts[1], reservoirs=parts)
    i, j = np.nonzero(parts[0] + parts[1])
    edges = cl.ReservoirEdges(i, j, [part[i, j] for part in parts])
    edged = cl.RateMatrix(dense.w, edges)
    want = cl.multibath_sigma(dense, p)
    assert cl.multibath_sigma(edged, p) == want
    assert abs(want[0] - _dense_schnakenberg(parts, p)) <= 1e-14 * want[0]
    built = cl.RateMatrix.from_edges(n, *edges)
    assert np.abs(built.w - dense.w).max() <= 1e-14 * np.abs(dense.w).max()
    assert abs(cl.multibath_sigma(built, p)[0] - want[0]) <= 1e-14 * want[0]
    counted = [(a, b, 0) for a, b in zip(i, j) if a < b]     # part 0's current
    try:
        tur = cl.tur_check(dense, counted)
    except cl.ClassicalError:           # the counted current vanishes
        with pytest.raises(cl.ClassicalError):
            cl.tur_check(edged, counted)
    else:
        assert cl.tur_check(edged, counted) == tur
    # column c of w gains (a, b, d) steps at rows r, q and on the diagonal; the
    # four patterns isolate each check: the edges, the rates off them and the diagonal
    filled = [part - np.diag(part.sum(axis=0)) for part in parts]
    c = rng.integers(n)
    r, q = rng.choice(np.delete(np.arange(n), c), 2)
    for (a, b, d), factor in itertools.product(
            [(1, 0, -1), (1, -1, 0), (0.5, 0.5, -1), (1, -0.5, -0.5)], [0.5, 0.9999, 1.0001, 3]):
        if b < 0 and (q == r or dense.w[q, c] == 0.0):   # q must be another rate of column c
            continue
        w = dense.w.copy()
        step = factor * 1e-9 * max(1.0, w.max(), -w.min())
        w[r, c] += a * step
        w[q, c] += b * step
        w[c, c] += d * step
        for reservoirs in (filled, edges):
            try:
                cl.RateMatrix(w, reservoirs)
            except cl.ClassicalError:
                assert not _dense_sum_rule(w, filled)
            else:
                assert _dense_sum_rule(w, filled)


lindblad_models = st.fixed_dictionaries({
    "dim": st.integers(2, 4),
    "rates": st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    "seed": st.integers(0, 2**32 - 1),
})


@PROPERTY
@given(lindblad_models)
def test_real_generator_is_the_rotated_complex_generator(draw):
    # the real form built from the model, one column block at a time, is T^dag L T of the
    # complex generator, T the Hermitian basis read column by column from its coordinates
    d = draw["dim"]
    rng = np.random.default_rng(draw["seed"])

    def cmat(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h, g = cmat(d, d), cmat(2, 2)
    model = lb.LindbladModel(h + h.conj().T, tuple((cmat(d, d), r) for r in draw["rates"]),
                             ((cmat(d, d), cmat(d, d)), g + g.conj().T))
    t = np.stack([core.vec(core.from_hermitian_coords(e)) for e in np.eye(d * d)], axis=1)
    real = lb.real_generator(model)
    assert np.abs(real - (t.conj().T @ lb.build(model) @ t).real).max() <= (
        1e-15 * np.abs(real).max())
