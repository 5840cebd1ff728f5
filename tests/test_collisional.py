import dataclasses
import math

import numpy as np
import pytest

from entroprod import collisional as cm, core, episodes as eps
from entroprod.core import (
    DensityOperator,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    UnitaryOperator,
    hermitian_function,
    thermal_state,
    trace_distance,
)
from entroprod.rand import random_density, random_unitary

RNG = np.random.default_rng(314)
OMEGA = 1.0
H_QUBIT = HermitianOperator.from_matrix(OMEGA * np.diag([0.0, 1.0]))


def exchange_unitary(g):
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    return UnitaryOperator.from_matrix(hermitian_function(v, lambda x: np.exp(-1j * x)), (2, 2))


def thermal_stroke(beta, g=0.6):
    return cm.AncillaStroke(thermal_state(H_QUBIT, beta), H_QUBIT,
                            exchange_unitary(g), beta=beta)


def test_run_identity_strokes_all_zero():
    stroke = cm.AncillaStroke(thermal_state(H_QUBIT, 1.0), H_QUBIT,
                              UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                              beta=1.0)
    spec = cm.CollisionSpec((stroke,), (H_QUBIT,))
    _, recs = cm.run(spec, random_density(2, RNG), 3)
    for r in recs:
        assert abs(r.q_ancilla) < 1e-12
        assert abs(r.w_onoff) < 1e-12
        assert abs(r.w_unitary) < 1e-12
        assert abs(r.sigma_general) < 1e-10


def test_run_thermal_operation_tiers_agree():
    beta = 1.3
    spec = cm.CollisionSpec((thermal_stroke(beta),), (H_QUBIT,))
    _, recs = cm.run(spec, random_density(2, RNG), 5)
    for r in recs:
        assert r.sigma_thermal is not None and r.sigma_fixed_point is not None
        assert abs(r.sigma_general - r.sigma_thermal) < 1e-10
        assert abs(r.sigma_general - r.sigma_fixed_point) < 1e-10
        assert abs(r.first_law_residual) < 1e-10


def test_run_converges_to_gibbs_monotonically():
    beta = 1.1
    spec = cm.CollisionSpec((thermal_stroke(beta, g=0.8),), (H_QUBIT,))
    states, _ = cm.run(spec, random_density(2, RNG), 40)
    gibbs = thermal_state(H_QUBIT, beta)
    dists = [trace_distance(s, gibbs) for s in states]
    tail = dists[5:]
    assert all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
    assert dists[-1] < 1e-3


def test_run_verdict_once_per_alphabet_entry(monkeypatch):
    beta = 0.9
    rng = np.random.default_rng(11)
    scrambled = cm.AncillaStroke(thermal_state(H_QUBIT, beta), H_QUBIT,
                                 random_unitary(4, rng, dims=(2, 2)), beta=beta)
    spec = cm.CollisionSpec((thermal_stroke(beta), scrambled), (H_QUBIT, H_QUBIT))
    verdicts = []
    check = cm.is_strict_energy_conserving
    monkeypatch.setattr(cm, "is_strict_energy_conserving",
                        lambda *a: verdicts.append(1) or check(*a))
    _, recs = cm.run(spec, random_density(2, rng), 7)
    assert len(verdicts) == 2
    tier3 = [r.sigma_fixed_point is not None for r in recs]
    assert tier3 == [n % 2 == 0 for n in range(7)]
    assert all(r.sigma_thermal is not None for r in recs)


def test_run_detuned_strokes_lose_tier3():
    beta = 1.0
    h_det = HermitianOperator.from_matrix(1.4 * np.diag([0.0, 1.0]))
    stroke = cm.AncillaStroke(thermal_state(H_QUBIT, beta), H_QUBIT,
                              exchange_unitary(0.6), beta=beta)
    spec = cm.CollisionSpec((stroke,), (h_det,))
    _, recs = cm.run(spec, random_density(2, RNG), 2)
    assert recs[0].sigma_thermal is not None
    assert recs[0].sigma_fixed_point is None


def test_limit_cycle_single_thermal_ancilla():
    beta = 0.9
    spec = cm.CollisionSpec((thermal_stroke(beta),), (H_QUBIT,))
    fixed = cm.limit_cycle(spec)
    assert trace_distance(fixed, thermal_state(H_QUBIT, beta)) < 1e-10


def test_limit_cycle_two_temperature_alphabet():
    spec = cm.CollisionSpec((thermal_stroke(0.5, g=0.7), thermal_stroke(2.0, g=0.7)),
                            (H_QUBIT, H_QUBIT))
    fixed = cm.limit_cycle(spec)
    for beta in (0.5, 2.0):
        assert trace_distance(fixed, thermal_state(H_QUBIT, beta)) > 1e-3
    states, _ = cm.run(spec, fixed, 2)
    assert trace_distance(states[-1], fixed) < 1e-10


def test_limit_cycle_unitary_alphabet_errors():
    # no dissipation: ancilla untouched by an identity coupling while the
    # system rotates; power iteration cannot contract
    u_sys = UnitaryOperator.from_matrix(
        hermitian_function(0.3 * PAULI_X, lambda x: np.exp(-1j * x)))
    stroke = cm.AncillaStroke(thermal_state(H_QUBIT, 1.0), H_QUBIT,
                              UnitaryOperator.from_matrix(np.eye(4), (2, 2)))
    spec = cm.CollisionSpec((stroke,), (H_QUBIT,), (u_sys,))
    with pytest.raises(cm.CollisionalError):
        cm.limit_cycle(spec)


def test_limit_cycle_weak_coupling_is_gibbs():
    # g = 0.1 contracts by only ~1 % per pass; the fixed point is exact anyway
    spec = cm.CollisionSpec((thermal_stroke(1.0, g=0.1),), (H_QUBIT,))
    assert trace_distance(cm.limit_cycle(spec), thermal_state(H_QUBIT, 1.0)) < 1e-12


@pytest.mark.parametrize("ancilla", [DensityOperator.pure([0, 1]),
                                     thermal_state(H_QUBIT, 0.7)])
def test_stroke_channel_matches_the_episode(ancilla):
    # the Kraus-built channel, system unitaries on both sides, against the
    # joint evolution and partial trace of an Episode on d^2 random states,
    # which span the operators of a qutrit
    rng = np.random.default_rng(11)
    h3 = HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.5]))
    u = random_unitary(6, rng, dims=(3, 2))
    after, before = random_unitary(3, rng), random_unitary(3, rng)
    chan = cm._stroke_channel(u, ancilla, after, before)
    starts = [random_density(3, rng) for _ in range(9)]
    assert np.linalg.matrix_rank(np.array([core.vec(r.matrix) for r in starts])) == 9
    for rho in starts:
        turned = DensityOperator(before.matrix @ rho.matrix @ before.matrix.conj().T, rho.dims)
        mid = eps.evolve(eps.Episode(h3, H_QUBIT, u, turned, ancilla)).rho_system.matrix
        assert np.abs(core.unvec(chan @ core.vec(rho.matrix))
                      - after.matrix @ mid @ after.matrix.conj().T).max() < 1e-12


def test_continuous_limit_detailed_balance():
    beta = 1.2
    rho_a = thermal_state(H_QUBIT, beta)
    g = 0.8
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    pieces = cm.continuous_limit(v, rho_a, pairs=[(SIGMA_MINUS, SIGMA_MINUS, g)])
    gamma_minus, gamma_plus = pieces.rates[0]
    f = 1.0 / (math.exp(beta * OMEGA) + 1.0)
    assert abs(gamma_minus - g ** 2 * (1 - f)) < 1e-12
    assert abs(gamma_plus - g ** 2 * f) < 1e-12
    assert abs(pieces.detailed_balance[0] - math.exp(-beta * OMEGA)) < 1e-12
    assert abs(gamma_minus / gamma_plus - math.exp(beta * OMEGA)) < 1e-10


def test_continuous_limit_maximally_mixed_rates_equal():
    rho_a = DensityOperator.from_matrix(np.eye(2) / 2)
    g = 0.5
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    pieces = cm.continuous_limit(v, rho_a, pairs=[(SIGMA_MINUS, SIGMA_MINUS, g)])
    gamma_minus, gamma_plus = pieces.rates[0]
    assert abs(gamma_minus - gamma_plus) < 1e-12


def test_continuous_limit_matches_finite_collision():
    beta = 1.0
    rho_a = thermal_state(H_QUBIT, beta)
    g = 0.7
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    pieces = cm.continuous_limit(v, rho_a)
    rho = random_density(2, RNG)

    def one_collision(tau):
        u = hermitian_function(v / math.sqrt(tau), lambda x: np.exp(-1j * tau * x))
        big = u @ core.tensor([rho, rho_a]) @ u.conj().T
        out = core._ptrace_matrix(big, (2, 2), [0])
        return (out - rho.matrix) / tau

    target = (pieces.superop @ rho.matrix.flatten(order="F")).reshape(2, 2, order="F")
    d1 = one_collision(1e-3)
    d2 = one_collision(5e-4)
    extrap = 2 * d2 - d1  # first-order Richardson in tau
    assert np.abs(extrap - target).max() < 1e-5


def test_continuous_limit_rejects_lamb_shift():
    v = np.kron(PAULI_Z, PAULI_Z)  # Tr_A(V rho_A) nonzero for biased ancilla
    rho_a = DensityOperator.from_matrix(np.diag([0.8, 0.2]))
    with pytest.raises(cm.CollisionalError):
        cm.continuous_limit(v, rho_a)


def test_preferred_basis_diagonal_state_classical_only():
    beta = 1.1
    spec = cm.CollisionSpec((thermal_stroke(beta),), (H_QUBIT,))
    rho0 = DensityOperator.from_matrix(np.diag([0.85, 0.15]))
    recs = cm.preferred_basis(spec, rho0, 4)
    for r in recs:
        assert abs(r.sigma_quantum) < 1e-12
        assert r.sigma_classical >= -1e-12
        # column stochastic and detailed balanced
        assert np.abs(r.transition_matrix.sum(axis=0) - 1.0).max() < 1e-12


def test_preferred_basis_coherent_state_quantum_part():
    beta = 1.1
    spec = cm.CollisionSpec((thermal_stroke(beta),), (H_QUBIT,))
    psi = np.array([math.cos(0.6), math.sin(0.6)])
    recs = cm.preferred_basis(spec, DensityOperator.pure(psi), 5)
    coherences = []
    for r in recs:
        assert r.sigma_quantum >= -1e-12
        assert np.abs(r.coherence_factors).max() <= 1.0 + 1e-12
        coherences.append(abs(r.coherence_factors[0, 1]))
    assert recs[0].sigma_quantum > 1e-6
    # damping multiplier below one means coherences shrink every stroke
    assert all(c < 1.0 - 1e-6 for c in coherences)


def test_preferred_basis_populations_match_full_evolution():
    beta = 0.8
    spec = cm.CollisionSpec((thermal_stroke(beta, g=0.5),), (H_QUBIT,))
    rho0 = random_density(2, RNG)
    recs = cm.preferred_basis(spec, rho0, 6)
    states, _ = cm.run(spec, rho0, 6)
    p = recs[0].populations_before
    for r, state in zip(recs, states[1:]):
        p = r.transition_matrix @ p
        direct = np.real(np.diag(state.matrix))
        assert np.abs(np.sort(p) - np.sort(direct)).max() < 1e-10


def test_preferred_basis_split_sums_to_the_run_sigma():
    # Sigma_n = sigma_classical + sigma_quantum, against both the fixed-point
    # and the information-theoretic sigma of `run`, from a state with coherences
    spec = cm.CollisionSpec((thermal_stroke(0.6, g=0.4), thermal_stroke(1.9, g=0.9)),
                            (H_QUBIT, H_QUBIT))
    rho0 = random_density(2, np.random.default_rng(17))
    assert abs(rho0.matrix[0, 1]) > 0.05
    recs = cm.preferred_basis(spec, rho0, 12)
    _, strokes = cm.run(spec, rho0, 12)
    assert recs[0].sigma_quantum > 1e-6
    for r, s in zip(recs, strokes, strict=True):
        split = r.sigma_classical + r.sigma_quantum
        assert abs(split - s.sigma_fixed_point) <= 1e-12
        assert abs(split - s.sigma_general) <= 1e-12


def test_preferred_basis_rejects_noncommuting_schedule():
    h2 = HermitianOperator.from_matrix(0.6 * PAULI_X)
    spec = cm.CollisionSpec((thermal_stroke(1.0), thermal_stroke(1.0)),
                            (H_QUBIT, h2))
    with pytest.raises(cm.CollisionalError):
        cm.preferred_basis(spec, random_density(2, RNG), 2)


def test_swap_engine_carnot_point():
    res = cm.swap_engine(cm.SwapEngineSpec(1.0, 0.5, 1.0, 0.5))
    assert abs(res.work) < 1e-14
    assert abs(res.q_a) < 1e-14
    assert abs(res.q_b) < 1e-14
    assert abs(res.sigma) < 1e-14


def test_swap_engine_otto_efficiency():
    res = cm.swap_engine(cm.SwapEngineSpec(1.0, 0.5, 1.0, 0.25))
    assert res.regime == "engine"
    assert abs(res.figure_of_merit - 0.5) < 1e-14
    assert res.work < 0  # net extraction
    assert abs(res.work + res.q_a + res.q_b) < 1e-14


def test_swap_engine_matches_simulation():
    for ratio in np.linspace(0.1, 1.5, 15):
        spec = cm.SwapEngineSpec(1.0, float(ratio), 1.0, 0.5)
        res = cm.swap_engine(spec)
        sim = cm.swap_engine_simulation(spec)
        assert abs(res.work - sim[0]) < 1e-12
        assert abs(res.q_a - sim[1]) < 1e-12
        assert abs(res.q_b - sim[2]) < 1e-12
        assert abs(res.sigma - sim[3]) < 1e-12


def test_swap_engine_sigma_nonnegative_grid():
    for ratio in np.linspace(0.05, 2.0, 50):
        for t_ratio in np.linspace(0.1, 0.95, 50):
            res = cm.swap_engine(cm.SwapEngineSpec(1.0, float(ratio), 1.0,
                                                   float(t_ratio)))
            assert res.sigma >= -1e-14


def test_swap_engine_heat_pump_excess():
    res = cm.swap_engine(cm.SwapEngineSpec(1.0, 1.3, 1.0, 0.5))
    assert res.regime == "heat_pump"
    assert res.sigma_min is not None and res.sigma_min >= 0
    assert res.sigma_excess >= 0
    cop = res.q_a * (1.0 / 0.5) / (res.sigma - res.sigma_min)
    assert abs(cop - res.figure_of_merit) < 1e-10


def four_stroke_setup(beta_h=0.5, beta_c=2.0, g=0.8):
    h_sys = HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.1]))
    rot = hermitian_function(
        0.4 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex),
        lambda x: np.exp(-1j * x))
    v1 = UnitaryOperator.from_matrix(rot)
    v2 = UnitaryOperator.from_matrix(rot.conj().T)
    # qutrit exchanges through its 0-1 gap with resonant qubit baths
    lower01 = np.zeros((3, 3), dtype=complex)
    lower01[0, 1] = 1.0
    v_sh = 0.7 * (np.kron(lower01.conj().T, SIGMA_MINUS)
                  + np.kron(lower01, SIGMA_PLUS))
    u_sh = UnitaryOperator.from_matrix(
        hermitian_function(v_sh, lambda x: np.exp(-1j * x)), (3, 2))
    u_sc = UnitaryOperator.from_matrix(
        hermitian_function(1.3 * v_sh, lambda x: np.exp(-1j * x)), (3, 2))
    rho_h = thermal_state(H_QUBIT, beta_h)
    rho_c = thermal_state(H_QUBIT, beta_c)
    return v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys


def test_four_stroke_identity_zero():
    _, _, _, _, rho_h, rho_c, h_sys = four_stroke_setup()
    ident3 = UnitaryOperator.from_matrix(np.eye(3))
    ident6 = UnitaryOperator.from_matrix(np.eye(6), (3, 2))
    out = cm.four_stroke(ident3, ident3, ident6, ident6, rho_h, rho_c, h_sys,
                         h_hot=H_QUBIT, h_cold=H_QUBIT)
    assert abs(out.sigma_total) < 1e-10
    assert abs(out.flux_hot) < 1e-12 and abs(out.flux_cold) < 1e-12


def test_four_stroke_identity_cycle_keeps_rho0():
    _, _, _, _, rho_h, rho_c, h_sys = four_stroke_setup()
    ident3 = UnitaryOperator.from_matrix(np.eye(3))
    ident6 = UnitaryOperator.from_matrix(np.eye(6), (3, 2))
    rho0 = random_density(3, np.random.default_rng(12))
    out = cm.four_stroke(ident3, ident3, ident6, ident6, rho_h, rho_c, h_sys,
                         rho0=rho0)
    assert np.abs(out.limit_cycle.matrix - rho0.matrix).max() < 1e-12


def test_four_stroke_pure_rotation_errors():
    v1, _, _, _, rho_h, rho_c, h_sys = four_stroke_setup()
    ident6 = UnitaryOperator.from_matrix(np.eye(6), (3, 2))
    with pytest.raises(cm.CollisionalError):
        cm.four_stroke(v1, v1, ident6, ident6, rho_h, rho_c, h_sys)


def test_four_stroke_thermal_clausius_form():
    beta_h, beta_c = 0.5, 2.0
    v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys = four_stroke_setup(beta_h, beta_c)
    rho0 = random_density(3, RNG)
    out = cm.four_stroke(v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys,
                         h_hot=H_QUBIT, h_cold=H_QUBIT, rho0=rho0)
    clausius = out.d_entropy_system + beta_h * out.q_hot + beta_c * out.q_cold
    assert abs(out.sigma_total - clausius) < 1e-10
    # one cycle from rho0: the same cycle as a spec whose baths declare their beta
    spec = cm.CollisionSpec((cm.AncillaStroke(rho_h, H_QUBIT, u_sh, beta=beta_h),
                             cm.AncillaStroke(rho_c, H_QUBIT, u_sc, beta=beta_c)),
                            (h_sys, h_sys), (v2, v1))
    start = DensityOperator.from_matrix(v1.matrix @ rho0.matrix @ v1.matrix.conj().T)
    states, (hot, cold) = cm.run(spec, start, 2)
    for rec in (hot, cold):
        assert abs(rec.sigma_general - rec.sigma_thermal) < 1e-10
    d_s = core.von_neumann_entropy(states[2]) - core.von_neumann_entropy(states[0])
    assert abs(d_s) > 1e-3                      # not a limit cycle
    clausius = d_s + beta_h * hot.q_ancilla + beta_c * cold.q_ancilla
    assert abs(hot.sigma_general + cold.sigma_general - clausius) < 1e-10


def test_four_stroke_reads_bare_operands():
    v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys = four_stroke_setup()
    rho0 = random_density(3, np.random.default_rng(36))
    typed = cm.four_stroke(v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys, h_hot=H_QUBIT, h_cold=H_QUBIT,
                           rho0=rho0)
    bare = cm.four_stroke(*(x.matrix for x in (v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys)),
                          h_hot=H_QUBIT.matrix, h_cold=H_QUBIT.matrix, rho0=rho0.matrix)
    assert np.array_equal(bare.limit_cycle.matrix, typed.limit_cycle.matrix)
    fields = ("sigma_hot", "sigma_cold", "flux_hot", "flux_cold", "d_entropy_system", "q_hot",
              "q_cold")
    assert [getattr(bare, f) for f in fields] == [getattr(typed, f) for f in fields]


def test_four_stroke_limit_cycle_balance():
    v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys = four_stroke_setup()
    out = cm.four_stroke(v1, v2, u_sh, u_sc, rho_h, rho_c, h_sys,
                         h_hot=H_QUBIT, h_cold=H_QUBIT)
    assert abs(out.d_entropy_system) < 1e-9
    assert abs(out.sigma_total - (out.flux_hot + out.flux_cold)) < 1e-9
    # net balance holds while the per-bath pieces differ
    assert abs(out.sigma_hot - out.flux_hot) > 1e-3
    assert out.sigma_hot >= -1e-12 and out.sigma_cold >= -1e-12


def test_stroke_record_csv_row():
    beta = 1.0
    spec = cm.CollisionSpec((thermal_stroke(beta),), (H_QUBIT,))
    _, recs = cm.run(spec, random_density(2, RNG), 1)
    row = recs[0].as_row()
    assert len(row) == 6


def test_run_states_and_records_behave_as_constructor_built():
    # `run` sets the fields of its states and records in one call each; they stay
    # frozen, read-only and equal to what their constructors make of the same values
    states, recs = cm.run(two_letter_spec(np.random.default_rng(5)), random_density(2, RNG), 6)
    for obj, name in ((states[3], "matrix"), (states[3], "dims"), (recs[2], "q_ancilla")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    for rho in states[1:]:
        assert rho.dims == core.HilbertDims((2,))
        for arr in (rho.matrix,) + rho.eig():
            assert not arr.flags.writeable
    for rec in recs:
        fields = [getattr(rec, f.name) for f in dataclasses.fields(cm.StrokeRecord)]
        built = cm.StrokeRecord(*fields)
        assert rec == built and hash(rec) == hash(built) and repr(rec) == repr(built)
        assert dataclasses.asdict(rec) == dataclasses.asdict(built)
        assert np.array_equal(rec.as_row(), built.as_row(), equal_nan=True)
        assert dataclasses.replace(rec, w_onoff=1.5) == dataclasses.replace(built, w_onoff=1.5)


def two_letter_spec(rng):
    scrambled = cm.AncillaStroke(thermal_state(H_QUBIT, 0.7), H_QUBIT,
                                 random_unitary(4, rng, dims=(2, 2)), beta=0.7)
    return cm.CollisionSpec((thermal_stroke(1.2), scrambled), (H_QUBIT, H_QUBIT),
                            (random_unitary(2, rng), random_unitary(2, rng)))


def test_run_decompositions_do_not_grow_with_strokes(monkeypatch):
    # the strokes of both alphabet entries (qubit ancillas) are the rows of one
    # EpisodeStack, so the joint states, their partial traces and every balance
    # are one stack: two partial traces (in `episodes`, none in `run` itself)
    # and one `eigh` per marginal kind (rho_n', ancilla), the joint state being
    # made from its product spectrum; one more `eigh` validates the chain's
    # states and one, of H, builds the Gibbs state of the conserving entry.
    # The chain takes no per-stroke channel, and a spec builds its stroke
    # channels once: a second run of it (the third count) builds none
    rng = np.random.default_rng(21)
    spec, rho0 = two_letter_spec(rng), random_density(2, rng)
    counted = {np.linalg: ("eigh", "eigvalsh"),
               cm: ("tensor", "_ptrace_matrix", "ancilla_kraus", "kraus_superop"),
               eps: ("tensor", "_ptrace_matrix")}
    counts = []
    for one, n_strokes in ((spec, 10), (dataclasses.replace(spec), 200), (spec, 200)):
        calls = []
        for module, names in counted.items():
            for name in names:
                fn, key = getattr(module, name), f"{module.__name__.split('.')[-1]}.{name}"
                monkeypatch.setattr(module, name, lambda *a, _fn=fn, _key=key, **k:
                                    calls.append(_key) or _fn(*a, **k))
        cm.run(one, rho0, n_strokes)
        monkeypatch.undo()
        counts.append({key: calls.count(key) for key in set(calls)})
    # episodes.tensor: the joint states and their eigenvectors U (V_S x V_A),
    # and the two of each thermal entry's strict-energy-conservation check
    assert counts[0] == counts[1] == {
        "linalg.eigh": 4, "episodes.tensor": 6, "episodes._ptrace_matrix": 2,
        "collisional.ancilla_kraus": 2, "collisional.kraus_superop": 2}
    assert counts[2] == {"linalg.eigh": 4, "episodes.tensor": 6, "episodes._ptrace_matrix": 2}


def test_run_rejects_mismatched_dims():
    # the dims each Episode used to check: initial state, system schedule, ancilla
    spec = cm.CollisionSpec((thermal_stroke(1.0),), (H_QUBIT,))
    with pytest.raises(cm.CollisionalError, match="matrix is 3x3, expected 2x2"):
        cm.run(spec, random_density(3, RNG), 2)
    h3 = HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(cm.CollisionalError, match="matrix is 3x3, expected 2x2"):
        cm.CollisionSpec((thermal_stroke(1.0),) * 2, (H_QUBIT, h3))
    with pytest.raises(cm.CollisionalError, match="matrix is 3x3, expected 2x2"):
        cm.CollisionSpec((cm.AncillaStroke(thermal_state(H_QUBIT, 1.0), h3,
                                           exchange_unitary(0.3)),), (H_QUBIT,))


def test_run_reads_ancillas_of_one_size_and_other_dims_as_one_stack():
    # a (4,) and a (2, 2) ancilla of one size: `run` makes its own one-factor
    # stack of them, so their factor dims do not meet
    h4 = np.diag([0.0, 1.0, 1.0, 2.0])
    u = random_unitary(8, RNG, dims=(2, 4))
    alphabet = tuple(cm.AncillaStroke(thermal_state(HermitianOperator.from_matrix(h4, dims), 1.0),
                                      HermitianOperator.from_matrix(h4), u)
                     for dims in ((4,), (2, 2)))
    _, recs = cm.run(cm.CollisionSpec(alphabet, (H_QUBIT,) * 2), random_density(2, RNG), 4)
    assert len(recs) == 4 and all(np.isfinite(r.sigma_general) for r in recs)
