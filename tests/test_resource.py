import math
import tracemalloc

import numpy as np
import pytest

from entroprod import core, resource as rs, trajectories as tj
from entroprod.core import (
    DensityOperator,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    thermal_state,
)
from entroprod.rand import random_density, random_hermitian, random_probability, random_unitary

RNG = np.random.default_rng(606)
BETA = 1.0


def pop_from(energies, probs):
    return rs.EnergyPopulations(np.asarray(energies, dtype=float),
                                np.asarray(probs, dtype=float))


def test_beta_order_and_thermal_curve_straight():
    e = np.array([0.0, 0.7, 1.5])
    w = np.exp(-BETA * e)
    pop = pop_from(e, w / w.sum())
    c = rs.curve(pop, BETA)
    slopes = np.diff(c.y) / np.diff(c.x)
    assert np.abs(slopes - slopes[0]).max() < 1e-12
    assert abs(c.y[-1] - 1.0) < 1e-12


def test_beta_zero_reduces_to_descending_order():
    e = np.array([0.0, 1.0, 2.0])
    p = np.array([0.2, 0.5, 0.3])
    order = rs.beta_order(pop_from(e, p), 0.0)
    assert np.allclose(p[order], np.sort(p)[::-1])


def test_curve_single_level():
    pop = pop_from([0.7], [1.0])
    c = rs.curve(pop, 2.0)
    assert np.allclose(c.x, [0.0, math.exp(-1.4)])
    assert np.allclose(c.y, [0.0, 1.0])


def test_curve_concavity_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        pop = pop_from(np.sort(rng.random(d)) * 2, random_probability(d, rng))
        c = rs.curve(pop, 0.5 + rng.random())
        slopes = np.diff(c.y) / np.diff(c.x)
        assert np.all(np.diff(slopes) < 1e-12)


def test_thermo_majorizes_basics():
    e = np.array([0.0, 1.0])
    p = pop_from(e, random_probability(2, RNG))
    assert rs.thermo_majorizes(p, p, BETA) is rs.MajorizationVerdict.EQUIVALENT
    w = np.exp(-BETA * e)
    thermal_pop = pop_from(e, w / w.sum())
    verdict = rs.thermo_majorizes(p, thermal_pop, BETA)
    assert verdict in (rs.MajorizationVerdict.YES,
                       rs.MajorizationVerdict.EQUIVALENT)


def test_thermo_majorizes_crossing_pair_incomparable():
    # three-level pair whose curves cross: p1 wins at small cumulative
    # Gibbs weight, p2 wins later
    e = np.array([0.0, 0.5, 2.5])
    p1 = pop_from(e, [0.529, 0.021, 0.450])
    p2 = pop_from(e, [0.111, 0.546, 0.343])
    verdict = rs.thermo_majorizes(p1, p2, BETA)
    assert verdict is rs.MajorizationVerdict.INCOMPARABLE
    c1, c2 = rs.curve(p1, BETA), rs.curve(p2, BETA)
    grid = np.union1d(c1.x, c2.x)
    diff = np.interp(grid, c1.x, c1.y) - np.interp(grid, c2.x, c2.y)
    assert diff.max() > 1e-6 and diff.min() < -1e-6


def test_thermo_majorizes_transitive_on_samples():
    rng = np.random.default_rng(12)
    e = np.array([0.0, 0.8, 1.7])
    for _ in range(40):
        pops = [pop_from(e, random_probability(3, rng)) for _ in range(3)]
        yes = rs.MajorizationVerdict.YES
        eq = rs.MajorizationVerdict.EQUIVALENT
        ab = rs.thermo_majorizes(pops[0], pops[1], BETA)
        bc = rs.thermo_majorizes(pops[1], pops[2], BETA)
        if ab in (yes, eq) and bc in (yes, eq):
            ac = rs.thermo_majorizes(pops[0], pops[2], BETA)
            assert ac in (yes, eq)


def test_gamma_embed_thermal_is_uniform():
    e = np.array([0.0, 1.0])
    w = np.exp(-BETA * e)
    pop = pop_from(e, w / w.sum())
    gamma, err = rs.gamma_embed(pop, BETA, 10_000)
    assert err < 1e-4
    assert np.abs(gamma - gamma[0]).max() < 1e-6


def test_gamma_embed_identity_for_equal_weights():
    pop = pop_from([0.0, 0.0], [0.3, 0.7])
    gamma, err = rs.gamma_embed(pop, 1.0, 2)
    assert err < 1e-12
    assert np.allclose(np.sort(gamma), [0.3, 0.7])


def test_gamma_embed_error_is_the_largest_level_deviation():
    # three levels at D = 10 take 7, 2 and 1 entries, whose deviations
    # |k/D - w| differ by more than a factor of two
    e, p = np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.3, 0.2])
    w = np.exp(-e) / np.exp(-e).sum()
    counts = np.array([7, 2, 1])
    deviation = np.abs(counts / 10 - w)
    assert deviation.max() > 2 * deviation.min()
    gamma, err = rs.gamma_embed(pop_from(e, p), 1.0, 10)
    assert np.array_equal(gamma, np.repeat(p / counts, counts))
    assert err == pytest.approx(deviation.max(), rel=1e-12)


def test_gamma_embed_matches_curve_verdict():
    rng = np.random.default_rng(200)
    e = np.array([0.0, 1.0])
    for _ in range(50):
        pa = pop_from(e, random_probability(2, rng))
        pb = pop_from(e, random_probability(2, rng))
        v_curve = rs.thermo_majorizes(pa, pb, BETA)
        ga, _ = rs.gamma_embed(pa, BETA, 10_000)
        gb, _ = rs.gamma_embed(pb, BETA, 10_000)
        fwd = rs.majorization_verdict(ga, gb, tol=1e-9) in rs.CONVERTIBLE
        bwd = rs.majorization_verdict(gb, ga, tol=1e-9) in rs.CONVERTIBLE
        expected = {
            (True, True): rs.MajorizationVerdict.EQUIVALENT,
            (True, False): rs.MajorizationVerdict.YES,
            (False, True): rs.MajorizationVerdict.DOMINATED,
            (False, False): rs.MajorizationVerdict.INCOMPARABLE,
        }[(fwd, bwd)]
        assert expected == v_curve


def test_gamma_embed_denominator_too_small():
    e = np.array([0.0, 14.0])
    w = np.exp(-e)
    pop = pop_from(e, w / w.sum())
    with pytest.raises(rs.ResourceError):
        rs.gamma_embed(pop, 1.0, 10)


def test_renyi_second_laws_trivial_cases():
    e = np.array([0.0, 0.9, 1.8])
    p = pop_from(e, random_probability(3, RNG))
    out = rs.renyi_second_laws(p, p, BETA)
    assert out.allowed
    assert np.abs(np.array(out.sigma_alpha)).max() < 1e-12
    w = np.exp(-BETA * e)
    thermal_pop = pop_from(e, w / w.sum())
    assert rs.renyi_second_laws(p, thermal_pop, BETA).allowed


def test_renyi_second_laws_alpha_infinity_gate():
    # passes the alpha = 1 law but fails at alpha = inf
    e = np.array([0.0, 1.0])
    w = np.exp(-BETA * e)
    gibbs = w / w.sum()
    p1 = pop_from(e, [0.90, 0.10])
    p2 = pop_from(e, [0.60, 0.40])
    s1 = rs.classical_renyi_divergence(p1.probabilities, gibbs, 1.0)
    s2 = rs.classical_renyi_divergence(p2.probabilities, gibbs, 1.0)
    assert s1 > s2  # the plain second law allows the transition
    verdict = rs.renyi_second_laws(p1, p2, BETA)
    i_inf = verdict.alphas.index(math.inf)
    assert verdict.sigma_alpha[i_inf] < 0
    assert not verdict.allowed


def test_renyi_second_laws_requires_standard_grid():
    e = np.array([0.0, 1.0])
    p = pop_from(e, [0.5, 0.5])
    with pytest.raises(rs.ResourceError):
        rs.renyi_second_laws(p, p, BETA, alphas=(0.0, 1.0))


def test_free_energy_alpha_thermal_floor():
    e = np.array([0.0, 0.8, 1.9])
    w = np.exp(-BETA * e)
    thermal_pop = pop_from(e, w / w.sum())
    z = float(np.sum(np.exp(-BETA * e)))
    for alpha in (0.5, 1.0, 2.0):
        assert abs(rs.free_energy_alpha(thermal_pop, BETA, alpha)
                   + math.log(z)) < 1e-10
    p = pop_from(e, random_probability(3, RNG))
    assert rs.free_energy_alpha(p, BETA, 1.0) >= -math.log(z) - 1e-12


def test_free_energy_alpha_shifts_with_the_levels():
    # F_alpha(E - c) = F_alpha(E) - c; summed unshifted, Z overflows at c = 800
    # (the second state sits on the level whose Gibbs weight does not underflow)
    c, rng = 800.0, np.random.default_rng(800)
    for e, p in (([0.0, 0.8, 1.9], random_probability(3, rng)), ([800.0, 0.0], [0.0, 1.0])):
        e = np.asarray(e)
        for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
            f = rs.free_energy_alpha(pop_from(e, p), BETA, alpha)
            assert abs(rs.free_energy_alpha(pop_from(e - c, p), BETA, alpha) - (f - c)) < 1e-10


def test_coherence_second_laws_incoherent_pass():
    h = np.diag([0.0, 1.0])
    rho1 = DensityOperator.from_matrix(np.diag([0.7, 0.3]))
    rho2 = DensityOperator.from_matrix(np.diag([0.2, 0.8]))
    out = rs.coherence_second_laws(rho1, rho2, h)
    assert out.allowed
    assert np.abs(np.array(out.sigma_alpha)).max() < 1e-10


def test_coherence_second_laws_alpha1_is_coherence():
    h = 0.9 * PAULI_Z
    rho1 = DensityOperator.pure([1.0, 1.0])
    rho2 = DensityOperator.from_matrix(
        0.7 * rho1.matrix + 0.3 * np.eye(2) / 2)
    out = rs.coherence_second_laws(rho1, rho2, h)
    i_one = out.alphas.index(1.0)
    c1 = core.relative_entropy_of_coherence(rho1, h)
    c2 = core.relative_entropy_of_coherence(rho2, h)
    assert abs(out.sigma_alpha[i_one] - (c1 - c2)) < 1e-10
    assert out.allowed


def test_coherence_second_laws_detect_coherence_growth():
    h = PAULI_Z
    rho1 = DensityOperator.from_matrix(np.diag([0.6, 0.4]))
    rho2 = DensityOperator.pure([1.0, 0.8])   # coherence created
    out = rs.coherence_second_laws(rho1, rho2, h)
    assert not out.allowed


def test_work_extraction_support_discontinuity():
    e = np.array([0.0, 0.5, 1.2])
    w = np.exp(-BETA * e)
    gibbs = w / w.sum()
    popA = pop_from(e, [0.6, 0.0, 0.4])
    val = rs.work_extraction(popA, BETA)
    assert abs(val + math.log(gibbs[0] + gibbs[2])) < 1e-12
    popB = pop_from(e, [0.6 - 5e-7, 1e-6, 0.4 - 5e-7])
    assert abs(rs.work_extraction(popB, BETA)) < 1e-12


def test_work_quantities_thermal_zero():
    e = np.array([0.0, 1.0])
    w = np.exp(-BETA * e)
    thermal_pop = pop_from(e, w / w.sum())
    assert abs(rs.work_extraction(thermal_pop, BETA)) < 1e-12
    assert abs(rs.work_of_formation(thermal_pop, BETA)) < 1e-12


def test_work_of_formation_pure_excited_qubit():
    eps_gap = 1.0
    e = np.array([0.0, eps_gap])
    pop = pop_from(e, [0.0, 1.0])
    expected = eps_gap + math.log(1 + math.exp(-BETA * eps_gap)) / BETA
    assert abs(rs.work_of_formation(pop, BETA) - expected) < 1e-12
    assert rs.work_of_formation(pop, BETA) >= rs.work_extraction(pop, BETA)


def test_interconversion_rate_limits():
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    rho = random_density(2, RNG)
    assert abs(rs.interconversion_rate(rho, rho, BETA, h) - 1.0) < 1e-12
    gibbs = thermal_state(h, BETA)
    assert abs(rs.interconversion_rate(gibbs, rho, BETA, h)) < 1e-10
    with pytest.raises(rs.ResourceError):
        rs.interconversion_rate(rho, gibbs, BETA, h)


def test_coherence_laws_and_rates_decompose_each_state_once(count_spectral):
    # two bare qutrit states: each state, H and the two dephased states (one
    # stacked eigh) for the coherence laws, with the one stacked eigvalsh of
    # the order-inf divergence; each state and H for the rate
    rng = np.random.default_rng(37)
    rho1, rho2 = random_density(3, rng), random_density(3, rng)
    h = random_hermitian(3, rng)
    want_laws = rs.coherence_second_laws(rho1, rho2, h)
    gibbs = thermal_state(h, BETA)
    want_rate = core.relative_entropy(rho1, gibbs) / core.relative_entropy(rho2, gibbs)
    calls = []
    count_spectral(lambda kind, m: calls.append(kind))
    assert rs.coherence_second_laws(rho1.matrix, rho2.matrix, h) == want_laws
    assert sorted(calls) == ["eigh"] * 4 + ["eigvalsh"]
    calls.clear()
    assert rs.interconversion_rate(rho1.matrix, rho2.matrix, BETA, h) == want_rate
    assert calls == ["eigh"] * 3


def test_interconversion_rate_pure_states():
    beta_eps = 1.0
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    excited = DensityOperator.pure([0.0, 1.0])
    ground = DensityOperator.pure([1.0, 0.0])
    gibbs = thermal_state(h, beta_eps)
    expected = (core.relative_entropy(excited, gibbs)
                / core.relative_entropy(ground, gibbs))
    assert abs(rs.interconversion_rate(excited, ground, beta_eps, h)
               - expected) < 1e-12
    assert expected > 1.0   # the excited state is the more athermal one


def test_work_bounds_reversible_protocol_zero():
    h = np.diag([0.0, 1.0])
    gibbs = thermal_state(HermitianOperator.from_matrix(h), BETA)
    rep = rs.work_bounds_rows([h], BETA, [gibbs.matrix], mean_work=0.0, delta_f_eq=0.0,
                              eta_grid=[0.0, 0.3, 0.6]).row(0)
    assert abs(rep.w_irr) < 1e-12
    assert abs(rep.w_ext_final) < 1e-10
    assert abs(rep.w_form_final) < 1e-8
    assert rep.sandwich_ok


def test_work_bounds_keep_the_exact_gibbs_weights():
    # q_e = e^-40 / (1 + e^-40) is far below the eigensolver round-off cut;
    # the Gibbs reference keeps it, so W_form = ln max(p / q) / beta is finite
    q_e = math.exp(-40.0) / (1.0 + math.exp(-40.0))
    rep = rs.work_bounds_rows([np.diag([0.0, 1.0])], 40.0, [np.diag([0.7, 0.3])], 0.5, 0.0,
                              [0.0, 1.0]).row(0)
    assert rep.w_form_final == pytest.approx((math.log(0.3) - math.log(q_e)) / 40.0, rel=1e-13)
    assert abs(rep.w_form_final - 0.96990) < 1e-5
    assert np.isfinite(rep.phi_eta).all()


def test_work_bounds_at_a_cold_gibbs_final_state():
    # rho' the Gibbs state of a non-diagonal H_f at beta dE = 100: W_form
    # = D_inf(rho' || rho'_th) / beta is 0, though the reference keeps the
    # weights e^-50 and e^-100 and rho' is read from its matrix
    rng = np.random.default_rng(8)
    v = random_unitary(3, rng).matrix
    h_f = v @ np.diag([0.0, 1.0, 2.0]) @ v.conj().T
    rep = rs.work_bounds_rows([h_f], 50.0, [core.thermal_state(h_f, 50.0).matrix], 0.5, 0.0,
                              [0.0, 1.0]).row(0)
    assert abs(rep.w_form_final) < 1e-12
    assert np.isfinite(rep.phi_eta).all()


def test_work_bounds_of_a_cold_gibbs_state_keep_its_spectrum():
    # rho' = thermal_state(H_f, beta) of a random qutrit at beta dE = 100 enters
    # with the weights it keeps (1.4e-13 and e^-100, not eigh of its matrix,
    # which read beta W_form = 1.9e-4 here).  W_form = D_inf(rho' || rho') / beta
    # is 0 up to the overlap round-off over the kept weight 1.4e-13
    rng = np.random.default_rng(4)
    h_f = random_hermitian(3, rng)
    levels = np.linalg.eigvalsh(h_f.matrix)
    beta = 100.0 / (levels[-1] - levels[0])
    rep = rs.work_bounds_rows([h_f], beta, [core.thermal_state(h_f, beta)], 0.5, 0.0,
                              [0.0, 1.0]).row(0)
    assert abs(beta * rep.w_form_final) < 1e-8
    assert abs(beta * rep.w_ext_final) < 1e-14


def test_work_bounds_strict_sandwich():
    beta = 1.0
    h_i = 1.0 * PAULI_Z
    h_f = 0.7 * PAULI_Z + 0.5 * PAULI_X
    stats = tj.work_distribution(h_i, h_f, np.eye(2), beta)
    rho_p = thermal_state(HermitianOperator.from_matrix(h_i), beta).matrix
    rep = rs.work_bounds_rows([h_f], beta, [rho_p], stats.mean_work, stats.delta_f,
                              np.linspace(0.0, beta, 6)).row(0)
    assert rep.sandwich_ok
    assert rep.w_ext_final < rep.w_irr < rep.w_form_final
    # eta -> 0: Phi_eta / eta -> -<W>
    eta_small = 1e-6
    rep2 = rs.work_bounds_rows([h_f], beta, [rho_p], stats.mean_work, stats.delta_f,
                               [eta_small]).row(0)
    assert abs(-rep2.phi_eta[0] / eta_small - stats.mean_work) < 1e-4


def test_gibbs_stochastic_oracle_agrees_with_curves():
    rng = np.random.default_rng(301)
    e = np.array([0.0, 1.0])
    for _ in range(100):
        pa, pb = random_probability(2, rng), random_probability(2, rng)
        verdict = rs.thermo_majorizes(pop_from(e, pa), pop_from(e, pb), BETA)
        feasible = rs.gibbs_stochastic_feasible_2d_rows(e, pa, pb, BETA)
        assert feasible == (verdict in (rs.MajorizationVerdict.YES,
                                        rs.MajorizationVerdict.EQUIVALENT))


def test_classical_renyi_monotone_and_limits():
    rng = np.random.default_rng(44)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        p = random_probability(d, rng)
        q = random_probability(d, rng)
        grid = (0.0, 0.5, 1.0, 2.0, 7.0, math.inf)
        vals = [rs.classical_renyi_divergence(p, q, a) for a in grid]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.25, 0.25, 0.5])
    assert abs(rs.classical_renyi_divergence(p, q, 0.0) + math.log(0.5)) < 1e-12
    assert abs(rs.classical_renyi_divergence(p, q, math.inf) - math.log(2.0)) < 1e-12


def test_populations_validation():
    with pytest.raises(rs.ResourceError):
        pop_from([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(rs.ResourceError):
        pop_from([0.0, math.inf], [0.5, 0.5])


QUBIT = np.array([0.0, 1.0])


@pytest.mark.parametrize("beta", [math.nan, -1.0, math.inf])
def test_beta_validated_at_the_boundary(beta):
    # each of these gave a verdict, zeros or a misleading error before
    p1, p2 = pop_from(QUBIT, [0.7, 0.3]), pop_from(QUBIT, [0.4, 0.6])
    calls = [
        lambda: rs.thermo_majorizes(p1, p2, beta),
        lambda: rs.thermo_majorizes_rows(QUBIT, [[0.7, 0.3]] * 2, [[0.4, 0.6]] * 2, [1.0, beta]),
        lambda: rs.renyi_second_laws(p1, p2, beta),
        lambda: rs.gamma_embed(p1, beta, 100),
        lambda: rs.curve(p1, beta),
        lambda: rs.beta_order(p1, beta),
        lambda: rs.gibbs_stochastic_feasible_2d_rows(QUBIT, [0.7, 0.3], [0.4, 0.6], beta),
        lambda: rs.work_extraction(p1, beta),
        lambda: rs.work_bounds_rows([np.diag(QUBIT)], beta, [np.eye(2) / 2], 0.0, 0.0, [0.0]),
    ]
    for call in calls:
        with pytest.raises(rs.ResourceError, match="inverse temperature"):
            call()


def test_beta_zero_allowed_where_nothing_divides_by_it():
    p1, p2 = pop_from(QUBIT, [0.7, 0.3]), pop_from(QUBIT, [0.4, 0.6])
    assert rs.thermo_majorizes(p1, p2, 0.0) is rs.MajorizationVerdict.YES
    assert rs.renyi_second_laws(p1, p2, 0.0).allowed
    for divides in (rs.work_extraction, rs.work_of_formation):
        with pytest.raises(rs.ResourceError, match="> 0"):
            divides(p1, 0.0)


def test_mismatched_level_sets_rejected():
    # energies [0, 1] against [0, 5] gave allowed=True and a feasible map
    p1, p2 = pop_from(QUBIT, [0.7, 0.3]), pop_from([0.0, 5.0], [0.4, 0.6])
    three = pop_from([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    for other in (p2, three):
        for compare in (rs.thermo_majorizes, rs.renyi_second_laws):
            with pytest.raises(rs.ResourceError, match="level set"):
                compare(p1, other, BETA)
    # the Gibbs-stochastic oracle reads both rows on one level set
    with pytest.raises(rs.ResourceError, match="on 2 levels"):
        rs.gibbs_stochastic_feasible_2d_rows(QUBIT, p1.probabilities, three.probabilities, BETA)


def test_permuted_level_set_is_the_same_state():
    p1 = pop_from([0.0, 0.4, 1.0], [0.5, 0.3, 0.2])
    p2 = pop_from([0.0, 0.4, 1.0], [0.2, 0.3, 0.5])
    swapped = pop_from([1.0, 0.0, 0.4], [0.5, 0.2, 0.3])
    assert rs.thermo_majorizes(p1, swapped, BETA) is rs.thermo_majorizes(p1, p2, BETA)
    assert rs.renyi_second_laws(p1, swapped, BETA) == rs.renyi_second_laws(p1, p2, BETA)


def test_nan_renyi_order_rejected():
    p, q = np.array([0.3, 0.7]), np.array([0.5, 0.5])
    with pytest.raises(rs.ResourceError):
        rs.classical_renyi_divergence(p, q, math.nan)
    with pytest.raises(core.CoreError):
        core._petz_renyi(math.nan, p, q)
    with pytest.raises(core.CoreError):
        core.renyi_divergence(np.diag(p), np.diag(q), math.nan)
    with pytest.raises(rs.ResourceError):
        rs.work_bounds_rows([np.diag(QUBIT)], BETA, [np.eye(2) / 2], 0.0, 0.0, [math.nan])


@pytest.mark.parametrize("denominator", [0, -3, rs.MAX_DENOMINATOR + 1, 10 ** 12, 2.5])
def test_gamma_embed_denominator_bounded_before_allocation(monkeypatch, denominator):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(rs, "_largest_remainder_rounding", no_allocation)
    monkeypatch.setattr(rs.np, "repeat", no_allocation)
    with pytest.raises(rs.ResourceError, match="denominator"):
        rs.gamma_embed(pop_from(QUBIT, [0.7, 0.3]), BETA, denominator)


def test_embedding_rows_write_out_no_embedding():
    # at the largest denominator one written-out embedding is 80 MB; the
    # runs of two rows of three levels take a few hundred bytes
    p1, p2 = [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]], [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]
    tracemalloc.start()
    try:
        verdicts = rs.embedding_verdict_rows([0.0, 0.5, 1.0], p1, p2, BETA,
                                             rs.MAX_DENOMINATOR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert list(verdicts) == list(rs.thermo_majorizes_rows([0.0, 0.5, 1.0], p1, p2, BETA))


def test_majorization_verdict_reads_both_directions():
    a, b = np.array([0.6, 0.3, 0.1]), np.array([0.4, 0.35, 0.25])
    assert rs.majorization_verdict(a, b) is rs.MajorizationVerdict.YES
    assert rs.majorization_verdict(b, a) is rs.MajorizationVerdict.DOMINATED
    assert rs.majorization_verdict(a, a[::-1]) is rs.MajorizationVerdict.EQUIVALENT
    assert rs.majorization_verdict([0.5, 0.5, 0.0], [0.6, 0.2, 0.2]) is \
        rs.MajorizationVerdict.INCOMPARABLE
    assert rs.majorization_verdict(a, b) in rs.CONVERTIBLE
    assert rs.majorization_verdict(b, a) not in rs.CONVERTIBLE
