import math

import numpy as np
import pytest

from entroprod import classical as cl, core, resource as rs
from entroprod.rand import random_probability

RNG = np.random.default_rng(2021)


def dense_part(rates, k):
    """Reservoir part k of `rates` as a dense generator, read off its edges."""
    part = np.zeros(rates.w.shape)
    part[rates.reservoirs.i, rates.reservoirs.j] = rates.reservoirs.rates[k]
    np.fill_diagonal(part, -part.sum(axis=0))
    return part


def detailed_balanced_rates(rng, d, beta=1.0):
    energies = np.sort(rng.random(d)) * 2.0
    rates = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i != j:
                rates[i, j] = (0.3 + rng.random()) if i < j else 0.0
    # symmetrize with the Boltzmann factor on the uphill direction
    for i in range(d):
        for j in range(i + 1, d):
            base = rates[i, j]
            rates[i, j] = base                                   # j -> i downhill
            rates[j, i] = base * math.exp(-beta * (energies[j] - energies[i]))
    return cl.RateMatrix.from_offdiagonal(rates), energies


def test_evolve_zero_generator():
    w = cl.RateMatrix(np.zeros((3, 3)))
    p0 = random_probability(3, RNG)
    assert np.abs(cl.evolve(w, p0, 2.0) - p0).max() < 1e-14


def test_evolve_two_state_closed_form():
    w = cl.RateMatrix.from_offdiagonal([[0.0, 2.0], [1.0, 0.0]])
    p0 = np.array([1.0, 0.0])
    t = 0.8
    pss = np.array([2.0 / 3.0, 1.0 / 3.0])
    exact = pss + (p0 - pss) * math.exp(-3.0 * t)
    assert np.abs(cl.evolve(w, p0, t) - exact).max() < 1e-12


def test_evolve_long_time_reaches_null_vector():
    rng = np.random.default_rng(7)
    rates = rng.random((4, 4))
    w = cl.RateMatrix.from_offdiagonal(rates)
    p_inf = cl.evolve(w, random_probability(4, rng), 400.0)
    assert np.abs(p_inf - cl.stationary_distribution(w)).max() < 1e-10


def test_stationary_distribution_matches_eig_null_vector():
    rng = np.random.default_rng(404)
    for n in range(3, 9):
        w = cl.RateMatrix.from_offdiagonal(rng.random((n, n)) * (rng.random((n, n)) < 0.7)
                                           + np.diag(np.ones(n - 1), 1)
                                           + np.diag(np.ones(n - 1), -1))
        vals, vecs = np.linalg.eig(w.w)
        p = np.real(vecs[:, int(np.argmin(np.abs(vals)))])
        assert np.abs(cl.stationary_distribution(w) - p / p.sum()).max() < 1e-12


def test_stationary_distribution_reducible_error():
    w = cl.RateMatrix([[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -2, 1], [0, 0, 2, -1]])
    with pytest.raises(cl.ClassicalError):
        cl.stationary_distribution(w)


def test_schnakenberg_zero_at_detailed_balance():
    w, energies = detailed_balanced_rates(RNG, 4)
    p_star = cl.stationary_distribution(w)
    assert cl.is_detailed_balanced(w, p_star)
    out = cl.schnakenberg(w, p_star)
    assert abs(out.sigma_rate) < 1e-12


def test_schnakenberg_kl_rate_under_detailed_balance():
    w, _ = detailed_balanced_rates(RNG, 5)
    p_star = cl.stationary_distribution(w)
    p = random_probability(5, RNG)
    out = cl.schnakenberg(w, p)
    kl_rate = cl.kl_divergence_rate(w, p, p_star)
    assert abs(out.sigma_rate - kl_rate) < 1e-12


def test_kl_divergence_rate_edges():
    w, _ = detailed_balanced_rates(RNG, 3)
    p_star = cl.stationary_distribution(w)
    # an empty state with inflow makes the rate +inf; empty with no inflow adds 0
    assert cl.kl_divergence_rate(w, [0.5, 0.5, 0.0], p_star) == math.inf
    chain = cl.RateMatrix.from_offdiagonal([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    p_chain = cl.stationary_distribution(chain)
    rate = cl.kl_divergence_rate(chain, [1.0, 0.0, 0.0], p_chain)
    assert rate == math.inf
    assert cl.kl_divergence_rate(chain, p_chain, p_chain) == 0.0
    # p* vanishing where p does not leaves S(p || p*) infinite
    with pytest.raises(cl.ClassicalError):
        cl.kl_divergence_rate(chain, [0.5, 0.5, 0.0], [0.0, 0.5, 0.5])


def test_schnakenberg_thermal_flux_is_heat():
    beta = 1.0
    w, energies = detailed_balanced_rates(RNG, 4, beta=beta)
    p = random_probability(4, RNG)
    out = cl.schnakenberg(w, p)
    heat_rate = -float(energies @ (w.w @ p))   # energy leaving the system
    assert abs(out.flux_rate - beta * heat_rate) < 1e-12


def test_schnakenberg_identities_random():
    rng = np.random.default_rng(55)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        w = cl.RateMatrix.from_offdiagonal(rng.random((d, d)))
        p = random_probability(d, rng)
        out = cl.schnakenberg(w, p)
        assert out.sigma_rate >= -1e-13
        assert abs(out.entropy_rate - (out.sigma_rate - out.flux_rate)) < 1e-12
        pair_sum = 0.5 * float(np.sum(out.currents * out.forces))
        assert abs(pair_sum - out.sigma_rate) < 1e-12


def test_schnakenberg_one_way_transition_error():
    rates = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = cl.RateMatrix.from_offdiagonal(rates)
    with pytest.raises(cl.ClassicalError) as err:
        cl.schnakenberg(w, np.array([0.5, 0.5]))
    assert "one-way" in str(err.value)


def test_schnakenberg_zero_probability_with_inflow():
    w = cl.RateMatrix.from_offdiagonal([[0.0, 1.0, 0.5], [2.0, 0.0, 1.5], [0.7, 0.3, 0.0]])
    s = cl.schnakenberg(w, np.array([0.4, 0.6, 0.0]))
    assert s.sigma_rate == s.entropy_rate == math.inf
    # the flows into the empty state 2 have divergent forces
    assert (s.forces[2, :2] == math.inf).all() and (s.currents[2, :2] > 0).all()
    assert np.array_equal(s.forces, -s.forces.T)
    assert math.isfinite(s.flux_rate)


def driven_three_state_ring(beta_h, beta_c):
    """Hot bath on the edges 0-1 and 1-2, cold bath on 0-2."""
    energies = [0.0, 1.0, 2.0]

    def bath(beta, edges):
        g = np.zeros((3, 3))
        for i, j in edges:
            g[i, j] = math.exp(-beta * (energies[i] - energies[j]) / 2)
            g[j, i] = 1.0 / g[i, j]
        return g

    g_h, g_c = bath(beta_h, [(0, 1), (1, 2)]), bath(beta_c, [(0, 2)])
    return cl.RateMatrix.from_offdiagonal(g_h + g_c, reservoirs=(g_h, g_c))


def test_is_detailed_balanced_driven_two_bath():
    driven = driven_three_state_ring(0.5, 2.0)
    assert not cl.is_detailed_balanced(driven, cl.stationary_distribution(driven))
    equal = driven_three_state_ring(1.0, 1.0)
    assert cl.is_detailed_balanced(equal, cl.stationary_distribution(equal))


def two_bath_two_level(beta_h=0.5, beta_c=2.0, eps=1.0):
    def bath(beta):
        return np.array([[0.0, 1.0], [math.exp(-beta * eps), 0.0]])

    g_h, g_c = bath(beta_h), bath(beta_c)
    return cl.RateMatrix.from_offdiagonal(g_h + g_c, reservoirs=(g_h, g_c))


def test_multibath_single_reservoir_coincides():
    rates = RNG.random((3, 3))
    w = cl.RateMatrix.from_offdiagonal(rates, reservoirs=(rates,))
    p = random_probability(3, RNG)
    correct, lumped = cl.multibath_sigma(w, p)
    assert abs(correct - lumped) < 1e-12


def test_multibath_ness_closed_form():
    beta_h, beta_c, eps = 0.5, 2.0, 1.0
    w = two_bath_two_level(beta_h, beta_c, eps)
    p_ss = cl.stationary_distribution(w)
    correct, lumped = cl.multibath_sigma(w, p_ss)
    # heat conduction sigma = (beta_c - beta_h) * eps * (cold down-current)
    g_c = dense_part(w, 1)
    j_c = g_c[0, 1] * p_ss[1] - g_c[1, 0] * p_ss[0]
    assert abs(correct - (beta_c - beta_h) * eps * j_c) < 1e-12
    assert correct > 0
    assert correct > lumped + 1e-6


def test_multibath_requires_decomposition():
    w = cl.RateMatrix.from_offdiagonal(RNG.random((3, 3)))
    with pytest.raises(cl.ClassicalError):
        cl.multibath_sigma(w, random_probability(3, RNG))


def test_fcs_equilibrium_current_vanishes():
    w = two_bath_two_level(1.0, 1.0)
    j, var = cl.scaled_cumulants(w, [(0, 1, 1)])
    assert abs(j) < 1e-9
    assert var > 0


def test_fcs_tilted_eigenvalue_zero_at_origin():
    w = two_bath_two_level()
    vals = np.linalg.eigvals(cl.tilted_generator(w, [(0, 1, 1)], 0.0))
    assert min(abs(vals)) < 1e-12


def test_fcs_mean_matches_steady_current():
    w = two_bath_two_level()
    p_ss = cl.stationary_distribution(w)
    g_c = dense_part(w, 1)
    j_direct = g_c[0, 1] * p_ss[1] - g_c[1, 0] * p_ss[0]
    j_fcs, var = cl.scaled_cumulants(w, [(0, 1, 1)])
    assert abs(j_fcs - j_direct) < 1e-8
    # the SCGF is the dominant root (-S + sqrt(g))/2 of the 2x2 characteristic
    # polynomial, g(chi) = S^2 + 4 u (e^chi - 1) + 4 v (e^-chi - 1) with
    # u = h10 c01, v = c10 h01 (h: uncounted bath, c: counted bath)
    g_h = dense_part(w, 0)
    s = w.w[0, 1] + w.w[1, 0]
    u, v = g_h[1, 0] * g_c[0, 1], g_c[1, 0] * g_h[0, 1]
    mean = (u - v) / s
    second = (u + v) / s - 2.0 * (u - v) ** 2 / s ** 3
    assert abs(j_fcs - mean) < 1e-10 * abs(mean)
    assert abs(var - second) < 1e-10 * abs(second)


def test_fcs_cumulants_match_scgf_differences():
    rng = np.random.default_rng(31)
    parts = tuple(rng.random((4, 4)) for _ in range(2))
    w = cl.RateMatrix.from_offdiagonal(parts[0] + parts[1], reservoirs=parts)
    counted = [(0, 1, 1), (2, 3, 0), (0, 1, 1), (3, 1, 1)]

    def lead(chi):
        return np.real(np.linalg.eigvals(cl.tilted_generator(w, counted, chi))).max()

    h = 1e-3
    mean, var = cl.scaled_cumulants(w, counted)
    assert abs(mean - (lead(h) - lead(-h)) / (2 * h)) < 1e-5 * abs(mean)
    assert abs(var - (lead(h) - 2 * lead(0.0) + lead(-h)) / h ** 2) < 1e-5 * abs(var)


def test_solves_leave_the_rate_matrix_untouched():
    # the bordered solve factors its argument in place, so each caller passes its own copy;
    # the kept generator is a read-only copy, and a solve handed it fails loudly
    rng = np.random.default_rng(49)
    parts = tuple(rng.random((5, 5)) for _ in range(2))
    given = parts[0] + parts[1]
    w = cl.RateMatrix.from_offdiagonal(given, reservoirs=parts)
    kept = w.w.copy()
    assert not w.w.flags.writeable and cl.RateMatrix(kept).w is not kept
    assert kept.flags.writeable
    counted = [(0, 1, 1), (2, 3, 0)]
    for call in (lambda: cl.stationary_distribution(w), lambda: cl.scaled_cumulants(w, counted),
                 lambda: cl.tur_check(w, counted)):
        first = call()
        assert np.array_equal(w.w, kept)
        assert np.array_equal(call(), first)     # bit for bit on a repeated call
    with pytest.raises(ValueError, match="read-only"):
        core.bordered_solve(w.w, slice(None))


def test_bordered_solve_reads_either_layout():
    # a column-major generator is factored as B, a row-major one as B^T: the same x
    rng = np.random.default_rng(7)
    for n in (2, 5, 16):
        w = cl.RateMatrix.from_offdiagonal(rng.random((n, n))).w
        rhs = rng.normal(size=n)
        for b in (None, rhs - rhs.mean()):
            row = core.bordered_solve(np.array(w, order="C"), slice(None), b)
            col = core.bordered_solve(np.array(w, order="F"), slice(None), b)
            assert np.abs(col - row).max() <= 1e-14 * np.abs(row).max()


def test_fcs_reducible_generator_error():
    w = cl.RateMatrix([[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -2, 1], [0, 0, 2, -1]])
    with pytest.raises(cl.ClassicalError):
        cl.scaled_cumulants(w, [(0, 1, None)])
    with pytest.raises(cl.ClassicalError):
        cl.tur_check(w, [(0, 1, None)], p_stationary=[0.25, 0.25, 0.25, 0.25])


def test_fcs_tur_two_and_three_level():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for _ in range(10):
            e_levels = np.sort(rng.random(d)) * 2.0
            parts = []
            for beta in (0.4 + 0.2 * rng.random(), 1.5 + rng.random()):
                g = np.zeros((d, d))
                for i in range(d):
                    for j in range(d):
                        if i != j:
                            g[i, j] = (0.3 + rng.random()) * math.exp(
                                -beta * max(e_levels[i] - e_levels[j], 0.0))
                parts.append(g)
            w = cl.RateMatrix.from_offdiagonal(parts[0] + parts[1],
                                               reservoirs=tuple(parts))
            lhs, rhs, ok = cl.tur_check(w, [(0, 1, 1)])
            assert ok


def test_tur_without_reservoirs_reads_the_schnakenberg_rate():
    # a bare generator has no reservoir parts, so the TUR takes Sigma from
    # Schnakenberg's edge sum; each edge of this ring belongs to one bath, so
    # that is the multibath Sigma of the same ring with its parts attached
    driven = driven_three_state_ring(0.5, 2.0)
    lhs, rhs, ok = cl.tur_check(cl.RateMatrix(driven.w), [(0, 1, None)])
    assert ok and lhs >= rhs
    lhs_parts, rhs_parts, _ = cl.tur_check(driven, [(0, 1, 0)])
    assert lhs == pytest.approx(lhs_parts, rel=1e-12)
    assert rhs == pytest.approx(rhs_parts, rel=1e-12)


def test_onsager_quadratic_form():
    value, psd = cl.onsager_sigma(np.array([[2.0, 0.5], [0.5, 1.0]]), [0.0, 0.0])
    assert value == 0.0 and psd
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    l_psd = m @ m.T
    x = rng.normal(size=3)
    value, psd = cl.onsager_sigma(l_psd, x)
    assert value >= 0 and psd
    l_bad = np.diag([1.0, -0.2])
    _, psd_bad = cl.onsager_sigma(l_bad, x[:2])
    assert not psd_bad


def test_glauber_uniform_mu_detailed_balance():
    adj = cl.ring_adjacency(4)
    w = cl.glauber_ising(4, 1.0, 1.5, [0.3, 0.3, 0.3, 0.3], adj)
    p_ss = cl.stationary_distribution(w)
    correct, _ = cl.multibath_sigma(w, p_ss)
    assert correct < 1e-10


def test_glauber_site_partitioned_staggered_field_is_equilibrium():
    # a fixed per-site chemical potential acts as a conjugate staggered
    # field: the chain is detailed balanced and produces no entropy, which
    # is why the driven lattice needs competing reservoirs
    adj = cl.ring_adjacency(4)
    w = cl.glauber_ising(4, 1.0, 1.5, cl.checkerboard_mu(4, 0.8), adj)
    p_ss = cl.stationary_distribution(w)
    correct, _ = cl.multibath_sigma(w, p_ss)
    assert correct < 1e-10


def test_glauber_competing_reservoirs_ness():
    adj = cl.ring_adjacency(4)
    w = cl.glauber_ising_competing(4, 1.0, 1.5, 0.8, -0.8, adj)
    p_ss = cl.stationary_distribution(w)
    correct, lumped = cl.multibath_sigma(w, p_ss)
    assert correct > 1e-3
    assert correct >= lumped - 1e-12
    w0 = cl.glauber_ising_competing(4, 1.0, 1.5, 0.0, 0.0, adj)
    p0 = cl.stationary_distribution(w0)
    sigma0, _ = cl.multibath_sigma(w0, p0)
    assert sigma0 < 1e-10


def test_glauber_sigma_continuous_in_temperature():
    adj = cl.ring_adjacency(4)
    temps = np.linspace(0.8, 4.0, 10)
    sig = []
    for t_val in temps:
        w = cl.glauber_ising_competing(4, 1.0, float(t_val), 0.8, -0.8, adj)
        p_ss = cl.stationary_distribution(w)
        sig.append(cl.multibath_sigma(w, p_ss)[0])
    sig = np.array(sig)
    assert np.all(np.isfinite(sig))
    assert np.abs(np.diff(sig)).max() < 0.2


def test_glauber_size_cap():
    with pytest.raises(cl.ClassicalError):
        cl.glauber_ising(17, 1.0, 1.0, [0.0] * 17, cl.ring_adjacency(17))


def test_glauber_cap_is_twelve_sites():
    # checked before anything is allocated, so the cap itself is never built
    with pytest.raises(cl.ClassicalError):
        cl.glauber_ising(13, 1.0, 1.0, 0.0, cl.ring_adjacency(13))
    with pytest.raises(cl.ClassicalError):
        cl.glauber_ising_competing(13, 1.0, 1.0, 0.5, -0.5, cl.ring_adjacency(13))


def test_glauber_one_part_per_temperature_and_mu():
    n, coupling = 4, 0.7
    temps, mu = [1.5, 2.0, 1.5, 2.0], cl.checkerboard_mu(4, 0.6)
    adj = cl.ring_adjacency(n)
    w = cl.glauber_ising(n, coupling, temps, mu, adj)
    classes = sorted(set(zip(temps, mu)))
    assert len(w.reservoirs.rates) == len(classes) == 2
    for k, (t_val, mu_val) in enumerate(classes):
        part = dense_part(w, k)
        sites = [k for k in range(n) if (temps[k], mu[k]) == (t_val, mu_val)]
        want = np.zeros((1 << n, 1 << n))
        for state in range(1 << n):
            spin = [1.0 if (state >> k) & 1 else -1.0 for k in range(n)]
            for k in sites:
                field = coupling * sum(spin[m] for m in adj[k]) + mu_val / 2
                want[state ^ (1 << k), state] = 0.5 * (1 - spin[k] * math.tanh(field / t_val))
        np.fill_diagonal(want, -want.sum(axis=0))
        assert np.abs(part - want).max() < 1e-14
    assert np.abs(dense_part(w, 0) + dense_part(w, 1) - w.w).max() < 1e-14


def test_multibath_matches_pair_loop():
    n = 6
    w = cl.glauber_ising_competing(n, 1.0, 1.8, 0.7, -0.7, cl.ring_adjacency(n))
    p = cl.stationary_distribution(w)
    want = 0.0
    for part in (dense_part(w, 0), dense_part(w, 1)):
        for i in range(1 << n):
            for j in range(i + 1, 1 << n):
                if part[i, j] > 0:
                    x, y = part[i, j] * p[j], part[j, i] * p[i]
                    want += (x - y) * math.log(x / y)
    sigma, _ = cl.multibath_sigma(w, p)
    assert want > 1e-3
    assert abs(sigma - want) < 1e-12 * want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validators_reject_nonfinite(bad):
    w = np.array([[-1.0, 1.0], [1.0, -1.0]])
    w_bad = w.copy()
    w_bad[0, 1] = bad
    with pytest.raises(cl.ClassicalError):
        cl.RateMatrix(w_bad)
    with pytest.raises(cl.ClassicalError):
        cl.RateMatrix(np.zeros((2, 2)), (w_bad,))
    with pytest.raises(cl.ClassicalError):
        cl.schnakenberg(cl.RateMatrix(w), [bad, 0.5])
    with pytest.raises(rs.ResourceError):
        rs.EnergyPopulations(np.array([0.0, 1.0]), np.array([bad, 0.5]))


OU_SPRING, OU_TEMP = 1.0, 0.7


def ou_potential(x):
    return 0.5 * OU_SPRING * x * x


def test_fokker_planck_equilibrium_start():
    x = np.linspace(-8, 8, 1024)
    p_th = np.exp(-ou_potential(x) / OU_TEMP)
    res = cl.fokker_planck_1d(ou_potential, OU_TEMP, x, p_th, 0.5)
    assert abs(res.sigma_rate_current) < 1e-10
    assert abs(res.sigma_rate_kl) < 1e-8


def test_fokker_planck_ou_oracle():
    x = np.linspace(-8, 8, 1024)
    m0 = 2.0
    s0 = OU_TEMP / OU_SPRING
    p0 = np.exp(-((x - m0) ** 2) / (2 * s0))
    t = 1.0
    res = cl.fokker_planck_1d(ou_potential, OU_TEMP, x, p0, t)
    m_t = m0 * math.exp(-OU_SPRING * t)
    s_t = OU_TEMP / OU_SPRING + (s0 - OU_TEMP / OU_SPRING) * math.exp(-2 * OU_SPRING * t)
    sigma_exact = ((OU_TEMP / s_t - OU_SPRING) ** 2 * s_t
                   + OU_SPRING ** 2 * m_t ** 2) / OU_TEMP
    assert abs(res.sigma_rate_current - sigma_exact) < 1e-3
    assert abs(res.sigma_rate_kl - sigma_exact) < 1e-3
    assert abs(res.sigma_rate_current - res.sigma_rate_kl) < 1e-3


def test_fokker_planck_mass_conserved():
    x = np.linspace(-7, 7, 512)
    p0 = np.exp(-((x - 1.5) ** 2))
    res = cl.fokker_planck_1d(ou_potential, OU_TEMP, x, p0, 10.0)
    assert abs(res.mass - 1.0) < 1e-8
    # long-time state is the Boltzmann profile within discretization error
    p_th = np.exp(-ou_potential(x) / OU_TEMP)
    p_th = p_th / (p_th.sum() * (x[1] - x[0]))
    assert np.abs(res.p - p_th).max() < 1e-4


def test_rate_matrix_validation():
    with pytest.raises(cl.ClassicalError):
        cl.RateMatrix(np.array([[0.0, -0.1], [0.0, 0.1]]))
    with pytest.raises(cl.ClassicalError):
        cl.RateMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(cl.ClassicalError):
        cl.RateMatrix.from_offdiagonal(np.zeros((2, 2)),
                                       reservoirs=(np.ones((2, 2)),))


def _fp_args(**change):
    x = np.linspace(-4, 4, 64)
    args = {"potential": ou_potential, "temperature": OU_TEMP, "x_grid": x,
            "p0": np.exp(-x ** 2), "t": 0.5}
    return {**args, **change}


@pytest.mark.parametrize("change", [
    {"t": math.nan}, {"t": math.inf}, {"t": -0.5},
    {"temperature": math.nan}, {"temperature": math.inf}, {"temperature": 0.0},
    {"temperature": -0.7},
    {"potential": lambda x: math.inf if x > 3 else 0.0},
    {"potential": lambda x: math.nan},
    {"p0": np.append(-1e-3, np.ones(63))}, {"p0": np.append(math.nan, np.ones(63))},
    {"p0": np.ones(63)}, {"p0": np.zeros(64)},
    {"x_grid": np.linspace(4, -4, 64)}, {"x_grid": np.array([0.0])},
], ids=["t-nan", "t-inf", "t-negative", "T-nan", "T-inf", "T-zero", "T-negative",
        "V-inf", "V-nan", "p0-negative", "p0-nan", "p0-length", "p0-zero",
        "grid-decreasing", "grid-one-point"])
def test_fokker_planck_rejects_invalid(change):
    with pytest.raises(cl.ClassicalError):
        cl.fokker_planck_1d(**_fp_args(**change))


@pytest.mark.parametrize("t, p0", [
    (math.nan, [0.5, 0.5]), (math.inf, [0.5, 0.5]), (-1.0, [0.5, 0.5]),
    (1.0, [0.5, 0.25, 0.25]),
], ids=["t-nan", "t-inf", "t-negative", "p0-length"])
def test_evolve_rejects_invalid(t, p0):
    w = cl.RateMatrix.from_offdiagonal(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(cl.ClassicalError):
        cl.evolve(w, p0, t)
