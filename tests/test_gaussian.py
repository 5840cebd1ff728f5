import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from entroprod import core, gaussian as gs
from entroprod.core import DensityOperator
from entroprod.rand import random_density

RNG = np.random.default_rng(161)


def stable_random_model(rng, n=4):
    a = rng.normal(size=(n, n))
    a = a + (abs(np.real(np.linalg.eigvals(a)).min()) + 1.0) * np.eye(n)
    d = rng.normal(size=(n, n))
    d = d @ d.T + 0.5 * np.eye(n)
    return a, d


def test_lyapunov_identity_case():
    theta = gs.lyapunov_steady(np.eye(2), np.eye(2))
    assert np.abs(theta - np.eye(2)).max() < 1e-14


def test_lyapunov_damped_mode():
    model = gs.thermal_damping_model(0.7, 1.4)
    theta = gs.lyapunov_steady(model.drift, model.diffusion)
    assert np.abs(theta - 1.9 * np.eye(2)).max() < 1e-12


def test_lyapunov_dynamical_oracle():
    a, d = stable_random_model(RNG)
    theta_ss = gs.lyapunov_steady(a, d)
    gap = np.real(np.linalg.eigvals(a)).min()
    model = gs.GaussianModel(a, d)
    state0 = gs.GaussianState(np.zeros(4), np.eye(4), quantum=False)
    states = gs.integrate_lyapunov(model, state0, np.linspace(0, 50 / gap, 60))
    assert np.abs(states[-1].cov - theta_ss).max() < 1e-8
    resid = np.abs(a @ theta_ss + theta_ss @ a.T - 2 * d).max()
    assert resid < 1e-10


@pytest.mark.parametrize("gamma", [0.7, -0.4])
def test_integrate_lyapunov_closed_form(gamma):
    # A = (gamma/2) 1, D = (gamma/2)(nbar + 1/2) 1: Theta(t) = Theta_ss
    # + (Theta_0 - Theta_ss) e^{-gamma t} and mean(t) = e^{-gamma t/2}
    # mean(0), for a damped (gamma > 0) and an amplified (gamma < 0) mode
    nbar, theta0 = 1.4, 0.5 * np.eye(2)
    model = gs.GaussianModel(0.5 * gamma * np.eye(2), 0.5 * abs(gamma) * (nbar + 0.5) * np.eye(2))
    theta_ss = np.sign(gamma) * (nbar + 0.5) * np.eye(2)
    mean0 = np.array([0.3, -1.1])
    times = [0.0, 0.1, 0.35, 0.6, 2.0, 2.01]
    states = gs.integrate_lyapunov(model, gs.GaussianState(mean0, theta0), times)
    assert len(states) == len(times)
    for t, state in zip(times, states):
        want = theta_ss + (theta0 - theta_ss) * math.exp(-gamma * t)
        assert np.abs(state.cov - want).max() < 1e-12 * max(1.0, np.abs(want).max())
        assert np.abs(state.mean - math.exp(-0.5 * gamma * t) * mean0).max() < 1e-12


@pytest.mark.parametrize("case", ["random", "damped", "stiff-two-mode"])
def test_integrate_lyapunov_one_long_step(case):
    # one step of many relaxation times lands on the steady state, also
    # where the damping rates differ widely or rate * step overflows e^x
    times = 50.0
    if case == "random":
        a, d = stable_random_model(np.random.default_rng(7))
        model = gs.GaussianModel(a, d)
    elif case == "damped":
        model, times = gs.thermal_damping_model(1.0, 0.6), 2000.0
    else:
        model = gs.two_mode_drift_diffusion(gs.TwoModeNessSpec(1.0, 1.3, 0.2, 5.0, 0.2, 0.8))
    n = model.drift.shape[0]
    gap = np.real(np.linalg.eigvals(model.drift)).min()
    state0 = gs.GaussianState(np.ones(n), np.eye(n), quantum=False)
    states = gs.integrate_lyapunov(model, state0, [0.0, times / gap])
    theta_ss = gs.lyapunov_steady(model.drift, model.diffusion)
    assert np.abs(states[-1].cov - theta_ss).max() < 1e-10 * np.abs(theta_ss).max()
    assert np.abs(states[-1].mean).max() < 1e-10


def test_integrate_lyapunov_rejects_mismatched_state():
    with pytest.raises(gs.GaussianError, match="state dimension 4"):
        gs.integrate_lyapunov(gs.thermal_damping_model(0.6, 0.8),
                              gs.GaussianState(np.zeros(4), np.eye(4)), [0.0, 1.0])


@pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [0.0, math.nan], [0.0, math.inf], []])
def test_integrate_lyapunov_rejects_bad_time_grid(grid):
    with pytest.raises(gs.GaussianError):
        gs.integrate_lyapunov(gs.thermal_damping_model(0.6, 0.8),
                              gs.GaussianState.thermal(1.0), grid)


def test_lyapunov_unstable_rejected():
    with pytest.raises(gs.GaussianError):
        gs.lyapunov_steady(-np.eye(2), np.eye(2))


def test_pi_phi_equilibrium_zero():
    model = gs.thermal_damping_model(0.6, 0.8)
    sigma, phi = gs.pi_phi(model, gs.GaussianState.thermal(0.8))
    assert abs(sigma) < 1e-12
    assert abs(phi) < 1e-12


def test_pi_phi_relaxation_decreasing():
    model = gs.thermal_damping_model(0.6, 0.8)
    traj = gs.integrate_lyapunov(model, gs.GaussianState.thermal(3.0),
                                 np.linspace(0, 4, 9))
    rates = [gs.pi_phi(model, s)[0] for s in traj]
    assert all(r >= -1e-12 for r in rates)
    assert all(rates[i + 1] <= rates[i] + 1e-12 for i in range(len(rates) - 1))


def test_pi_phi_steady_state_balance():
    a, d = stable_random_model(RNG)
    model = gs.GaussianModel(a, d)
    theta = gs.lyapunov_steady(a, d)
    sigma, phi = gs.pi_phi(model, gs.GaussianState(np.zeros(4), theta,
                                                   quantum=False))
    assert abs(sigma - phi) < 1e-10
    assert sigma >= -1e-12


def test_pi_phi_depends_only_on_irreversible_part():
    model = gs.thermal_damping_model(0.5, 1.0)
    state = gs.GaussianState(np.array([0.3, -0.1]), 1.8 * np.eye(2))
    base = gs.pi_phi(model, state)
    # add a Hamiltonian (reversible) rotation: A_irr unchanged
    rot = np.array([[0.0, -1.3], [1.3, 0.0]])
    model2 = gs.GaussianModel(model.drift + rot, model.diffusion)
    assert np.abs(model2.irreversible - model.irreversible).max() < 1e-14
    out = gs.pi_phi(model2, state)
    assert abs(out[0] - base[0]) < 1e-12
    assert abs(out[1] - base[1]) < 1e-12


def test_pi_phi_singular_diffusion_range_check():
    a = np.diag([0.5, 0.7])
    d = np.diag([1.0, 0.0])  # no noise in p while A_irr damps it
    model = gs.GaussianModel(a, d)
    state = gs.GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(gs.GaussianError):
        gs.pi_phi(model, state)


def test_wigner_entropy_vacuum_quadrature():
    state = gs.GaussianState(np.zeros(2), 0.5 * np.eye(2))
    sw = gs.wigner_entropy(state)

    def integrand(y, x):
        w = math.exp(-(x * x + y * y)) / math.pi
        return -w * math.log(w)

    brute, _ = sci_integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-11)
    assert abs(sw - brute) < 1e-9
    assert abs(sw - (0.5 * math.log(0.25) + math.log(2 * math.pi * math.e))) < 1e-12


def test_renyi2_thermal_and_offset():
    for nbar in (0.3, 1.7):
        state = gs.GaussianState.thermal(nbar)
        assert abs(gs.renyi2_entropy(state) - math.log(nbar + 0.5)) < 1e-12
        diff = gs.wigner_entropy(state) - gs.renyi2_entropy(state)
        assert abs(diff - math.log(2 * math.pi * math.e)) < 1e-12


def test_wigner_entropy_monotone_in_occupation():
    vals = [gs.wigner_entropy(gs.GaussianState.thermal(n)) for n in (0.1, 0.5, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_single_mode_rates_thermal_zero():
    out = gs.single_mode_rates(0.4, 0.9, gs.GaussianState.thermal(0.9))
    assert abs(out["sigma_rate"]) < 1e-12
    assert abs(out["flux_rate"]) < 1e-12


def test_single_mode_rates_flux_heat_relation():
    state = gs.GaussianState(np.array([0.5, -0.3]), 1.4 * np.eye(2))
    out = gs.single_mode_rates(0.4, 0.7, state, omega=1.3)
    assert abs(out["flux_rate"] - out["flux_from_heat"]) < 1e-12


def test_single_mode_rates_pure_loss_finite():
    out = gs.single_mode_rates(0.4, 0.0, gs.GaussianState.thermal(0.6))
    assert math.isfinite(out["sigma_rate"])
    assert out["sigma_rate"] > 0


def test_single_mode_rates_entropy_balance_along_flow():
    gamma, nbar = 0.5, 0.8
    model = gs.thermal_damping_model(gamma, nbar)
    times = np.linspace(0.0, 2.0, 201)
    traj = gs.integrate_lyapunov(model, gs.GaussianState.thermal(2.5), times)
    s_w = np.array([gs.wigner_entropy(s) for s in traj])
    ds_dt = np.gradient(s_w, times)
    for k in range(5, len(times) - 5, 20):
        out = gs.single_mode_rates(gamma, nbar, traj[k])
        assert abs(ds_dt[k] - (out["sigma_rate"] - out["flux_rate"])) < 1e-6


def test_two_mode_ness_decoupled():
    spec = gs.TwoModeNessSpec(1.0, 1.5, 1e-9, 0.4, 0.2, 0.6)
    res = gs.two_mode_ness(spec)
    assert abs(res.n_a) < 1e-8
    assert abs(res.n_b - 0.6) < 1e-8
    assert abs(res.entropy_rate) < 1e-7


def test_two_mode_ness_matches_general_formula():
    g_cr = gs.critical_coupling(gs.TwoModeNessSpec(1.0, 1.5, 0.1, 0.4, 0.2, 0.6))
    for frac in (0.2, 0.5, 0.8, 0.95):
        spec = gs.TwoModeNessSpec(1.0, 1.5, frac * g_cr, 0.4, 0.2, 0.6)
        res = gs.two_mode_ness(spec)
        assert abs(res.entropy_rate - res.entropy_rate_general) < 1e-8
        assert res.entropy_rate >= -1e-12


def test_two_mode_ness_critical_divergence():
    base = gs.TwoModeNessSpec(1.0, 1.5, 0.1, 0.4, 0.2, 0.6)
    g_cr = gs.critical_coupling(base)
    r99 = gs.two_mode_ness(gs.TwoModeNessSpec(1.0, 1.5, 0.99 * g_cr, 0.4, 0.2, 0.6))
    r90 = gs.two_mode_ness(gs.TwoModeNessSpec(1.0, 1.5, 0.90 * g_cr, 0.4, 0.2, 0.6))
    assert r99.entropy_rate / r90.entropy_rate > 10
    with pytest.raises(gs.GaussianError):
        gs.two_mode_ness(gs.TwoModeNessSpec(1.0, 1.5, 1.01 * g_cr, 0.4, 0.2, 0.6))


def test_two_mode_ness_one_stability_check(monkeypatch):
    calls = []
    fn = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a, **k: calls.append(1) or fn(*a, **k))
    base = gs.TwoModeNessSpec(1.0, 1.5, 0.1, 0.4, 0.2, 0.6)
    gs.two_mode_ness(base)
    assert len(calls) == 1
    calls.clear()
    unstable = gs.TwoModeNessSpec(1.0, 1.5, 1.01 * gs.critical_coupling(base), 0.4, 0.2, 0.6)
    with pytest.raises(gs.GaussianError, match="unstable drift"):
        gs.two_mode_ness(unstable)
    assert len(calls) == 1


def padded_system_state(rng, cut, levels=3):
    small = random_density(levels, rng)
    pad = np.zeros((cut, cut), dtype=complex)
    pad[:levels, :levels] = small.matrix
    return DensityOperator.from_matrix(pad)


def test_squeezed_sigma_identity_unitary_zero():
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=0.0, r=0.3, theta=0.4,
                                   beta=2.0, fock_cut=16)
    out = gs.squeezed_sigma(spec, padded_system_state(RNG, 16))
    assert abs(out.sigma_affinity) < 1e-10
    assert abs(out.sigma_relative_entropy) < 1e-8


def test_squeezed_sigma_r0_reduces_to_thermal():
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=0.7, r=0.0, theta=0.0,
                                   beta=2.0, fock_cut=16)
    out = gs.squeezed_sigma(spec, padded_system_state(RNG, 16))
    # cosh = 1, sinh = 0: the affinity route is dS - beta dH, the thermal
    # Clausius form under strict quanta conservation
    assert abs(out.sigma_affinity
               - (out.d_entropy_system - 2.0 * out.d_h_system)) < 1e-12
    assert abs(out.sigma_affinity - out.sigma_relative_entropy) < 1e-9


def test_squeezed_sigma_dual_route_partial_exchange():
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=math.pi / 4, r=0.25,
                                   theta=0.7, beta=2.4, fock_cut=20)
    out = gs.squeezed_sigma(spec, padded_system_state(RNG, 20))
    assert abs(out.sigma_affinity - out.sigma_relative_entropy) < 1e-8
    assert out.sigma_affinity >= -1e-10
    assert abs(out.d_quanta) < 1e-10
    assert out.d_asymmetry < 1e-7


def test_squeezed_sigma_decomposes_each_state_once(monkeypatch):
    # the eigh calls on states (unit trace): rho_S' when it is made, which
    # both routes then read; rho_E is made from its exact spectrum
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=0.5, r=0.2, theta=0.3,
                                   beta=2.5, fock_cut=12)
    rho = padded_system_state(RNG, 12)
    traces, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k:
                        traces.append(np.trace(a)) or eigh(a, *r, **k))
    gs.squeezed_sigma(spec, rho)
    assert sum(abs(t - 1.0) < 1e-6 for t in traces) == 1


def test_squeezed_sigma_asymmetry_flow_without_heat():
    # squeezing makes entropy production possible through the asymmetry
    # current even when the quanta exchange is weak
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=0.5, r=0.2, theta=0.3,
                                   beta=2.5, fock_cut=18)
    rho = padded_system_state(RNG, 18)
    out = gs.squeezed_sigma(spec, rho)
    assert abs(out.d_a_system) > 1e-6


def test_gaussian_state_validation():
    with pytest.raises(gs.GaussianError):
        gs.GaussianState(np.zeros(2), 0.1 * np.eye(2))  # below vacuum
    gs.GaussianState(np.zeros(2), 0.1 * np.eye(2), quantum=False)
    with pytest.raises(gs.GaussianError):
        gs.GaussianModel(np.eye(2), -np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["drift", "diffusion", "parity"])
def test_gaussian_model_rejects_nonfinite(entry, bad):
    mats = {"drift": np.eye(2), "diffusion": np.eye(2), "parity": np.diag([1.0, -1.0])}
    mats[entry][0, 1] = bad
    with pytest.raises(gs.GaussianError):
        gs.GaussianModel(mats["drift"], mats["diffusion"], mats["parity"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["mean", "cov"])
def test_gaussian_state_rejects_nonfinite(entry, bad):
    mean, cov = np.zeros(2), np.eye(2)
    {"mean": mean, "cov": cov}[entry][0] = bad
    with pytest.raises(gs.GaussianError):
        gs.GaussianState(mean, cov)


def _dense_squeezed_sigma(spec, rho_system):
    # the dense route: two-mode operators as Kronecker products and U as
    # the matrix exponential of the full n^2 x n^2 generator
    from scipy.linalg import expm
    n = spec.fock_cut
    a1, eye = gs.destroy(n), np.eye(n)
    v = 1j * spec.g * (np.kron(a1.conj().T, a1) - np.kron(a1, a1.conj().T))
    n_tot = np.kron(a1.conj().T @ a1, eye) + np.kron(eye, a1.conj().T @ a1)
    asym_tot = np.kron(a1 @ a1, eye) + np.kron(eye, a1 @ a1)
    u = expm(-1j * spec.t * v)
    nbar = 1.0 / (math.exp(spec.beta * spec.omega) - 1.0)
    rho_env = gs.squeezed_thermal_state(nbar, spec.omega, spec.r, spec.theta, n)
    joint0 = np.kron(rho_system.matrix, rho_env.matrix)
    joint1 = u @ joint0 @ u.conj().T
    rho_s1 = np.einsum("ikjk->ij", joint1.reshape(n, n, n, n))
    h_sys = spec.omega * (a1.conj().T @ a1)
    a_sys = gs.asymmetry_operator(spec.omega, spec.theta, n)
    ds = core.von_neumann_entropy(rho_s1) - core.von_neumann_entropy(rho_system)
    dh = float(np.real(np.trace(h_sys @ (rho_s1 - rho_system.matrix))))
    da = float(np.real(np.trace(a_sys @ (rho_s1 - rho_system.matrix))))
    return gs.SqueezedSigmaResult(
        sigma_affinity=ds - spec.beta * (math.cosh(2 * spec.r) * dh
                                         + math.sinh(2 * spec.r) * da),
        sigma_relative_entropy=(core.relative_entropy(rho_system, rho_env)
                                - core.relative_entropy(rho_s1, rho_env)),
        d_quanta=float(np.real(np.trace(n_tot @ (joint1 - joint0)))),
        d_asymmetry=abs(complex(np.trace(asym_tot @ (joint1 - joint0)))),
        d_entropy_system=ds, d_h_system=dh, d_a_system=da)


@pytest.mark.parametrize("cut", [16, 20])
def test_squeezed_sigma_matches_the_dense_route(cut):
    rng = np.random.default_rng(cut)
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=0.9, t=0.8, r=0.22, theta=1.1,
                                   beta=2.6, fock_cut=cut)
    rho = padded_system_state(rng, cut)
    got, want = gs.squeezed_sigma(spec, rho), _dense_squeezed_sigma(spec, rho)
    for name in gs.SqueezedSigmaResult.__dataclass_fields__:
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name


def test_exchange_checks_raise():
    n = 8
    a1, eye = gs.destroy(n), np.eye(n)
    exchange = gs._kron_entries((1j * a1.conj().T, a1), (-1j * a1, a1.conj().T))
    sectors, v = gs._exchange_blocks(exchange, n)
    assert [b.shape[0] for b in v] == [len(idx) for idx in sectors.index]
    # one Hermitian pair of entries between the sectors N = 1 and N = 2
    rows, cols, vals = exchange
    bad = (np.append(rows, [1, 2]), np.append(cols, [2, 1]), np.append(vals, [1e-9, 1e-9]))
    with pytest.raises(gs.GaussianError, match="conserve quanta"):
        gs._exchange_blocks(bad, n)
    # g a^dag a x 1 conserves the total quanta but not the asymmetry
    with pytest.raises(gs.GaussianError, match="conserve asymmetry"):
        gs._exchange_blocks(gs._kron_entries((0.3 * a1.conj().T @ a1, eye)), n)
    # a^dag b - a b^dag conserves both but is anti-Hermitian
    with pytest.raises(gs.GaussianError, match="Hermitian"):
        gs._exchange_blocks(gs._kron_entries((a1.conj().T, a1), (-a1, a1.conj().T)), n)
