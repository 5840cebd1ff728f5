import math
import tracemalloc

import numpy as np
import pytest

from entroprod import core, lindblad as lb
from entroprod.core import (
    DensityOperator,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)
from entroprod.rand import random_density

RNG = np.random.default_rng(2718)


def test_build_no_jumps_purely_imaginary_spectrum():
    h = RNG.normal() * PAULI_Z + RNG.normal() * PAULI_X
    model = lb.LindbladModel(h, ())
    vals = lb.spectrum(model)
    assert np.abs(np.real(vals)).max() < 1e-12


def test_build_qubit_decay_spectrum():
    gamma = 0.4
    omega = 1.2
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    model = lb.LindbladModel(omega * np.diag([0.0, 1.0]), ((lower, gamma),))
    vals = np.sort_complex(lb.spectrum(model))
    reals = np.sort(np.real(vals))
    # pattern {0, -gamma, -gamma/2 (twice, with +-i omega shifts)}
    assert abs(reals[0] + gamma) < 1e-12
    assert abs(reals[1] + gamma / 2) < 1e-12
    assert abs(reals[2] + gamma / 2) < 1e-12
    assert abs(reals[3]) < 1e-12
    imag = np.sort(np.imag(vals))
    assert abs(imag[0] + omega) < 1e-12 and abs(imag[-1] - omega) < 1e-12


def test_build_trace_preservation():
    model = lb.thermal_qubit_model(1.0, 0.3, 1.1)
    assert lb.trace_preservation_residual(lb.build(model)) < 1e-12
    sq = lb.squeezed_dissipator(0.4, 0.3, 0.3, 0.5, fock_cut=10)
    assert lb.trace_preservation_residual(lb.build(sq)) < 1e-12


def test_build_dimension_cap():
    with pytest.raises(lb.LindbladError):
        lb.LindbladModel(np.zeros((200, 200)), ())


def test_dimension_cap_from_byte_budget():
    assert 24 * lb.DIM_CAP ** 4 <= lb.GENERATOR_BYTES < 24 * (lb.DIM_CAP + 1) ** 4
    assert lb.DIM_CAP >= 40
    lb.LindbladModel(np.zeros((lb.DIM_CAP, lb.DIM_CAP)), ())
    with pytest.raises(lb.LindbladError):
        lb.LindbladModel(np.zeros((lb.DIM_CAP + 1, lb.DIM_CAP + 1)), ())


def test_integrate_dimension_cap_from_byte_budget():
    # checked before the generator is built: nothing large is allocated
    assert 80 * lb.INTEGRATE_DIM_CAP ** 4 <= lb.GENERATOR_BYTES < 80 * (lb.INTEGRATE_DIM_CAP + 1) ** 4
    d = lb.INTEGRATE_DIM_CAP + 1
    with pytest.raises(lb.LindbladError, match=f"dimension {d} exceeds integration cap"):
        lb.integrate(lb.LindbladModel(np.zeros((d, d)), ()),
                     DensityOperator.maximally_mixed([d]), [0.0, 1.0])


def _random_model(rng, d):
    def cmat():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = cmat()
    jumps = tuple((cmat(), float(rng.random() + 0.1))
                  for _ in range(int(rng.integers(1, 4))))
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return lb.LindbladModel(h + h.conj().T, jumps, ((cmat(), cmat()), 0.3 * g @ g.conj().T))


def test_steady_state_spectrum_gap_match_complex_eig():
    # the old route: one complex eig of the vectorized generator
    rng = np.random.default_rng(77)
    from scipy.optimize import linear_sum_assignment
    for k in range(20):
        model = _random_model(rng, 2 + k % 5)
        vals, vecs = np.linalg.eig(lb.build(model))
        scale = max(1.0, float(np.abs(vals).max()))
        m = core.unvec(vecs[:, int(np.argmin(np.abs(vals)))])
        m = (m + m.conj().T) / 2.0
        assert np.abs(lb.steady_state(model).matrix - m / np.trace(m)).max() < 1e-12
        new = lb.spectrum(model)
        rows, cols = linear_sum_assignment(np.abs(vals[:, None] - new[None, :]))
        assert np.abs(vals[rows] - new[cols]).max() < 1e-10 * scale
        old_gap = np.min(-np.real(vals[np.abs(vals) > 1e-8 * scale]))
        assert abs(lb.gap(model) - old_gap) < 1e-10 * old_gap


def test_solves_hold_the_real_form_and_not_the_complex_generator():
    # the real form (8 d^4 bytes) is built without the complex generator (16 d^4) and is the
    # one matrix a solve holds: LAPACK factors it in place (a copy would add 8 d^4), and the
    # bordered solve takes its norm without an |B| temporary
    d = 24
    model = lb.kerr_model(-2.0, 1.0, 0.8, 0.5, fock_cut=d)
    lb.steady_state(model)     # scipy's LAPACK wrappers imported before the tracing
    lb.gap(model)
    for solve in (lb.gap, lb.steady_state):
        tracemalloc.start()
        try:
            solve(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * d ** 4, solve.__name__


def test_spectrum_is_complex_from_the_column_major_form():
    model = lb.squeezed_dissipator(0.4, 0.3, 0.3, 0.5, fock_cut=4)
    form = lb.real_generator(model)
    assert form.flags.f_contiguous
    vals = lb.spectrum(model)
    assert vals.dtype == complex
    want = np.linalg.eigvals(form)
    assert np.abs(np.sort_complex(vals) - np.sort_complex(want)).max() < 1e-12


def test_steady_state_guards_catch_a_bad_candidate(monkeypatch):
    # the solve is replaced by one returning a candidate: not PSD, or a PSD state off the
    # steady state, whose operator-form residual is the real form's matvec residual
    rng = np.random.default_rng(49)
    for model in (lb.thermal_qubit_model(1.0, 0.5, 1.0), _random_model(rng, 3)):
        d = model.dim
        bad = core.hermitian_coords(np.diag([1.5] + [-0.5] * (d - 1)))
        monkeypatch.setattr(lb, "bordered_solve", lambda gen, trace: bad)
        with pytest.raises(lb.LindbladError, match="steady-state candidate not PSD"):
            lb.steady_state(model)
        monkeypatch.undo()
        rho = 0.9 * lb.steady_state(model).matrix + 0.1 * np.eye(d) / d
        monkeypatch.setattr(lb, "bordered_solve", lambda gen, trace: core.hermitian_coords(rho))
        with pytest.raises(lb.LindbladError, match="steady-state residual") as err:
            lb.steady_state(model)
        monkeypatch.undo()
        matvec = float(np.abs(lb.real_generator(model) @ core.hermitian_coords(rho)).max())
        assert matvec > 1e-3
        assert float(str(err.value).split()[-1]) == pytest.approx(matvec, rel=1e-3)


def test_gap_of_a_generator_without_nonzero_eigenvalues():
    with pytest.raises(lb.LindbladError, match="no nonzero eigenvalues"):
        lb.gap(lb.LindbladModel(np.zeros((2, 2)), ()))


def test_steady_state_decomposes_its_candidate_once(monkeypatch, count_spectral):
    # the PSD projection's spectrum is the state's: one d x d eigh
    model = lb.squeezed_dissipator(0.4, 0.3, 0.3, 0.5, fock_cut=10)
    shapes = []
    count_spectral(lambda kind, m: kind == "eigh" and shapes.append(np.shape(m)))
    rho = lb.steady_state(model)
    monkeypatch.undo()
    assert shapes.count((10, 10)) == 1
    vals, vecs = rho.eig()
    assert np.all(np.diff(vals) >= 0.0) and vals[0] >= 0.0
    assert np.abs((vecs * vals) @ vecs.conj().T - rho.matrix).max() < 1e-15


def test_steady_state_degeneracy_threshold():
    lb.steady_state(lb.thermal_qubit_model(1.0, 1e-6, 1.0))
    with pytest.raises(lb.LindbladError):
        lb.steady_state(lb.thermal_qubit_model(1.0, 1e-10, 1.0))


def test_integrate_zero_generator_constant():
    model = lb.LindbladModel(np.zeros((2, 2)), ())
    rho0 = random_density(2, RNG)
    out = lb.integrate(model, rho0, np.linspace(0, 1, 5))
    assert trace_distance(out.states[-1], rho0) < 1e-12


def test_integrate_thermal_relaxation_rate():
    omega, gamma, beta = 1.0, 0.5, 1.3
    model = lb.thermal_qubit_model(omega, gamma, beta)
    excited = DensityOperator.from_matrix(np.diag([0.0, 1.0]))
    times = np.linspace(0.0, 4.0, 9)
    out = lb.integrate(model, excited, times)
    nb = 1.0 / (math.exp(beta * omega) - 1.0)
    rate = gamma * (2 * nb + 1)
    p_eq = nb / (2 * nb + 1)
    for t, state in zip(times, out.states):
        p_e = float(np.real(state.matrix[1, 1]))
        exact = p_eq + (1.0 - p_eq) * math.exp(-rate * t)
        assert abs(p_e - exact) < 1e-6
    assert out.trace_drift < 1e-10
    assert out.positivity_drift < 1e-8


def test_integrate_matches_matrix_exponential():
    from scipy.linalg import expm
    cases = ((lb.thermal_qubit_model(0.8, 0.4, 1.0), [0.0, 1.0]),
             (lb.kerr_model(-2.0, 1.0, 0.7, 0.5, fock_cut=8), [0.0, 0.05, 0.3, 0.31, 1.2]))
    for model, grid in cases:
        d = model.dim
        rho0 = random_density(d, RNG)
        out = lb.integrate(model, rho0, grid)
        assert len(out.states) == len(grid)
        for t, state in zip(grid, out.states):
            direct = core.unvec(expm(lb.build(model) * t) @ core.vec(rho0.matrix))
            assert np.abs(state.matrix - direct).max() < 1e-12
        assert out.trace_drift < 1e-12


@pytest.mark.parametrize("grid", [[0.0, 1.0, 0.5], [0.0, math.nan], [0.0, math.inf], [], [[0.0, 1.0]]])
def test_integrate_rejects_bad_time_grid(grid):
    with pytest.raises(lb.LindbladError):
        lb.integrate(lb.thermal_qubit_model(1.0, 0.5, 1.0), random_density(2, RNG), grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["hamiltonian", "jump", "rate", "cross_op", "cross_coefficient"])
def test_model_rejects_nonfinite(entry, bad):
    a = lb.destroy(3)
    h, jump, rate = np.diag([0.0, 1.0, 2.0]).astype(complex), a.copy(), 0.5
    cross_op, coeff = a.conj().T, np.array([[1.0, 0.2], [0.2, 0.5]], dtype=complex)
    if entry == "hamiltonian":
        h[1, 1] = bad
    elif entry == "jump":
        jump[0, 1] = bad
    elif entry == "rate":
        rate = bad
    elif entry == "cross_op":
        cross_op[1, 0] = bad
    else:
        coeff[0, 0] = bad
    with pytest.raises(lb.LindbladError):
        lb.LindbladModel(h, ((jump, rate),), cross=((a, cross_op), coeff))


@pytest.mark.parametrize("entry", ["jump", "cross_op", "cross_coefficient"])
def test_model_rejects_wrong_shapes(entry):
    """Operators of another size than H, or a coefficient matrix that does
    not match the cross operators, fail when the model is built."""
    h, a = np.diag([0.0, 1.0]).astype(complex), lb.destroy(2)
    jump, cross_op, coeff = a, a.conj().T, np.eye(2)
    if entry == "jump":
        jump = np.eye(3)
    elif entry == "cross_op":
        cross_op = np.eye(3)
    else:
        coeff = np.eye(3)
    with pytest.raises(lb.LindbladError):
        lb.LindbladModel(h, ((jump, 1.0),), cross=((a, cross_op), coeff))


def test_steady_state_thermal_dissipator():
    model = lb.thermal_qubit_model(1.0, 0.3, 1.4)
    rho_ss = lb.steady_state(model)
    gibbs = thermal_state(HermitianOperator.from_matrix(model.hamiltonian), 1.4)
    assert trace_distance(rho_ss, gibbs) < 1e-10
    assert lb.gap(model) > 0


def test_steady_state_residual_and_degenerate_error():
    model = lb.thermal_qubit_model(1.0, 0.3, 1.4)
    rho_ss = lb.steady_state(model)
    resid = np.abs(lb.build(model) @ rho_ss.matrix.flatten(order="F")).max()
    assert resid < 1e-10
    # block-diagonal generator with two invariant sectors
    lower = np.zeros((4, 4), dtype=complex)
    lower[0, 1] = 1.0
    lower2 = np.zeros((4, 4), dtype=complex)
    lower2[2, 3] = 1.0
    model2 = lb.LindbladModel(np.zeros((4, 4)), ((lower, 1.0), (lower2, 1.0)))
    with pytest.raises(lb.LindbladError):
        lb.steady_state(model2)


def test_kerr_vacuum_without_drive():
    model = lb.kerr_model(-2.0, 1.0, 0.0, 0.5, fock_cut=10)
    rho_ss = lb.steady_state(model)
    assert abs(np.real(rho_ss.matrix[0, 0]) - 1.0) < 1e-10


def test_kerr_response_steepens_with_scale():
    # scaled occupation through the bistable window grows steeper from
    # N = 1 to N = 3
    eps_lo, eps_hi = 0.55, 0.95
    slopes = []
    for n_scale, cut in ((1, 16), (3, 26)):
        ns = []
        for drive in (eps_lo, eps_hi):
            model = lb.kerr_model(-2.0, 1.0, drive, 0.5, n_scale=n_scale,
                                  fock_cut=cut)
            rho_ss = lb.steady_state(model)
            n_mean, _ = lb.validate_kerr_truncation(model, rho_ss)
            ns.append(n_mean / n_scale)
        slopes.append(ns[1] - ns[0])
    assert slopes[1] > slopes[0]


def test_kerr_truncation_convergence():
    model_lo = lb.kerr_model(-2.0, 1.0, 0.8, 0.5, n_scale=1, fock_cut=16)
    model_hi = lb.kerr_model(-2.0, 1.0, 0.8, 0.5, n_scale=1, fock_cut=24)
    n_lo, _ = lb.validate_kerr_truncation(model_lo, lb.steady_state(model_lo))
    n_hi, _ = lb.validate_kerr_truncation(model_hi, lb.steady_state(model_hi))
    assert abs(n_lo - n_hi) < 1e-6


def test_macrospin_south_pole_and_commutators():
    model = lb.macrospin_model(0.0, 1.0, 2.0)
    rho_ss = lb.steady_state(model)
    sx, sy, sz, lower = lb.spin_operators(2.0)
    assert abs(np.real(np.trace(sz @ rho_ss.matrix)) + 2.0) < 1e-10
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
    assert np.abs(lower.conj().T - (sx + 1j * sy)).max() < 1e-12


def test_macrospin_gap_falls_towards_critical_field():
    # at finite S the gap decreases sharply approaching h = 2 kappa and
    # flattens beyond it (it closes only in the S -> inf limit)
    kappa, s = 1.0, 4.0
    fields = np.linspace(0.5, 3.5, 13)
    gaps = np.array([lb.gap(lb.macrospin_model(float(h), kappa, s))
                     for h in fields])
    assert np.all(np.diff(gaps) < 0)
    below = gaps[fields <= 2 * kappa]
    above = gaps[fields >= 2 * kappa]
    drop_below = below[0] - below[-1]
    drop_above = above[0] - above[-1]
    assert drop_below > 3 * drop_above


def test_macrospin_invalid_spin():
    with pytest.raises(lb.LindbladError):
        lb.spin_operators(0.7)


def test_squeezed_dissipator_moments():
    gamma, nbar, r, theta = 0.5, 0.3, 0.4, 0.9
    model = lb.squeezed_dissipator(gamma, nbar, r, theta, fock_cut=40)
    rho_ss = lb.steady_state(model)
    a = lb.destroy(40)
    n_num = float(np.real(np.trace(a.conj().T @ a @ rho_ss.matrix)))
    aa = complex(np.trace(a @ a @ rho_ss.matrix))
    n_exp, m_exp = lb.squeezed_bath_params(nbar, r, theta)
    assert abs(n_num - n_exp) < 1e-7
    assert abs(aa - m_exp) < 1e-7


def test_squeezed_dissipator_thermal_limit():
    model = lb.squeezed_dissipator(0.5, 0.4, 0.0, 0.0, fock_cut=20)
    rho_ss = lb.steady_state(model)
    p = np.real(np.diag(rho_ss.matrix))
    x = 0.4 / 1.4
    geom = (1 - x) * x ** np.arange(20)
    assert np.abs(p - geom / geom.sum()).max() < 1e-10


def test_squeezed_dissipator_physicality_boundary():
    # squeezed vacuum sits exactly on |M|^2 = N(N+1): accepted
    lb.squeezed_dissipator(0.5, 0.0, 0.3, 0.0, fock_cut=8)
    n_eff, m_eff = lb.squeezed_bath_params(0.0, 0.3, 0.0)
    assert abs(abs(m_eff) ** 2 - n_eff * (n_eff + 1)) < 1e-12
    with pytest.raises(lb.LindbladError):
        lb.squeezed_dissipator_from_moments(0.5, n_eff, 1.01 * m_eff, fock_cut=8)


def test_spohn_rates_static_gibbs_zero():
    beta = 1.2
    model = lb.thermal_qubit_model(1.0, 0.4, beta)
    gibbs = thermal_state(HermitianOperator.from_matrix(model.hamiltonian), beta)
    traj = [(t, gibbs) for t in np.linspace(0, 1, 5)]
    out = lb.spohn_rates(lambda t: model, traj, beta)
    assert np.abs(out.heat_rate).max() < 1e-12
    assert np.abs(out.sigma_rate).max() < 1e-10


def test_spohn_rates_relaxation_integrates_to_lag():
    beta, omega, gamma = 1.0, 1.0, 0.6
    model = lb.thermal_qubit_model(omega, gamma, beta)
    rho0 = DensityOperator.from_matrix(np.diag([0.05, 0.95]))
    times = np.linspace(0.0, 12.0, 481)
    run = lb.integrate(model, rho0, times)
    traj = list(zip(times, run.states))
    out = lb.spohn_rates(lambda t: model, traj, beta)
    assert np.all(out.sigma_rate >= -1e-8)
    from scipy.integrate import simpson
    total = simpson(out.sigma_rate, x=times)
    gibbs = thermal_state(HermitianOperator.from_matrix(model.hamiltonian), beta)
    lag = core.relative_entropy(rho0, gibbs)
    assert abs(total - lag) < 1e-4
    # the finite-difference relative-entropy route agrees within its
    # discretization budget once the fast initial transient has passed
    late = times >= 1.0
    assert np.abs(out.sigma_rate - out.sigma_rate_relent)[late].max() < 1e-3


def test_spohn_rates_decompositions_do_not_grow_with_the_trajectory(monkeypatch, count_spectral):
    # the Gibbs states of every time from one stacked eigh; states kept as
    # DensityOperators are read by their spectra, bare ones by one more eigh
    # (one eigh per time point used to be taken, and bare matrices raised)
    beta = 1.0
    model = lb.thermal_qubit_model(1.0, 0.6, beta)
    rho0 = DensityOperator.from_matrix(np.diag([0.05, 0.95]))
    counts = []
    for n_points in (5, 481):
        times = np.linspace(0.0, 12.0, n_points)
        states = lb.integrate(model, rho0, times).states
        for kept in (states, [s.matrix for s in states]):
            calls = []
            count_spectral(lambda kind, m: calls.append(kind))
            lb.spohn_rates(lambda t: model, list(zip(times, kept)), beta)
            monkeypatch.undo()
            counts.append(calls)
    assert counts[0] == counts[2] == ["eigh"]
    assert counts[1] == counts[3] == ["eigh", "eigh"]


def test_spohn_rates_first_law_with_schedule():
    beta, gamma = 1.0, 0.5

    def model_of(t):
        omega = 1.0 + 0.2 * t
        return lb.thermal_qubit_model(omega, gamma, beta)

    rho0 = random_density(2, RNG)
    times = np.linspace(0.0, 1.0, 81)
    # piecewise integration with the instantaneous generator
    states = [rho0]
    for t0, t1 in zip(times[:-1], times[1:]):
        seg = lb.integrate(model_of(0.5 * (t0 + t1)), states[-1], [t0, t1])
        states.append(seg.states[-1])
    traj = list(zip(times, states))
    out = lb.spohn_rates(model_of, traj, beta)
    energies = [float(np.real(np.trace(model_of(t).hamiltonian @ s.matrix)))
                for t, s in traj]
    de_dt = np.gradient(np.array(energies), times)
    resid = np.abs(de_dt - (out.work_rate - out.heat_rate))[2:-2].max()
    assert resid < 1e-3


def test_spohn_rates_rejects_unfixed_dissipator():
    beta = 1.0
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    model = lb.LindbladModel(np.diag([0.0, 1.0]), ((lower, 0.5),))  # T = 0 bath
    gibbs = thermal_state(HermitianOperator.from_matrix(model.hamiltonian), beta)
    with pytest.raises(lb.LindbladError):
        lb.spohn_rates(lambda t: model, [(0.0, gibbs), (0.1, gibbs), (0.2, gibbs)],
                       beta)


@pytest.mark.parametrize("low", [-5e-9, -5e-10])
def test_integrate_positivity_floor_is_the_state_floor(monkeypatch, low):
    # one rule: a grid state below -EIG_FLOOR is an error naming its time,
    # one above it is clamped and reported as the positivity drift
    model = lb.thermal_qubit_model(1.0, 0.5, 1.0)
    rho0 = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
    drifted = core.hermitian_coords(np.diag([1.0 - low, low]))
    monkeypatch.setattr(lb, "propagate", lambda gen, t, x0, error: (
        np.array([0.0, 0.25, 0.5]), np.array([x0, x0, drifted])))
    if low < -core.EIG_FLOOR:
        with pytest.raises(lb.LindbladError, match=r"t = 0\.5: .*negative eigenvalue -5\.000e-09"):
            lb.integrate(model, rho0, [0.0, 0.25, 0.5])
    else:
        out = lb.integrate(model, rho0, [0.0, 0.25, 0.5])
        assert out.positivity_drift == pytest.approx(-low, rel=1e-6)
        assert out.states[-1].eig()[0].min() == 0.0
