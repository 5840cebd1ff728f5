import math

import numpy as np
import pytest

from entroprod import core, episodes as eps, trajectories as tj
from entroprod.core import (
    DensityOperator,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    UnitaryOperator,
    hermitian_function,
    shannon_entropy,
    thermal_state,
    von_neumann_entropy,
)
from entroprod.rand import random_density, random_unitary

RNG = np.random.default_rng(99)


def random_episode(rng, thermal_env=False, beta=1.0):
    hs = HermitianOperator.from_matrix(rng.normal() * PAULI_Z + rng.normal() * PAULI_X)
    he = HermitianOperator.from_matrix((0.5 + rng.random()) * PAULI_Z)
    rho_e = thermal_state(he, beta) if thermal_env else random_density(2, rng)
    return eps.Episode(hs, he, random_unitary(4, rng, dims=(2, 2)),
                       random_density(2, rng), rho_e)


def test_tpm_ensemble_identity_pure_inputs():
    h = HermitianOperator.from_matrix(PAULI_Z)
    ep = eps.Episode(h, h, UnitaryOperator.from_matrix(np.eye(4), (2, 2)),
                     DensityOperator.pure([1, 0]), DensityOperator.pure([0, 1]))
    ens = tj.backward_ensemble(ep, tj.BackwardChoice.CORRELATIONS_DESTROYED)
    probs = ens.p_forward.ravel()
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs > 1e-12).sum() == 1


def test_tpm_ensemble_normalized_and_marginals():
    ep = random_episode(RNG)
    ens = tj.backward_ensemble(ep, tj.BackwardChoice.CORRELATIONS_DESTROYED)
    assert ens.p_forward.size == 16
    assert abs(ens.p_forward.ravel().sum() - 1.0) < 1e-12
    # marginal over the final outcomes reproduces the initial eigenvalues
    p, _ = np.linalg.eigh(ep.rho_system.matrix)
    q, _ = np.linalg.eigh(ep.rho_env.matrix)
    marg = ens.p_forward.sum(axis=(0, 1))        # grid [m, mu, n, nu]
    assert np.abs(marg - np.outer(p, q)).max() < 1e-12


def test_tpm_ensemble_dimension_cap():
    h = HermitianOperator.from_matrix(np.diag(np.arange(9.0)))
    rho = DensityOperator.from_matrix(np.eye(9) / 9)
    ep = eps.Episode(h, h, UnitaryOperator.from_matrix(np.eye(81), (9, 9)),
                     rho, rho)
    with pytest.raises(tj.TrajectoryError):
        tj.backward_ensemble(ep, tj.BackwardChoice.CORRELATIONS_DESTROYED)


@pytest.mark.parametrize("choice", list(tj.BackwardChoice))
def test_backward_ensemble_averages_match_table(choice):
    ep = random_episode(RNG)
    ev = eps.evolve(ep)
    bal = eps.balance(ep, ev)
    ens = tj.backward_ensemble(ep, choice)
    if choice is tj.BackwardChoice.BATH_RESET:
        target = bal.sigma
    elif choice is tj.BackwardChoice.CORRELATIONS_DESTROYED:
        target = bal.mutual_info
    elif choice is tj.BackwardChoice.POST_MEASUREMENT_STATE:
        _, vs = np.linalg.eigh(ev.rho_system.matrix)
        _, ve = np.linalg.eigh(ev.rho_env.matrix)
        basis = np.kron(vs, ve)
        diag = np.real(np.einsum("im,ij,jm->m", basis.conj(),
                                 ev.rho_joint.matrix, basis))
        target = shannon_entropy(diag) - von_neumann_entropy(ev.rho_joint)
    else:
        target = (bal.mutual_info + bal.env_displacement
                  + core.relative_entropy(ev.rho_system, ep.rho_system))
    assert abs(ens.average_sigma() - target) < 1e-10
    assert abs(ens.integral_ft() - 1.0) < 1e-10
    assert ens.average_sigma() >= -1e-10


def test_backward_ensemble_exchange_ft():
    omega, g, beta_s, beta_e = 1.0, 0.8, 0.4, 1.7
    h = HermitianOperator.from_matrix(omega * np.diag([0.0, 1.0]))
    v = g * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    u = UnitaryOperator.from_matrix(hermitian_function(v, lambda x: np.exp(-1j * x)), (2, 2))
    ep = eps.Episode(h, h, u, thermal_state(h, beta_s), thermal_state(h, beta_e))
    ens = tj.backward_ensemble(ep, tj.BackwardChoice.BOTH_RESET)
    q_env = eps.balance(ep).heat_env
    assert abs(ens.average_sigma() - (beta_e - beta_s) * q_env) < 1e-12


def test_stochastic_sigma_matches_ensemble():
    ep = random_episode(RNG)
    ens = tj.backward_ensemble(ep, tj.BackwardChoice.BATH_RESET)
    sig = tj.stochastic_sigma(ens)
    assert np.allclose(sig, ens.sigma.ravel())


def test_stochastic_sigma_of_two_ensembles():
    # ln P_F / P_B with P_B read from the second ensemble's backward grid
    rng = np.random.default_rng(12)
    h2 = HermitianOperator.from_matrix(PAULI_Z)
    h3 = HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.0]))
    ep = eps.Episode(h2, h3, random_unitary(6, rng, dims=(2, 3)),
                     DensityOperator.pure([1, 0]), random_density(3, rng))
    ens = tj.backward_ensemble(ep, tj.BackwardChoice.BOTH_RESET)
    sig = tj.stochastic_sigma(ens, ens)
    assert np.array_equal(np.isinf(sig), np.isinf(ens.sigma.ravel()))
    assert np.isinf(sig).any()
    assert np.allclose(sig[np.isfinite(sig)], ens.sigma.ravel()[np.isfinite(sig)], atol=1e-12)
    with pytest.raises(tj.TrajectoryError):
        tj.stochastic_sigma(ens, tj.backward_ensemble(random_episode(rng),
                                                      tj.BackwardChoice.BOTH_RESET))


def _trajectory_loop(ep, choice):
    """p_forward, p_backward and sigma path by path, on the grid [m, mu, n, nu]."""
    ev = eps.evolve(ep)
    p, vs = ep.rho_system.eig()
    q, ve = ep.rho_env.eig()
    ps, vs_f = ev.rho_system.eig()
    qe, ve_f = ev.rho_env.eig()
    ds, de = len(p), len(q)
    if choice is tj.BackwardChoice.BATH_RESET:
        bs, be, ref = vs_f, ve, np.outer(ps, q)
    elif choice is tj.BackwardChoice.CORRELATIONS_DESTROYED:
        bs, be, ref = vs_f, ve_f, np.outer(ps, qe)
    elif choice is tj.BackwardChoice.POST_MEASUREMENT_STATE:
        final = np.kron(vs_f, ve_f)
        diag = np.real(np.einsum("im,ij,jm->m", final.conj(), ev.rho_joint.matrix, final))
        bs, be, ref = vs_f, ve_f, np.clip(diag, 0.0, None).reshape(ds, de)
    else:
        bs, be, ref = vs, ve, np.outer(p, q)
    out = np.zeros((3, ds, de, ds, de))
    for m, mu, n, nu in np.ndindex(ds, de, ds, de):
        amp = np.kron(bs[:, m], be[:, mu]).conj() @ ep.unitary.matrix @ np.kron(vs[:, n], ve[:, nu])
        w = abs(amp) ** 2
        pf, pb = w * p[n] * q[nu], w * ref[m, mu]
        sigma = 0.0 if pf <= 0 else math.inf if pb <= 0 else math.log(p[n] * q[nu] / ref[m, mu])
        out[:, m, mu, n, nu] = pf, pb, sigma
    return out


@pytest.mark.parametrize("choice", list(tj.BackwardChoice))
def test_backward_ensemble_matches_trajectory_loop(choice):
    rng = np.random.default_rng(31)
    hs = HermitianOperator.from_matrix(np.diag([0.0, 1.3]))
    he = HermitianOperator.from_matrix(np.diag([0.0, 0.7, 1.9]))
    u = random_unitary(6, rng, dims=(2, 3))
    mixed = eps.Episode(hs, he, u, random_density(2, rng), random_density(3, rng))
    # pure diagonal inputs have exact zero weights, so sigma = +inf occurs
    pure = eps.Episode(hs, he, u, DensityOperator.pure([1, 0]),
                       DensityOperator.pure([0, 0, 1]))
    for ep in (mixed, pure):
        ens = tj.backward_ensemble(ep, choice)
        for got, ref in zip((ens.p_forward, ens.p_backward, ens.sigma),
                            _trajectory_loop(ep, choice)):
            assert got.shape == (2, 3, 2, 3)
            inf = np.isinf(ref)
            assert np.array_equal(np.isinf(got), inf)
            assert np.array_equal(got[inf], ref[inf])
            assert np.abs(got[~inf] - ref[~inf]).max() < 1e-14
    if choice in (tj.BackwardChoice.BATH_RESET, tj.BackwardChoice.BOTH_RESET):
        assert np.isinf(ens.sigma).any()
        assert ens.average_sigma() == math.inf


def test_work_distribution_trivial():
    h = PAULI_Z
    stats = tj.work_distribution(h, h, np.eye(2), 1.0)
    assert len(stats.forward.values) == 1
    assert abs(stats.forward.values[0]) < 1e-12


def test_work_distribution_sudden_rotation():
    beta = 1.3
    h_i = 1.0 * PAULI_Z
    h_f = 0.5 * PAULI_Z + 0.5 * PAULI_X
    stats = tj.work_distribution(h_i, h_f, np.eye(2), beta)
    assert len(stats.forward.values) == 4
    assert abs(stats.jarzynski - 1.0) < 1e-12
    dev, pts = tj.crooks_check(stats, beta)
    assert pts >= 3 and dev < 1e-10
    assert stats.mean_work >= stats.delta_f - 1e-12
    # <sigma> equals the lag S(rho' || thermal(H_f))
    assert abs(stats.sigma_mean - stats.lag) < 1e-10


def test_work_distribution_first_moment():
    beta = 0.9
    rng = np.random.default_rng(17)
    h_i = rng.normal() * PAULI_Z + rng.normal() * PAULI_X
    h_f = rng.normal() * PAULI_Z + rng.normal() * PAULI_X
    v = random_unitary(2, rng).matrix
    stats = tj.work_distribution(h_i, h_f, v, beta)
    rho_i = thermal_state(HermitianOperator.from_matrix(h_i), beta).matrix
    rho_p = v @ rho_i @ v.conj().T
    direct = np.real(np.trace(h_f @ rho_p) - np.trace(h_i @ rho_i))
    assert abs(stats.mean_work - direct) < 1e-10


def test_cgf_normalization_and_identities():
    beta = 1.1
    h_i = 1.0 * PAULI_Z
    h_f = 0.7 * PAULI_Z + 0.5 * PAULI_X
    v = random_unitary(2, RNG).matrix
    lam = np.linspace(0.0, 1.0, 11)
    curve = tj.work_cgf(h_i, h_f, v, beta, lam)
    assert abs(curve.values[0]) < 1e-12
    assert abs(curve.values[-1]) < 1e-12
    stats = tj.work_distribution(h_i, h_f, v, beta)
    sig = tj.ScalarDistribution(beta * (stats.forward.values - stats.delta_f),
                                stats.forward.probabilities)
    dist_route = np.array([sig.cgf(l) for l in lam])
    assert np.abs(curve.values - dist_route).max() < 1e-10
    # Renyi identity K(lam) = (lam - 1) S_lam(rho_f_th || rho')
    rho_i = thermal_state(HermitianOperator.from_matrix(h_i), beta).matrix
    rho_p = v @ rho_i @ v.conj().T
    rho_f = thermal_state(HermitianOperator.from_matrix(h_f), beta).matrix
    for l in (0.3, 0.6, 2.0):
        lhs = tj.work_cgf(h_i, h_f, v, beta, [l]).values[0]
        rhs = (l - 1.0) * core.renyi_divergence(rho_f, rho_p, l)
        assert abs(lhs - rhs) < 1e-10


def test_cgf_first_cumulant_finite_difference():
    beta = 0.8
    h_i = PAULI_Z
    h_f = 0.9 * PAULI_Z + 0.4 * PAULI_X
    v = np.eye(2)
    h_step = 1e-4
    k_plus = tj.work_cgf(h_i, h_f, v, beta, [h_step]).values[0]
    k_minus = tj.work_cgf(h_i, h_f, v, beta, [-h_step]).values[0]
    kappa1_fd = -(k_plus - k_minus) / (2 * h_step)
    curve = tj.work_cgf(h_i, h_f, v, beta, [0.0])
    assert abs(kappa1_fd - curve.kappa[0]) < 1e-6
    # relative entropy variance expression for the second cumulant
    rho_i = thermal_state(HermitianOperator.from_matrix(h_i), beta).matrix
    rho_f = thermal_state(HermitianOperator.from_matrix(h_f), beta).matrix
    log_diff = core.logm_psd(rho_i) - core.logm_psd(rho_f)
    mom2 = np.real(np.trace(rho_i @ log_diff @ log_diff))
    var_expected = mom2 - curve.kappa[0] ** 2
    assert abs(curve.kappa[1] - var_expected) < 1e-10


def test_cgf_commuting_quench_quadratic():
    beta = 1.0
    h_i = PAULI_Z
    h_f = 1.2 * PAULI_Z
    lam = np.linspace(0.0, 1.0, 9)
    curve = tj.quench_cgf(h_i, h_f, beta, lam)
    dh_var_state = thermal_state(HermitianOperator.from_matrix(h_i), beta)
    dh = h_f - h_i
    mean = np.real(np.trace(dh @ dh_var_state.matrix))
    var = np.real(np.trace(dh @ dh @ dh_var_state.matrix)) - mean ** 2
    expected = -0.5 * beta ** 2 * lam * (1 - lam) * var
    assert np.abs(curve.values - expected).max() < 1e-12


def test_quench_report_zero_step():
    rep = tj.quench_report(lambda lam: PAULI_Z + lam * PAULI_X, 0.0, 0.0, 1.0)
    assert rep.sigma_exact < 1e-14
    assert abs(rep.sigma_second_order) < 1e-14
    assert abs(rep.incompatibility) < 1e-14


def test_quench_report_commuting_ratio():
    beta = 1.2
    rep = tj.quench_report(lambda lam: (1 + lam) * PAULI_Z, 0.0, 1e-3, beta)
    assert rep.commuting
    assert rep.expansion_ok
    assert abs(rep.incompatibility) < 1e-15
    ratio = rep.sigma_exact / (0.5 * beta ** 2 * rep.variance_dh)
    assert abs(ratio - 1.0) < 5e-3
    # FDR: <sigma> = var(sigma)/2 up to third order
    assert abs(rep.cumulants[0] - 0.5 * rep.cumulants[1]) < 1e-9


def test_quench_report_noncommuting_positive_cumulants():
    beta = 1.1
    rep = tj.quench_report(lambda lam: PAULI_Z + lam * PAULI_X, 0.0, 1e-3, beta)
    assert not rep.commuting
    assert rep.incompatibility > 0
    assert rep.cumulants[2] > 0 and rep.cumulants[3] > 0
    assert abs(rep.fdr_residual) < 1e-9
    # identity sigma_2nd = (beta^2/2) var(dH) - Q is exact
    assert abs(rep.sigma_second_order
               - (0.5 * beta ** 2 * rep.variance_dh - rep.incompatibility)) < 1e-15
    # var(sigma) = beta^2 var(dH) to second order
    assert abs(rep.cumulants[1] - beta ** 2 * rep.variance_dh) < 1e-8


def test_quench_cgf_symmetry_and_tpm_match():
    beta = 1.0
    lam = np.linspace(0.0, 1.0, 21)
    curve = tj.quench_cgf(PAULI_Z, PAULI_Z + 1e-2 * PAULI_X, beta, lam)
    assert np.abs(curve.values - curve.values[::-1]).max() < 1e-9
    lam2 = np.linspace(0.1, 0.9, 5)
    c_exp = tj.quench_cgf(PAULI_Z, PAULI_Z + 1e-3 * PAULI_X, beta, lam2)
    c_tpm = tj.work_cgf(PAULI_Z, PAULI_Z + 1e-3 * PAULI_X, np.eye(2), beta, lam2)
    assert np.abs(c_exp.values - c_tpm.values).max() < 1e-8


def test_quench_staircase_additivity():
    # CGF of a quasi-static staircase = sum of the per-step CGFs; the
    # compound sigma distribution is the convolution of the steps
    beta = 0.9
    lams = [0.0, 0.05, 0.1, 0.15]
    lam_grid = np.linspace(0.0, 1.0, 7)
    total = np.zeros_like(lam_grid)
    dist = None
    for a, b in zip(lams[:-1], lams[1:]):
        h_i = PAULI_Z + a * PAULI_X
        h_f = PAULI_Z + b * PAULI_X
        stats = tj.work_distribution(h_i, h_f, np.eye(2), beta)
        step = tj.ScalarDistribution(beta * (stats.forward.values - stats.delta_f),
                                     stats.forward.probabilities)
        total += np.array([step.cgf(l) for l in lam_grid])
        dist = step if dist is None else dist.convolve(step)
    compound = np.array([dist.cgf(l) for l in lam_grid])
    assert np.abs(total - compound).max() < 1e-12


def two_qubit_exchange_setup(alpha, theta, beta_a=0.6, beta_b=1.8, phi=0.2,
                             g=1.0, t=0.5):
    return eps.two_qubit_exchange_scenario(alpha, theta, phi, g, t,
                                           beta_a, beta_b)


def test_correlated_tpm_diagonal_state_heats_agree():
    rho, h_a, h_b, u, _ = two_qubit_exchange_setup(alpha=0.0, theta=0.0)
    out = tj.correlated_tpm(rho, h_a, h_b, u, 0.6, 1.8)
    assert abs(out.mean_heat_dephased - out.mean_heat_unitary) < 1e-12
    assert abs(out.integral_ft - 1.0) < 1e-10
    assert out.bound_satisfied


def test_correlated_tpm_coherent_heats_differ():
    rho, h_a, h_b, u, _ = two_qubit_exchange_setup(alpha=0.08, theta=1.1)
    out = tj.correlated_tpm(rho, h_a, h_b, u, 0.6, 1.8)
    assert abs(out.mean_heat_dephased - out.mean_heat_unitary) > 1e-6
    assert abs(out.integral_ft - 1.0) < 1e-10
    assert out.lhs >= out.rhs - 1e-10


def test_correlated_tpm_rejects_nonthermal():
    rho = random_density(4, RNG, dims=(2, 2))
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    v = np.kron(SIGMA_PLUS, SIGMA_MINUS)
    u = UnitaryOperator.from_matrix(
        hermitian_function(0.4 * (v + v.conj().T), lambda x: np.exp(-1j * x)), (2, 2))
    with pytest.raises(tj.TrajectoryError):
        tj.correlated_tpm(rho, h, h, u, 1.0, 2.0)


def test_augmented_tpm_product_diagonal_reduces():
    rho, h_a, h_b, u, _ = two_qubit_exchange_setup(alpha=0.0, theta=0.0)
    out_corr = tj.correlated_tpm(rho, h_a, h_b, u, 0.6, 1.8)
    out_aug = tj.augmented_tpm(rho, u, h_a, h_b)
    assert abs(out_aug.mean_heat - out_corr.mean_heat_dephased) < 1e-10


def test_augmented_tpm_recovers_unitary_heat():
    rho, h_a, h_b, u, _ = two_qubit_exchange_setup(alpha=0.08, theta=1.1)
    out = tj.augmented_tpm(rho, u, h_a, h_b)
    hb_full = core.tensor([np.eye(2), h_b])
    after = u.matrix @ rho.matrix @ u.matrix.conj().T
    direct = float(np.real(np.trace(hb_full @ (after - rho.matrix))))
    assert abs(out.mean_heat - direct) < 1e-10
    assert abs(out.normalization - 1.0) < 1e-10


def test_measurement_trajectories_static():
    basis = np.eye(2)
    out = tj.measurement_trajectories([1, 0], [basis, basis, basis],
                                      [np.eye(2), np.eye(2)])
    assert np.abs(out.sigma_values).max() < 1e-12
    assert abs(out.average_sigma) < 1e-12


def test_measurement_trajectories_unbiased_pair():
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    psi0 = np.array([math.cos(0.3), math.sin(0.3)])
    out = tj.measurement_trajectories(psi0, [np.eye(2), hadamard], [np.eye(2)])
    # after an unbiased measurement the final record is uniform
    assert abs(out.average_sigma - (math.log(2) - out.shannon_initial)) < 1e-12
    assert abs(out.integral_ft - 1.0) < 1e-12
    assert out.doubly_stochastic
    assert out.average_sigma >= -1e-12


def test_measurement_trajectories_rejects_bad_basis():
    with pytest.raises(tj.TrajectoryError):
        tj.measurement_trajectories([1, 0], [np.array([[1, 1], [0, 1]])], [])


def test_measurement_trajectories_sampled_mode():
    # exceed the exhaustive cap so the seeded sampler engages; the integral
    # fluctuation theorem then holds within three standard errors
    rng = np.random.default_rng(8)
    d, steps = 4, 10
    bases = [np.linalg.qr(rng.normal(size=(d, d))
                          + 1j * rng.normal(size=(d, d)))[0]
             for _ in range(steps + 1)]
    unitaries = [np.linalg.qr(rng.normal(size=(d, d))
                              + 1j * rng.normal(size=(d, d)))[0]
                 for _ in range(steps)]
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    out = tj.measurement_trajectories(psi0, bases, unitaries,
                                      max_exhaustive=10 ** 5,
                                      n_samples=20_000, seed=77)
    assert out.sampled and out.seed == 77
    weights = np.exp(-out.sigma_values)
    mean = float(np.sum(out.probabilities * weights))
    second = float(np.sum(out.probabilities * weights ** 2))
    stderr = math.sqrt(max(second - mean ** 2, 1e-30) / 20_000)
    assert abs(out.integral_ft - 1.0) < 3 * stderr + 1e-6
    # the average entropy production still matches the Shannon gain
    assert abs(out.average_sigma
               - (out.shannon_final - out.shannon_initial)) < 0.05


HADAMARD = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


@pytest.mark.parametrize("max_exhaustive", [10 ** 6, 1])
@pytest.mark.parametrize("psi0, bases, unitaries", [
    ([1, 0], [np.eye(2), HADAMARD], [[[1, 0.5], [0, 1]]]),      # not unitary
    ([0, 0], [np.eye(2), HADAMARD], [np.eye(2)]),
    ([math.nan, 1], [np.eye(2), HADAMARD], [np.eye(2)]),
    ([1, 0], [np.eye(2), [[math.nan, 0], [0, 1]]], [np.eye(2)]),
    ([1, 0], [np.eye(2), HADAMARD], [[[math.nan, 0], [0, 1]]]),
    ([1, 0], [np.eye(2), np.eye(3)], [np.eye(2)]),               # wrong size
    ([1, 0], [np.eye(2), HADAMARD], [np.eye(2)[:, :1]]),        # not square
], ids=["non-unitary", "zero-psi0", "nan-psi0", "nan-basis", "nan-unitary",
        "basis-size", "non-square"])
def test_measurement_trajectories_rejects_invalid(psi0, bases, unitaries, max_exhaustive):
    with pytest.raises(tj.TrajectoryError):
        tj.measurement_trajectories(psi0, bases, unitaries,
                                    max_exhaustive=max_exhaustive, n_samples=100)


def test_measurement_sampler_stream_matches_choice_loop():
    # the sampler draws the records one rng.choice per sample and step
    # would draw for the same seed, bit for bit
    rng = np.random.default_rng(4)
    d, steps, n = 3, 4, 3000
    bases = [random_unitary(d, rng).matrix for _ in range(steps + 1)]
    unitaries = [random_unitary(d, rng).matrix for _ in range(steps)]
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    out = tj.measurement_trajectories(psi0, bases, unitaries, max_exhaustive=1,
                                      n_samples=n, seed=5)
    # p0, p_final and sigma in the sampler's own arithmetic, so the merged
    # values can be compared bit for bit
    p0 = np.abs(bases[0].conj().T @ (psi0 / np.linalg.norm(psi0))) ** 2
    moves = [np.abs(b.conj().T @ u @ a) ** 2
             for a, u, b in zip(bases[:-1], unitaries, bases[1:])]
    compound = np.eye(d)
    for t in moves:
        compound = t @ compound
    p_final = compound @ p0
    loop = np.random.default_rng(5)
    records = []
    for _ in range(n):
        k0 = k = loop.choice(d, p=p0)
        for t in moves:
            k = loop.choice(d, p=t[:, k])
        records.append((k0, k))
    k0, k = np.array(records).T
    # merged by the one rule: sorted values within 1e-10 max(1, |v|) of
    # their neighbour are one value, the run's smallest
    sigma = np.sort(np.log(p0[k0]) - np.log(p_final[k]))
    same = np.diff(sigma) <= 1e-10 * np.maximum(1.0, np.abs(sigma[1:]))
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    values, counts = sigma[starts], np.diff(np.append(starts, n))
    assert out.sampled
    assert np.array_equal(out.sigma_values, values)
    assert np.array_equal(out.probabilities, counts / counts.sum())


DRAW_CASES = {
    # cdf [.25, .5, .75, 1] exactly: uniforms on every entry, 0 and just below 1
    "u on a cdf entry": (np.full((4, 2), 0.25), [0, 1, 0, 1, 0, 1],
                         [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0), 0.25]),
    # zero entries give repeated cdf values, at the start, inside and at the end
    "zero entries": (np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0],
                               [0.5, 0.0, 0.0]]), [0, 1, 2, 0, 1, 2, 0],
                     [0.0, 0.5, 0.5, 0.5, 0.0, 0.999, 0.25]),
    "d = 1": (np.ones((1, 1)), [0, 0, 0], [0.0, 0.3, np.nextafter(1.0, 0.0)]),
    "drawn": (np.random.default_rng(3).dirichlet(np.ones(5), 5).T,
              np.random.default_rng(4).integers(0, 5, 500), np.random.default_rng(5).random(500)),
}


@pytest.mark.parametrize("columns, k, u", DRAW_CASES.values(), ids=DRAW_CASES.keys())
def test_draw_counts_cdf_rows_as_the_gathered_sum(columns, k, u):
    # the draw, one cdf row at a time, is the (d, n) gather and boolean sum it replaced
    k, u = np.asarray(k), np.asarray(u)
    cdf = np.cumsum(columns, axis=0)
    cdf /= cdf[-1]
    want = np.sum(cdf[:, k] <= u, axis=0)
    got = tj._draw(columns, k, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_weight_convolve_moments():
    ideal = tj.ScalarDistribution(np.array([-1.0, 0.5, 2.0]),
                                  np.array([0.25, 0.5, 0.25]))
    out = tj.weight_convolve(ideal, 0.2)
    assert abs(out.mean - ideal.mean()) < 1e-6
    assert abs(out.variance - (ideal.variance() + 0.04)) < 1e-5


def test_weight_convolve_single_delta_gaussian():
    ideal = tj.ScalarDistribution([1.0], [1.0])
    out = tj.weight_convolve(ideal, 0.3)
    # matches the normal density on the grid
    dw = out.grid[1] - out.grid[0]
    ref = np.exp(-((out.grid - 1.0) ** 2) / (2 * 0.09))
    ref = ref / ref.sum()
    assert np.abs(out.density - ref).max() < 1e-10
    assert abs(out.mean - 1.0) < 1e-9


def test_weight_convolve_small_delta_concentrates():
    ideal = tj.ScalarDistribution(np.array([0.0, 1.0]), np.array([0.4, 0.6]))
    out = tj.weight_convolve(ideal, 1e-4)
    near = np.abs(out.grid[:, None] - ideal.values[None, :]).min(axis=1) < 5e-3
    assert out.density[near].sum() > 1 - 1e-8


def test_weight_convolve_attenuations_and_crooks_failure():
    beta = 1.0
    h_i = 1.0 * PAULI_Z
    h_f = 0.7 * PAULI_Z + 0.4 * PAULI_X
    stats = tj.work_distribution(h_i, h_f, np.eye(2), beta)
    delta = 0.3
    gaps = np.array([0.0, 1.4])
    out = tj.weight_convolve(stats.forward, delta, gaps=gaps)
    assert abs(out.attenuations[0] - 1.0) < 1e-12
    assert out.attenuations[1] == pytest.approx(math.exp(-1.4 ** 2 / (8 * delta ** 2)))
    # the convolved distribution violates the pointwise Crooks ratio that
    # the ideal distribution satisfies
    back = tj.work_distribution(h_f, h_i, np.eye(2), beta)  # reversed protocol
    out_b = tj.weight_convolve(back.forward, delta)
    mid = len(out.grid) // 2
    w = out.grid[mid]
    p_f = out.density[mid]
    p_b = np.interp(-w, out_b.grid, out_b.density)
    ratio = p_f / p_b
    ideal_ratio = math.exp(beta * (w - stats.delta_f))
    assert abs(ratio - ideal_ratio) > 1e-3


def test_weight_convolve_rejects_bad_delta():
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(tj.TrajectoryError):
            tj.weight_convolve(tj.ScalarDistribution([0.0], [1.0]), delta)


def test_weight_convolve_rejects_infinite_support():
    ideal = tj.ScalarDistribution.from_samples([0.0, 1.0, math.inf], [0.3, 0.3, 0.4])
    with pytest.raises(tj.TrajectoryError, match="value inf carries probability 0.4"):
        tj.weight_convolve(ideal, 0.2)


def test_mean_undefined_with_mass_at_both_infinities():
    dist = tj.ScalarDistribution([math.inf, -math.inf], [0.5, 0.5])
    with pytest.raises(tj.TrajectoryError, match="both \\+inf and -inf"):
        dist.mean()
    # mass at one infinity: the mean is that infinity; an empty level is no mass
    assert tj.ScalarDistribution([1.0, math.inf], [0.5, 0.5]).mean() == math.inf
    assert tj.ScalarDistribution([-math.inf, 1.0], [0.5, 0.5]).mean() == -math.inf
    assert tj.ScalarDistribution([-math.inf, 2.0, math.inf], [0.0, 0.5, 0.5]).mean() == math.inf


def test_ensemble_integral_ft_all_choices_property():
    rng = np.random.default_rng(555)
    for _ in range(8):
        ep = random_episode(rng)
        for choice in tj.BackwardChoice:
            ens = tj.backward_ensemble(ep, choice)
            assert abs(ens.integral_ft() - 1.0) < 1e-10
            assert ens.average_sigma() >= -1e-10


BAD_SAMPLES = {
    "empty": ([], []),
    "nan-value": ([0.0, math.nan], [0.5, 0.5]),
    "nan-probability": ([0.0, 1.0], [0.5, math.nan]),
    "inf-probability": ([0.0, 1.0], [0.5, math.inf]),
    "-inf-probability": ([0.0, 1.0], [-math.inf, 1.0]),
    "shape": ([0.0, 1.0], [1.0]),
}


@pytest.mark.parametrize("make", [tj.ScalarDistribution, tj.ScalarDistribution.from_samples],
                         ids=["direct", "from_samples"])
@pytest.mark.parametrize("case", BAD_SAMPLES)
def test_scalar_distribution_rejects_invalid(make, case):
    values, probabilities = BAD_SAMPLES[case]
    with pytest.raises(tj.TrajectoryError):
        make(np.array(values), np.array(probabilities))


def test_from_samples_rejects_samples_without_weight():
    with pytest.raises(tj.TrajectoryError):
        tj.ScalarDistribution.from_samples([0.0, 1.0], [0.0, 0.0])


def test_scalar_distribution_keeps_infinite_values():
    dist = tj.ScalarDistribution.from_samples([math.inf, 2.0, math.inf, -math.inf],
                                              [0.25, 0.25, 0.25, 0.25])
    assert dist.values.tolist() == [-math.inf, 2.0, math.inf]
    assert dist.probabilities.tolist() == [0.25, 0.25, 0.5]


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_central_moments_of_infinite_support_raise(value):
    # the mean is +-inf; a central moment would be inf - inf
    dist = tj.ScalarDistribution.from_samples([0.0, 1.0, value], [0.3, 0.3, 0.4])
    assert dist.mean() == value
    for central in (dist.variance, dist.cumulants, lambda: dist.moment(3, central=True)):
        with pytest.raises(tj.TrajectoryError, match=f"value {value} carries probability 0.4"):
            central()
