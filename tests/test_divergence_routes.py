"""Every route to a divergence reads the overlaps <sigma_j|rho_i> the one kernel
(`core._petz_renyi`) forms, in the right orientation: full-rank states whose
eigenvectors are Haar-rotated, complex and non-diagonal (d = 2 and 3, beta != 1),
through each public route, against a dense reference written with
`scipy.linalg.logm` (powers as expm(a logm x)), within 1e-10.  With the
`.conj()` of sigma's eigenvectors dropped in the kernel, each route moves off
its reference."""

import math

import numpy as np
import pytest
from scipy.linalg import expm, logm

from entroprod import core
from entroprod import episodes as eps
from entroprod import lindblad as lb
from entroprod import resource as rs
from entroprod import trajectories as tj
from entroprod.core import DensityOperator, HermitianOperator, thermal_state
from entroprod.rand import random_density, random_hermitian, random_unitary

BETA, BETA2 = 0.7, 1.6
TOL = 1e-10


def log(x):
    return logm(np.asarray(x, dtype=complex))


def power(x, a):
    return expm(a * log(x))


def gibbs(h, beta=BETA):
    g = expm(-beta * np.asarray(h, dtype=complex))
    return g / np.trace(g)


def ptrace(m, dims, keep):
    """Tr over the factor not kept of a matrix on two factors."""
    t = np.asarray(m).reshape(dims * 2)
    return np.einsum("ijkj->ik", t) if keep == 0 else np.einsum("ijil->jl", t)


def renyi(rho, sigma, a=1.0):
    """D_a(rho || sigma) of full-rank states: the support limit a = 0 is 0."""
    rho, sigma = (np.asarray(x, dtype=complex) for x in (rho, sigma))
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return float(np.trace(rho @ (log(rho) - log(sigma))).real)
    if a == math.inf:
        half = power(sigma, -0.5)
        return float(np.log(np.linalg.norm(half @ rho @ half, 2)))
    return float(np.log(np.trace(power(rho, a) @ power(sigma, 1.0 - a)).real) / (a - 1.0))


def matrices(*states):
    return [getattr(s, "matrix", s) for s in states]


def relative_entropy(d, rng):
    rho, sigma = random_density(d, rng), random_density(d, rng)
    return core.relative_entropy(rho, sigma), renyi(*matrices(rho, sigma))


def renyi_route(a):
    def route(d, rng):
        rho, sigma = random_density(d, rng), random_density(d, rng)
        return core.renyi_divergence(rho, sigma, a), renyi(*matrices(rho, sigma), a)
    return route


def env_displacement(d, rng):
    h_s, h_e = random_hermitian(d, rng), random_hermitian(d, rng)
    u = random_unitary(d * d, rng)
    rho_s, rho_e = random_density(d, rng), random_density(d, rng)
    stack = eps.EpisodeStack.of(*(m[None] for m in matrices(h_s, h_e, u, rho_s, rho_e)))
    joint = u.matrix @ np.kron(rho_s.matrix, rho_e.matrix) @ u.matrix.conj().T
    return stack.balance.env_displacement[0], renyi(ptrace(joint, (d, d), 1), rho_e.matrix)


def bath_parts(d, rng):
    h1, h2 = random_hermitian(2, rng), random_hermitian(2, rng)
    g1, g2 = thermal_state(h1, BETA), thermal_state(h2, BETA2)
    h_env = HermitianOperator.from_matrix(np.kron(h1.matrix, np.eye(2))
                                          + np.kron(np.eye(2), h2.matrix), (2, 2))
    rho_e = DensityOperator.from_matrix(np.kron(g1.matrix, g2.matrix), (2, 2))
    u = random_unitary(4 * d, rng, dims=(d, 2, 2))
    rho_s = random_density(d, rng)
    ep = eps.Episode(random_hermitian(d, rng), h_env, u, rho_s, rho_e)
    parts = [eps.BathPart((0,), h1, BETA), eps.BathPart((1,), h2, BETA2)]
    got = eps.multibath_balance_rows(ep.stack, parts).env_displacement[0]
    env = ptrace(u.matrix @ np.kron(rho_s.matrix, rho_e.matrix) @ u.matrix.conj().T,
                 (d, 4), 1)
    want = sum(renyi(ptrace(env, (2, 2), k), g.matrix) for k, g in enumerate((g1, g2)))
    return got, want


def fixed_point_sigma(d, rng):
    rho, after = random_density(d, rng), random_density(d, rng)
    fixed = thermal_state(random_hermitian(d, rng), BETA)
    want = renyi(rho.matrix, fixed.matrix) - renyi(after.matrix, fixed.matrix)
    return eps.fixed_point_sigma(rho, after, fixed), want


def fixed_point_sigma_rows(d, rng):
    rho = [random_density(d, rng) for _ in range(2)]
    after = [random_density(d, rng) for _ in range(2)]
    fixed = thermal_state(random_hermitian(d, rng), BETA)
    want = [renyi(r.matrix, fixed.matrix) - renyi(a.matrix, fixed.matrix)
            for r, a in zip(rho, after)]
    return eps.fixed_point_sigma_rows(DensityOperator.from_stack(matrices(*rho)), after,
                                      fixed), want


def strong_coupling_sigma(d, rng):
    dims = (d, 2)
    h0, h1 = (random_hermitian(2 * d, rng).matrix for _ in range(2))
    h_env = random_hermitian(2, rng)
    states = [random_density(2 * d, rng, dims=dims) for _ in range(3)]
    lams = [0.0, 0.3, 0.7]
    got = eps.strong_coupling_sigma([(0.1 * k, rho, lam) for k, (rho, lam) in
                                     enumerate(zip(states, lams))],
                                    lambda lam: h0 + lam * h1, BETA, h_env, dims)
    delta = []
    for rho, lam in zip(states, lams):
        pi = gibbs(h0 + lam * h1)
        delta.append(renyi(rho.matrix, pi)
                     - renyi(ptrace(rho.matrix, dims, 0), ptrace(pi, dims, 0)))
    return got["sigma_relative_entropy_route"], np.array(delta) - delta[0]


def spohn_relative_entropy(d, rng):
    h0, h1 = (random_hermitian(d, rng).matrix for _ in range(2))
    times = np.array([0.0, 0.25, 0.5, 0.75])

    def model(t):
        # jumps |e_i><e_j| of H(t)'s eigenbasis at detailed-balance rates: Gibbs is fixed
        h = h0 + t * h1
        levels, vecs = np.linalg.eigh(h)
        jumps = tuple((np.outer(vecs[:, i], vecs[:, j].conj()),
                       math.exp(-BETA * (levels[i] - levels[j]) / 2.0))
                      for i in range(d) for j in range(d) if i != j)
        return lb.LindbladModel(h, jumps)

    states = [random_density(d, rng) for _ in times]
    got = lb.spohn_rates(model, list(zip(times, states)), BETA).sigma_rate_relent
    relent = [renyi(rho.matrix, gibbs(h0 + t * h1)) for t, rho in zip(times, states)]
    return got, -np.gradient(relent, times)


def coherence_second_laws(d, rng):
    rho1, rho2 = random_density(d, rng), random_density(d, rng)
    h = random_hermitian(d, rng)
    vecs = np.linalg.eigh(h.matrix)[1]

    def dephased(m):
        return vecs @ np.diag(np.diag(vecs.conj().T @ m @ vecs)) @ vecs.conj().T

    got = rs.coherence_second_laws(rho1, rho2, h).sigma_alpha
    want = [renyi(rho1.matrix, dephased(rho1.matrix), a)
            - renyi(rho2.matrix, dephased(rho2.matrix), a) for a in rs.DEFAULT_ALPHA_GRID]
    return got, want


def interconversion_rate(d, rng):
    rho1, rho2 = random_density(d, rng), random_density(d, rng)
    h = random_hermitian(d, rng)
    g = gibbs(h.matrix)
    return (rs.interconversion_rate(rho1, rho2, BETA, h),
            renyi(rho1.matrix, g) / renyi(rho2.matrix, g))


def work_bounds_rows(d, rng):
    h, rho = random_hermitian(d, rng), random_density(d, rng)
    etas = np.array([0.2, 0.5])
    report = rs.work_bounds_rows(h.matrix[None], BETA, [rho], 0.0, 0.0, etas)
    g = gibbs(h.matrix)
    phi = [-(eta / BETA) * renyi(rho.matrix, g, 1.0 - eta / BETA) for eta in etas]
    return (np.concatenate([report.phi_eta[0], report.w_form_final]),
            phi + [renyi(rho.matrix, g, math.inf) / BETA])


def work_lag(d, rng):
    h_i, h_f = random_hermitian(d, rng).matrix, random_hermitian(d, rng).matrix
    v = random_unitary(d, rng).matrix
    lag = tj.work_rows(h_i[None], h_f[None], v[None], BETA).lag[0]
    return lag, renyi(v @ gibbs(h_i) @ v.conj().T, gibbs(h_f))


ROUTES = {
    "core.relative_entropy": relative_entropy,
    "core.renyi_divergence 1/2": renyi_route(0.5),
    "core.renyi_divergence 2": renyi_route(2.0),
    "core.renyi_divergence inf": renyi_route(math.inf),
    "episodes.EpisodeStack.balance env_displacement": env_displacement,
    "episodes.multibath_balance_rows bath parts": bath_parts,
    "episodes.fixed_point_sigma": fixed_point_sigma,
    "episodes.fixed_point_sigma_rows": fixed_point_sigma_rows,
    "episodes.strong_coupling_sigma": strong_coupling_sigma,
    "lindblad.spohn_rates sigma_rate_relent": spohn_relative_entropy,
    "resource.coherence_second_laws": coherence_second_laws,
    "resource.interconversion_rate": interconversion_rate,
    "resource.work_bounds_rows": work_bounds_rows,
    "trajectories.work_rows lag": work_lag,
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_each_divergence_route_reads_its_overlaps_conjugated(route, d):
    got, want = route(d, np.random.default_rng(480 + d))
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL, (got, want)
