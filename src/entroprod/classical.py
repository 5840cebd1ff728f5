"""Classical stochastic thermodynamics on finite state spaces.

Rate matrices follow the column convention W[i, j] = rate of j -> i with
diagonal W[j, j] = -sum_i W[i, j], so columns sum to zero and dp/dt = W p.
The Schnakenberg split reads

    dS/dt = Sigma_rate - Phi_rate,
    Sigma_rate = 1/2 sum_ij (W_ij p_j - W_ji p_i) ln[(W_ij p_j)/(W_ji p_i)] >= 0,
    Phi_rate   = 1/2 sum_ij (W_ij p_j - W_ji p_i) ln(W_ij / W_ji),

and with several reservoirs the per-reservoir sum (never the lumped-rate
expression, which underestimates) is the physical entropy production.
The module also carries full counting statistics with a tilted generator,
Onsager quadratic forms, the two-temperature single-flip Ising lattice and
a 1-d Fokker-Planck solver with a flux-exact discretization.

The Ising generators are dense 2^N x 2^N arrays, so the lattice is capped
at 12 sites: each such array is then 128 MiB, and building and validating
one holds about seven of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import bordered_null_vector, classical_kl


class ClassicalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rate matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateMatrix:
    """Generator W (columns sum to zero) with an optional per-reservoir
    decomposition sum_alpha W^alpha = W."""

    w: np.ndarray
    reservoirs: tuple | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.shape[0] != w.shape[1]:
            raise ClassicalError("rate matrix must be square")
        if not np.isfinite(w).all():
            raise ClassicalError("rates must be finite")
        off = w - np.diag(np.diag(w))
        if off.min() < -1e-12:
            raise ClassicalError(f"negative off-diagonal rate {off.min():.3e}")
        col = np.abs(w.sum(axis=0)).max()
        if col > 1e-9 * max(1.0, np.abs(w).max()):
            raise ClassicalError(f"columns must sum to zero (residual {col:.3e})")
        object.__setattr__(self, "w", w)
        if self.reservoirs is not None:
            parts = tuple(np.asarray(p, dtype=float) for p in self.reservoirs)
            if not all(np.isfinite(p).all() for p in parts):
                raise ClassicalError("reservoir rates must be finite")
            total = sum(parts)
            if np.abs(total - w).max() > 1e-9 * max(1.0, np.abs(w).max()):
                raise ClassicalError("reservoir parts do not sum to the full generator")
            object.__setattr__(self, "reservoirs", parts)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    @classmethod
    def from_offdiagonal(cls, rates, reservoirs=None):
        """Build from off-diagonal rates (diagonal filled automatically)."""
        parts = None if reservoirs is None else tuple(
            _fill_diagonal(np.array(p, dtype=float)) for p in reservoirs)
        return cls(_fill_diagonal(np.array(rates, dtype=float)), parts)


def _fill_diagonal(m):
    """Set the diagonal of m in place so that its columns sum to zero."""
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=0))
    return m


def _check_probability(p):
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ClassicalError("probabilities must be finite")
    if p.min() < -1e-12:
        raise ClassicalError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ClassicalError(f"probabilities sum to {p.sum()}")
    return np.clip(p, 0.0, None)


def evolve(rates: RateMatrix, p0, t: float):
    """Propagate dp/dt = W p over time t via the matrix exponential."""
    p0 = _check_probability(p0)
    p = expm(rates.w * t) @ p0
    if p.min() < -1e-12:
        raise ClassicalError(f"propagation produced negative probability {p.min():.3e}")
    return np.clip(p, 0.0, None) / p.sum()


def stationary_distribution(rates: RateMatrix) -> np.ndarray:
    """The unique p with W p = 0 and sum p = 1, from one LU solve of the
    bordered generator W - u 1^T (u the first state), as in
    `lindblad.steady_state`.  A generator whose stationary distribution is
    not unique (more than one closed class) makes the bordered matrix
    singular, and its reciprocal condition estimate below 1e-8 is an error.
    """
    p = bordered_null_vector(rates.w, slice(None))
    if p is None:
        raise ClassicalError(
            "stationary distribution not unique (bordered generator singular within 1e-8)")
    if p.min() < -1e-10:
        raise ClassicalError("stationary vector has negative entries")
    return np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum()


# ---------------------------------------------------------------------------
# Schnakenberg entropy production
# ---------------------------------------------------------------------------

def _edge_terms(w, p):
    """Arrays (i, j, J_ij, X_ij) over the i < j edges of w, with the 0 ln 0
    conventions: X = 0 when both flows vanish, +-inf when only one does."""
    nonzero = w != 0.0
    forward = np.triu(nonzero, 1)
    one_way = forward != np.triu(nonzero.T, 1)
    if one_way.any():
        i, j = np.argwhere(one_way)[0]
        raise ClassicalError(
            f"one-way transition between states {j} and {i}: "
            "entropy production is ill-defined")
    i, j = np.nonzero(forward)
    x = w[i, j] * p[j]
    y = w[j, i] * p[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        forces = np.log(x / y)
    # no flow either way carries no force; a zero probability with
    # nonzero inflow keeps its divergent one
    forces[(x == 0.0) & (y == 0.0)] = 0.0
    return i, j, x - y, forces


@dataclass(frozen=True)
class SchnakenbergRates:
    sigma_rate: float
    flux_rate: float
    entropy_rate: float
    currents: np.ndarray
    forces: np.ndarray


def schnakenberg(rates: RateMatrix, p) -> SchnakenbergRates:
    """Single-generator split: Sigma_rate = 1/2 sum J_ij X_ij >= 0 and the
    flux is linear in p; dS/dt = Sigma_rate - Phi_rate exactly."""
    p = _check_probability(p)
    w = rates.w
    i, j, jj, xx = _edge_terms(w, p)
    currents, forces = np.zeros((2,) + w.shape)
    currents[i, j], forces[i, j] = jj, xx
    currents, forces = currents - currents.T, forces - forces.T
    sigma = float(np.sum(jj * xx))
    finite = np.isfinite(xx)
    flux = float(np.sum(jj[finite] * np.log(w[i, j] / w[j, i])[finite]))
    ds = sigma - flux if math.isfinite(sigma) else math.inf
    return SchnakenbergRates(sigma, flux, ds, currents, forces)


def multibath_sigma(rates: RateMatrix, p):
    """Per-reservoir and lumped entropy production rates.

    The per-reservoir sum is the physical one; lumping the rates first
    always underestimates (log-sum inequality), so sigma_correct >=
    sigma_lumped.
    """
    if rates.reservoirs is None:
        raise ClassicalError("rate matrix carries no reservoir decomposition")
    p = _check_probability(p)
    sigma_correct = 0.0
    for part in rates.reservoirs:
        _, _, jj, xx = _edge_terms(part, p)
        sigma_correct += float(np.sum(jj * xx))
    _, _, jj, xx = _edge_terms(rates.w, p)
    return sigma_correct, float(np.sum(jj * xx))


def kl_divergence_rate(rates: RateMatrix, p, p_stationary, dt=1e-6):
    """-d/dt S(p || p*) by a one-sided second-order stencil; equals the
    Schnakenberg rate under detailed balance (and differs otherwise)."""
    p_plus = evolve(rates, p, dt)
    p_2plus = evolve(rates, p, 2 * dt)
    k0 = classical_kl(p, p_stationary)
    k1 = classical_kl(p_plus, p_stationary)
    k2 = classical_kl(p_2plus, p_stationary)
    return -(-3 * k0 + 4 * k1 - k2) / (2 * dt)


def is_detailed_balanced(rates: RateMatrix, p_stationary, tol=1e-10) -> bool:
    flow = rates.w * np.asarray(p_stationary, dtype=float)
    return bool(np.all(np.abs(flow - flow.T) <= tol))


# ---------------------------------------------------------------------------
# Full counting statistics
# ---------------------------------------------------------------------------

def tilted_generator(rates: RateMatrix, counted, chi: float) -> np.ndarray:
    """Tilt the counted off-diagonals by e^{+-chi}.

    counted: list of (i, j, alpha) edges; the alpha-reservoir transition
    j -> i gains e^{+chi} and its reverse e^{-chi}.  alpha is the index
    into the reservoir decomposition, or None to count on the bare
    generator (only allowed when no decomposition is attached).
    """
    if rates.reservoirs is None:
        tilted_parts = [rates.w.copy()]
        lookup = lambda alpha: 0 if alpha is None else None  # noqa: E731
    else:
        tilted_parts = [p.copy() for p in rates.reservoirs]
        lookup = lambda alpha: alpha if isinstance(alpha, int) and \
            0 <= alpha < len(tilted_parts) else None  # noqa: E731
    for (i, j, alpha) in counted:
        k = lookup(alpha)
        if k is None:
            raise ClassicalError(f"unknown reservoir {alpha}")
        part = tilted_parts[k]
        part[i, j] = part[i, j] * math.exp(chi)
        part[j, i] = part[j, i] * math.exp(-chi)
    return sum(tilted_parts)


def scaled_cumulants(rates: RateMatrix, counted, h: float = 1e-4):
    """Long-time mean and variance of the counted net current from the
    dominant eigenvalue of the tilted generator; derivatives by central
    differences with one Richardson refinement, eigenvalue tracked by
    continuity from chi = 0 (largest real part)."""

    def lead(chi):
        vals = np.linalg.eigvals(tilted_generator(rates, counted, chi))
        order = np.argsort(-np.real(vals))
        top = vals[order[0]]
        if len(vals) > 1 and abs(np.real(vals[order[0]]) - np.real(vals[order[1]])) < 1e-12:
            raise ClassicalError("non-unique dominant eigenvalue")
        return float(np.real(top))

    def d1(step):
        return (lead(step) - lead(-step)) / (2 * step)

    def d2(step):
        return (lead(step) - 2 * lead(0.0) + lead(-step)) / step ** 2

    mean = (4 * d1(h / 2) - d1(h)) / 3.0
    var = (4 * d2(h / 2) - d2(h)) / 3.0
    # counting convention: lambda(chi) = ln <e^{+chi N}> rate, so
    # mean = lambda'(0), variance = lambda''(0)
    return mean, var


def tur_check(rates: RateMatrix, counted, p_stationary=None):
    """Thermodynamic uncertainty relation var/J^2 >= 2/Sigma_rate at the
    steady state; returns (lhs, rhs, satisfied)."""
    p_ss = stationary_distribution(rates) if p_stationary is None else p_stationary
    j, var = scaled_cumulants(rates, counted)
    sigma, _ = multibath_sigma(rates, p_ss) if rates.reservoirs is not None \
        else (schnakenberg(rates, p_ss).sigma_rate, None)
    if j == 0:
        raise ClassicalError("counted current vanishes; TUR check undefined")
    lhs = var / j ** 2
    rhs = 2.0 / sigma
    return lhs, rhs, lhs >= rhs - 1e-8


# ---------------------------------------------------------------------------
# Onsager quadratic form
# ---------------------------------------------------------------------------

def onsager_sigma(l_matrix, affinities):
    """Entropy production x^T L x of linear response, with L symmetrized;
    reports whether the symmetric part is PSD."""
    l = np.asarray(l_matrix, dtype=float)
    if l.shape[0] != l.shape[1]:
        raise ClassicalError("Onsager matrix must be square")
    x = np.asarray(affinities, dtype=float).ravel()
    sym = 0.5 * (l + l.T)
    value = float(x @ sym @ x)
    psd = bool(np.linalg.eigvalsh(sym).min() >= -1e-12)
    return value, psd


# ---------------------------------------------------------------------------
# Two-temperature Glauber-Ising lattice (exact, small N)
# ---------------------------------------------------------------------------

def _flip_rates(n_sites, coupling, adjacency, beta, mu):
    """(2^N, N) array of w_i(s) = (1/2) {1 - s_i tanh[beta_i (J sum_delta
    s_(i+delta) + mu_i / 2)]}; bit i of the state index is spin i."""
    if n_sites > 12:
        raise ClassicalError("lattice cap is 12 sites: the dense 2^N x 2^N "
                             "generator is 128 MiB at N = 12, 4 times that per added site")
    adjacency = [list(neigh) for neigh in adjacency]
    if len(adjacency) != n_sites:
        raise ClassicalError("adjacency list must cover every site")
    spins = 2.0 * ((np.arange(1 << n_sites)[:, None] >> np.arange(n_sites)) & 1) - 1.0
    local = np.stack([spins[:, neigh].sum(axis=1) for neigh in adjacency], axis=1)
    return 0.5 * (1.0 - spins * np.tanh(beta * (coupling * local + mu / 2.0)))


def _flip_generator(rates, sites):
    """Dense generator of the single flips of `sites`, diagonal filled."""
    d = rates.shape[0]
    states = np.arange(d)[:, None]
    sites = np.asarray(sites, dtype=int)
    part = np.zeros((d, d))
    part[states ^ (1 << sites), states] = rates[:, sites]
    return _fill_diagonal(part)


def glauber_ising(n_sites: int, coupling: float, temperature, mu,
                  adjacency) -> RateMatrix:
    """Single-spin-flip lattice with per-site reservoirs.

    Rates w_i(s) = (1/2) {1 - s_i tanh[beta_i (J sum_delta s_(i+delta)
    + mu_i / 2)]}; sites sharing (T_i, mu_i) share a reservoir, giving the
    per-reservoir decomposition needed for the physical entropy production.
    At most 12 sites: the generator and each reservoir part are dense
    2^N x 2^N arrays.
    """
    temperature = np.broadcast_to(np.asarray(temperature, dtype=float), (n_sites,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n_sites,))
    rates = _flip_rates(n_sites, coupling, adjacency, 1.0 / temperature, mu)
    keys = list(zip(temperature.tolist(), mu.tolist()))
    parts = tuple(
        _flip_generator(rates, [site for site, k in enumerate(keys) if k == key])
        for key in sorted(set(keys)))
    return RateMatrix(sum(parts), parts)


def glauber_ising_competing(n_sites: int, coupling: float, temperature: float,
                            mu_a: float, mu_b: float, adjacency) -> RateMatrix:
    """Every site flips through two competing reservoirs at chemical
    potentials mu_a and mu_b (same temperature).

    With a single reservoir (or mu_a = mu_b) the chemical potential acts
    as a staggered conjugate field, so the chain is detailed balanced and
    no entropy is produced at stationarity; two competing values cannot
    share a Gibbs state, which makes the steady state a genuine NESS with
    strictly positive per-reservoir entropy production whenever
    mu_a != mu_b.  At most 12 sites, as for `glauber_ising`.
    """
    parts = tuple(
        _flip_generator(_flip_rates(n_sites, coupling, adjacency, 1.0 / temperature, mu),
                        range(n_sites))
        for mu in (mu_a, mu_b))
    return RateMatrix(sum(parts), parts)


def ring_adjacency(n_sites: int):
    return [((k - 1) % n_sites, (k + 1) % n_sites) for k in range(n_sites)]


def checkerboard_mu(n_sites: int, mu: float):
    """Alternating +mu / -mu pattern."""
    return [mu if k % 2 == 0 else -mu for k in range(n_sites)]


# ---------------------------------------------------------------------------
# 1-d Fokker-Planck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FokkerPlanckResult:
    x: np.ndarray
    p: np.ndarray
    sigma_rate_current: float
    sigma_rate_kl: float
    mass: float


def _chang_cooper_faces(force, dx, diffusion):
    """Face forces f_(k+1/2) and the exponential-fitting weights delta_k
    of the face values P_face = delta P_(k+1) + (1 - delta) P_k, which
    zero the face flux J = f P_face - D (P_(k+1) - P_k)/dx exactly on the
    discrete Boltzmann profile."""
    f_face = 0.5 * (force[:-1] + force[1:])
    w = f_face * dx / diffusion
    small = np.abs(w) < 1e-12
    w = np.where(small, 1.0, w)
    return f_face, np.where(small, 0.5, 1.0 / w - 1.0 / np.expm1(w))


def _chang_cooper_generator(x, force, diffusion):
    """Flux-form discrete generator with the exponential-fitting weights
    that make the discrete Boltzmann distribution exactly stationary;
    reflecting boundaries."""
    dx = x[1] - x[0]
    f_face, delta = _chang_cooper_faces(force, dx, diffusion)
    # through face k, cell k loses and cell k + 1 gains c_k P_k + c_k1 P_(k+1)
    c_k = (f_face * (1.0 - delta) + diffusion / dx) / dx
    c_k1 = (f_face * delta - diffusion / dx) / dx
    return (np.diag(np.append(0.0, c_k1) - np.append(c_k, 0.0))
            + np.diag(-c_k1, 1) + np.diag(c_k, -1))


def fokker_planck_1d(potential, temperature: float, x_grid, p0,
                     t: float) -> FokkerPlanckResult:
    """Overdamped diffusion dx = -V'(x) dt + sqrt(2T) dW on a uniform grid.

    Returns the evolved density plus the two entropy production rates at
    the final time: the current form (1/D) int J^2/P dx and the
    relative-entropy form -d/dt S(P || P_th); they agree within the
    discretization budget.  Mass is conserved by the flux form exactly.
    """
    x = np.asarray(x_grid, dtype=float)
    dx = x[1] - x[0]
    if np.abs(np.diff(x) - dx).max() > 1e-9 * dx:
        raise ClassicalError("grid must be uniform")
    diffusion = temperature
    v = np.array([potential(xi) for xi in x])
    force = -np.gradient(v, x)
    gen = _chang_cooper_generator(x, force, diffusion)
    p = np.asarray(p0, dtype=float).copy()
    p = np.clip(p, 1e-300, None)
    p = p / (p.sum() * dx)
    prop = expm(gen * t)
    p_t = prop @ p
    p_t = np.clip(p_t, 1e-300, None)

    p_th = np.exp(-(v - v.min()) / temperature)
    p_th = p_th / (p_th.sum() * dx)

    f_face, delta = _chang_cooper_faces(force, dx, diffusion)

    def sigma_current(pp):
        p_face = delta * pp[1:] + (1.0 - delta) * pp[:-1]
        j = f_face * p_face - diffusion * ((pp[1:] - pp[:-1]) / dx)
        keep = p_face > 1e-280
        return float(np.sum(j[keep] * j[keep] / p_face[keep] * dx)) / diffusion

    def kl(pp):
        mask = pp > 1e-280
        return float(np.sum(pp[mask] * np.log(pp[mask] / p_th[mask])) * dx)

    # central difference around t + dt, with sigma_current at the midpoint
    dt = min(1e-4, t * 1e-3) if t > 0 else 1e-4
    step = expm(gen * dt)
    p_mid = np.clip(step @ p_t, 1e-300, None)
    p_2dt = np.clip(step @ p_mid, 1e-300, None)
    sigma_kl = (kl(p_t) - kl(p_2dt)) / (2 * dt)
    return FokkerPlanckResult(
        x=x,
        p=p_t,
        sigma_rate_current=sigma_current(p_mid),
        sigma_rate_kl=sigma_kl,
        mass=float(p_t.sum() * dx),
    )
