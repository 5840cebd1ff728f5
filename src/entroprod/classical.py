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

A rate matrix keeps its generator as a dense array and its reservoir parts
as rates on a shared edge list (`ReservoirEdges`).  The Ising generator is
2^N x 2^N with N 2^N flip rates per part, so the lattice is capped at 12
sites, where the dense array is 128 MiB.  Measured with tracemalloc at
N = 9 and 10, building and validating one peaks at 1.4 and 1.3 times that
array, and the stationary solve at 2.1 and 2.0 times it, the array and
LAPACK's LU copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (NULL_RCOND_TOL, _check_probabilities, _eigvalsh, _integer, _real, _real_array,
                   bordered_solve, propagate)

# A detailed-balance flow asymmetry |W_ij p_j - W_ji p_i| at most this is zero.
DETAILED_BALANCE_TOL = 1e-10


class ClassicalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rate matrices
# ---------------------------------------------------------------------------

class ReservoirEdges(NamedTuple):
    """Reservoir parts on one shared list of distinct off-diagonal transitions
    in row-major order: part k moves j[e] -> i[e] at rate rates[k, e], and
    its diagonal is minus its column sums."""

    i: np.ndarray
    j: np.ndarray
    rates: np.ndarray


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator W (columns sum to zero) with an optional per-reservoir
    decomposition sum_alpha W^alpha = W, kept as `ReservoirEdges`; dense
    parts are accepted and read onto their edges once."""

    w: np.ndarray
    reservoirs: ReservoirEdges | None = None

    def __post_init__(self):
        w = _check_generator(self.w, "rate matrix")
        object.__setattr__(self, "w", w)
        if self.reservoirs is not None:
            object.__setattr__(self, "reservoirs", _checked_parts(w, self.reservoirs))

    @classmethod
    def from_offdiagonal(cls, rates, reservoirs=None):
        """Build from off-diagonal rates and dense reservoir parts (diagonals filled
        automatically); `ReservoirEdges` go to `RateMatrix(w, edges)` or `from_edges`."""
        if isinstance(reservoirs, ReservoirEdges):
            raise ClassicalError("reservoirs of from_offdiagonal are dense parts; ReservoirEdges "
                                 "go to RateMatrix(w, edges) or from_edges")
        parts = None if reservoirs is None else tuple(
            _fill_diagonal(_real_array(p, ClassicalError, "rates").copy()) for p in reservoirs)
        return cls(_fill_diagonal(_real_array(rates, ClassicalError, "rates").copy()), parts)

    @classmethod
    def from_edges(cls, n_states, i, j, rates):
        """Build from reservoir parts on edges (`ReservoirEdges`): W is their
        sum on each edge and minus the parts' column sums on the diagonal."""
        n = _integer(n_states, ClassicalError, "n_states", low=1)
        edges = _edges(n, i, j, rates)
        w = np.zeros((n, n))
        w[edges.i, edges.j] = edges.rates.sum(axis=0)
        np.fill_diagonal(w, -sum(np.bincount(edges.j, r, n) for r in edges.rates))
        return cls(w, edges)


def _edges(n, i, j, rates):
    """(i, j, rates) as the `ReservoirEdges` of an n-state generator, sorted to
    row-major order; else ClassicalError: i and j integer arrays of distinct
    transitions between two of the n states, and one rate per part and edge,
    finite and >= -1e-12 (`_real`)."""
    i, j = np.asarray(i), np.asarray(j)
    rates = np.asarray(_real(rates, ClassicalError, "edge rates", low=-1e-12))
    if not (rates.ndim == 2 and i.shape == j.shape == rates.shape[1:]
            and i.dtype.kind in "iu" and j.dtype.kind in "iu"):
        raise ClassicalError("edges must be integer arrays i, j with one rate per part and "
                             f"edge, got shapes {i.shape}, {j.shape} and {rates.shape}")
    order = np.argsort(i * n + j, kind="stable")
    if not ((i >= 0) & (i < n) & (j >= 0) & (j < n) & (i != j)).all() \
            or (np.diff((i * n + j)[order]) == 0).any():
        raise ClassicalError(f"edges must be distinct transitions between two of the {n} states")
    return ReservoirEdges(i[order], j[order], rates[:, order])


def _on_edges(parts, shape):
    """Dense generator parts as `ReservoirEdges` on the union of their nonzero
    off-diagonal rates."""
    live = np.zeros(shape, dtype=bool)
    for part in parts:
        live |= part != 0.0
    np.fill_diagonal(live, False)
    i, j = np.nonzero(live)
    rates = np.array([part[i, j] for part in parts]).reshape(len(parts), i.size)
    return ReservoirEdges(i, j, rates)


def _checked_parts(w, parts):
    """The reservoir parts of w as `ReservoirEdges`, dense parts each passing
    `_check_generator`; they must sum to w entry by entry within 1e-9 of its
    largest rate, with w read but never copied: no rate of w above that where
    no part has one, and the parts' sum on each edge and on the diagonal."""
    n = w.shape[0]
    if isinstance(parts, ReservoirEdges):
        edges = _edges(n, *parts)
        diagonals = [-np.bincount(edges.j, r, n) for r in edges.rates]
    else:
        parts = [_check_generator(p, f"reservoir part {k}", w.shape) for k, p in enumerate(parts)]
        edges, diagonals = _on_edges(parts, w.shape), [np.diag(p) for p in parts]
    tol = 1e-9 * max(1.0, w.max(), -w.min())
    rest = w[np.append(edges.i, range(n)), np.append(edges.j, range(n))]   # edges, diagonal
    # off the edges the parts are 0, and w is at least -1e-12 > -tol there
    off = np.count_nonzero(w > tol) - np.count_nonzero(rest > tol)
    if off:
        raise ClassicalError(f"rate matrix has rates above {tol:.1e} at {off} entries where "
                             "no reservoir part has one")
    for cut in np.hstack([edges.rates, np.reshape(diagonals, (-1, n))]):
        rest -= cut
    if np.abs(rest).max() > tol:
        raise ClassicalError("reservoir parts do not sum to the full generator")
    return edges


def _check_generator(m, name, shape=None):
    """m as a float generator, the rule for a rate matrix and for each of
    its reservoir parts: non-empty, square (of `shape` when given), finite,
    no off-diagonal rate below -1e-12 and columns summing to zero within
    1e-9 of the largest rate; else ClassicalError naming m."""
    m = _real_array(m, ClassicalError, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ClassicalError(f"{name} must be square and non-empty, got shape {m.shape}")
    n = m.shape[0]
    if shape is not None and m.shape != shape:
        raise ClassicalError(f"{name} is {n}x{n}, the rate matrix {shape[0]}x{shape[1]}")
    low, high = m.min(), m.max()
    if not math.isfinite(low) or not math.isfinite(high):     # NaN fails too
        raise ClassicalError(f"{name}: rates must be finite")
    # the off-diagonal entries as a strided view: row r holds m[r, r+1 ..] and m[r+1, .. r]
    off = m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].min(initial=0.0)
    if off < -1e-12:
        raise ClassicalError(f"{name}: negative off-diagonal rate {off:.3e}")
    col = np.abs(m.sum(axis=0)).max()
    if col > 1e-9 * max(1.0, high, -low):
        raise ClassicalError(f"{name}: columns must sum to zero (residual {col:.3e})")
    return m


def _fill_diagonal(m):
    """Set the diagonal of m in place so that its columns sum to zero."""
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=0))
    return m


def _probabilities(rates: RateMatrix, p, name="p"):
    """p as one probability per state of `rates` (`_check_probabilities`),
    else ClassicalError naming both sizes."""
    p = _check_probabilities(p, ClassicalError)
    n = rates.w.shape[0]
    if p.shape != (n,):
        raise ClassicalError(f"{name} has shape {p.shape}, not ({n},) for the {n} states "
                             "of the rate matrix")
    return p


def evolve(rates: RateMatrix, p0, t: float):
    """Propagate dp/dt = W p over time t: `core.propagate` on the grid [0, t]."""
    p0, t = _probabilities(rates, p0, "p0"), _real(t, ClassicalError, "t", low=0.0)
    p = propagate(rates.w, [0.0, t], p0, ClassicalError)[1][1]
    if p.min() < -1e-12:
        raise ClassicalError(f"propagation produced negative probability {p.min():.3e}")
    return np.clip(p, 0.0, None) / p.sum()


def stationary_distribution(rates: RateMatrix) -> np.ndarray:
    """The unique p with W p = 0 and sum p = 1, from one LU solve of the
    bordered generator W - u 1^T (u the first state), as in
    `lindblad.steady_state`.  A generator whose stationary distribution is
    not unique (more than one closed class) makes the bordered matrix
    singular, and its reciprocal condition estimate below NULL_RCOND_TOL is an error.
    """
    p = bordered_solve(rates.w, slice(None))
    if p is None:
        raise ClassicalError(
            "stationary distribution not unique "
            f"(bordered generator singular within {NULL_RCOND_TOL:g})")
    if p.min() < -1e-10:
        raise ClassicalError("stationary vector has negative entries")
    return np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum()


# ---------------------------------------------------------------------------
# Schnakenberg entropy production
# ---------------------------------------------------------------------------

def _edge_terms(i, j, rate, p):
    """Arrays (f, b, J, X) over the transitions j -> i with i < j and a nonzero
    rate on the row-major edge list (i, j): f and b the positions of each one
    and of its reverse, J = rate_f p_j - rate_b p_i and X = ln(rate_f p_j /
    rate_b p_i), with the 0 ln 0 conventions: X = 0 when both flows vanish,
    +-inf when only one does."""
    n = len(p)
    keys, live = i * n + j, rate != 0.0
    b = np.searchsorted(keys, j * n + i).clip(max=keys.size - 1)
    one_way = live & ~((keys[b] == j * n + i) & live[b])
    for e in np.flatnonzero(one_way)[:1]:
        raise ClassicalError(
            f"one-way transition between states {j[e]} and {i[e]}: "
            "entropy production is ill-defined")
    f = np.flatnonzero(live & (i < j))
    b = b[f]
    x = rate[f] * p[j[f]]
    y = rate[b] * p[i[f]]
    with np.errstate(divide="ignore", invalid="ignore"):
        forces = np.log(x / y)
    # no flow either way carries no force; a zero probability with
    # nonzero inflow keeps its divergent one
    forces[(x == 0.0) & (y == 0.0)] = 0.0
    return f, b, x - y, forces


@dataclass(frozen=True, eq=False)
class SchnakenbergRates:
    sigma_rate: float
    flux_rate: float
    entropy_rate: float
    currents: np.ndarray
    forces: np.ndarray


def schnakenberg(rates: RateMatrix, p) -> SchnakenbergRates:
    """Single-generator split: Sigma_rate = 1/2 sum J_ij X_ij >= 0 and the
    flux is linear in p; dS/dt = Sigma_rate - Phi_rate exactly."""
    p = _probabilities(rates, p)
    i, j, (rate,) = _on_edges([rates.w], rates.w.shape)
    f, b, jj, xx = _edge_terms(i, j, rate, p)
    currents, forces = np.zeros((2,) + rates.w.shape)
    currents[i[f], j[f]], forces[i[f], j[f]] = jj, xx
    currents, forces = currents - currents.T, forces - forces.T
    sigma = float(np.sum(jj * xx))
    finite = np.isfinite(xx)
    flux = float(np.sum(jj[finite] * np.log(rate[f] / rate[b])[finite]))
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
    p = _probabilities(rates, p)
    i, j, parts = rates.reservoirs
    sigma_correct = 0.0
    for rate in parts:
        _, _, jj, xx = _edge_terms(i, j, rate, p)
        sigma_correct += float(np.sum(jj * xx))
    i, j, (rate,) = _on_edges([rates.w], rates.w.shape)
    _, _, jj, xx = _edge_terms(i, j, rate, p)
    return sigma_correct, float(np.sum(jj * xx))


def kl_divergence_rate(rates: RateMatrix, p, p_stationary):
    """-d/dt S(p || p*) = -sum_i (W p)_i ln(p_i / p*_i), exact; equals the
    Schnakenberg rate under detailed balance (and differs otherwise).

    A state with p_i = 0 adds +inf where (W p)_i > 0 and 0 where
    (W p)_i = 0.  p*_i = 0 where p_i or (W p)_i is not is an error:
    S(p || p*) is or becomes infinite.
    """
    p, q = _probabilities(rates, p), _probabilities(rates, p_stationary, "p_stationary")
    flow = rates.w @ p
    if ((q == 0.0) & ((p > 0.0) | (flow != 0.0))).any():
        raise ClassicalError("relative entropy to p* is infinite: p* vanishes "
                             "where p or dp/dt does not")
    if ((p == 0.0) & (flow > 0.0)).any():
        return math.inf
    live = p > 0.0
    return -float(flow[live] @ np.log(p[live] / q[live]))


def is_detailed_balanced(rates: RateMatrix, p_stationary) -> bool:
    flow = rates.w * _probabilities(rates, p_stationary, "p_stationary")
    return bool(np.all(np.abs(flow - flow.T) <= DETAILED_BALANCE_TOL))


# ---------------------------------------------------------------------------
# Full counting statistics
# ---------------------------------------------------------------------------

def _counted_edges(rates: RateMatrix, counted):
    """(edges, n): the `ReservoirEdges` of `rates` (of w alone without a
    decomposition) and the net count n[k, e] that part k's transition
    j[e] -> i[e] adds to the counted current."""
    d = rates.w.shape[0]
    edges = _on_edges([rates.w], rates.w.shape) if rates.reservoirs is None else rates.reservoirs
    counts = np.zeros(edges.rates.shape)
    for i, j, alpha in counted:
        k = alpha if rates.reservoirs is not None else 0 if alpha is None else -1
        if not (isinstance(k, int) and 0 <= k < len(counts)):
            raise ClassicalError(f"unknown reservoir {alpha}")
        i, j = (_integer(s, ClassicalError, "counted state", low=0) for s in (i, j))
        if max(i, j) >= d:
            raise ClassicalError(f"counted transition {j} -> {i} is not between the {d} states")
        counts[k, (edges.i == i) & (edges.j == j)] += 1.0
        counts[k, (edges.i == j) & (edges.j == i)] -= 1.0
    return edges, counts


def tilted_generator(rates: RateMatrix, counted, chi: float) -> np.ndarray:
    """Tilt the counted off-diagonals by e^{+-chi}.

    counted: list of (i, j, alpha) edges; the alpha-reservoir transition
    j -> i gains e^{+chi} and its reverse e^{-chi}.  alpha is the index
    into the reservoir decomposition, or None to count on the bare
    generator (only allowed when no decomposition is attached).  The
    dominant eigenvalue is the scaled cumulant generating function.
    """
    (i, j, parts), counts = _counted_edges(rates, counted)
    tilted = rates.w.copy()
    tilted[i, j] = sum(rate * np.exp(n * chi) for rate, n in zip(parts, counts))
    return tilted


def _current_cumulants(rates: RateMatrix, counted, p):
    """(J, lambda''(0)) of the counted current at the stationary p."""
    edges, counts = _counted_edges(rates, counted)
    w1, w2 = np.zeros((2,) + rates.w.shape)
    w1[edges.i, edges.j] = (edges.rates * counts).sum(axis=0)
    w2[edges.i, edges.j] = (edges.rates * counts * counts).sum(axis=0)
    j = float(np.sum(w1 @ p))
    x = bordered_solve(rates.w, slice(None), j * p - w1 @ p)
    if x is None:
        raise ClassicalError("stationary distribution not unique")
    return j, float(np.sum(w2 @ p) + 2.0 * np.sum(w1 @ x))


def scaled_cumulants(rates: RateMatrix, counted):
    """Long-time mean J = lambda'(0) and variance lambda''(0) of the counted
    net current, lambda(chi) = lim ln <e^{chi N}> / t being the dominant
    eigenvalue of `tilted_generator`.

    Exact, from the first two chi-derivatives W1, W2 of the tilted
    generator at the stationary p (Landi, Kewming, Mitchison & Potts, PRX
    Quantum 5, 020201 (2024)): J = 1^T W1 p and lambda''(0) = 1^T W2 p
    + 2 1^T W1 x, where W x = (J - W1) p and 1^T x = 0, solved with the
    bordered generator of `stationary_distribution`.
    """
    return _current_cumulants(rates, counted, stationary_distribution(rates))


def tur_check(rates: RateMatrix, counted, p_stationary=None):
    """Thermodynamic uncertainty relation var/J^2 >= 2/Sigma_rate at the
    steady state; returns (lhs, rhs, satisfied)."""
    p_ss = stationary_distribution(rates) if p_stationary is None \
        else _probabilities(rates, p_stationary, "p_stationary")
    j, var = _current_cumulants(rates, counted, p_ss)
    # a current within DETAILED_BALANCE_TOL of 0 is round-off of a vanishing one
    if abs(j) <= DETAILED_BALANCE_TOL:
        raise ClassicalError(f"counted current vanishes (J = {j:.1e}); TUR check undefined")
    sigma, _ = multibath_sigma(rates, p_ss) if rates.reservoirs is not None \
        else (schnakenberg(rates, p_ss).sigma_rate, None)
    lhs = var / j ** 2
    rhs = 2.0 / sigma
    return lhs, rhs, lhs >= rhs - 1e-8


# ---------------------------------------------------------------------------
# Onsager quadratic form
# ---------------------------------------------------------------------------

def onsager_sigma(l_matrix, affinities):
    """Entropy production x^T L x of linear response, with L symmetrized;
    reports whether the symmetric part is PSD."""
    l = _real_array(l_matrix, ClassicalError, "Onsager matrix")
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ClassicalError(f"Onsager matrix must be square, got shape {l.shape}")
    x = np.ravel(_real(affinities, ClassicalError, "affinities"))
    if x.size != len(l):
        raise ClassicalError(f"{x.size} affinities for the {len(l)}x{len(l)} Onsager matrix")
    sym = 0.5 * (l + l.T)
    value = float(x @ sym @ x)
    psd = bool(_eigvalsh(sym).min() >= -1e-12)
    return value, psd


# ---------------------------------------------------------------------------
# Two-temperature Glauber-Ising lattice (exact, small N)
# ---------------------------------------------------------------------------

def _flip_rates(n_sites, coupling, adjacency, beta, mu):
    """(2^N, N) array of w_i(s) = (1/2) {1 - s_i tanh[beta_i (J sum_delta
    s_(i+delta) + mu_i / 2)]}; bit i of the state index is spin i.  J is read by `_real`."""
    coupling = _real(coupling, ClassicalError, "coupling")
    if n_sites > 12:
        raise ClassicalError("lattice cap is 12 sites: the dense 2^N x 2^N generator is "
                             "128 MiB at N = 12, and its stationary solve holds two, 4 times "
                             "that per added site")
    adjacency = [list(neigh) for neigh in adjacency]
    if len(adjacency) != n_sites:
        raise ClassicalError("adjacency list must cover every site")
    spins = 2.0 * ((np.arange(1 << n_sites)[:, None] >> np.arange(n_sites)) & 1) - 1.0
    local = np.stack([spins[:, neigh].sum(axis=1) for neigh in adjacency], axis=1)
    return 0.5 * (1.0 - spins * np.tanh(beta * (coupling * local + mu / 2.0)))


def _flip_matrix(parts) -> RateMatrix:
    """The rate matrix of single spin flips, reservoir k flipping site b of
    state s at rate parts[k][s, b], on the edges s -> s ^ 2^b."""
    d, n_sites = parts[0].shape
    j = np.repeat(np.arange(d), n_sites)
    return RateMatrix.from_edges(d, j ^ np.tile(1 << np.arange(n_sites), d), j,
                                 [part.ravel() for part in parts])


def glauber_ising(n_sites: int, coupling: float, temperature, mu,
                  adjacency) -> RateMatrix:
    """Single-spin-flip lattice with per-site reservoirs.

    Rates w_i(s) = (1/2) {1 - s_i tanh[beta_i (J sum_delta s_(i+delta)
    + mu_i / 2)]}; sites sharing (T_i, mu_i) share a reservoir, giving the
    per-reservoir decomposition needed for the physical entropy production.
    At most 12 sites: the generator is a dense 2^N x 2^N array (each
    reservoir part is its N 2^N flip rates on the generator's edges).
    """
    n_sites = _integer(n_sites, ClassicalError, "n_sites", low=1)
    temperature = _real(temperature, ClassicalError, "temperature", above=0.0, rows=(n_sites,))
    mu = _real(mu, ClassicalError, "mu", rows=(n_sites,))
    rates = _flip_rates(n_sites, coupling, adjacency, 1.0 / temperature, mu)
    keys = list(zip(temperature.tolist(), mu.tolist()))
    return _flip_matrix([rates * [k == key for k in keys] for key in sorted(set(keys))])


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
    n_sites = _integer(n_sites, ClassicalError, "n_sites", low=1)
    temperature = _real(temperature, ClassicalError, "temperature", above=0.0)
    return _flip_matrix([_flip_rates(n_sites, coupling, adjacency, 1.0 / temperature,
                                     _real(mu, ClassicalError, name))
                         for mu, name in ((mu_a, "mu_a"), (mu_b, "mu_b"))])


def ring_adjacency(n_sites: int):
    return [((k - 1) % n_sites, (k + 1) % n_sites) for k in range(n_sites)]


def checkerboard_mu(n_sites: int, mu: float):
    """Alternating +mu / -mu pattern."""
    return [mu if k % 2 == 0 else -mu for k in range(n_sites)]


# ---------------------------------------------------------------------------
# 1-d Fokker-Planck
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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


def _chang_cooper_generator(f_face, delta, dx, diffusion):
    """Flux-form discrete generator with the exponential-fitting weights
    that make the discrete Boltzmann distribution exactly stationary;
    reflecting boundaries."""
    # through face k, cell k loses and cell k + 1 gains c_k P_k + c_k1 P_(k+1)
    c_k = (f_face * (1.0 - delta) + diffusion / dx) / dx
    c_k1 = (f_face * delta - diffusion / dx) / dx
    return (np.diag(np.append(0.0, c_k1) - np.append(c_k, 0.0))
            + np.diag(-c_k1, 1) + np.diag(c_k, -1))


def fokker_planck_1d(potential, temperature: float, x_grid, p0,
                     t: float) -> FokkerPlanckResult:
    """Overdamped diffusion dx = -V'(x) dt + sqrt(2T) dW on a uniform grid.

    Returns the density at time t, propagated by one matrix exponential of
    the discrete generator G, plus the two entropy production rates at
    time t: the current form (1/D) int J^2/P dx and the relative-entropy
    form -d/dt S(P || P_th) = -int (G P) ln(P / P_th) dx, as in
    `kl_divergence_rate`; they agree within the discretization budget.
    Cells with P below 1e-280 are left out of both.  Mass is conserved by
    the flux form exactly.
    """
    x = np.asarray(_real(x_grid, ClassicalError, "x grid"))
    dx = x[1] - x[0] if x.ndim == 1 and x.size > 1 else math.nan
    if not (dx > 0 and np.abs(np.diff(x) - dx).max() <= 1e-9 * dx):
        raise ClassicalError("grid must be uniform, increasing and of at least 2 points")
    diffusion = temperature = _real(temperature, ClassicalError, "temperature", above=0.0)
    t = _real(t, ClassicalError, "t", low=0.0)
    v = np.array([potential(xi) for xi in x], dtype=float)
    p = np.asarray(_real(p0, ClassicalError, "p0", low=0.0))
    if not np.isfinite(v).all():
        raise ClassicalError("potential must be finite on the grid")
    if p.shape != x.shape or not p.sum() > 0.0:
        raise ClassicalError("p0 must be one value per grid point, not all zero")
    f_face, delta = _chang_cooper_faces(-np.gradient(v, x), dx, diffusion)
    gen = _chang_cooper_generator(f_face, delta, dx, diffusion)
    p = np.clip(p, 1e-300, None)
    p_t = np.clip(propagate(gen, [0.0, t], p / (p.sum() * dx), ClassicalError)[1][1],
                  1e-300, None)
    p_th = np.exp(-(v - v.min()) / temperature)
    p_th = p_th / (p_th.sum() * dx)

    p_face = delta * p_t[1:] + (1.0 - delta) * p_t[:-1]
    j = f_face * p_face - diffusion * (np.diff(p_t) / dx)
    keep = p_face > 1e-280
    live = p_t > 1e-280
    return FokkerPlanckResult(
        x=x,
        p=p_t,
        sigma_rate_current=float(np.sum(j[keep] ** 2 / p_face[keep]) * dx) / diffusion,
        sigma_rate_kl=-float((gen @ p_t)[live] @ np.log(p_t[live] / p_th[live])) * dx,
        mass=float(p_t.sum() * dx),
    )
