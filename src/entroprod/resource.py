"""Resource theory of athermality for finite-dimensional systems.

States diagonal in the energy basis are ordered by thermo-majorization:
sort levels by p_i e^{beta E_i} (beta-ordering), then compare the concave
piecewise-linear curves through the cumulative points
(sum e^{-beta E_i}, sum p_i).  A state converts into another under thermal
operations iff its curve lies nowhere below; the equivalent picture embeds
everything into plain majorization on a D-dimensional space where the
thermal state becomes uniform.  Catalytic operations refine the order to
the full family of Renyi divergences, giving the second laws
S_alpha(p || p_th) monotone for all alpha >= 0, with coherence adding its
own independent family of constraints.

The comparisons come in row forms: `thermo_majorizes_rows`,
`embedding_verdict_rows`, `gibbs_stochastic_feasible_2d_rows` and
`classical_renyi_rows` take a stack of probability rows on one level set
(and an order grid), `work_bounds_rows` a stack of quenches, each
validated once per stack; every one-pair function is row 0 of its row form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _check_beta,
    _check_probabilities,
    _density_spectra,
    _density_stack,
    _frozen_stack,
    _gibbs,
    _gibbs_states,
    _hermitian,
    _integer,
    _petz_renyi,
    _real,
    _shared_or_rows,
    _spectrum,
    dephase,
    thermal_state,
)

# A curve lies nowhere below another within this, times max(1, its largest ordinate).
CURVE_TOL = 1e-12
# A Renyi second-law difference Sigma_alpha at or above -this counts as >= 0.
SECOND_LAW_TOL = 1e-12
# The d = 2 oracle's rates may leave [0, 1] by this; a smaller slope means p1 is thermal.
FEASIBLE_TOL = 1e-10
# S(rho || rho_th) at or below this is round-off: rho is the thermal state.
THERMAL_TOL = 1e-12
# Two level sets are one when their sorted energies agree within this,
# relative to the largest |E|.
LEVEL_TOL = 1e-9
# Plain majorization: a partial-sum gap of the two vectors within this is zero.
MAJORIZATION_TOL = 1e-12
# The largest gamma-embedding: 10^7 float64 entries are 80 MB.
MAX_DENOMINATOR = 10 ** 7


class ResourceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Populations and curves; the row forms validate once per stack
# ---------------------------------------------------------------------------

def _energies(energies):
    e = _real(energies, ResourceError, "energies")
    if np.ndim(e) != 1:
        raise ResourceError("energies must be a 1-d array")
    return e


def _pair_rows(energies, p1, p2, beta):
    """The validated inputs of a row form: one level set, two stacks of
    probability rows on it of one shape and beta (one, or one per row)."""
    e = _energies(energies)
    p1, p2 = _check_probabilities(p1, ResourceError), _check_probabilities(p2, ResourceError)
    if p1.shape != p2.shape or p1.shape[-1:] != e.shape:
        raise ResourceError(f"population stacks of shapes {p1.shape} and {p2.shape} "
                            f"on {len(e)} levels")
    return e, p1, p2, _check_beta(beta, ResourceError, rows=p1.shape[:-1])


@dataclass(frozen=True, eq=False)
class EnergyPopulations:
    """Diagonal state: (energy, probability) per level.  Both arrays are
    read-only copies, validated once here, so the one-pair functions read
    them without validating again."""

    energies: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        e = np.array(_energies(self.energies))
        p = _check_probabilities(self.probabilities, ResourceError)
        if e.shape != p.shape:
            raise ResourceError("energies/probabilities must be matching 1-d arrays")
        for name, value in (("probabilities", p), ("energies", e)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def thermal_weights(self, beta: float) -> np.ndarray:
        return _gibbs(self.energies, _check_beta(beta, ResourceError))[0]


def _shared_levels(pop1: EnergyPopulations, pop2: EnergyPopulations) -> np.ndarray:
    """pop2's probabilities on pop1's levels.  The two must share the level
    set: equal sorted energies within LEVEL_TOL."""
    if pop2.energies.tobytes() == pop1.energies.tobytes():
        return pop2.probabilities
    o1, o2 = np.argsort(pop1.energies, kind="stable"), np.argsort(pop2.energies, kind="stable")
    e1, e2 = pop1.energies[o1], pop2.energies[o2]
    if e1.shape != e2.shape or np.abs(e1 - e2).max() > LEVEL_TOL * max(1.0, np.abs(e1).max()):
        raise ResourceError("states must share the energy-level set, got "
                            f"{pop1.energies} and {pop2.energies}")
    p2 = np.empty_like(pop2.probabilities)
    p2[o1] = pop2.probabilities[o2]
    return p2


def _beta_order(energies, p, beta):
    """Per row of p, the permutation sorting levels by p_i e^{beta E_i}
    descending, ties by ascending energy, then by index: a stable sort of
    the levels taken in energy order."""
    by_energy = np.argsort(energies, kind="stable")
    keys = p[..., by_energy] * np.exp(np.asarray(beta)[..., None]
                                      * (energies[by_energy] - energies.max()))
    return by_energy[np.argsort(-keys, axis=-1, kind="stable")]


def beta_order(pop: EnergyPopulations, beta: float) -> np.ndarray:
    """Permutation sorting levels by p_i e^{beta E_i} descending.

    Ties are broken by ascending energy, then by original index, so the
    ordering is deterministic; curves are invariant under the tie rule.
    """
    return _beta_order(pop.energies, pop.probabilities, _check_beta(beta, ResourceError))


@dataclass(frozen=True, eq=False)
class ThermoMajCurve:
    """Concave piecewise-linear curve through (sum e^{-beta E}, sum p)
    in beta-order, prefixed with (0, 0)."""

    x: np.ndarray
    y: np.ndarray


def _curves(energies, p, beta):
    """The curve of every row of p as one array (2, ..., d + 1): the
    breakpoints x, then y."""
    order = _beta_order(energies, p, beta)
    d = order.shape[-1]
    rows = np.arange(0, order.size, d).reshape(order.shape[:-1] + (1,))
    xy = np.zeros((2,) + order.shape[:-1] + (d + 1,))
    np.cumsum(np.exp(-np.asarray(beta)[..., None] * energies[order]), -1, out=xy[0, ..., 1:])
    np.cumsum(p.reshape(-1)[order + rows], -1, out=xy[1, ..., 1:])
    return xy


def curve(pop: EnergyPopulations, beta: float) -> ThermoMajCurve:
    beta = _check_beta(beta, ResourceError)
    return ThermoMajCurve(*_curves(pop.energies, pop.probabilities, beta))


def _interp_rows(points, xy):
    """`np.interp(points, x, y)` of every row of the curves xy = (x, y), by
    its formula: y_j at a breakpoint x_j or beyond the last, else the chord
    from x_j to x_{j+1}, x_j the last breakpoint at or left of the point.
    x and y do not decrease, so (x_j, y_j) is the largest pair at or left of
    the point and (x_{j+1}, y_{j+1}) the smallest right of it."""
    left = xy[0, ..., None, :] <= points[..., :, None]
    xj, yj = np.where(left, xy[..., None, :], -np.inf).max(-1)
    xk, yk = np.where(left, np.inf, xy[..., None, :]).min(-1)
    exact = (xj == points) | (xk == np.inf)
    slope = np.where(exact, 0.0, yk - yj) / np.where(exact, 1.0, xk - xj)
    return np.where(exact, yj, slope * (points - xj) + yj)


class MajorizationVerdict(enum.Enum):
    YES = "yes"                      # first majorizes second
    DOMINATED = "dominated"          # second majorizes first (roles reversed)
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


# indexed by 2 * (first lies nowhere below) + (second lies nowhere below)
_VERDICTS = np.array([MajorizationVerdict.INCOMPARABLE, MajorizationVerdict.DOMINATED,
                      MajorizationVerdict.YES, MajorizationVerdict.EQUIVALENT], dtype=object)
CONVERTIBLE = (MajorizationVerdict.YES, MajorizationVerdict.EQUIVALENT)


def thermo_majorizes_rows(energies, p1, p2, beta) -> np.ndarray:
    """The `thermo_majorizes` verdict of every row pair of p1 and p2,
    (..., d) probability rows on one level set, as an array of verdicts:
    the curves of all rows at once, each pair compared at the breakpoints
    of both (concavity makes breakpoint checking sufficient)."""
    return _thermo_verdicts(*_pair_rows(energies, p1, p2, beta))


def _thermo_verdicts(e, p1, p2, beta):
    """`thermo_majorizes_rows` of validated inputs."""
    xy = _curves(e, np.array([p1, p2]), beta)
    y1, y2 = xy[1]
    v1, v2 = _interp_rows(xy[0, ::-1], xy)      # each curve at the other's breakpoints
    first = np.concatenate([y1, v1], -1)
    second = np.concatenate([v2, y2], -1)
    slack = CURVE_TOL * np.maximum(1.0, np.abs(first).max(-1, keepdims=True))
    return _VERDICTS[2 * (first >= second - slack).all(-1) + (second >= first - slack).all(-1)]


def thermo_majorizes(pop1: EnergyPopulations, pop2: EnergyPopulations,
                     beta: float) -> MajorizationVerdict:
    """Compare the two curves at the union of their breakpoints; the states
    must share the energy-level set."""
    return _thermo_verdicts(pop1.energies, pop1.probabilities[None],
                            _shared_levels(pop1, pop2)[None],
                            _check_beta(beta, ResourceError, rows=(1,)))[0]


# ---------------------------------------------------------------------------
# Embedding into plain majorization
# ---------------------------------------------------------------------------

def _largest_remainder_rounding(weights, denominator: int) -> np.ndarray:
    raw = np.asarray(weights, dtype=float) * denominator
    floor = np.floor(raw).astype(int)
    remainder = denominator - floor.sum(-1, keepdims=True)
    # the remainder, at most one unit per weight, goes to the largest fractions
    rank = np.argsort(np.argsort(-(raw - floor), -1), -1)
    return floor + (rank < remainder)


def _embed_rows(energies, p, beta, denominator):
    """The gamma-embedding of every row of p as runs: value p_i/k_i repeated
    k_i times, k_i/D the largest-remainder rounding of the thermal weights
    of the row's beta; then the counts k and the rounding error per row.  D
    is an integer from 1 to MAX_DENOMINATOR (`core._integer`), checked before anything is
    allocated, and gives every level at least one entry."""
    denominator = _integer(denominator, ResourceError, "embedding denominator", low=1)
    if denominator > MAX_DENOMINATOR:
        raise ResourceError(f"embedding denominator must be at most {MAX_DENOMINATOR}, "
                            f"got {denominator}")
    gibbs = _gibbs(energies, beta)[0]
    counts = _largest_remainder_rounding(gibbs, denominator)
    if counts.min() < 1:
        raise ResourceError(
            f"denominator {denominator} too small to resolve the thermal weights")
    return p / counts, counts, np.abs(counts / denominator - gibbs).max(-1)


def gamma_embed(pop: EnergyPopulations, beta: float, denominator: int = 10_000):
    """Embed a d-level diagonal state into a D-dimensional probability
    vector by repeating p_i/k_i exactly k_i times, where k_i/D approximates
    the thermal weights (largest-remainder rounding): `_embed_rows` written out.

    The thermal state embeds into the uniform vector, turning
    thermo-majorization into plain majorization up to the rounding error,
    which is returned alongside the vector.
    """
    values, counts, error = _embed_rows(pop.energies, pop.probabilities,
                                        _check_beta(beta, ResourceError), denominator)
    return np.repeat(values, counts), float(error)


def _run_verdicts(values, counts, tol):
    """Plain majorization of each row pair of vectors given as runs: values
    (2, rows, n) repeated counts times.  The sum S(m) of the m largest
    entries is linear within a run (runs by value, descending), so S_1 - S_2
    takes its extremes at the run ends K of either side; an end m of one
    side lies in run j of the other, where S(m) = S(K_j) - v_j (K_j - m)."""
    v, k = np.broadcast_arrays(values, counts)
    order = np.argsort(-v, -1)
    v, k = np.take_along_axis(v, order, -1), np.take_along_axis(k, order, -1)
    s = np.cumsum(v * k, -1)
    # row r's ends shifted by r (D + 1): one ascending list per side
    ends = np.cumsum(k, -1) + np.arange(k.shape[1])[:, None] * (k.sum(-1).max() + 1)
    gap = []
    for x, y in ((1, 0), (0, 1)):           # side x at the ends of side y
        j = np.searchsorted(ends[x].ravel(), ends[y].ravel())
        at = s[x].ravel()[j] - v[x].ravel()[j] * (ends[x].ravel()[j] - ends[y].ravel())
        gap.append((s[y].ravel() - at).reshape(s[y].shape) * (1 - 2 * y))
    gap = np.concatenate(gap, -1)
    return _VERDICTS[2 * (gap.min(-1, initial=math.inf) >= -tol)
                     + (gap.max(-1, initial=-math.inf) <= tol)]


def embedding_verdict_rows(energies, p1, p2, beta, denominator: int = 10_000) -> np.ndarray:
    """`majorization_verdict(gamma_embed(...), gamma_embed(...))` of every
    row pair of p1 and p2, validated as `thermo_majorizes_rows` validates
    them: each embedding is read as its d runs, so nothing of the
    denominator's length is made."""
    e, p1, p2, beta = _pair_rows(energies, p1, p2, beta)
    values, counts, _ = _embed_rows(e, np.array([p1, p2]), beta, denominator)
    return _run_verdicts(values, counts, MAJORIZATION_TOL)


def majorization_verdict(gamma1, gamma2, tol: float = MAJORIZATION_TOL) -> MajorizationVerdict:
    """Plain majorization both ways from one sort of each vector and one
    partial sum of their difference: YES when the descending partial sums
    of gamma1 dominate those of gamma2 (no partial sum of the difference
    below -tol), DOMINATED when the reverse holds (none above tol),
    EQUIVALENT when both do."""
    a, b = (np.sort(_real(g, ResourceError, "gamma")) for g in (gamma1, gamma2))
    if a.shape != b.shape:
        raise ResourceError("majorization needs equal-length vectors")
    gap = np.cumsum(a[::-1] - b[::-1])
    return _VERDICTS[2 * (gap.min(initial=math.inf) >= -tol)
                     + (gap.max(initial=-math.inf) <= tol)]


# ---------------------------------------------------------------------------
# Renyi second laws and free energies
# ---------------------------------------------------------------------------

DEFAULT_ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, math.inf)


def _orders(alphas):
    """A 1-d grid of Renyi orders, each a number >= 0 (`core._real`, +inf allowed)."""
    alphas = _real(alphas, ResourceError, "Renyi orders", low=0.0, inf=True)
    if np.ndim(alphas) != 1:
        raise ResourceError(f"Renyi orders must be a 1-d grid, got {alphas}")
    return alphas


def classical_renyi_rows(p, q, alphas) -> np.ndarray:
    """S_alpha(p || q) of every row pair of p and q (probability rows on the
    last axis, validated by `core._check_probabilities`, broadcast against
    each other: each shared or one per row, `core._shared_or_rows`) at every order of the 1-d
    grid alphas: an array (..., len(alphas)) from one `core._petz_renyi`."""
    alphas = _orders(alphas)
    p, q = _check_probabilities(p, ResourceError), _check_probabilities(q, ResourceError)
    if p.shape[-1:] != q.shape[-1:]:
        raise ResourceError("divergences need equally sized probability vectors")
    _shared_or_rows(ResourceError, None, ("p", p, 1), ("q", q, 1))
    return _petz_renyi(alphas, *(x[..., None, :] for x in np.broadcast_arrays(p, q)))


def classical_renyi_divergence(p, q, alpha: float) -> float:
    """S_alpha(p || q) for probability vectors: the diagonal case of the
    Petz-Renyi family (`core._petz_renyi`), with the support limit at
    alpha = 0 and the max-ratio limit at alpha = inf."""
    return float(classical_renyi_rows(p, q, [alpha])[0])


@dataclass(frozen=True)
class SecondLawsVerdict:
    alphas: tuple
    sigma_alpha: tuple
    allowed: bool


def renyi_second_laws(pop1: EnergyPopulations, pop2: EnergyPopulations,
                      beta: float, alphas=DEFAULT_ALPHA_GRID) -> SecondLawsVerdict:
    """Catalytic-convertibility battery: Sigma_alpha = S_alpha(p1 || p_th)
    - S_alpha(p2 || p_th) must be >= 0 on the whole grid (which must
    include 0, 1/2, 1, 2 and inf); both states share the level set, and both
    take every order in one stacked call, reading the populations as their
    `EnergyPopulations` validated them."""
    required = {0.0, 0.5, 1.0, 2.0, math.inf}
    if not required.issubset(set(alphas)):
        raise ResourceError("alpha grid must include {0, 1/2, 1, 2, inf}")
    beta = _check_beta(beta, ResourceError)
    p = np.stack([pop1.probabilities, _shared_levels(pop1, pop2)])[:, None]
    s1, s2 = _petz_renyi(_orders(alphas), p, _gibbs(pop1.energies, beta)[0][None])
    return _battery(alphas, s1, s2)


def _battery(alphas, s1, s2) -> SecondLawsVerdict:
    """Sigma_alpha = s1 - s2 on the grid, 0 where both are infinite;
    allowed when none is below -SECOND_LAW_TOL."""
    both = np.isinf(s1) & np.isinf(s2)
    sig = np.where(both, 0.0, s1) - np.where(both, 0.0, s2)
    return SecondLawsVerdict(tuple(alphas), tuple(sig.tolist()),
                             bool((sig >= -SECOND_LAW_TOL).all()))


def free_energy_alpha(pop: EnergyPopulations, beta: float, alpha: float) -> float:
    """F_alpha = F_th + T S_alpha(p || p_th), the Renyi generalization of
    the non-equilibrium free energy, with ln Z from `core._gibbs`."""
    beta = _check_beta(beta, ResourceError, positive=True)
    gibbs, log_z = _gibbs(pop.energies, beta)
    return (classical_renyi_divergence(pop.probabilities, gibbs, alpha) - float(log_z)) / beta


def coherence_second_laws(rho1, rho2, hamiltonian, alphas=DEFAULT_ALPHA_GRID) -> SecondLawsVerdict:
    """Independent coherence constraints: S_alpha(rho || Delta_H(rho)) must
    not increase for any alpha in the grid.  Never merged with the
    population battery (except at alpha = 1 they combine into the plain
    data-processing statement).  Both states take every order in one
    stacked call.  rho2 and H are read at rho1's size, and each state, H and
    the two dephased states (one stacked `eigh`) decomposed once."""
    first = _spectrum(rho1, ResourceError)
    spectra = first, _spectrum(rho2, ResourceError, len(first[0]))
    h = _hermitian(hamiltonian, ResourceError, len(first[0]))
    dephased = zip(*_density_spectra(dephase(_frozen_stack([rho1, rho2]), h)))
    pairs = [(p, q, qv.conj().T @ pv) for (p, pv), (q, qv) in zip(spectra, dephased)]
    p, q, amp = (np.stack(x)[:, None] for x in zip(*pairs))
    s1, s2 = _petz_renyi(_orders(alphas), p, q, amp)
    return _battery(alphas, s1, s2)


# ---------------------------------------------------------------------------
# Work extraction / formation / interconversion
# ---------------------------------------------------------------------------

def work_extraction(pop: EnergyPopulations, beta: float) -> float:
    """W_ext = T S_0(p || p_th) = -T ln sum_{p_i > 0} p_i^th.

    Discontinuous in the support: any strictly positive population on a
    level, however tiny, adds that level's thermal weight to the sum --
    i.e. filling a single empty level collapses the extractable work toward
    zero.
    """
    beta = _check_beta(beta, ResourceError, positive=True)
    gibbs = pop.thermal_weights(beta)
    return classical_renyi_divergence(pop.probabilities, gibbs, 0.0) / beta


def work_of_formation(pop: EnergyPopulations, beta: float) -> float:
    """W_form = T S_inf(p || p_th) = T ln max_i p_i / p_i^th (0/0 skipped)."""
    beta = _check_beta(beta, ResourceError, positive=True)
    gibbs = pop.thermal_weights(beta)
    return classical_renyi_divergence(pop.probabilities, gibbs, math.inf) / beta


def interconversion_rate(rho1, rho2, beta: float, hamiltonian) -> float:
    """Optimal asymptotic rate R(rho1 -> rho2) =
    S(rho1 || rho_th) / S(rho2 || rho_th): interconversion is governed by
    the entropy of full thermalization.  rho2 and H are read at rho1's size,
    and each state and H decomposed once."""
    beta = _check_beta(beta, ResourceError)
    first = _spectrum(rho1, ResourceError)
    spectra = first, _spectrum(rho2, ResourceError, len(first[0]))
    q, qv = thermal_state(_hermitian(hamiltonian, ResourceError, len(first[0])), beta).eig()
    num, denom = (float(_petz_renyi(1.0, p, q, qv.conj().T @ pv)) for p, pv in spectra)
    if denom <= THERMAL_TOL:
        raise ResourceError("target state is thermal; interconversion rate undefined")
    return num / denom


# ---------------------------------------------------------------------------
# Reconciliation with the stochastic approach
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WorkBoundsReport:
    eta_grid: np.ndarray
    phi_eta: np.ndarray
    w_irr: float
    w_ext_final: float
    w_form_final: float
    sandwich_ok: bool

    def row(self, k) -> "WorkBoundsReport":
        """The report of quench k of a stack's report."""
        return WorkBoundsReport(self.eta_grid[k], self.phi_eta[k], float(self.w_irr[k]),
                                float(self.w_ext_final[k]), float(self.w_form_final[k]),
                                bool(self.sandwich_ok[k]))


def work_bounds_rows(h_final, beta, rho_final, mean_work, delta_f_eq,
                     eta_grid) -> WorkBoundsReport:
    """`work_bounds` of a stack of quenches, a row per Hamiltonian of
    h_final (n, d, d) and state of rho_final (`core._density_stack`); beta,
    mean_work and delta_f_eq one per row or shared, and eta_grid (n, m) per row
    or (m,) shared (`core._shared_or_rows`).  One stacked Gibbs state, one spectrum
    per state kind and one `core._petz_renyi` over every order of every row; the
    report's fields carry the row axis (`WorkBoundsReport.row` gives one quench)."""
    hf = _hermitian(h_final, ResourceError)
    rho, p, pv = _density_stack(rho_final, ResourceError, hf.shape[-1])
    if rho.shape != hf.shape:
        raise ResourceError(f"expected (n, d, d) stacks of one shape, got {hf.shape} "
                            f"and {rho.shape}")
    rows = (len(hf),)
    beta = _check_beta(beta, ResourceError, positive=True, rows=rows)
    mean_work, delta_f_eq = (_real(x, ResourceError, name, rows=rows) for x, name in
                             ((mean_work, "mean work"), (delta_f_eq, "delta_f_eq")))
    eta = _real(eta_grid, ResourceError, "eta grid")
    _shared_or_rows(ResourceError, rows, ("eta grid", eta, 1))
    ones = np.ones((len(hf), 1))
    eta, b = eta * ones, beta[..., None]
    alpha = 1.0 - eta / b
    if not (alpha >= 0.0).all():
        raise ResourceError("eta beyond beta: negative Renyi order")
    _, q, qv, _ = _gibbs_states(hf, beta)
    div = _petz_renyi(np.concatenate([alpha, [0.0, math.inf] * ones], -1), p[:, None],
                      q[:, None], (qv.conj().swapaxes(-1, -2) @ pv)[:, None])
    phi = -(eta / b) * div[:, :-2] - eta * delta_f_eq[..., None]
    w_irr = (mean_work - delta_f_eq) * ones[:, 0]
    w_ext, w_form = div[:, -2] / beta, div[:, -1] / beta
    ok = (w_ext <= w_irr + 1e-10) & (w_irr <= w_form + 1e-10)
    return WorkBoundsReport(eta, phi, w_irr, w_ext, w_form, ok)


def work_bounds(h_final, beta: float, rho_final, mean_work: float,
                delta_f_eq: float, eta_grid) -> WorkBoundsReport:
    """Renyi sandwich on the irreversible work of a protocol ending in
    rho_final at Hamiltonian h_final:

      W_ext(rho') <= W_irr = <W> - dF_eq <= W_form(rho'),

    through the cumulant generating function identity
    Phi_eta = -(eta/beta) S_{1-eta/beta}(rho' || rho'_th) - eta dF_eq.
    """
    return work_bounds_rows((h_final,), beta, (rho_final,), mean_work,
                            delta_f_eq, np.asarray(eta_grid, dtype=float)[None]).row(0)


# ---------------------------------------------------------------------------
# d = 2 Gibbs-stochastic feasibility oracle
# ---------------------------------------------------------------------------

def gibbs_stochastic_feasible_2d_rows(energies, p1, p2, beta) -> np.ndarray:
    """`gibbs_stochastic_feasible_2d` of every row pair of p1 and p2, (..., 2)
    probability rows on one two-level set: an array of booleans."""
    e, p, q, beta = _pair_rows(energies, p1, p2, beta)
    if e.shape != (2,):
        raise ResourceError("closed-form oracle is for two-level systems")
    g_th = _gibbs(e, beta)[0]
    g0, g1 = g_th[..., 0], g_th[..., 1]
    # G = [[1-a, b], [a, 1-b]] with columns summing to 1; fixing the Gibbs
    # state forces b g1 = a g0, and G p1 = p2 then reads
    # q0 - p0 = a (p1 g0/g1 - p0).
    slope = p[..., 1] * g0 / g1 - p[..., 0]
    # p1 (numerically) thermal: only the thermal target is reachable
    thermal = np.abs(slope) < FEASIBLE_TOL
    a = (q[..., 0] - p[..., 0]) / np.where(thermal, 1.0, slope)
    b = a * g0 / g1
    inside = (np.minimum(a, b) >= -FEASIBLE_TOL) & (np.maximum(a, b) <= 1 + FEASIBLE_TOL)
    return np.where(thermal, np.abs(q[..., 0] - p[..., 0]) < math.sqrt(FEASIBLE_TOL), inside)


def gibbs_stochastic_feasible_2d(pop1: EnergyPopulations,
                                 pop2: EnergyPopulations,
                                 beta: float) -> bool:
    """Closed-form feasibility of a 2x2 stochastic matrix G with
    G p_th = p_th and G p1 = p2: the classical shadow of a thermal
    operation exists iff both defining rates land in [0, 1]."""
    p2 = _shared_levels(pop1, pop2)
    return bool(gibbs_stochastic_feasible_2d_rows(pop1.energies, pop1.probabilities[None],
                                                  p2[None], beta)[0])
