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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoreError,
    DensityOperator,
    HermitianOperator,
    _gibbs,
    _mat,
    _petz_renyi,
    _probability_pair,
    dephase,
    relative_entropy,
    renyi_divergence,
    thermal_state,
)

CURVE_TOL = 1e-12
# S(rho || rho_th) at or below this is round-off: rho is the thermal state.
THERMAL_TOL = 1e-12


class ResourceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Populations and curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnergyPopulations:
    """Diagonal state: (energy, probability) per level."""

    energies: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if e.shape != p.shape or e.ndim != 1:
            raise ResourceError("energies/probabilities must be matching 1-d arrays")
        if not np.all(np.isfinite(p)):
            raise ResourceError("probabilities must be finite")
        if p.min() < -1e-12:
            raise ResourceError(f"negative probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ResourceError(f"probabilities sum to {p.sum()}")
        if not np.all(np.isfinite(e)):
            raise ResourceError("energies must be finite")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "probabilities", np.clip(p, 0.0, None))

    @property
    def dim(self) -> int:
        return len(self.energies)

    def thermal_weights(self, beta: float) -> np.ndarray:
        return _gibbs(self.energies, beta)[0]


def beta_order(pop: EnergyPopulations, beta: float) -> np.ndarray:
    """Permutation sorting levels by p_i e^{beta E_i} descending.

    Ties are broken by ascending energy, then by original index, so the
    ordering is deterministic; curves are invariant under the tie rule.
    """
    keys = pop.probabilities * np.exp(beta * (pop.energies - pop.energies.max()))
    return np.lexsort((np.arange(pop.dim), pop.energies, -keys))


@dataclass(frozen=True, eq=False)
class ThermoMajCurve:
    """Concave piecewise-linear curve through (sum e^{-beta E}, sum p)
    in beta-order, prefixed with (0, 0)."""

    x: np.ndarray
    y: np.ndarray

    def evaluate(self, points) -> np.ndarray:
        return np.interp(points, self.x, self.y)

    @property
    def total_weight(self) -> float:
        return float(self.x[-1])

    def to_csv(self, path):
        lines = ["x,y"] + [f"{format(x, '.17g')},{format(y, '.17g')}"
                           for x, y in zip(self.x, self.y)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path


def curve(pop: EnergyPopulations, beta: float) -> ThermoMajCurve:
    order = beta_order(pop, beta)
    gibbs = np.exp(-beta * pop.energies[order])
    x = np.concatenate([[0.0], np.cumsum(gibbs)])
    y = np.concatenate([[0.0], np.cumsum(pop.probabilities[order])])
    return ThermoMajCurve(x, y)


class MajorizationVerdict(enum.Enum):
    YES = "yes"                      # first majorizes second
    DOMINATED = "dominated"          # second majorizes first (roles reversed)
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def thermo_majorizes(pop1: EnergyPopulations, pop2: EnergyPopulations,
                     beta: float, tol: float = CURVE_TOL) -> MajorizationVerdict:
    """Compare the two curves at the union of their breakpoints (concavity
    makes breakpoint checking sufficient)."""
    c1 = curve(pop1, beta)
    c2 = curve(pop2, beta)
    if abs(c1.total_weight - c2.total_weight) > 1e-9 * max(1.0, c1.total_weight):
        raise ResourceError("curves end at different total Gibbs weights; "
                            "states must share the energy-level set")
    grid = np.union1d(c1.x, c2.x)
    v1 = c1.evaluate(grid)
    v2 = c2.evaluate(grid)
    scale = max(1.0, float(np.abs(v1).max()))
    first_above = bool(np.all(v1 >= v2 - tol * scale))
    second_above = bool(np.all(v2 >= v1 - tol * scale))
    if first_above and second_above:
        return MajorizationVerdict.EQUIVALENT
    if first_above:
        return MajorizationVerdict.YES
    if second_above:
        return MajorizationVerdict.DOMINATED
    return MajorizationVerdict.INCOMPARABLE


# ---------------------------------------------------------------------------
# Embedding into plain majorization
# ---------------------------------------------------------------------------

def _largest_remainder_rounding(weights, denominator: int) -> np.ndarray:
    raw = np.asarray(weights, dtype=float) * denominator
    floor = np.floor(raw).astype(int)
    remainder = denominator - floor.sum()
    # the remainder, at most one unit per weight, goes to the largest fractions
    counts = floor.copy()
    counts[np.argsort(-(raw - floor))[:remainder]] += 1
    return counts


def gamma_embed(pop: EnergyPopulations, beta: float, denominator: int = 10_000):
    """Embed a d-level diagonal state into a D-dimensional probability
    vector by repeating p_i/k_i exactly k_i times, where k_i/D approximates
    the thermal weights (largest-remainder rounding).

    The thermal state embeds into the uniform vector, turning
    thermo-majorization into plain majorization up to the rounding error,
    which is returned alongside the vector.
    """
    gibbs = pop.thermal_weights(beta)
    counts = _largest_remainder_rounding(gibbs, denominator)
    if counts.min() < 1:
        raise ResourceError(
            f"denominator {denominator} too small to resolve the thermal weights")
    rounding_error = float(np.abs(counts / denominator - gibbs).max())
    out = np.concatenate([
        np.full(k, p / k) for p, k in zip(pop.probabilities, counts)
    ])
    return out, rounding_error


def majorizes(gamma1, gamma2, tol: float = 1e-12) -> bool:
    """Plain majorization: descending partial sums of gamma1 dominate."""
    a = np.sort(np.asarray(gamma1, dtype=float))[::-1]
    b = np.sort(np.asarray(gamma2, dtype=float))[::-1]
    if a.shape != b.shape:
        raise ResourceError("majorization needs equal-length vectors")
    return bool(np.all(np.cumsum(a) >= np.cumsum(b) - tol))


# ---------------------------------------------------------------------------
# Renyi second laws and free energies
# ---------------------------------------------------------------------------

DEFAULT_ALPHA_GRID = (0.0, 0.5, 1.0, 2.0, math.inf)


def classical_renyi_divergence(p, q, alpha: float) -> float:
    """S_alpha(p || q) for probability vectors: the diagonal case of the
    Petz-Renyi family (`core._petz_renyi`), with the support limit at
    alpha = 0 and the max-ratio limit at alpha = inf."""
    if alpha < 0:
        raise ResourceError(f"negative Renyi order {alpha}")
    return float(_petz_renyi(alpha, *_probability_pair(p, q)))


@dataclass(frozen=True)
class SecondLawsVerdict:
    alphas: tuple
    sigma_alpha: tuple
    allowed: bool

    def to_json(self) -> dict:
        return {
            "alphas": ["inf" if math.isinf(a) else float(a) for a in self.alphas],
            "sigma_alpha": ["inf" if math.isinf(s) else float(s)
                            for s in self.sigma_alpha],
            "allowed": bool(self.allowed),
        }


def renyi_second_laws(pop1: EnergyPopulations, pop2: EnergyPopulations,
                      beta: float, alphas=DEFAULT_ALPHA_GRID,
                      tol: float = 1e-12) -> SecondLawsVerdict:
    """Catalytic-convertibility battery: Sigma_alpha = S_alpha(p1 || p_th)
    - S_alpha(p2 || p_th) must be >= 0 on the whole grid (which must
    include 0, 1/2, 1, 2 and inf)."""
    required = {0.0, 0.5, 1.0, 2.0, math.inf}
    if not required.issubset(set(alphas)):
        raise ResourceError("alpha grid must include {0, 1/2, 1, 2, inf}")
    gibbs = pop1.thermal_weights(beta)
    return _battery(alphas, tol,
                    lambda a: classical_renyi_divergence(pop1.probabilities, gibbs, a),
                    lambda a: classical_renyi_divergence(pop2.probabilities, gibbs, a))


def _battery(alphas, tol, first, second) -> SecondLawsVerdict:
    """Sigma_alpha = first(alpha) - second(alpha) on the grid, 0 where both
    are infinite; allowed when none is below -tol."""
    sig = []
    for a in alphas:
        s1, s2 = first(a), second(a)
        sig.append(0.0 if math.isinf(s1) and math.isinf(s2) else s1 - s2)
    return SecondLawsVerdict(tuple(alphas), tuple(sig), all(s >= -tol for s in sig))


def free_energy_alpha(pop: EnergyPopulations, beta: float, alpha: float) -> float:
    """F_alpha = F_th + T S_alpha(p || p_th), the Renyi generalization of
    the non-equilibrium free energy."""
    gibbs = pop.thermal_weights(beta)
    z = float(np.sum(np.exp(-beta * pop.energies)))
    f_th = -math.log(z) / beta
    return f_th + classical_renyi_divergence(pop.probabilities, gibbs, alpha) / beta


def coherence_second_laws(rho1, rho2, hamiltonian, alphas=DEFAULT_ALPHA_GRID,
                          tol: float = 1e-12) -> SecondLawsVerdict:
    """Independent coherence constraints: S_alpha(rho || Delta_H(rho)) must
    not increase for any alpha in the grid.  Never merged with the
    population battery (except at alpha = 1 they combine into the plain
    data-processing statement)."""
    dephased1, dephased2 = dephase(rho1, hamiltonian), dephase(rho2, hamiltonian)
    return _battery(alphas, tol, lambda a: renyi_divergence(rho1, dephased1, a),
                    lambda a: renyi_divergence(rho2, dephased2, a))


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
    gibbs = pop.thermal_weights(beta)
    return classical_renyi_divergence(pop.probabilities, gibbs, 0.0) / beta


def work_of_formation(pop: EnergyPopulations, beta: float) -> float:
    """W_form = T S_inf(p || p_th) = T ln max_i p_i / p_i^th (0/0 skipped)."""
    gibbs = pop.thermal_weights(beta)
    return classical_renyi_divergence(pop.probabilities, gibbs, math.inf) / beta


def interconversion_rate(rho1, rho2, beta: float, hamiltonian) -> float:
    """Optimal asymptotic rate R(rho1 -> rho2) =
    S(rho1 || rho_th) / S(rho2 || rho_th): interconversion is governed by
    the entropy of full thermalization."""
    gibbs = thermal_state(hamiltonian, beta)
    denom = relative_entropy(rho2, gibbs)
    if denom <= THERMAL_TOL:
        raise ResourceError("target state is thermal; interconversion rate undefined")
    return relative_entropy(rho1, gibbs) / denom


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


def work_bounds(h_final, beta: float, rho_final, mean_work: float,
                delta_f_eq: float, eta_grid) -> WorkBoundsReport:
    """Renyi sandwich on the irreversible work of a protocol ending in
    rho_final at Hamiltonian h_final:

      W_ext(rho') <= W_irr = <W> - dF_eq <= W_form(rho'),

    through the cumulant generating function identity
    Phi_eta = -(eta/beta) S_{1-eta/beta}(rho' || rho'_th) - eta dF_eq.
    """
    hf = _mat(h_final)
    gibbs = thermal_state(HermitianOperator.from_matrix(hf), beta)
    eta_grid = np.asarray(eta_grid, dtype=float)
    phi = np.empty_like(eta_grid)
    for k, eta in enumerate(eta_grid):
        alpha = 1.0 - eta / beta
        if alpha < 0:
            raise ResourceError("eta beyond beta: negative Renyi order")
        div = renyi_divergence(rho_final, gibbs, alpha)
        phi[k] = -(eta / beta) * div - eta * delta_f_eq
    w_irr = mean_work - delta_f_eq
    w_ext = renyi_divergence(rho_final, gibbs, 0.0) / beta
    w_form = renyi_divergence(rho_final, gibbs, math.inf) / beta
    ok = (w_ext <= w_irr + 1e-10) and (w_irr <= w_form + 1e-10)
    return WorkBoundsReport(eta_grid, phi, w_irr, w_ext, w_form, ok)


# ---------------------------------------------------------------------------
# d = 2 Gibbs-stochastic feasibility oracle
# ---------------------------------------------------------------------------

def gibbs_stochastic_feasible_2d(pop1: EnergyPopulations,
                                 pop2: EnergyPopulations,
                                 beta: float, tol: float = 1e-10) -> bool:
    """Closed-form feasibility of a 2x2 stochastic matrix G with
    G p_th = p_th and G p1 = p2: the classical shadow of a thermal
    operation exists iff both defining rates land in [0, 1]."""
    if pop1.dim != 2 or pop2.dim != 2:
        raise ResourceError("closed-form oracle is for two-level systems")
    g_th = pop1.thermal_weights(beta)
    p = pop1.probabilities
    q = pop2.probabilities
    # G = [[1-a, b], [a, 1-b]] with columns summing to 1; fixing the Gibbs
    # state forces b g1 = a g0, and G p1 = p2 then reads
    # q0 - p0 = a (p1 g0/g1 - p0).
    slope = p[1] * g_th[0] / g_th[1] - p[0]
    if abs(slope) < tol:
        # p1 is (numerically) thermal: only the thermal target is reachable
        return bool(abs(q[0] - p[0]) < math.sqrt(tol))
    a = (q[0] - p[0]) / slope
    b = a * g_th[0] / g_th[1]
    return bool(-tol <= a <= 1 + tol and -tol <= b <= 1 + tol)
