"""Two-point-measurement path ensembles and fluctuation theorems.

A forward trajectory of an episode is gamma = (n, nu, m, mu): measure S and
E in the eigenbases of their initial states, evolve with U, measure again
in a final product basis.  A `PathEnsemble` holds all of them as arrays
over the outcome grid [m, mu, n, nu].  The backward process re-initializes
the joint system in a reference state rho_tilde and runs U^dag; its choice
fixes which information counts as lost, and hence what <sigma> means:

    bath reset            rho_S' x rho_E     ->  I(S:E) + S(rho_E'||rho_E)
    correlations destroyed rho_S' x rho_E'   ->  I(S:E)
    post-measurement       dephased rho_SE'  ->  coherence of rho_SE'
    both reset            rho_S  x rho_E     ->  I + S(rho_S'||rho_S) + S(rho_E'||rho_E)

The averages above hold exactly only when the final measurement basis
diagonalizes the backward reference state, so each choice fixes its own
final basis (see `backward_ensemble`).  The module also hosts the
work-protocol statistics (Crooks/Jarzynski), cumulant generating
functions, infinitesimal-quench expansions, correlated and augmented
exchange ensembles (on grids of their own), measurement-driven
trajectories (sampled beyond a cap with the random stream of one
rng.choice per sample and step), and the finite-width work-weight
convolution.

Every distribution merges equal values by one rule, that of
`ScalarDistribution.from_samples` (`core._equal_runs`): sorted values
within MERGE_TOL * max(1, |v|) of their neighbour are one value, and an
infinite sigma never joins a finite one.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    _check_beta,
    _eigh,
    _entropy_rows,
    _equal_runs,
    _frozen_stack,
    _gibbs,
    _hermitian,
    _petz_renyi,
    _real,
    _spectrum,
    _unitary,
    tensor,
)
from .episodes import Episode, EpisodeStack, _thermal_exchange

ENSEMBLE_DIM_CAP = 64
# Sorted samples within MERGE_TOL * max(1, |v|) of their neighbour are one value.
MERGE_TOL = 1e-10
# Crooks pairs are compared where both weights exceed this.
CROOKS_WEIGHT_TOL = 1e-10
# The second-order quench expansion holds when within this of Sigma, relatively.
EXPANSION_REL_TOL = 0.05
# Grid points of a finite-width work-weight convolution.
CONVOLVE_GRID = 2 ** 12


class TrajectoryError(ValueError):
    pass


class BackwardChoice(enum.Enum):
    BATH_RESET = "bath_reset"
    CORRELATIONS_DESTROYED = "correlations_destroyed"
    POST_MEASUREMENT_STATE = "post_measurement_state"
    BOTH_RESET = "both_reset"


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """An exhaustive ensemble as arrays over its outcome grid.

    For an episode the grid is [m, mu, n, nu]: final outcomes (m, mu) of S
    and E first, initial outcomes (n, nu) last, so `.ravel()` lists the
    paths in that order.  sigma is 0 where p_forward vanishes and +inf
    where only p_backward does.  An ensemble without a backward process
    leaves p_backward and sigma as None.  The ensembles of an episode
    stack (`backward_ensemble_rows`) are one PathEnsemble with the row
    axis first (rows = 1): its averages are arrays, and `row(k)` is the
    ensemble of one row.
    """

    p_forward: np.ndarray
    p_backward: np.ndarray | None = None
    sigma: np.ndarray | None = None
    choice: BackwardChoice | None = None
    rows: int = 0

    def row(self, k) -> "PathEnsemble":
        """The ensemble of row k of a stack's ensembles."""
        return PathEnsemble(*(None if x is None else x[k] for x in
                              (self.p_forward, self.p_backward, self.sigma)), self.choice)

    def _paths(self):
        """p_forward and sigma, 0 where p_forward vanishes, one row of paths
        per ensemble."""
        p = self.p_forward.reshape(self.p_forward.shape[:self.rows] + (-1,))
        return p, np.where(p > 0.0, self.sigma.reshape(p.shape), 0.0)

    def average_sigma(self):
        """<sigma>; +inf if any populated path has an infinite sigma."""
        p, sig = self._paths()
        finite = np.isfinite(sig)
        out = np.where(finite.all(-1), (p * np.where(finite, sig, 0.0)).sum(-1), math.inf)
        return out if self.rows else float(out)

    def integral_ft(self):
        """<e^{-sigma}> over the forward ensemble (1 when supports match)."""
        p, sig = self._paths()
        finite = np.isfinite(sig)
        out = (p * np.where(finite, np.exp(-np.where(finite, sig, 0.0)), 0.0)).sum(-1)
        return out if self.rows else float(out)

    def sigma_distribution(self) -> "ScalarDistribution":
        live = self.p_forward > 0.0
        return ScalarDistribution.from_samples(self.sigma[live], self.p_forward[live])


@dataclass(frozen=True, eq=False)
class ScalarDistribution:
    """Discrete distribution over real values (merged support).  Values may
    be +-inf (sigma can be), never NaN; probabilities are finite."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        v = _real(self.values, TrajectoryError, "values", inf=True)
        p = _real(self.probabilities, TrajectoryError, "probabilities")
        if np.ndim(v) != 1 or v.shape != np.shape(p) or v.size == 0:
            raise TrajectoryError("values/probabilities must be matching non-empty 1-d arrays")
        if p.min() < -1e-12:
            raise TrajectoryError(f"negative probability {p.min():.3e}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def from_samples(cls, values, probabilities):
        """Weighted samples as a distribution: samples with p <= 0 are
        dropped, and the sorted values fall into runs within MERGE_TOL *
        max(1, |v|) of their neighbour (`core._equal_runs`).  A run is one
        support point, its smallest value, with the run's summed weight."""
        samples = cls(values, probabilities)
        keep = samples.probabilities > 0.0
        if not keep.any():
            raise TrajectoryError("no sample carries positive probability")
        order = np.argsort(samples.values[keep])
        v, p = samples.values[keep][order], samples.probabilities[keep][order]
        starts = _equal_runs(v, MERGE_TOL * np.maximum(1.0, np.abs(v)))
        return cls(v[starts], np.add.reduceat(p, starts))

    def mean(self) -> float:
        """<x>: +-inf when mass sits at one infinity, undefined at both."""
        live = self.probabilities > 0.0
        if np.isposinf(self.values[live]).any() and np.isneginf(self.values[live]).any():
            raise TrajectoryError("mean is undefined: mass sits at both +inf and -inf")
        return float(np.sum(self.values[live] * self.probabilities[live]))

    def moment(self, n, central=False) -> float:
        if central:
            self._require_finite(f"central moment {n}")
        x = self.values - (self.mean() if central else 0.0)
        return float(np.sum(x ** n * self.probabilities))

    def _require_finite(self, what):
        """TrajectoryError naming the first infinite value and its mass."""
        inf = np.isinf(self.values)
        if inf.any():
            raise TrajectoryError(f"{what} is undefined: value {self.values[inf][0]} "
                                  f"carries probability {self.probabilities[inf][0]:.6g}")

    def variance(self) -> float:
        return self.moment(2, central=True)

    def cumulants(self, upto=4):
        m = self.mean()
        mu2 = self.moment(2, central=True)
        mu3 = self.moment(3, central=True)
        mu4 = self.moment(4, central=True)
        return (m, mu2, mu3, mu4 - 3 * mu2 ** 2)[:upto]

    def exp_average(self, factor=-1.0) -> float:
        """<e^{factor * x}>."""
        return float(np.sum(self.probabilities * np.exp(factor * self.values)))

    def cgf(self, lam) -> float:
        """ln <e^{-lam x}>."""
        return math.log(self.exp_average(-_real(lam, TrajectoryError, "lambda")))

    def convolve(self, other: "ScalarDistribution") -> "ScalarDistribution":
        vals = (self.values[:, None] + other.values[None, :]).ravel()
        probs = (self.probabilities[:, None] * other.probabilities[None, :]).ravel()
        return ScalarDistribution.from_samples(vals, probs)


# ---------------------------------------------------------------------------
# TPM ensembles for episodes
# ---------------------------------------------------------------------------

def _log_ratio(num, den, p_forward, p_backward):
    """ln num/den on the grid of p_forward: 0 where p_forward vanishes, +inf
    where only the backward weight p_backward does."""
    live = p_forward > 0.0
    ok = live & (p_backward > 0.0)
    out = np.where(live, math.inf, 0.0)
    return np.log(np.divide(num, den, out=np.ones(out.shape), where=ok), out=out, where=ok)


def backward_ensemble(ep: Episode, choice: BackwardChoice) -> PathEnsemble:
    """Forward/backward pair for one backward-process choice.

    The final (forward) measurement basis is the eigenbasis of the chosen
    backward reference state rho_tilde, which is what makes the Table of
    averages exact:

      BATH_RESET             |psi_m> x |nu>   (eigvecs of rho_S', rho_E)
      CORRELATIONS_DESTROYED |psi_m> x |phi_mu> (eigvecs of rho_S', rho_E')
      POST_MEASUREMENT_STATE |psi_m> x |phi_mu> (rho_tilde is the dephased
                             rho_SE' in that very basis)
      BOTH_RESET             |n> x |nu>        (initial eigenbases)

    The arrays live on the grid [m, mu, n, nu] with
    w = |<m,mu|U|n,nu>|^2 = |<n,nu|U^dag|m,mu>|^2,
    p_forward = w p_n q_nu and p_backward = w rho_tilde_{m mu}.  The
    per-trajectory sigma = ln p_n q_nu / rho_tilde_{m mu}; a vanishing
    reference weight on a populated forward trajectory yields +inf.
    Row 0 of `backward_ensemble_rows`.
    """
    return backward_ensemble_rows(ep._row, choice).row(0)


def backward_ensemble_rows(stack: EpisodeStack, choice: BackwardChoice) -> PathEnsemble:
    """`backward_ensemble` of every row of an episode stack, as one
    PathEnsemble on the grid [row, m, mu, n, nu].  The transition
    probabilities are the stack's, kept per final basis
    (`EpisodeStack.transitions`): CORRELATIONS_DESTROYED and
    POST_MEASUREMENT_STATE read one tensor."""
    ds, de = stack.system_dims.total, stack.env_dims.total
    if ds * de > ENSEMBLE_DIM_CAP:
        raise TrajectoryError(f"joint dimension {ds * de} exceeds the "
                              f"exhaustive cap {ENSEMBLE_DIM_CAP}")
    (joint, _, _), (_, ps_fin, vs_fin), (_, qe_fin, ve_fin) = stack.evolved
    initial = stack.initial_weights

    if choice is BackwardChoice.BATH_RESET:
        final, ref = (True, False), _outer(ps_fin, stack.rho_env[1])
    elif choice is BackwardChoice.CORRELATIONS_DESTROYED:
        final, ref = (True, True), _outer(ps_fin, qe_fin)
    elif choice is BackwardChoice.POST_MEASUREMENT_STATE:
        final = (True, True)
        ref = np.maximum(populations(joint, tensor([vs_fin, ve_fin])), 0.0).reshape(-1, ds, de)
    elif choice is BackwardChoice.BOTH_RESET:
        final, ref = (False, False), initial
    else:
        raise TrajectoryError(f"unknown backward choice {choice}")

    w = stack.transitions(*final)
    initial, ref = initial[:, None, None], ref[..., None, None]
    pf, pb = w * initial, w * ref
    return PathEnsemble(pf, pb, _log_ratio(initial, ref, pf, pb), choice, rows=1)


def _outer(a, b):
    """np.outer of the last axes, over the leading ones."""
    return a[..., :, None] * b[..., None, :]


def populations(rho, basis):
    """Re <b_m|rho|b_m> for every column b_m of `basis`, over leading axes:
    the weights of rho dephased in that basis; rho is read at the basis' size."""
    r = _frozen_stack(rho, TrajectoryError, basis.shape[-2])
    return np.real(np.einsum("...im,...ij,...jm->...m", basis.conj(), r, basis))


def stochastic_sigma(forward: PathEnsemble, backward: PathEnsemble | None = None):
    """Per-trajectory sigma = ln P_F / P_B for matched ensembles, in the
    flat grid order."""
    if backward is None:
        if forward.sigma is None:
            raise TrajectoryError("ensemble carries no backward probabilities")
        return forward.sigma.ravel()
    if forward.p_forward.shape != backward.p_forward.shape:
        raise TrajectoryError("ensembles are not matched trajectory by trajectory")
    pb = backward.p_forward if backward.p_backward is None else backward.p_backward
    return _log_ratio(forward.p_forward, pb, forward.p_forward, pb).ravel()


# ---------------------------------------------------------------------------
# Work protocols: distributions, Crooks, CGF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkStatistics:
    forward: ScalarDistribution
    backward: ScalarDistribution
    delta_f: float
    mean_work: float
    jarzynski: float          # <e^{-beta W}> e^{beta dF}, equals 1
    sigma_mean: float         # beta (<W> - dF)
    lag: float                # S(rho' || thermal(H_f))


@dataclass(frozen=True, eq=False)
class WorkRows:
    """What the TPM statistics of a stack of quenches read from their
    spectra, one row per quench.

    initial, final   (levels, Gibbs weights, eigenvectors) of H_i and H_f
    transitions      |<f_m|V|i_n>|^2 on the grid [..., m, n]
    delta_f          dF = (ln Z_i - ln Z_f) / beta
    mean_work        <W> = sum_mn |<f_m|V|i_n>|^2 p_n (E_m - E_n)
    lag              S(V rho_i^th V^dag || rho_f^th)
    """

    initial: tuple
    final: tuple
    transitions: np.ndarray
    delta_f: np.ndarray
    mean_work: np.ndarray
    lag: np.ndarray


def work_rows(h_initial, h_final, protocol_unitary, beta) -> WorkRows:
    """`WorkRows` of quenches from thermal states, over the leading axes of
    the (n, d, d) stacks of H_i, H_f and V (or one of each, shared), beta
    one per row or shared: one stacked `eigh` per Hamiltonian kind and no
    other decomposition.  rho' = V rho_i^th V^dag has the weights p_n of
    rho_i^th on the eigenvectors V|i_n>, so the lag reads the overlaps
    <f_m|V|i_n> with the eigenvectors of rho_f^th, whose weights are the
    Gibbs weights of H_f.  Bare H and V are read by `core._hermitian` and `core._unitary`,
    H_f and V at the size of H_i."""
    ei, vi = _eigh(_hermitian(h_initial, TrajectoryError))
    ef, vf = _eigh(_hermitian(h_final, TrajectoryError, ei.shape[-1]))
    v = _unitary(protocol_unitary, TrajectoryError, ei.shape[-1])
    beta = _check_beta(beta, TrajectoryError, positive=True,
                       rows=max(ei.shape[:-1], ef.shape[:-1], v.shape[:-2], key=len))
    (pi, log_zi), (pf, log_zf) = _gibbs(ei, beta), _gibbs(ef, beta)
    amp = vf.conj().swapaxes(-1, -2) @ v @ vi
    trans = np.abs(amp) ** 2
    mean_w = (trans * pi[..., None, :] * (ef[..., :, None] - ei[..., None, :])).sum((-2, -1))
    return WorkRows((ei, pi, vi), (ef, pf, vf), trans, (log_zi - log_zf) / beta, mean_w,
                    _petz_renyi(1.0, pi, pf, amp))


def work_distribution(h_initial, h_final, protocol_unitary, beta: float) -> WorkStatistics:
    """TPM work statistics for a thermal initial state.

    P_F(W) collects transitions between the eigenbases of H_i and H_f with
    W = E_f - E_i.  The backward distribution starts from the thermal state
    of H_f and runs V^dag, so the pair satisfies the Crooks relation
    P_F(W) = P_B(-W) e^{beta (W - dF)} pointwise on the shared support.
    Row 0 of `work_rows`, whose spectra also give both distributions.
    """
    return _work_statistics(_one_quench(h_initial, h_final, protocol_unitary, beta), beta)


def _one_quench(h_initial, h_final, protocol_unitary, beta) -> WorkRows:
    return work_rows(*((m,) for m in (h_initial, h_final, protocol_unitary)), beta)


def _work_statistics(rows: WorkRows, beta: float) -> WorkStatistics:
    """The `WorkStatistics` of row 0 of `rows`."""
    (ei, pi, _), (ef, pf_th, _) = ([x[0] for x in s] for s in (rows.initial, rows.final))
    trans = rows.transitions[0]                          # [m, n], backward [n, m] = trans.T
    fwd = ScalarDistribution.from_samples((ef[:, None] - ei).ravel(), (trans * pi).ravel())
    bwd = ScalarDistribution.from_samples((ei[:, None] - ef).ravel(), (trans.T * pf_th).ravel())
    delta_f, mean_w = float(rows.delta_f[0]), float(rows.mean_work[0])
    return WorkStatistics(
        forward=fwd,
        backward=bwd,
        delta_f=delta_f,
        mean_work=mean_w,
        jarzynski=fwd.exp_average(-beta) * math.exp(beta * delta_f),
        sigma_mean=beta * (mean_w - delta_f),
        lag=float(rows.lag[0]),
    )


def crooks_check(stats: WorkStatistics, beta: float):
    """Pointwise P_F(W) / P_B(-W) = e^{beta (W - dF)} on the shared support.

    W of P_F and -W of P_B are paired when they fall in one run of the
    merge rule (`ScalarDistribution.from_samples`); a pair is compared when
    both weights exceed CROOKS_WEIGHT_TOL.  Returns (max deviation, number of compared
    points).
    """
    beta = _check_beta(beta, TrajectoryError, positive=True)
    fwd, bwd = stats.forward, stats.backward
    w = np.concatenate([fwd.values, -bwd.values])
    order = np.argsort(w, kind="stable")
    w = w[order]
    p = np.concatenate([fwd.probabilities, bwd.probabilities])[order]
    is_f = order < len(fwd.values)
    starts = _equal_runs(w, MERGE_TOL * np.maximum(1.0, np.abs(w)))
    p_f, p_b, w_f, n_f = (np.add.reduceat(x, starts) for x in (
        np.where(is_f, p, 0.0), np.where(is_f, 0.0, p), np.where(is_f, w, 0.0), is_f * 1.0))
    pair = (p_f > CROOKS_WEIGHT_TOL) & (p_b > CROOKS_WEIGHT_TOL)
    ratio = np.exp(beta * (w_f[pair] / n_f[pair] - stats.delta_f))
    return float(np.max(np.abs(p_f[pair] / p_b[pair] - ratio), initial=0.0)), int(pair.sum())


@dataclass(frozen=True, eq=False)
class CgfCurve:
    lam: np.ndarray
    values: np.ndarray
    kappa: tuple  # first four cumulants of sigma

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def work_cgf(h_initial, h_final, protocol_unitary, beta: float, lam_grid) -> CgfCurve:
    """K(lambda) = ln <e^{-lambda sigma}> for the work protocol.

    Evaluated through the trace formula
    K = ln Tr{ V^dag rho_f^lam V rho_i^(1-lam) }
      = ln sum_mn |<f_m|V|i_n>|^2 q_m^lam p_n^(1-lam)
    on the Gibbs weights and transitions of `work_rows`, which equals the
    ensemble sum exactly; cumulants come from the exact sigma distribution.
    """
    rows = _one_quench(h_initial, h_final, protocol_unitary, beta)
    lam = np.asarray(_real(lam_grid, TrajectoryError, "lambda grid"))
    p, q = rows.initial[1][0], rows.final[1][0]
    powers = q[:, None] ** lam[:, None, None] * p ** (1.0 - lam[:, None, None])
    return CgfCurve(lam, np.log((rows.transitions[0] * powers).sum((-2, -1))),
                    tuple(_work_sigma(_work_statistics(rows, beta), beta).cumulants(4)))


def _work_sigma(stats: WorkStatistics, beta: float) -> ScalarDistribution:
    """The distribution of sigma = beta (W - dF) of a work protocol."""
    return ScalarDistribution(beta * (stats.forward.values - stats.delta_f),
                              stats.forward.probabilities)


# ---------------------------------------------------------------------------
# Infinitesimal quenches
# ---------------------------------------------------------------------------

def _level_pairs(spectrum, op):
    """The terms of Tr[A rho^y A rho^(1-y)] = sum_ij c_ij l_i^y l_j^(1-y)
    for rho of the (weights, eigenvectors) `spectrum`: c_ij = Re a_ij a_ji
    with a = A in rho's eigenbasis, and <A> and <A^2> in rho."""
    vals, vecs = spectrum
    a = vecs.conj().T @ op @ vecs
    mean = float(np.sum(np.diag(a).real * vals))
    second = float(np.sum(np.diag(a @ a).real * vals))
    return np.real(a * a.T), mean, second


def _larger_and_log_ratio(vals):
    """For every pair of levels [i, j]: the larger weight b and s = ln(a/b)
    <= 0 of the smaller a; b = 0 where either weight is 0, as the
    integrals below of a level of zero weight vanish."""
    lo, hi = np.minimum.outer(vals, vals), np.maximum.outer(vals, vals)
    live = lo > 0.0
    s = np.log(np.where(live, lo, 1.0)) - np.log(np.where(live, hi, 1.0))
    return np.where(live, hi, 0.0), s


def _expm1_ratio(t, s):
    """expm1(t s) / s, and its limit t at s = 0."""
    zero = s == 0.0
    return np.where(zero, t, np.expm1(t * s) / np.where(zero, 1.0, s))


def _log_mean(vals):
    """int_0^1 l_i^y l_j^(1-y) dy for every pair of levels [i, j]: the
    logarithmic mean (a - b) / ln(a/b), as b expm1(s) / s with b the larger
    weight and s = ln(a/b) <= 0 (the integral is symmetric in i, j); b at
    a = b and 0 for a level of zero weight."""
    b, s = _larger_and_log_ratio(vals)
    return b * _expm1_ratio(1.0, s)


def _xy_integral(vals, lam):
    """int_0^lam dx int_x^(1-x) dy l_i^y l_j^(1-y) for every pair of levels
    [..., i, j] and every lam of the leading axes.  The inner integral is
    b r^x expm1((1 - 2x) ln r) / ln r with r = a/b <= 1 as in `_log_mean`,
    and the outer one b expm1(lam ln r) expm1((1 - lam) ln r) / ln^2 r:
    b lam (1 - lam) at r = 1, 0 for a level of zero weight, and symmetric
    under lam -> 1 - lam term by term."""
    b, s = _larger_and_log_ratio(vals)
    lam = np.asarray(lam, dtype=float)[..., None, None]
    return b * _expm1_ratio(lam, s) * _expm1_ratio(1.0 - lam, s)


def _identity_quench(hi, hf, beta):
    """The `work_rows` of the sudden quench H_i -> H_f (V = 1), the Gibbs
    weights of rho_i^th and the `_level_pairs` of dH = H_f - H_i in it."""
    rows = _one_quench(hi, hf, np.eye(hi.shape[0]), beta)
    _, weights, vecs = (x[0] for x in rows.initial)
    return rows, weights, _level_pairs((weights, vecs), hf - hi)


@dataclass(frozen=True)
class QuenchReport:
    sigma_exact: float
    sigma_second_order: float
    y_cov_integral: float
    incompatibility: float      # the skew-information (coherence) penalty
    variance_dh: float
    sigma_distribution: ScalarDistribution
    cumulants: tuple
    fdr_residual: float         # <sigma> - (var(sigma)/2 - incompatibility)
    commuting: bool
    expansion_ok: bool


def quench_report(h_of_lambda, lam0: float, dlam: float, beta: float) -> QuenchReport:
    """Sudden quench H(lam0) -> H(lam0 + dlam) from a thermal state.

    Sigma_exact = S(rho_i^th || rho_f^th); the second-order expansion is
    (beta^2/2) int_0^1 cov^y(dH, dH) dy = (beta^2/2) var(dH) - Q, with Q
    the integrated skew information of dH in rho_i^th.  A commuting quench
    has Q = 0 and satisfies the fluctuation-dissipation relation
    <sigma> = var(sigma)/2 up to O(dlam^3); coherence breaks it by exactly
    Q at second order.  Everything is read from the spectra of the
    identity quench's `work_rows`: Sigma_exact is its lag.
    """
    hi = _hermitian(h_of_lambda(lam0), TrajectoryError)
    hf = _hermitian(h_of_lambda(lam0 + dlam), TrajectoryError, len(hi))
    rows, weights, (pairs, mean_dh, second) = _identity_quench(hi, hf, beta)
    stats = _work_statistics(rows, beta)
    window = np.sum(pairs * _log_mean(weights))
    ycov = float(window - mean_dh ** 2)
    sigma_2 = 0.5 * beta ** 2 * ycov
    skew = 0.5 * beta ** 2 * float(second - window)
    commuting = float(np.abs(hi @ hf - hf @ hi).max()) < 1e-12 * max(
        1.0, float(np.abs(hi).max() * np.abs(hf).max()))
    # exhaustive sigma distribution (V = identity quench)
    sig = _work_sigma(stats, beta)
    kappa = sig.cumulants(4)
    fdr_residual = kappa[0] - (0.5 * kappa[1] - skew)
    sigma_exact = stats.lag
    expansion_ok = abs(sigma_exact - sigma_2) <= EXPANSION_REL_TOL * max(sigma_exact, 1e-300)
    return QuenchReport(
        sigma_exact=sigma_exact,
        sigma_second_order=sigma_2,
        y_cov_integral=ycov,
        incompatibility=skew,
        variance_dh=second - mean_dh ** 2,
        sigma_distribution=sig,
        cumulants=tuple(kappa),
        fdr_residual=fdr_residual,
        commuting=commuting,
        expansion_ok=expansion_ok,
    )


def quench_cgf(h_initial, h_final, beta: float, lam_grid) -> CgfCurve:
    """Second-order quench CGF
    K(lam) = -(beta^2/2) int_0^lam dx int_x^(1-x) dy cov^y(dH, dH),
    in closed form on the spectrum of rho_i^th (`_xy_integral`).  Satisfies
    the Gallavotti-Cohen symmetry K(lam) = K(1 - lam) identically.
    """
    hi = _hermitian(h_initial, TrajectoryError)
    hf = _hermitian(h_final, TrajectoryError, len(hi))
    rows, weights, (pairs, mean, _) = _identity_quench(hi, hf, beta)
    lam = np.asarray(_real(lam_grid, TrajectoryError, "lambda grid"))
    inner = np.sum(pairs * _xy_integral(weights, lam), axis=(-2, -1)) - mean ** 2 * lam * (1.0 - lam)
    return CgfCurve(lam, -0.5 * beta ** 2 * inner,
                    tuple(_work_sigma(_work_statistics(rows, beta), beta).cumulants(4)))


# ---------------------------------------------------------------------------
# Exchange ensembles with initial correlations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedExchange:
    ensemble: PathEnsemble       # grid [mA, mB, nA, nB]
    mean_heat_dephased: float    # the TPM (measured) average heat
    mean_heat_unitary: float     # Tr{H_B (U rho U' - rho)}, no measurement
    integral_ft: float           # <e^{-[(bB-bA) q_B - dI]}> = 1
    lhs: float                   # (beta_B - beta_A) <q_B>
    rhs: float                   # <dI>
    bound_satisfied: bool


def correlated_tpm(rho_ab: DensityOperator, h_a, h_b, unitary,
                   beta_a: float, beta_b: float) -> CorrelatedExchange:
    """Local-energy-basis TPM for two correlated thermal-marginal systems.

    The first measurement dephases rho_AB in |n_A n_B>, so the measured
    mean heat is the heat of the dephased state, which differs from the
    unitary-only value whenever the correlations live in coherences.  The
    trajectory functional sigma = (beta_B - beta_A) q_B - dI satisfies the
    integral fluctuation theorem and Jensen gives
    (beta_B - beta_A) <q_B> >= <dI>.  The ensemble lives on the grid
    [mA, mB, nA, nB]; its backward process starts from the same dephased
    state on the final outcomes and runs U^dag.
    """
    (rho_ab, h_a, h_b, u), _, mean_unitary = _thermal_exchange(rho_ab, h_a, h_b, unitary,
                                                               beta_a, beta_b, TrajectoryError)
    (ea, va), (eb, vb) = _eigh(h_a), _eigh(h_b)
    basis = tensor([va, vb])
    da, db = len(ea), len(eb)
    p_joint = np.maximum(populations(rho_ab, basis), 0.0).reshape(da, db)
    w = (np.abs(basis.conj().T @ u @ basis) ** 2).reshape(da, db, da, db)
    p = w * p_joint
    live = p > 0.0
    q_b = np.broadcast_to((eb[:, None] - eb)[None, :, None, :], p.shape)   # [mB, nB]
    with np.errstate(divide="ignore", invalid="ignore"):
        # the stochastic mutual information, -inf where p_joint vanishes
        mi = np.where(p_joint > 0.0,
                      np.log(p_joint / np.outer(p_joint.sum(axis=1), p_joint.sum(axis=0))),
                      -math.inf)
        di = mi[:, :, None, None] - mi
        sigma = np.where(live, (beta_b - beta_a) * q_b - di, 0.0)
    ft = float(np.dot(p[live], np.exp(-sigma[live])))
    mean_q = float(np.dot(p[live], q_b[live]))
    mean_di = float(np.dot(p[live], di[live]))
    lhs = (beta_b - beta_a) * mean_q
    return CorrelatedExchange(
        ensemble=PathEnsemble(p, w * p_joint[:, :, None, None], sigma),
        mean_heat_dephased=mean_q,
        mean_heat_unitary=mean_unitary,
        integral_ft=ft,
        lhs=lhs,
        rhs=mean_di,
        bound_satisfied=lhs >= mean_di - 1e-10,
    )


@dataclass(frozen=True)
class AugmentedExchange:
    ensemble: PathEnsemble   # grid [s, (nA nB), (mA mB)], no backward process
    mean_heat: float         # equals the unitary (backaction-free) heat
    normalization: float


def augmented_tpm(rho_ab: DensityOperator, unitary, h_a, h_b) -> AugmentedExchange:
    """Backaction-free exchange ensemble.

    The first measurement is made in the eigenbasis |s> of rho_AB itself
    and the trajectory is augmented with the conditional energy outcome
    p(nA nB | s) = |<nA nB|s>|^2, so the mean heat recovers the unitary
    value Tr{H_B (U rho_AB U^dag - rho_AB)} exactly.  The ensemble is
    p[s, n, m] = p_s |<n|s>|^2 |<m|U|s>|^2 over the joint energy indices.
    """
    ea, va = _eigh(_hermitian(h_a, TrajectoryError))
    eb, vb = _eigh(_hermitian(h_b, TrajectoryError))
    ps, vs = _spectrum(rho_ab, TrajectoryError, len(ea) * len(eb))
    basis, u = tensor([va, vb]), _unitary(unitary, TrajectoryError, len(ps))
    amp_m = np.abs(basis.conj().T @ u @ vs) ** 2               # [(mA mB), s]
    amp_n = np.abs(basis.conj().T @ vs) ** 2                   # [(nA nB), s]
    p = ps[:, None, None] * amp_n.T[:, :, None] * amp_m.T[:, None, :]
    e_b = np.tile(eb, len(ea))                                 # E_B of a joint index
    live = p > 0.0
    q_b = np.broadcast_to(e_b - e_b[:, None], p.shape)[live]
    return AugmentedExchange(PathEnsemble(p), float(np.dot(p[live], q_b)),
                             float(np.sum(p[live])))


# ---------------------------------------------------------------------------
# Measurement-driven ("quantum heat") trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasurementTrajectories:
    sigma_values: np.ndarray
    probabilities: np.ndarray
    average_sigma: float
    shannon_initial: float
    shannon_final: float
    integral_ft: float
    doubly_stochastic: bool
    sampled: bool
    seed: int | None


def _draw(columns, k, u):
    """Per sample, an outcome of column k[i] of a column-stochastic matrix
    for the uniform u[i]: the cdf / cdf[-1] inverse with a side="right"
    search, which is how rng.choice(d, p=column) maps its one uniform,
    counted one cdf row at a time: the sum of each row's (row[k] <= u)."""
    cdf = np.cumsum(columns, axis=0)
    cdf /= cdf[-1]
    return sum(row[k] <= u for row in cdf)


def measurement_trajectories(psi0, bases, unitaries, max_exhaustive=10 ** 6,
                             n_samples=200_000, seed=2024):
    """Trajectories of a repeatedly measured pure state.

    bases: list of unitary matrices whose columns are the measurement bases
    B_0 ... B_n; unitaries: the n evolution operators between them.  The
    entropy production of a record (k_0 ... k_n) is ln p(k_0) - ln p(k_n),
    averaging to the Shannon-entropy gain S(p_n) - S(p_0) >= 0, since the
    compound transition matrix is doubly stochastic.

    Since sigma depends on (k_0, k_n) only, up to max_exhaustive records
    are summed exactly as the joint matrix compound[k_n, k_0] p(k_0).
    Beyond it n_samples records are drawn from the seed: one uniform per
    sample and record, in the order and with the inverse-CDF map of one
    rng.choice(d, p=...) per sample and step, so a seed gives the same
    records as that loop.  Both merge equal sigma values by the rule of
    `ScalarDistribution.from_samples`.
    """
    psi = np.asarray(psi0, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < math.inf:
        raise TrajectoryError("psi0 must be finite and nonzero")
    psi = psi / norm
    d = len(psi)
    bases = _unitary(list(bases), TrajectoryError, d)
    if len(unitaries) != len(bases) - 1:
        raise TrajectoryError("need exactly one unitary between consecutive bases")
    unitaries = _unitary(list(unitaries) or np.zeros((0, d, d)), TrajectoryError, d)
    p0 = np.abs(bases[0].conj().T @ psi) ** 2
    steps = [np.abs(b_next.conj().T @ u @ b_prev) ** 2           # [k', k]
             for b_prev, u, b_next in zip(bases[:-1], unitaries, bases[1:])]
    # final-record marginal and the compound transition matrix
    compound = functools.reduce(lambda acc, t: t @ acc, steps, np.eye(d))
    p_final = compound @ p0
    sums = np.concatenate([compound.sum(axis=0), compound.sum(axis=1)])
    doubly = bool(np.abs(sums - 1.0).max() < 1e-9)

    sampled = d ** len(bases) > max_exhaustive
    if sampled:
        u = np.random.default_rng(seed).random((n_samples, len(bases)))
        k0 = k = _draw(p0[:, None], np.zeros(n_samples, dtype=int), u[:, 0])
        for j, t in enumerate(steps, 1):
            k = _draw(t, k, u[:, j])
        sigma, weights = np.log(p0[k0]) - np.log(p_final[k]), np.ones(n_samples)
    else:
        joint = compound * p0                                     # [k_n, k_0]
        kn, k0 = np.nonzero(joint > 0.0)
        sigma, weights = np.log(p0[k0]) - np.log(p_final[kn]), joint[kn, k0]
    dist = ScalarDistribution.from_samples(sigma, weights)
    values, probs = dist.values, dist.probabilities
    if sampled:
        probs = probs / probs.sum()
    return MeasurementTrajectories(
        sigma_values=values,
        probabilities=probs,
        average_sigma=float(np.sum(values * probs)),
        shannon_initial=float(_entropy_rows(p0)),
        shannon_final=float(_entropy_rows(p_final)),
        integral_ft=float(np.sum(probs * np.exp(-values))),
        doubly_stochastic=doubly,
        sampled=sampled,
        seed=seed if sampled else None,
    )


# ---------------------------------------------------------------------------
# Finite-width work weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConvolvedWork:
    grid: np.ndarray
    density: np.ndarray          # probability mass per grid cell, sums to 1
    mean: float
    variance: float
    attenuations: np.ndarray | None


def weight_convolve(ideal: ScalarDistribution, delta: float, gaps=None) -> ConvolvedWork:
    """Convolve an ideal work distribution with a Gaussian weight of spread
    delta: P_F(w) = sum_j p_j q(w - w_j), q = N(0, delta^2).

    The mean is preserved and the variance gains exactly delta^2.  A finite
    weight also dephases the final state: for an energy gap dE the
    off-diagonal element survives with attenuation e^{-dE^2 / (8 delta^2)}
    (reported for the supplied gap list).  The ideal Crooks relation does
    not survive the convolution.
    """
    delta = _real(delta, TrajectoryError, "weight spread delta", above=0.0)
    ideal._require_finite("a weight convolution")
    lo = float(ideal.values.min() - 6.0 * delta)
    hi = float(ideal.values.max() + 6.0 * delta)
    grid = np.linspace(lo, hi, CONVOLVE_GRID)
    # the Gaussian at every grid point and support value, normalized on the grid
    mass = np.exp(-((grid[:, None] - ideal.values) / delta) ** 2 / 2.0) @ ideal.probabilities
    mass = mass / mass.sum()
    mean = float(np.sum(grid * mass))
    var = float(np.sum((grid - mean) ** 2 * mass))
    att = None if gaps is None else np.exp(-np.asarray(_real(gaps, TrajectoryError, "gaps")) ** 2
                                            / (8.0 * delta ** 2))
    return ConvolvedWork(grid, mass, mean, var, att)
