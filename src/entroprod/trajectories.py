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
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    HermitianOperator,
    _clamp_probs,
    _mat,
    _spectrum,
    partial_trace,
    relative_entropy,
    shannon_entropy,
    tensor,
    thermal_state,
    trace_distance,
)
from .episodes import Episode, evolve, is_strict_energy_conserving

ENSEMBLE_DIM_CAP = 64


class TrajectoryError(ValueError):
    pass


class BackwardChoice(enum.Enum):
    BATH_RESET = "bath_reset"
    CORRELATIONS_DESTROYED = "correlations_destroyed"
    POST_MEASUREMENT_STATE = "post_measurement_state"
    BOTH_RESET = "both_reset"


@dataclass(frozen=True)
class PathEnsemble:
    """An exhaustive ensemble as arrays over its outcome grid.

    For an episode the grid is [m, mu, n, nu]: final outcomes (m, mu) of S
    and E first, initial outcomes (n, nu) last, so `.ravel()` lists the
    paths in that order.  sigma is 0 where p_forward vanishes and +inf
    where only p_backward does.  An ensemble without a backward process
    leaves p_backward and sigma as None.
    """

    p_forward: np.ndarray
    p_backward: np.ndarray | None = None
    sigma: np.ndarray | None = None
    choice: BackwardChoice | None = None

    def forward_probabilities(self):
        return self.p_forward.ravel()

    def sigmas(self):
        return self.sigma.ravel()

    def average_sigma(self) -> float:
        """<sigma>; +inf if any populated path has an infinite sigma."""
        live = self.p_forward > 0.0
        sig = self.sigma[live]
        if not np.isfinite(sig).all():
            return math.inf
        return float(np.dot(self.p_forward[live], sig))

    def integral_ft(self) -> float:
        """<e^{-sigma}> over the forward ensemble (1 when supports match)."""
        live = (self.p_forward > 0.0) & np.isfinite(self.sigma)
        return float(np.dot(self.p_forward[live], np.exp(-self.sigma[live])))

    def sigma_distribution(self) -> "ScalarDistribution":
        live = self.p_forward > 0.0
        return ScalarDistribution.from_samples(self.sigma[live], self.p_forward[live])


def _write_csv(path, header, *columns):
    lines = [header] + [",".join(format(x, ".17g") for x in row) for row in zip(*columns)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


@dataclass(frozen=True)
class ScalarDistribution:
    """Discrete distribution over real values (merged support)."""

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise TrajectoryError("values/probabilities must be matching 1-d arrays")
        if p.min() < -1e-12:
            raise TrajectoryError(f"negative probability {p.min():.3e}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def from_samples(cls, values, probabilities, merge_tol=1e-10):
        order = np.argsort(values)
        values = np.asarray(values, dtype=float)[order]
        probabilities = np.asarray(probabilities, dtype=float)[order]
        merged_v, merged_p = [], []
        for v, p in zip(values, probabilities):
            if p <= 0.0:
                continue
            if merged_v and abs(v - merged_v[-1]) <= merge_tol * max(1.0, abs(v)):
                merged_p[-1] += p
            else:
                merged_v.append(v)
                merged_p.append(p)
        return cls(np.array(merged_v), np.array(merged_p))

    @classmethod
    def delta(cls, value):
        return cls(np.array([float(value)]), np.array([1.0]))

    def mean(self) -> float:
        return float(np.sum(self.values * self.probabilities))

    def moment(self, n, central=False) -> float:
        x = self.values - (self.mean() if central else 0.0)
        return float(np.sum(x ** n * self.probabilities))

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
        return math.log(self.exp_average(-lam))

    def convolve(self, other: "ScalarDistribution") -> "ScalarDistribution":
        vals = (self.values[:, None] + other.values[None, :]).ravel()
        probs = (self.probabilities[:, None] * other.probabilities[None, :]).ravel()
        return ScalarDistribution.from_samples(vals, probs)

    def to_csv(self, path):
        return _write_csv(path, "value,probability", self.values, self.probabilities)

    def to_json(self) -> dict:
        return {"values": self.values.tolist(),
                "probabilities": self.probabilities.tolist()}


# ---------------------------------------------------------------------------
# TPM ensembles for episodes
# ---------------------------------------------------------------------------

def _log_ratio(num, den, p_forward, p_backward):
    """ln num/den on the grid of p_forward: 0 where p_forward vanishes, +inf
    where only the backward weight p_backward does."""
    live = p_forward > 0.0
    out = np.where(live, math.inf, 0.0)
    ok = live & (p_backward > 0.0)
    out[ok] = np.log(np.broadcast_to(num, out.shape)[ok]
                     / np.broadcast_to(den, out.shape)[ok])
    return out


def tpm_ensemble(ep: Episode) -> PathEnsemble:
    """Exhaustive forward ensemble with the default final bases, the
    eigenbases of rho_S' and rho_E' (no measurement backaction on the
    local ensembles); its backward process is CORRELATIONS_DESTROYED."""
    return backward_ensemble(ep, BackwardChoice.CORRELATIONS_DESTROYED)


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
    """
    if ep.unitary.dim > ENSEMBLE_DIM_CAP:
        raise TrajectoryError(f"joint dimension {ep.unitary.dim} exceeds the "
                              f"exhaustive cap {ENSEMBLE_DIM_CAP}")
    ev = evolve(ep)
    ds, de = ep.rho_system.dim, ep.rho_env.dim
    p_init, vs_init = _spectrum(ep.rho_system)
    q_init, ve_init = _spectrum(ep.rho_env)
    ps_fin, vs_fin = _spectrum(ev.rho_system)
    qe_fin, ve_fin = _spectrum(ev.rho_env)

    if choice is BackwardChoice.BATH_RESET:
        basis_s, basis_e, ref = vs_fin, ve_init, np.outer(ps_fin, q_init)
    elif choice is BackwardChoice.CORRELATIONS_DESTROYED:
        basis_s, basis_e, ref = vs_fin, ve_fin, np.outer(ps_fin, qe_fin)
    elif choice is BackwardChoice.POST_MEASUREMENT_STATE:
        basis_s, basis_e = vs_fin, ve_fin
        final = np.kron(basis_s, basis_e)
        diag = np.real(np.einsum("im,ij,jm->m", final.conj(),
                                 ev.rho_joint.matrix, final))
        ref = _clamp_probs(diag).reshape(ds, de)
    elif choice is BackwardChoice.BOTH_RESET:
        basis_s, basis_e, ref = vs_init, ve_init, np.outer(p_init, q_init)
    else:
        raise TrajectoryError(f"unknown backward choice {choice}")

    amp = np.kron(basis_s, basis_e).conj().T @ ep.unitary.matrix @ np.kron(vs_init, ve_init)
    w = (np.abs(amp) ** 2).reshape(ds, de, ds, de)
    ref = ref[:, :, None, None]
    pf, pb = w * p_init[:, None] * q_init, w * ref
    return PathEnsemble(pf, pb, _log_ratio(np.outer(p_init, q_init), ref, pf, pb), choice)


def stochastic_sigma(forward: PathEnsemble, backward: PathEnsemble | None = None):
    """Per-trajectory sigma = ln P_F / P_B for matched ensembles, in the
    flat grid order."""
    if backward is None:
        if forward.sigma is None:
            raise TrajectoryError("ensemble carries no backward probabilities")
        return forward.sigmas()
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


def _log_partition(h, beta) -> float:
    vals = np.linalg.eigvalsh(_mat(h))
    m = vals.min()
    return float(-beta * m + np.log(np.sum(np.exp(-beta * (vals - m)))))


def work_distribution(h_initial, h_final, protocol_unitary, beta: float) -> WorkStatistics:
    """TPM work statistics for a thermal initial state.

    P_F(W) collects transitions between the eigenbases of H_i and H_f with
    W = E_f - E_i.  The backward distribution starts from the thermal state
    of H_f and runs V^dag, so the pair satisfies the Crooks relation
    P_F(W) = P_B(-W) e^{beta (W - dF)} pointwise on the shared support.
    """
    hi = _mat(h_initial)
    hf = _mat(h_final)
    v = _mat(protocol_unitary)
    ei, vi = np.linalg.eigh(hi)
    ef, vf = np.linalg.eigh(hf)
    pi = np.exp(-beta * (ei - ei.min()))
    pi = pi / pi.sum()
    pf_th = np.exp(-beta * (ef - ef.min()))
    pf_th = pf_th / pf_th.sum()
    trans = np.abs(vf.conj().T @ v @ vi) ** 2          # [m, n]
    vals_f = (ef[:, None] - ei[None, :]).ravel()
    probs_f = (trans * pi[None, :]).ravel()
    fwd = ScalarDistribution.from_samples(vals_f, probs_f)
    trans_b = np.abs(vi.conj().T @ v.conj().T @ vf) ** 2   # [n, m]
    vals_b = (ei[:, None] - ef[None, :]).ravel()
    probs_b = (trans_b * pf_th[None, :]).ravel()
    bwd = ScalarDistribution.from_samples(vals_b, probs_b)
    delta_f = (-_log_partition(hf, beta) + _log_partition(hi, beta)) / beta
    mean_w = fwd.mean()
    jarz = fwd.exp_average(-beta) * math.exp(beta * delta_f)
    rho_prime = v @ ((vi * pi) @ vi.conj().T) @ v.conj().T
    lag = relative_entropy(rho_prime, (vf * pf_th) @ vf.conj().T)
    return WorkStatistics(
        forward=fwd,
        backward=bwd,
        delta_f=delta_f,
        mean_work=mean_w,
        jarzynski=jarz,
        sigma_mean=beta * (mean_w - delta_f),
        lag=lag,
    )


def crooks_check(stats: WorkStatistics, beta: float, tol=1e-10):
    """Pointwise P_F(W) / P_B(-W) = e^{beta (W - dF)} on the shared support.

    Returns (max deviation, number of compared points).
    """
    dev, count = 0.0, 0
    bvals = {round(v, 12): p for v, p in zip(stats.backward.values,
                                             stats.backward.probabilities)}
    for w, p in zip(stats.forward.values, stats.forward.probabilities):
        q = bvals.get(round(-w, 12))
        if q is None or q <= tol or p <= tol:
            continue
        dev = max(dev, abs(p / q - math.exp(beta * (w - stats.delta_f))))
        count += 1
    return dev, count


@dataclass(frozen=True)
class CgfCurve:
    lam: np.ndarray
    values: np.ndarray
    kappa: tuple  # first four cumulants of sigma

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def to_csv(self, path):
        return _write_csv(path, "lambda,K", self.lam, self.values)


def work_cgf(h_initial, h_final, protocol_unitary, beta: float, lam_grid) -> CgfCurve:
    """K(lambda) = ln <e^{-lambda sigma}> for the work protocol.

    Evaluated through the trace formula
    K = ln Tr{ V^dag rho_f^lam V rho_i^(1-lam) } (thermal states as matrix
    powers) which equals the ensemble sum exactly; cumulants come from the
    exact sigma distribution.
    """
    hi = _mat(h_initial)
    hf = _mat(h_final)
    v = _mat(protocol_unitary)
    rho_i = thermal_state(HermitianOperator.from_matrix(hi), beta)
    rho_f = thermal_state(HermitianOperator.from_matrix(hf), beta)
    ei, vi = _spectrum(rho_i)
    ef, vf = _spectrum(rho_f)
    lam_grid = np.asarray(lam_grid, dtype=float)
    out = np.empty_like(lam_grid)
    for k, lam in enumerate(lam_grid):
        pow_f = (vf * ef ** lam) @ vf.conj().T
        pow_i = (vi * ei ** (1.0 - lam)) @ vi.conj().T
        out[k] = math.log(float(np.real(np.trace(v.conj().T @ pow_f @ v @ pow_i))))
    return CgfCurve(lam_grid, out, tuple(_work_sigma(hi, hf, v, beta).cumulants(4)))


def _work_sigma(hi, hf, v, beta) -> ScalarDistribution:
    """The distribution of sigma = beta (W - dF) of a work protocol."""
    stats = work_distribution(hi, hf, v, beta)
    return ScalarDistribution(beta * (stats.forward.values - stats.delta_f),
                              stats.forward.probabilities)


# ---------------------------------------------------------------------------
# Infinitesimal quenches
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gl_map(a, b):
    half = 0.5 * (b - a)
    return half * _GL_NODES + 0.5 * (a + b), half * _GL_WEIGHTS


def _y_correlation(rho, op, ys):
    """Tr[A rho^y A rho^(1-y)] at every y of the array ys, with <A> and
    <A^2> in rho."""
    vals, vecs = _spectrum(rho)
    a = vecs.conj().T @ _mat(op) @ vecs
    y = np.asarray(ys)[..., None]
    corr = np.real(np.einsum("ij,...j,ji,...i->...", a, vals ** (1.0 - y), a, vals ** y))
    mean = float(np.sum(np.diag(a).real * vals))
    second = float(np.sum(np.diag(a @ a).real * vals))
    return corr, mean, second


def y_covariance_integral(rho, op) -> float:
    """int_0^1 cov^y(A, A) dy by 32-node Gauss-Legendre, where
    cov^y(A, A) = Tr[A rho^y A rho^(1-y)] - <A>^2."""
    x, w = _gl_map(0.0, 1.0)
    corr, mean, _ = _y_correlation(rho, op, x)
    return float(np.sum(w * (corr - mean ** 2)))


def skew_information_integral(rho, op) -> float:
    """int_0^1 I_y(rho, A) dy with I_y = -1/2 Tr{[rho^y, A][rho^(1-y), A]}
    = <A^2> - Tr[A rho^y A rho^(1-y)]."""
    x, w = _gl_map(0.0, 1.0)
    corr, _, second = _y_correlation(rho, op, x)
    return float(np.sum(w * (second - corr)))


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


def quench_report(h_of_lambda, lam0: float, dlam: float, beta: float,
                  rel_tol: float = 0.05) -> QuenchReport:
    """Sudden quench H(lam0) -> H(lam0 + dlam) from a thermal state.

    Sigma_exact = S(rho_i^th || rho_f^th); the second-order expansion is
    (beta^2/2) int_0^1 cov^y(dH, dH) dy = (beta^2/2) var(dH) - Q, with Q
    the integrated skew information of dH in rho_i^th.  A commuting quench
    has Q = 0 and satisfies the fluctuation-dissipation relation
    <sigma> = var(sigma)/2 up to O(dlam^3); coherence breaks it by exactly
    Q at second order.
    """
    hi = _mat(h_of_lambda(lam0))
    hf = _mat(h_of_lambda(lam0 + dlam))
    rho_i = thermal_state(HermitianOperator.from_matrix(hi), beta)
    rho_f = thermal_state(HermitianOperator.from_matrix(hf), beta)
    sigma_exact = relative_entropy(rho_i, rho_f)
    dh = hf - hi
    ycov = y_covariance_integral(rho_i, dh)
    sigma_2 = 0.5 * beta ** 2 * ycov
    skew = 0.5 * beta ** 2 * skew_information_integral(rho_i, dh)
    mean_dh = float(np.real(np.trace(dh @ rho_i.matrix)))
    var_dh = float(np.real(np.trace(dh @ dh @ rho_i.matrix))) - mean_dh ** 2
    commuting = float(np.abs(hi @ hf - hf @ hi).max()) < 1e-12 * max(
        1.0, float(np.abs(hi).max() * np.abs(hf).max()))
    # exhaustive sigma distribution (V = identity quench)
    sig = _work_sigma(hi, hf, np.eye(hi.shape[0]), beta)
    kappa = sig.cumulants(4)
    fdr_residual = kappa[0] - (0.5 * kappa[1] - skew)
    expansion_ok = abs(sigma_exact - sigma_2) <= rel_tol * max(sigma_exact, 1e-300)
    return QuenchReport(
        sigma_exact=sigma_exact,
        sigma_second_order=sigma_2,
        y_cov_integral=ycov,
        incompatibility=skew,
        variance_dh=var_dh,
        sigma_distribution=sig,
        cumulants=tuple(kappa),
        fdr_residual=fdr_residual,
        commuting=commuting,
        expansion_ok=expansion_ok,
    )


def quench_cgf(h_initial, h_final, beta: float, lam_grid) -> CgfCurve:
    """Second-order quench CGF
    K(lam) = -(beta^2/2) int_0^lam dx int_x^(1-x) dy cov^y(dH, dH),
    evaluated with nested 32-node Gauss-Legendre rules.  Satisfies the
    Gallavotti-Cohen symmetry K(lam) = K(1 - lam) identically.
    """
    hi = _mat(h_initial)
    hf = _mat(h_final)
    rho_i = thermal_state(HermitianOperator.from_matrix(hi), beta)
    lam_grid = np.asarray(lam_grid, dtype=float)
    xs, wx = _gl_map(0.0, lam_grid[:, None])                  # [lam, x]
    ys, wy = _gl_map(xs[..., None], 1.0 - xs[..., None])      # [lam, x, y]
    corr, mean, _ = _y_correlation(rho_i, hf - hi, ys)
    inner = np.sum(wy * (corr - mean ** 2), axis=-1)
    out = -0.5 * beta ** 2 * np.sum(wx * inner, axis=-1)
    return CgfCurve(lam_grid, out, tuple(_work_sigma(hi, hf, np.eye(hi.shape[0]),
                                                     beta).cumulants(4)))


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
                   beta_a: float, beta_b: float,
                   tol: float = 1e-9) -> CorrelatedExchange:
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
    if trace_distance(partial_trace(rho_ab, [0]), thermal_state(h_a, beta_a)) > tol:
        raise TrajectoryError("marginal of A is not thermal at beta_a")
    if trace_distance(partial_trace(rho_ab, [1]), thermal_state(h_b, beta_b)) > tol:
        raise TrajectoryError("marginal of B is not thermal at beta_b")
    ok, res = is_strict_energy_conserving(unitary, h_a, h_b)
    if not ok:
        raise TrajectoryError(f"unitary is not strictly energy conserving ({res:.3e})")
    ea, va = np.linalg.eigh(_mat(h_a))
    eb, vb = np.linalg.eigh(_mat(h_b))
    basis = np.kron(va, vb)
    u = _mat(unitary)
    da, db = len(ea), len(eb)
    p_joint = np.real(np.einsum("im,ij,jm->m", basis.conj(), rho_ab.matrix, basis))
    p_joint = _clamp_probs(p_joint).reshape(da, db)
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
    # unitary-only (backaction-free) average heat for comparison
    hb_full = tensor([np.eye(da), h_b])
    after = u @ rho_ab.matrix @ u.conj().T
    mean_unitary = float(np.real(np.trace(hb_full @ (after - rho_ab.matrix))))
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
    ps, vs = _spectrum(rho_ab)
    ea, va = np.linalg.eigh(_mat(h_a))
    eb, vb = np.linalg.eigh(_mat(h_b))
    basis = np.kron(va, vb)
    amp_m = np.abs(basis.conj().T @ _mat(unitary) @ vs) ** 2   # [(mA mB), s]
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

@dataclass(frozen=True)
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


def _unitary(m, d, what) -> np.ndarray:
    m = _mat(m)
    if m.shape != (d, d):
        raise TrajectoryError(f"{what} has shape {m.shape}, not ({d}, {d})")
    if not np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-9:
        raise TrajectoryError(f"{what} is not unitary")
    return m


def _draw(columns, k, u):
    """Per sample, an outcome of column k[i] of a column-stochastic matrix
    for the uniform u[i]: the cdf / cdf[-1] inverse with a side="right"
    search, which is how rng.choice(d, p=column) maps its one uniform."""
    cdf = np.cumsum(columns, axis=0)
    cdf /= cdf[-1]
    return np.sum(cdf[:, k] <= u, axis=0)


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
    records as that loop.  Both merge sigma values equal to 12 decimals.
    """
    psi = np.asarray(psi0, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if not 0.0 < norm < math.inf:
        raise TrajectoryError("psi0 must be finite and nonzero")
    psi = psi / norm
    d = len(psi)
    bases = [_unitary(b, d, f"measurement basis {i}") for i, b in enumerate(bases)]
    if len(unitaries) != len(bases) - 1:
        raise TrajectoryError("need exactly one unitary between consecutive bases")
    unitaries = [_unitary(u, d, f"unitary {i}") for i, u in enumerate(unitaries)]
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
        sigma, weights = np.log(p0[k0]) - np.log(p_final[k]), None
    else:
        joint = compound * p0                                     # [k_n, k_0]
        kn, k0 = np.nonzero(joint > 0.0)
        sigma, weights = np.log(p0[k0]) - np.log(p_final[kn]), joint[kn, k0]
    values, inverse = np.unique(np.round(sigma, 12), return_inverse=True)
    probs = np.bincount(inverse, weights=weights)
    if sampled:
        probs = probs / probs.sum()
    return MeasurementTrajectories(
        sigma_values=values,
        probabilities=probs,
        average_sigma=float(np.sum(values * probs)),
        shannon_initial=shannon_entropy(p0),
        shannon_final=shannon_entropy(p_final),
        integral_ft=float(np.sum(probs * np.exp(-values))),
        doubly_stochastic=doubly,
        sampled=sampled,
        seed=seed if sampled else None,
    )


# ---------------------------------------------------------------------------
# Finite-width work weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvolvedWork:
    grid: np.ndarray
    density: np.ndarray          # probability mass per grid cell, sums to 1
    mean: float
    variance: float
    attenuations: np.ndarray | None


def weight_convolve(ideal: ScalarDistribution, delta: float, gaps=None,
                    n_grid: int = 2 ** 12) -> ConvolvedWork:
    """Convolve an ideal work distribution with a Gaussian weight of spread
    delta: P_F(w) = sum_j p_j q(w - w_j), q = N(0, delta^2).

    The mean is preserved and the variance gains exactly delta^2.  A finite
    weight also dephases the final state: for an energy gap dE the
    off-diagonal element survives with attenuation e^{-dE^2 / (8 delta^2)}
    (reported for the supplied gap list).  The ideal Crooks relation does
    not survive the convolution.
    """
    if not 0.0 < delta < math.inf:
        raise TrajectoryError("weight spread delta must be positive and finite")
    lo = float(ideal.values.min() - 6.0 * delta)
    hi = float(ideal.values.max() + 6.0 * delta)
    grid = np.linspace(lo, hi, n_grid)
    dw = grid[1] - grid[0]
    dens = np.zeros_like(grid)
    norm = 1.0 / math.sqrt(2.0 * math.pi * delta ** 2)
    for w_j, p_j in zip(ideal.values, ideal.probabilities):
        dens += p_j * norm * np.exp(-((grid - w_j) ** 2) / (2.0 * delta ** 2))
    mass = dens * dw
    mass = mass / mass.sum()
    mean = float(np.sum(grid * mass))
    var = float(np.sum((grid - mean) ** 2 * mass))
    att = None
    if gaps is not None:
        gaps = np.asarray(gaps, dtype=float)
        att = np.exp(-(gaps ** 2) / (8.0 * delta ** 2))
    return ConvolvedWork(grid, mass, mean, var, att)
