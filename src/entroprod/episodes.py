"""System+environment unitary episodes and every balance derived from them.

One episode is a single application of rho_SE' = U (rho_S x rho_E) U^dag.
Everything else follows: entropy production Sigma splits into the mutual
information built between S and E plus the displacement of E from its
initial state,

    Sigma = I(S:E) + S(rho_E' || rho_E) = dS_S + Phi,
    Phi   = Tr{(rho_E - rho_E') ln rho_E},

and reduces to dS_S + beta*Q_E for thermal environments, to beta*(W - dF)
with the non-equilibrium free energy, and to S(rho||rho*) - S(rho'||rho*)
for maps with a global fixed point.  The module also hosts the erasure
bounds, measured-environment (conditional) balances, correlated heat flow,
mean-force strong coupling and the non-Markovianity witnesses.

Sign conventions: Q_E > 0 means energy entered the environment, W > 0
means work entered the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DensityOperator,
    HermitianOperator,
    HilbertDims,
    UnitaryOperator,
    _entropy_rows,
    _mat,
    _petz_renyi,
    _ptrace_matrix,
    hermitian_function,
    logm_psd,
    mutual_information,
    partial_trace,
    relative_entropy,
    tensor,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)

THERMALITY_TOL = 1e-9


class EpisodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Episode and its derived states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Episode:
    """One system+environment unitary interaction record.

    Its evolution (`evolve`) and the distance of rho_E from the Gibbs
    state of H_E at each beta a thermal balance asks for are computed on
    first use and kept on the instance, not compared and not in the repr;
    a `dataclasses.replace` copy computes them afresh.
    """

    h_system: HermitianOperator
    h_env: HermitianOperator
    unitary: UnitaryOperator
    rho_system: DensityOperator
    rho_env: DensityOperator

    def __post_init__(self):
        ds, de = self.rho_system.dim, self.rho_env.dim
        if self.h_system.dim != ds or self.h_env.dim != de:
            raise EpisodeError("Hamiltonian dims do not match the states")
        if self.unitary.dim != ds * de:
            raise EpisodeError(
                f"unitary dim {self.unitary.dim} != dim(S)*dim(E) = {ds * de}")

    @property
    def dims(self) -> HilbertDims:
        return self.rho_system.dims.concat(self.rho_env.dims)

    @property
    def system_factors(self):
        return list(range(len(self.rho_system.dims)))

    @property
    def env_factors(self):
        ns = len(self.rho_system.dims)
        return list(range(ns, ns + len(self.rho_env.dims)))

    def to_json(self) -> dict:
        return {
            "H_S": self.h_system.to_json(),
            "H_E": self.h_env.to_json(),
            "U": self.unitary.to_json(),
            "rho_S": self.rho_system.to_json(),
            "rho_E": self.rho_env.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "Episode":
        return cls(
            HermitianOperator.from_json(obj["H_S"]),
            HermitianOperator.from_json(obj["H_E"]),
            UnitaryOperator.from_json(obj["U"]),
            DensityOperator.from_json(obj["rho_S"]),
            DensityOperator.from_json(obj["rho_E"]),
        )

    @cached_property
    def _evolved(self) -> EvolvedStates:
        u = self.unitary.matrix
        joint = u @ tensor([self.rho_system, self.rho_env]) @ u.conj().T
        rho_se = DensityOperator(joint, self.dims)
        return EvolvedStates(
            rho_joint=rho_se,
            rho_system=partial_trace(rho_se, self.system_factors),
            rho_env=partial_trace(rho_se, self.env_factors),
        )

    @cached_property
    def _gibbs_distance(self) -> dict:
        """Trace distance of rho_E from the Gibbs state of H_E, per beta."""
        return {}


@dataclass(frozen=True)
class EvolvedStates:
    rho_joint: DensityOperator
    rho_system: DensityOperator
    rho_env: DensityOperator


def evolve(ep: Episode) -> EvolvedStates:
    """rho_SE' = U (rho_S x rho_E) U^dag and its marginals: the episode's
    one evolution, computed on its first use and shared by every route."""
    return ep._evolved


def _own_evolution(ep: Episode, evolved: EvolvedStates | None) -> EvolvedStates:
    """The episode's evolution; a given `evolved` must hold its joint state."""
    ev = evolve(ep)
    if (evolved is not None and evolved.rho_joint is not ev.rho_joint
            and not np.array_equal(evolved.rho_joint.matrix, ev.rho_joint.matrix)):
        raise EpisodeError("evolved states do not belong to this episode")
    return ev


# ---------------------------------------------------------------------------
# Entropy balances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyBalance:
    """All entropic/energetic bookkeeping of one episode.

    sigma                entropy production (non-negative; +inf for pure envs)
    flux                 entropy flux to the environment
    d_entropy_system     dS_S
    mutual_info          I(S:E) in the final state
    env_displacement     S(rho_E' || rho_E)
    heat_env             Q_E, energy change of the environment (per bath when
                         partitioned: tuple)
    work                 W = dH_S + Q_E
    d_free_energy        change in non-equilibrium free energy (None when no
                         temperature is attached to the episode)
    """

    sigma: float
    flux: float
    d_entropy_system: float
    mutual_info: float
    env_displacement: float
    heat_env: float
    work: float
    d_free_energy: float | None = None
    total_correlations: float | None = None
    heat_per_bath: tuple | None = None

    def to_json(self) -> dict:
        out = {
            "sigma": self.sigma,
            "flux": self.flux,
            "d_entropy_system": self.d_entropy_system,
            "mutual_info": self.mutual_info,
            "env_displacement": self.env_displacement,
            "heat_env": self.heat_env,
            "work": self.work,
        }
        if self.d_free_energy is not None:
            out["d_free_energy"] = self.d_free_energy
        if self.total_correlations is not None:
            out["total_correlations"] = self.total_correlations
        if self.heat_per_bath is not None:
            out["heat_per_bath"] = list(self.heat_per_bath)
        return out


def _energy(h, rho) -> float:
    return float(_trace_rows(_mat(h), _mat(rho)))


def _trace_rows(a, b):
    """Re Tr(a b) over the leading axes of either side."""
    return np.real(np.trace(a @ b, axis1=-2, axis2=-1))


def balance(ep: Episode, evolved: EvolvedStates | None = None) -> EntropyBalance:
    """Information-theoretic balance, valid for arbitrary environments.

    A pure (or rank-deficient) initial environment pushes rho_E' out of the
    support of rho_E; the displacement term and sigma are then +inf while
    the mutual information, flux trace formula and heats stay finite.
    This is the one-row case of `balance_rows`.
    """
    ev = _own_evolution(ep, evolved)
    rows = balance_rows(ep.h_system.matrix, ep.h_env.matrix, ep.rho_env,
                        _with_spectrum(ep.rho_system), _with_spectrum(ev.rho_system),
                        _with_spectrum(ev.rho_env), ev.rho_joint.eig()[0])
    return EntropyBalance(*(float(x) for x in rows))


def _with_spectrum(rho: DensityOperator):
    return (rho.matrix,) + rho.eig()


def balance_rows(h_system, h_env, rho_env: DensityOperator, before, after,
                 env_after, joint_vals):
    """The formulas of `balance` over leading axes, for episodes that share
    H_S, H_E and rho_E: `before`, `after` and `env_after` are (matrices,
    weights, eigenvectors) of rho_S, rho_S' and rho_E', `joint_vals` the
    weights of rho_SE' (stacks, or one state without the leading axis).
    Returns the arrays sigma, flux, dS_S, I(S:E), S(rho_E' || rho_E), Q_E
    and W, in `EntropyBalance` order; raises when any row's joint entropy
    is not conserved (1e-8).
    """
    (m_before, p_before, _), (m_after, p_after, _), (m_env, p_env, v_env) = \
        before, after, env_after
    q, qv = rho_env.eig()
    s_sys, s_env = _entropy_rows(p_after), _entropy_rows(p_env)
    mi = s_sys + s_env - _entropy_rows(joint_vals)
    d_env = _petz_renyi(1.0, p_env, q, qv.conj().T @ v_env)
    ds_s = s_sys - _entropy_rows(p_before)
    ds_e = s_env - _entropy_rows(q)
    # unitarity: the mutual information must equal dS_S + dS_E
    if (np.isfinite(mi) & (abs(mi - (ds_s + ds_e)) > 1e-8)).any():
        raise EpisodeError("joint entropy not conserved; unitary is inconsistent")
    # rho_E' escaped the support of rho_E (pure environment): the flux
    # diverges together with sigma; reported, not fatal.
    flux = np.where(np.isinf(d_env), np.inf,
                    _trace_rows(rho_env.matrix - m_env, logm_psd(rho_env)))
    q_env = _trace_rows(h_env, m_env) - _trace_rows(h_env, rho_env.matrix)
    work = _trace_rows(h_system, m_after) - _trace_rows(h_system, m_before) + q_env
    return mi + d_env, flux, ds_s, mi, d_env, q_env, work


def _require_thermal_env(ep: Episode, beta: float, tol: float):
    known = ep._gibbs_distance
    if beta not in known:
        known[beta] = trace_distance(ep.rho_env, thermal_state(ep.h_env, beta))
    dist = known[beta]
    if dist > tol:
        raise EpisodeError(
            f"environment is not thermal at beta={beta} (trace distance {dist:.3e})")


def free_energy(rho, hamiltonian, beta: float) -> float:
    """Non-equilibrium free energy F(rho) = Tr(H rho) - S(rho)/beta."""
    if beta <= 0:
        raise EpisodeError("free energy needs beta > 0")
    return _energy(hamiltonian, rho) - von_neumann_entropy(rho) / beta


def thermal_balance(ep: Episode, beta: float, tol: float = THERMALITY_TOL,
                    evolved: EvolvedStates | None = None) -> EntropyBalance:
    """Clausius form for a thermal environment.

    Sigma = dS_S + beta*Q_E = beta*(W - dF), with W := dH_S + Q_E and dF the
    change in the non-equilibrium free energy of the system at the bath
    temperature.  Agrees with the information-theoretic balance exactly.
    """
    _require_thermal_env(ep, beta, tol)
    ev = _own_evolution(ep, evolved)
    base = balance(ep, ev)
    sigma = base.d_entropy_system + beta * base.heat_env
    d_free = None
    if beta > 0:
        d_free = (free_energy(ev.rho_system, ep.h_system, beta)
                  - free_energy(ep.rho_system, ep.h_system, beta))
    return EntropyBalance(
        sigma=sigma,
        flux=beta * base.heat_env,
        d_entropy_system=base.d_entropy_system,
        mutual_info=base.mutual_info,
        env_displacement=base.env_displacement,
        heat_env=base.heat_env,
        work=base.work,
        d_free_energy=d_free,
    )


@dataclass(frozen=True)
class BathPart:
    """One thermal piece of a partitioned environment."""

    env_factors: tuple[int, ...]   # indices into the E factor list
    hamiltonian: HermitianOperator
    beta: float


def multibath_balance(ep: Episode, parts, tol: float = THERMALITY_TOL,
                      evolved: EvolvedStates | None = None) -> EntropyBalance:
    """Sigma = dS_S + sum_i beta_i Q_i for a product of thermal baths.

    Also reports the total correlations T = S(rho_S') + sum_i S(rho_Ei')
    - S(rho_SE'), which satisfy Sigma = T + sum_i S(rho_Ei' || rho_Ei).
    """
    parts = list(parts)
    ns = len(ep.rho_system.dims)
    ne = len(ep.rho_env.dims)
    covered = sorted(i for p in parts for i in p.env_factors)
    if covered != list(range(ne)):
        raise EpisodeError(f"bath partition {covered} must cover all {ne} E factors")
    # validate the product-of-thermals structure
    marginals = []
    for p in parts:
        marg = partial_trace(ep.rho_env, p.env_factors)
        target = thermal_state(p.hamiltonian, p.beta)
        if trace_distance(marg, target) > tol:
            raise EpisodeError(
                f"bath part {p.env_factors} is not thermal at beta={p.beta}")
        marginals.append(marg)
    order = np.argsort([p.env_factors[0] for p in parts])
    product = tensor([marginals[i] for i in order])
    if trace_distance(product, ep.rho_env) > max(tol, 1e-8):
        raise EpisodeError("environment state is not a product over the bath parts")

    ev = _own_evolution(ep, evolved)
    base = balance(ep, ev)
    heats = []
    displacement_sum = 0.0
    marg_entropy_sum = 0.0
    for p, marg in zip(parts, marginals):
        joint_factors = [ns + i for i in p.env_factors]
        marg_after = partial_trace(ev.rho_joint, joint_factors)
        heats.append(_energy(p.hamiltonian, marg_after) - _energy(p.hamiltonian, marg))
        displacement_sum += relative_entropy(marg_after, marg)
        marg_entropy_sum += von_neumann_entropy(marg_after)
    sigma = base.d_entropy_system + float(
        np.sum([p.beta * q for p, q in zip(parts, heats)]))
    total_corr = (von_neumann_entropy(ev.rho_system) + marg_entropy_sum
                  - von_neumann_entropy(ev.rho_joint))
    return EntropyBalance(
        sigma=sigma,
        flux=sigma - base.d_entropy_system,
        d_entropy_system=base.d_entropy_system,
        mutual_info=base.mutual_info,
        env_displacement=displacement_sum,
        heat_env=float(np.sum(heats)),
        work=base.work,
        total_correlations=total_corr,
        heat_per_bath=tuple(heats),
    )


# ---------------------------------------------------------------------------
# Strict energy conservation and fixed points
# ---------------------------------------------------------------------------

def is_strict_energy_conserving(unitary, h_system, h_env, tol: float = 1e-9):
    """Check [U, H_S x 1 + 1 x H_E] = 0 within tol*(||H_S|| + ||H_E||).

    Returns (flag, residual) with residual the spectral norm of the
    commutator.
    """
    u = _mat(unitary)
    hs = _mat(h_system)
    he = _mat(h_env)
    h_tot = tensor([hs, np.eye(he.shape[0])]) + tensor([np.eye(hs.shape[0]), he])
    comm = u @ h_tot - h_tot @ u
    residual = float(np.linalg.norm(comm, 2))
    scale = float(np.linalg.norm(hs, 2) + np.linalg.norm(he, 2))
    return residual <= tol * max(scale, 1e-300), residual


def fixed_point_sigma(rho_before, rho_after, fixed_point) -> float:
    """S(rho || rho*) - S(rho' || rho*): entropy production for maps whose
    global fixed point is rho*; a pure contraction of distinguishability."""
    a = relative_entropy(rho_before, fixed_point)
    b = relative_entropy(rho_after, fixed_point)
    if math.isinf(a):
        return math.inf
    return a - b


def has_global_fixed_point(ep: Episode, candidate, tol: float = 1e-9) -> bool:
    """True when U (rho* x rho_E) U^dag = rho* x rho_E within tol."""
    joint = tensor([candidate, ep.rho_env])
    u = ep.unitary.matrix
    return float(np.abs(u @ joint @ u.conj().T - joint).max()) <= tol


# ---------------------------------------------------------------------------
# Conditional (measured-environment) entropy production
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalBalance:
    sigma_conditional: float
    holevo: float
    flux_conditional: float
    backaction_free: bool
    outcomes: tuple   # (probability, rho_S|k, rho_E|k) per outcome
    sigma_unconditional: float
    mutual_info: float
    env_displacement: float


def conditional_balance(ep: Episode, kraus_env, tol: float = 1e-8,
                        evolved: EvolvedStates | None = None) -> ConditionalBalance:
    """Entropy production conditioned on a measurement of the environment.

    Measuring E after the interaction cannot back-act on S, so conditioning
    only sharpens the accounting: Sigma_c = Sigma - chi, where chi is the
    Holevo quantity of the conditional system states.  The conditional flux
    equals the unconditional one exactly when the measurement does not
    back-act on the local state of E; otherwise it is computed from the
    general trace formula with the post-measurement average state.
    """
    kraus = [np.asarray(m, dtype=complex) for m in kraus_env]
    de = ep.rho_env.dim
    comp = sum(m.conj().T @ m for m in kraus)
    if np.abs(comp - np.eye(de)).max() > 1e-9:
        raise EpisodeError("Kraus operators do not resolve the identity on E")
    ev = _own_evolution(ep, evolved)
    base = balance(ep, ev)
    ds = ep.rho_system.dim
    eye_s = np.eye(ds)

    outcomes = []
    avg_env = np.zeros((de, de), dtype=complex)
    cond_entropy = 0.0
    for m in kraus:
        big = tensor([eye_s, m])
        post = big @ ev.rho_joint.matrix @ big.conj().T
        pk = float(np.real(np.trace(post)))
        if pk < 1e-14:
            continue
        joint_k = post / pk
        rho_s_k = _ptrace_matrix(joint_k, ep.dims.factors, ep.system_factors)
        rho_e_k = _ptrace_matrix(joint_k, ep.dims.factors, ep.env_factors)
        avg_env += pk * rho_e_k
        cond_entropy += pk * von_neumann_entropy(rho_s_k)
        outcomes.append((pk, rho_s_k, rho_e_k))

    holevo = von_neumann_entropy(ev.rho_system) - cond_entropy
    sigma_c = base.sigma - holevo
    backaction_free = float(np.abs(avg_env - ev.rho_env.matrix).max()) <= tol
    if backaction_free:
        flux_c = base.flux
    else:
        log_env = logm_psd(ep.rho_env)
        flux_c = float(np.real(np.trace((ep.rho_env.matrix - avg_env) @ log_env)))
    return ConditionalBalance(
        sigma_conditional=sigma_c,
        holevo=holevo,
        flux_conditional=flux_c,
        backaction_free=backaction_free,
        outcomes=tuple(outcomes),
        sigma_unconditional=base.sigma,
        mutual_info=base.mutual_info,
        env_displacement=base.env_displacement,
    )


# ---------------------------------------------------------------------------
# Erasure (Landauer) bounds
# ---------------------------------------------------------------------------

def finite_dimension_bound(d_entropy_system: float, temperature: float,
                           dim_env: int) -> float:
    """Finite-environment tightening of the erasure bound, valid for
    dS_S < 0:  Q_E >= -T dS + 2 T dS^2 / (4 + ln^2(d_E - 1))."""
    if d_entropy_system >= 0:
        raise EpisodeError("finite-dimension correction applies only to dS_S < 0")
    if dim_env < 2:
        raise EpisodeError("environment dimension must be at least 2")
    corr = 2.0 * temperature * d_entropy_system ** 2 / (4.0 + math.log(dim_env - 1) ** 2)
    return -temperature * d_entropy_system + corr


def _adaptive_simpson(fn, a, b, rel_tol=1e-8):
    """Adaptive Simpson quadrature with a relative tolerance."""
    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(fa, flm, fm, a, m)
        right = simpson(fm, frm, fb, m, b)
        if depth > 48:
            return left + right
        if abs(left + right - whole) <= 15.0 * rel_tol * (abs(left + right) + 1e-300):
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, depth + 1)
                + recurse(m, b, fm, frm, fb, right, depth + 1))

    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), 0)


def heat_capacity_bound(d_entropy_system: float, temperature: float,
                        heat_capacity, t_max_factor: float = 1e6) -> float:
    """Erasure bound from the environment heat capacity.

    With Q(T') = int_T^T' C_E and S(T') = int_T^T' C_E/tau, the bound is
    Q_E >= Q(S^{-1}(-dS_S)).  S is inverted by bisection to 1e-10.
    Requires dS_S < 0 (erasure) so the target temperature lies above T.
    """
    if d_entropy_system >= 0:
        raise EpisodeError("heat-capacity bound applies only to dS_S < 0")
    target = -d_entropy_system

    def entropy_integral(tp):
        return _adaptive_simpson(lambda x: heat_capacity(x) / x, temperature, tp)

    hi = temperature * 2.0
    while entropy_integral(hi) < target:
        hi *= 2.0
        if hi > temperature * t_max_factor:
            raise EpisodeError("heat capacity too small to reach the requested entropy")
    lo = temperature
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if entropy_integral(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, temperature):
            break
    t_prime = 0.5 * (lo + hi)
    return _adaptive_simpson(heat_capacity, temperature, t_prime)


def environment_response_operator(ep: Episode) -> np.ndarray:
    """M = Tr_E[U^dag (1 x rho_E) U]; Tr[M rho_S] = <e^{-beta Q}> exactly."""
    u = ep.unitary.matrix
    big = u.conj().T @ tensor([np.eye(ep.rho_system.dim), ep.rho_env]) @ u
    return _ptrace_matrix(big, ep.dims.factors, ep.system_factors)


@dataclass(frozen=True)
class LandauerReport:
    heat_env: float
    d_entropy_system: float
    bound_basic: float
    bound_finite_dim: float | None
    bound_heat_capacity: float | None
    bound_exponential: float
    satisfied: dict


def landauer_report(ep: Episode, beta: float, heat_capacity=None,
                    tol: float = THERMALITY_TOL) -> LandauerReport:
    """All erasure bounds that apply to one thermal-environment episode."""
    _require_thermal_env(ep, beta, tol)
    if beta <= 0:
        raise EpisodeError("landauer_report needs beta > 0")
    temperature = 1.0 / beta
    b = balance(ep)
    ds = b.d_entropy_system
    q = b.heat_env
    basic = -temperature * ds
    finite = None
    capacity = None
    if ds < 0:
        finite = finite_dimension_bound(ds, temperature, ep.rho_env.dim)
        if heat_capacity is not None:
            capacity = heat_capacity_bound(ds, temperature, heat_capacity)
    m_op = environment_response_operator(ep)
    expo = float(np.real(np.trace(m_op @ ep.rho_system.matrix)))
    bound_exp = -temperature * math.log(expo)
    satisfied = {
        "basic": q >= basic - 1e-10,
        "exponential": q >= bound_exp - 1e-10,
    }
    if finite is not None:
        satisfied["finite_dim"] = q >= finite - 1e-10
    if capacity is not None:
        satisfied["heat_capacity"] = q >= capacity - 1e-10
    return LandauerReport(
        heat_env=q,
        d_entropy_system=ds,
        bound_basic=basic,
        bound_finite_dim=finite,
        bound_heat_capacity=capacity,
        bound_exponential=bound_exp,
        satisfied=satisfied,
    )


def heat_distribution(ep: Episode, beta: float | None = None, tol: float = 1e-10):
    """Two-point-measurement heat distribution of the environment.

    Interprets the episode as a channel on E with Kraus operators built
    from the eigendecomposition of rho_S; the support is the set of
    environment energy differences.  Returns (values, probabilities) merged
    on equal heats, plus a diagnostics dict: the mean equals Q_E and, when
    beta is supplied, <e^{-beta Q}> equals Tr[M rho_S] identically.
    """
    evals_e, evecs_e = np.linalg.eigh(ep.h_env.matrix)
    lam, svecs = ep.rho_system.eig()
    u = ep.unitary.matrix
    ds, de = ep.rho_system.dim, ep.rho_env.dim
    # environment populations in the H_E eigenbasis
    rho_e_diag = np.real(np.diag(evecs_e.conj().T @ ep.rho_env.matrix @ evecs_e))
    # Kraus operators on E: A_{jk} = sqrt(lam_j) <s_k| U |s_j>
    u_t = u.reshape(ds, de, ds, de)
    support = {}
    for j in range(ds):
        if lam[j] <= 0:
            continue
        for k in range(ds):
            # <s_k| U |s_j> as a d_E x d_E matrix, then into the H_E basis
            block = np.einsum("a,aibj,b->ij", svecs[:, k].conj(), u_t, svecs[:, j])
            a_kj = math.sqrt(max(lam[j], 0.0)) * (evecs_e.conj().T @ block @ evecs_e)
            w = (np.abs(a_kj) ** 2) * rho_e_diag[None, :]
            for n in range(de):
                for m in range(de):
                    if w[n, m] < 1e-16:
                        continue
                    q = evals_e[n] - evals_e[m]
                    # merge heats equal within tolerance
                    key = round(q / max(tol, 1e-12))
                    support[key] = (q, support.get(key, (q, 0.0))[1] + w[n, m])
    values = np.array([v for v, _ in support.values()])
    probs = np.array([p for _, p in support.values()])
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    diag = {"mean": float(np.sum(values * probs)), "norm": float(np.sum(probs))}
    if beta is not None:
        diag["exp_avg"] = float(np.sum(probs * np.exp(-beta * values)))
        m_op = environment_response_operator(ep)
        diag["trace_formula"] = float(np.real(np.trace(m_op @ ep.rho_system.matrix)))
    return values, probs, diag


# ---------------------------------------------------------------------------
# Heat flow with initial correlations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedHeatFlow:
    heat_b: float
    d_mutual_info: float
    lhs: float      # (beta_B - beta_A) * Q_B
    rhs: float      # change in mutual information
    bound_satisfied: bool


def correlated_heat_flow(rho_ab: DensityOperator, h_a, h_b, unitary,
                         beta_a: float, beta_b: float,
                         tol: float = THERMALITY_TOL) -> CorrelatedHeatFlow:
    """Second law with initial correlations:
    (beta_B - beta_A) Q_B >= dI(A:B); consuming correlations can revert
    the heat flow."""
    rho_a = partial_trace(rho_ab, [0])
    rho_b = partial_trace(rho_ab, [1])
    if trace_distance(rho_a, thermal_state(h_a, beta_a)) > tol:
        raise EpisodeError("marginal of A is not thermal at beta_a")
    if trace_distance(rho_b, thermal_state(h_b, beta_b)) > tol:
        raise EpisodeError("marginal of B is not thermal at beta_b")
    ok, res = is_strict_energy_conserving(unitary, h_a, h_b)
    if not ok:
        raise EpisodeError(f"unitary violates strict energy conservation ({res:.3e})")
    u = _mat(unitary)
    after = DensityOperator(u @ rho_ab.matrix @ u.conj().T, rho_ab.dims)
    hb_full = tensor([np.eye(_mat(h_a).shape[0]), h_b])
    q_b = float(np.real(np.trace(hb_full @ (after.matrix - rho_ab.matrix))))
    d_mi = mutual_information(after, [0]) - mutual_information(rho_ab, [0])
    lhs = (beta_b - beta_a) * q_b
    return CorrelatedHeatFlow(
        heat_b=q_b,
        d_mutual_info=d_mi,
        lhs=lhs,
        rhs=d_mi,
        bound_satisfied=lhs >= d_mi - 1e-10,
    )


def two_qubit_exchange_scenario(alpha, theta, phi, g, t, beta_a, beta_b, omega=1.0):
    """Two thermal qubits with an exchange-type correlation term.

    Returns (rho_AB, H_A, H_B, U, q_b_closed_form) where the closed form is
    Q_B(t) = omega sin(gt) [ (f_A - f_B) sin(gt) - 2 alpha sin(theta - phi)
    cos(gt) ] and U is the energy-conserving partial swap
    exp{-i g t (e^{i phi}|ge><eg| + h.c.)}.
    """
    f_a = 1.0 / (math.exp(beta_a * omega) + 1.0)
    f_b = 1.0 / (math.exp(beta_b * omega) + 1.0)
    h = omega * np.diag([0.0, 1.0]).astype(complex)  # |e> is the second level
    th_a = np.diag([1 - f_a, f_a]).astype(complex)
    th_b = np.diag([1 - f_b, f_b]).astype(complex)
    rho = np.kron(th_a, th_b)
    # |g,e><e,g| couples indices 1 (=ge) and 2 (=eg)
    chi = np.zeros((4, 4), dtype=complex)
    chi[1, 2] = alpha * np.exp(1j * theta)
    chi[2, 1] = alpha * np.exp(-1j * theta)
    rho = rho + chi
    gen = np.zeros((4, 4), dtype=complex)
    gen[1, 2] = np.exp(1j * phi)
    gen[2, 1] = np.exp(-1j * phi)
    u = hermitian_function(gen * g * t, lambda x: np.exp(-1j * x))
    q_b = omega * math.sin(g * t) * ((f_a - f_b) * math.sin(g * t)
                                     - 2 * alpha * math.sin(theta - phi) * math.cos(g * t))
    rho_op = DensityOperator(rho, HilbertDims((2, 2)))
    return (rho_op, HermitianOperator.from_matrix(h), HermitianOperator.from_matrix(h),
            UnitaryOperator(u, HilbertDims((2, 2))), q_b)


# ---------------------------------------------------------------------------
# Strong coupling: Hamiltonian of mean force
# ---------------------------------------------------------------------------

def mean_force_hamiltonian(h_total, dims, beta: float, h_env) -> HermitianOperator:
    """H_mf = -(1/beta) ln( Tr_E e^{-beta H_tot} / Z_E ).

    dims is the (dim_S, dim_E) pair or a HilbertDims whose first factor is
    the system; h_env fixes the bath partition function Z_E.
    """
    if isinstance(dims, HilbertDims):
        factors = dims.factors
    else:
        factors = tuple(dims)
    exp_tot = hermitian_function(h_total, lambda x: np.exp(-beta * x))
    reduced = _ptrace_matrix(exp_tot, factors, [0])
    z_env = float(np.real(np.trace(hermitian_function(h_env, lambda x: np.exp(-beta * x)))))
    vals, vecs = np.linalg.eigh((reduced + reduced.conj().T) / 2.0)
    if vals.min() <= 0:
        raise EpisodeError("reduced exponential is singular")
    logm = (vecs * np.log(vals / z_env)) @ vecs.conj().T
    return HermitianOperator.from_matrix(-logm / beta, (factors[0],))


def strong_coupling_sigma(trajectory, h_total_of, beta: float, h_env, dims):
    """Entropy production along a driven strongly-coupled trajectory.

    trajectory: list of (t, rho_SE, lam); h_total_of(lam) -> joint
    Hamiltonian.  Returns dict with times and the two equivalent routes:
    beta*(W(t) - dF(t)) and deltaS(t) - deltaS(0), where deltaS compares
    the joint and reduced relative entropies to the instantaneous
    mean-force Gibbs states.
    """
    if isinstance(dims, HilbertDims):
        factors = dims.factors
    else:
        factors = tuple(dims)
    times, sig_work, sig_rel = [], [], []
    t0, rho0, lam0 = trajectory[0]
    h0 = _mat(h_total_of(lam0))
    e0 = float(np.real(np.trace(h0 @ _mat(rho0))))
    z_env = float(np.real(np.trace(hermitian_function(h_env, lambda x: np.exp(-beta * x)))))

    def records(rho_se, lam):
        h_tot = _mat(h_total_of(lam))
        rho_s = _ptrace_matrix(_mat(rho_se), factors, [0])
        h_mf = mean_force_hamiltonian(h_tot, factors, beta, h_env).matrix
        f_neq = float(np.real(np.trace(h_mf @ rho_s))) - von_neumann_entropy(rho_s) / beta
        pi_se = thermal_state(HermitianOperator.from_matrix(h_tot, factors), beta)
        pi_s = _ptrace_matrix(pi_se.matrix, factors, [0])
        delta_s = (relative_entropy(rho_se, pi_se) - relative_entropy(rho_s, pi_s))
        energy = float(np.real(np.trace(h_tot @ _mat(rho_se))))
        return f_neq, delta_s, energy

    f0, ds0, _ = records(rho0, lam0)
    for t, rho_se, lam in trajectory:
        f_t, ds_t, e_t = records(rho_se, lam)
        work = e_t - e0
        times.append(t)
        sig_work.append(beta * (work - (f_t - f0)))
        sig_rel.append(ds_t - ds0)
    return {
        "times": np.array(times),
        "sigma_work_route": np.array(sig_work),
        "sigma_relative_entropy_route": np.array(sig_rel),
    }


# ---------------------------------------------------------------------------
# Non-Markovianity witnesses
# ---------------------------------------------------------------------------

def _central_diff(times, values):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 3:
        raise EpisodeError("need at least 3 time points for a derivative")
    return np.gradient(values, times)


def blp_witness(times, states_1, states_2, atol: float = 1e-8):
    """Trace-distance witness: any interval with d/dt D > 0 is non-Markovian.

    states_1/states_2 are synchronized lists of system states.  Derivatives
    use central differences (one-sided at the ends).
    """
    dist = np.array([trace_distance(a, b) for a, b in zip(states_1, states_2)])
    slope = _central_diff(times, dist)
    max_slope = float(slope.max())
    return {
        "trace_distance": dist,
        "slope": slope,
        "max_slope": max_slope,
        "is_nonmarkovian": max_slope > atol,
    }


def _trace_norm(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def correlation_witness_terms(times, joint_1, joint_2, h_total, dims):
    """Bound d/dt D(rho_S^1, rho_S^2) <= (E(t) + C(t))/2.

    E(t) tracks the difference between the two evolved environment states
    and C(t) the system-environment correlation matrices; both vanish for
    a factorized, static environment.  Returns the terms, the numerical
    derivative of D and a per-interior-point check with a 10*dt error
    budget for the finite-difference derivative.
    """
    if isinstance(dims, HilbertDims):
        factors = dims.factors
    else:
        factors = tuple(dims)
    h = _mat(h_total)
    d_list, e_list, c_list = [], [], []
    for r1, r2 in zip(joint_1, joint_2):
        m1, m2 = _mat(r1), _mat(r2)
        s1 = _ptrace_matrix(m1, factors, [0])
        s2 = _ptrace_matrix(m2, factors, [0])
        e1 = _ptrace_matrix(m1, factors, [1])
        e2 = _ptrace_matrix(m2, factors, [1])
        chi1 = m1 - tensor([s1, e1])
        chi2 = m2 - tensor([s2, e2])
        d_env = e1 - e2
        cand = []
        for s in (s1, s2):
            block = tensor([s, d_env])
            cand.append(_trace_norm(_ptrace_matrix(h @ block - block @ h, factors, [0])))
        e_term = min(cand)
        dchi = chi1 - chi2
        c_term = _trace_norm(_ptrace_matrix(h @ dchi - dchi @ h, factors, [0]))
        d_list.append(trace_distance(s1, s2))
        e_list.append(e_term)
        c_list.append(c_term)
    times = np.asarray(times, dtype=float)
    slope = _central_diff(times, d_list)
    dt = float(np.diff(times).max())
    interior = slice(1, len(times) - 1)
    bound = (np.array(e_list) + np.array(c_list)) / 2.0
    ok = bool(np.all(slope[interior] <= bound[interior] + 10.0 * dt))
    return {
        "trace_distance": np.array(d_list),
        "slope": slope,
        "env_term": np.array(e_list),
        "correlation_term": np.array(c_list),
        "bound_satisfied": ok,
    }
