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

N episodes of one shape form an `EpisodeStack`, and the balances and
bounds have row forms over a stack (`EpisodeStack.balance`, `*_rows`);
each one-episode function is row 0 of its row form on the episode's own
one-row stack, and `collisional.run` makes the strokes whose ancillas share
a size the rows of one stack.

Sign conventions: Q_E > 0 means energy entered the environment, W > 0
means work entered the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (
    DensityOperator,
    HermitianOperator,
    HilbertDims,
    UnitaryOperator,
    _as_dims,
    _ascending,
    _check_beta,
    _check_size,
    _density_spectra,
    _density_stack,
    _eigh,
    _eigvalsh,
    _entropy_rows,
    _frozen_matrix,
    _frozen_stack,
    _gibbs,
    _gibbs_states,
    _hermitian,
    _integer,
    _log_of,
    _operator_fields,
    _petz_renyi,
    _ptrace_matrix,
    _real,
    _shared_or_rows,
    _spectral_weights,
    _spectrum,
    _stack_dims,
    _times,
    _trace_distance_rows,
    _trace_rows,
    _trajectory,
    _typed,
    _unitary,
    hermitian_function,
    logm_psd,
    mutual_information,
    tensor,
    von_neumann_entropy,
)

# A marginal within this trace distance of its Gibbs state is thermal.
THERMALITY_TOL = 1e-9
# rho_E within this trace distance of its bath-part marginals' product is a product.
PRODUCT_TOL = 1e-8
# [U, H_S + H_E] within this, times ||H_S|| + ||H_E||, is strict energy conservation.
CONSERVATION_TOL = 1e-9
# U (rho* x rho_E) U^dag within this (max entry) of rho* x rho_E is a global fixed point.
GLOBAL_FIXED_POINT_TOL = 1e-9
# A measurement whose average rho_E moves by at most this (max entry) is backaction-free.
BACKACTION_TOL = 1e-8
# The heat-capacity bound of a given C_E gives up when the target temperature passes this times T.
T_MAX_FACTOR = 1e6
# -dS_S within this of a Gibbs bath's ln d_E - S(T) is its T' -> inf end (`gibbs_erasure_bound`).
ERASURE_END_TOL = 1e-12
# A BLP trace-distance slope above this witnesses non-Markovianity.
BLP_SLOPE_TOL = 1e-8
# The heat-capacity bound's quadratures stop at this relative error.
SIMPSON_REL_TOL = 1e-8


class EpisodeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Episode and its derived states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Episode:
    """One system+environment unitary interaction record.

    Every balance of an episode is row 0 of its row form on the episode's
    one-row `EpisodeStack` (`stack`), which shares the validated arrays, so
    every row form takes one episode as well: `landauer_rows(ep.stack, beta)`.
    That stack, with the evolution (`evolve`) and the Gibbs distances it
    keeps, is made on first use and kept on the instance, not compared and
    not in the repr; a `dataclasses.replace` copy makes it afresh.
    """

    h_system: HermitianOperator
    h_env: HermitianOperator
    unitary: UnitaryOperator
    rho_system: DensityOperator
    rho_env: DensityOperator

    def __post_init__(self):
        _operator_fields(self, EpisodeError)
        ds, de = self.rho_system.dim, self.rho_env.dim
        _hermitian(self.h_system, EpisodeError, ds)
        _hermitian(self.h_env, EpisodeError, de)
        _unitary(self.unitary, EpisodeError, ds * de)

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
    def stack(self) -> EpisodeStack:
        rows = [(rho,) for rho in (self.rho_system, self.rho_env)]
        return EpisodeStack(self.h_system.matrix[None], self.h_env.matrix[None],
                            self.unitary.matrix[None], *map(_density_stack, rows),
                            *(_stack_dims(r, r[0].dim) for r in rows))

    @cached_property
    def _evolved(self) -> EvolvedStates:
        dims = (self.dims, self.rho_system.dims, self.rho_env.dims)
        return EvolvedStates(*(DensityOperator._validated([x[0] for x in s], d)
                               for s, d in zip(self.stack.evolved, dims)))


@dataclass(frozen=True, eq=False)
class EpisodeStack:
    """N episodes of one shape: H_S, H_E and U as (N, d, d) stacks, rho_S
    and rho_E as the (matrices, weights, eigenvectors) stacks of
    `core._density_stack`, the one reader of a stack of states.

    `of` validates each operator kind once for the whole stack; an
    episode's own one-row stack (`Episode.stack`) reuses its validation.
    rho_SE' is made from its product spectrum and never decomposed; only
    rho_S' and rho_E' are.  The evolution (`evolved`), the entropies of the
    five states (`entropies`), the information balance (`balance`), the
    marginals of rho_E and rho_E' on sets of E factors (`env_marginal`),
    their distances from Gibbs states, the initial weights
    (`initial_weights`) and the transition probabilities per final basis
    (`transitions`) are made on first use and kept.  The row forms `thermal_balance_rows`,
    `multibath_balance_rows`, `landauer_rows` and
    `trajectories.backward_ensemble_rows` take a stack.
    """

    h_system: np.ndarray
    h_env: np.ndarray
    unitary: np.ndarray
    rho_system: tuple
    rho_env: tuple
    system_dims: HilbertDims
    env_dims: HilbertDims

    @classmethod
    def of(cls, h_system, h_env, unitary, rho_system, rho_env) -> "EpisodeStack":
        """A validated stack from (N, d, d) arrays: the Hamiltonians and the unitaries by the
        stacked checks of `HermitianOperator` and `UnitaryOperator` at the sizes of the states,
        the states by `_density_stack` and `_stack_dims`, so N `DensityOperator`s keep their
        spectra and their factor dims (one factor for a bare array)."""
        rs, re = _density_stack(rho_system, EpisodeError), _density_stack(rho_env, EpisodeError)
        ds, de = rs[0].shape[-1], re[0].shape[-1]
        hs, he = _hermitian(h_system, EpisodeError, ds), _hermitian(h_env, EpisodeError, de)
        u = _unitary(unitary, EpisodeError, ds * de)
        if len({m.shape[:-2] for m in (hs, he, u, rs[0], re[0])}) != 1:
            raise EpisodeError("every operator kind needs one (N, d, d) stack of equal N")
        return cls(hs, he, u, rs, re, _stack_dims(rho_system, ds, EpisodeError),
                   _stack_dims(rho_env, de, EpisodeError))

    def __len__(self):
        return len(self.unitary)

    @property
    def dims(self) -> HilbertDims:
        return self.system_dims.concat(self.env_dims)

    @cached_property
    def evolved(self) -> tuple:
        """rho_SE' = U (rho_S x rho_E) U^dag of every row and its marginals
        rho_S' and rho_E', each as (matrices, weights, eigenvectors).  rho_SE'
        is made from its product spectrum, never decomposed: the weights
        p_n q_nu (`initial_weights`) on the columns U (V_S x V_E), sorted by
        `core._ascending`, the one copy of those columns.  One stacked
        conjugation and partial trace, and one stacked `eigh` per marginal."""
        u, ns, factors = self.unitary, len(self.system_dims), self.dims.factors
        joint = u @ tensor([self.rho_system[0], self.rho_env[0]]) @ u.conj().swapaxes(-1, -2)
        joint.setflags(write=False)
        spectrum = _ascending(self.initial_weights.reshape(len(self), -1),
                              u @ tensor([self.rho_system[2], self.rho_env[2]]))
        parts = (_ptrace_matrix(joint, factors, keep)
                 for keep in (range(ns), range(ns, len(factors))))
        return ((joint,) + spectrum, *map(_density_stack, parts))

    @cached_property
    def entropies(self) -> tuple:
        """S(rho_S), S(rho_E), S(rho_S'), S(rho_E') and S(rho_SE') of every
        row, in that order."""
        states = (self.rho_system, self.rho_env, self.evolved[1], self.evolved[2], self.evolved[0])
        return tuple(_entropy_rows(weights) for _, weights, _ in states)

    @cached_property
    def balance(self) -> EntropyBalance:
        """The information balance of every row, one array per field, from
        the kept entropies.  S(rho_SE') is S(rho_S) + S(rho_E) by construction
        (`evolved`): unitarity is checked once, where U enters (`core._unitary`)."""
        (m_env0, q, qv), (m_before, _, _) = self.rho_env, self.rho_system
        _, (m_after, _, _), (m_env, p_env, v_env) = self.evolved
        s_before, s_env0, s_sys, s_env, s_joint = self.entropies
        mi = s_sys + s_env - s_joint
        d_env = _petz_renyi(1.0, p_env, q, qv.conj().swapaxes(-1, -2) @ v_env)
        ds_s = s_sys - s_before
        # rho_E' escaped the support of rho_E (pure environment): the flux
        # diverges together with sigma; reported, not fatal.
        flux = np.where(np.isinf(d_env), np.inf, _trace_rows(m_env0 - m_env, _log_of(q, qv)))
        q_env = _trace_rows(self.h_env, m_env) - _trace_rows(self.h_env, m_env0)
        work = _trace_rows(self.h_system, m_after) - _trace_rows(self.h_system, m_before) + q_env
        return EntropyBalance(mi + d_env, flux, ds_s, mi, d_env, q_env, work)

    @cached_property
    def initial_weights(self) -> np.ndarray:
        """p_n q_nu of every row on [row, n, nu], the weights of rho_S and rho_E."""
        return self.rho_system[1][..., :, None] * self.rho_env[1][..., None, :]

    def transitions(self, final_system: bool, final_env: bool) -> np.ndarray:
        """|<m mu|U|n nu>|^2 of every row on the grid [row, m, mu, n, nu]:
        (n, nu) the eigenvectors of rho_S and rho_E, m those of rho_S'
        (of rho_S unless `final_system`) and mu those of rho_E' (of rho_E
        unless `final_env`).  Kept per final basis, so the backward choices
        that share one (`trajectories.backward_ensemble_rows`) build it once."""
        known, key = self._transitions, (final_system, final_env)
        if key not in known:
            known[key] = _transition_tensor(self, *key)
        return known[key]

    @cached_property
    def _transitions(self) -> dict:
        return {}

    def env_marginal(self, factors, after: bool = False) -> tuple:
        """The marginal of every rho_E (rho_E' when `after`) on the E factors
        `factors`, as (matrices, weights, eigenvectors): one stacked partial
        trace and `eigh`, kept per factor set.  On all E factors it is
        `rho_env` (`evolved[2]`) itself."""
        keep = tuple(sorted(set(factors)))
        known = self._env_marginals
        if (keep, after) not in known:
            whole = self.evolved[2] if after else self.rho_env
            known[keep, after] = whole if len(keep) == len(self.env_dims) else _density_stack(
                _ptrace_matrix(whole[0], self.env_dims.factors, keep))
        return known[keep, after]

    @cached_property
    def _env_marginals(self) -> dict:
        return {}

    @cached_property
    def _gibbs_distance(self) -> dict:
        """Trace distances of E marginals from Gibbs states and the levels of
        their Hamiltonians, per (factor set, Hamiltonian, beta row)."""
        return {}


def _transition_tensor(stack: EpisodeStack, final_system: bool, final_env: bool):
    """`EpisodeStack.transitions` of one final basis, read against the columns U (V_S x V_E)
    that `evolved` keeps sorted, put back in (n, nu) order by the inverse permutation."""
    basis_s = (stack.evolved[1] if final_system else stack.rho_system)[2]
    basis_e = (stack.evolved[2] if final_env else stack.rho_env)[2]
    final = tensor([basis_s, basis_e]).conj().swapaxes(-1, -2)
    ds, de = basis_s.shape[-1], basis_e.shape[-1]
    order = np.argsort(np.argsort(stack.initial_weights.reshape(len(stack), -1), kind="stable"))
    columns = np.take_along_axis(stack.evolved[0][2], order[:, None, :], -1)
    return (np.abs(final @ columns) ** 2).reshape(-1, ds, de, ds, de)


@dataclass(frozen=True)
class EvolvedStates:
    rho_joint: DensityOperator
    rho_system: DensityOperator
    rho_env: DensityOperator


def evolve(ep: Episode) -> EvolvedStates:
    """rho_SE' = U (rho_S x rho_E) U^dag and its marginals: the episode's
    one evolution, computed on its first use and shared by every route."""
    return ep._evolved


def _own_evolution(ep: Episode, evolved: EvolvedStates | None):
    """EpisodeError unless a given `evolved` holds the episode's joint state."""
    ev = evolve(ep)
    if (evolved is not None and evolved.rho_joint is not ev.rho_joint
            and not np.array_equal(evolved.rho_joint.matrix, ev.rho_joint.matrix)):
        raise EpisodeError("evolved states do not belong to this episode")


def _require_rows(bad, message):
    """EpisodeError `message(k)` for the first row k flagged in `bad`,
    named by its index in a stack of more than one."""
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise EpisodeError((f"episode {k} of the stack: " if bad.size > 1 else "") + message(k))


# ---------------------------------------------------------------------------
# Entropy balances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropyBalance:
    """All entropic/energetic bookkeeping of one episode (of a stack, as
    row forms return it: one array per field, per-bath heats (N, parts)).

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
        """The fields that are set, in field order, the per-bath heats as a list."""
        return {k: list(v) if k == "heat_per_bath" else v for k, v in vars(self).items()
                if v is not None}


def _first_row(rows: EntropyBalance) -> EntropyBalance:
    """Row 0 of a row form's balance, as floats and a per-bath tuple."""
    return EntropyBalance(**{k: v if v is None else tuple(v[0].tolist()) if v.ndim == 2
                             else float(v[0]) for k, v in vars(rows).items()})


def balance(ep: Episode, evolved: EvolvedStates | None = None) -> EntropyBalance:
    """Information-theoretic balance, valid for arbitrary environments.

    A pure (or rank-deficient) initial environment pushes rho_E' out of the
    support of rho_E; the displacement term and sigma are then +inf while
    the mutual information, flux trace formula and heats stay finite.
    This is row 0 of the episode's one-row stack (`EpisodeStack.balance`).
    """
    _own_evolution(ep, evolved)
    return _first_row(ep.stack.balance)


def _thermality(states, h, beta):
    """The thermality rule: flags of the states (a matrix or a stack) farther than THERMALITY_TOL
    in trace distance from the Gibbs states of h at beta, the distances and the levels of h."""
    gibbs, _, _, levels = _gibbs_states(h, beta)
    dist = _trace_distance_rows(states, gibbs)
    return dist > THERMALITY_TOL, dist, levels


def _require_gibbs_rows(stack: EpisodeStack, factors, h, beta, message):
    """beta per row and the levels of h, once the marginal of every rho_E
    on the E factors `factors` is thermal at its beta (`_thermality`);
    else EpisodeError message(beta, distance) of the first row that is not.
    The distances and levels are kept on the stack per (factor set, h,
    beta), so `thermal_balance_rows`, a one-part `multibath_balance_rows`
    of one bath and `landauer_rows` share one check.  The key holds the
    bytes of h, not its shape: on a one-row stack an h of shape (d, d) and
    one of shape (1, d, d) share it, and the levels are those of whichever
    came first, (d,) or (1, d)."""
    beta = _check_beta(beta, EpisodeError, rows=(len(stack),))
    known = stack._gibbs_distance
    key = (tuple(sorted(set(factors))), h.tobytes(), beta.tobytes())
    if key not in known:
        known[key] = _thermality(stack.env_marginal(factors)[0], h, beta)
    far, dist, levels = known[key]
    _require_rows(far, lambda k: message(beta[k], dist[k]))
    return beta, levels


def _require_thermal_rows(stack: EpisodeStack, beta):
    """beta per row and the levels of every H_E, once every rho_E is within
    THERMALITY_TOL of the Gibbs state of its H_E."""
    return _require_gibbs_rows(stack, range(len(stack.env_dims)), stack.h_env, beta,
                               lambda b, d: f"environment is not thermal at beta={b} "
                                            f"(trace distance {d:.3e})")


def thermal_balance(ep: Episode, beta: float) -> EntropyBalance:
    """Clausius form for a thermal environment.

    Sigma = dS_S + beta*Q_E = beta*(W - dF), with W := dH_S + Q_E and dF the
    change in the non-equilibrium free energy of the system at the bath
    temperature.  Agrees with the information-theoretic balance exactly.
    Row 0 of `thermal_balance_rows`.
    """
    return _first_row(thermal_balance_rows(ep.stack, beta))


def thermal_balance_rows(stack: EpisodeStack, beta):
    """`thermal_balance` of every row of a stack, beta a scalar or one per
    row; d_free_energy is None unless every beta > 0."""
    beta, _ = _require_thermal_rows(stack, beta)
    base = stack.balance
    d_free = None
    if (beta > 0).all():
        h, m0, m1 = stack.h_system, stack.rho_system[0], stack.evolved[1][0]
        s0, _, s1, _, _ = stack.entropies
        d_free = (_trace_rows(h, m1) - s1 / beta) - (_trace_rows(h, m0) - s0 / beta)
    # flux = Sigma - dS_S, as in `multibath_balance_rows`: one bath over all
    # of E gives the same bits by either row form
    sigma = base.d_entropy_system + beta * base.heat_env
    return replace(base, sigma=sigma, flux=sigma - base.d_entropy_system, d_free_energy=d_free)


@dataclass(frozen=True)
class BathPart:
    """One thermal piece of a partitioned environment."""

    env_factors: tuple[int, ...]   # indices into the E factor list
    hamiltonian: HermitianOperator
    beta: float


def multibath_balance(ep: Episode, parts, evolved: EvolvedStates | None = None) -> EntropyBalance:
    """Sigma = dS_S + sum_i beta_i Q_i for a product of thermal baths.

    Also reports the total correlations T = S(rho_S') + sum_i S(rho_Ei')
    - S(rho_SE'), which satisfy Sigma = T + sum_i S(rho_Ei' || rho_Ei).
    Row 0 of `multibath_balance_rows`.
    """
    rows = multibath_balance_rows(ep.stack, parts)
    _own_evolution(ep, evolved)
    return _first_row(rows)


def multibath_balance_rows(stack: EpisodeStack, parts):
    """`multibath_balance` of every row of a stack; a part's Hamiltonian
    and beta are shared by the rows, or given per row as (N, d, d) and (N,).
    Each part reads the kept marginals of its factor set (`env_marginal`)
    and its kept Gibbs check, so one part over all of E takes no
    decomposition after `thermal_balance_rows` of the same bath."""
    parts = list(parts)
    factors = stack.env_dims.factors
    covered = sorted(i for p in parts for i in p.env_factors)
    if covered != list(range(len(factors))):
        raise EpisodeError(f"bath partition {covered} must cover all "
                           f"{len(factors)} E factors")
    # validate the product-of-thermals structure
    hams = [_hermitian(p.hamiltonian, EpisodeError, stack.env_dims.subdims(p.env_factors).total)
            for p in parts]
    betas = [_require_gibbs_rows(stack, p.env_factors, h, p.beta, lambda b, _:
                                 f"bath part {p.env_factors} is not thermal at beta={b}")[0]
             for p, h in zip(parts, hams)]
    if len(parts) > 1:
        # the product of the part marginals, in the order of the parts, against
        # rho_E with its factors taken in that order
        order = [i for p in parts for i in sorted(p.env_factors)]
        rho_env = stack.rho_env[0].reshape((-1,) + factors * 2).transpose(
            [0] + [1 + i for i in order] + [1 + len(factors) + i for i in order])
        product = tensor([stack.env_marginal(p.env_factors)[0] for p in parts])
        _require_rows(_trace_distance_rows(product, rho_env.reshape(product.shape))
                      > PRODUCT_TOL,
                      lambda k: "environment state is not a product over the bath parts")

    base = stack.balance
    s_sys, s_env, s_joint = (stack.entropies[k] for k in (2, 3, 4))
    heats, displacement_sum, marg_entropy_sum = [], 0.0, 0.0
    for p, h in zip(parts, hams):
        (m, q, qv), (m_after, p_after, v_after) = (stack.env_marginal(p.env_factors, after)
                                                   for after in (False, True))
        heats.append(_trace_rows(h, m_after) - _trace_rows(h, m))
        if len(p.env_factors) == len(factors):    # all of E: the balance's own terms
            displacement_sum += base.env_displacement
            marg_entropy_sum += s_env
        else:
            displacement_sum += _petz_renyi(1.0, p_after, q,
                                            qv.conj().swapaxes(-1, -2) @ v_after)
            marg_entropy_sum += _entropy_rows(p_after)
    sigma = base.d_entropy_system + sum(b * q for b, q in zip(betas, heats))
    return replace(base, sigma=sigma, flux=sigma - base.d_entropy_system,
                   env_displacement=displacement_sum, heat_env=sum(heats),
                   total_correlations=s_sys + marg_entropy_sum - s_joint,
                   heat_per_bath=np.stack(heats, axis=-1))


# ---------------------------------------------------------------------------
# Strict energy conservation and fixed points
# ---------------------------------------------------------------------------

def is_strict_energy_conserving(unitary, h_system, h_env):
    """Check [U, H_S x 1 + 1 x H_E] = 0 within CONSERVATION_TOL*(||H_S|| + ||H_E||).

    Returns (flag, residual) with residual the spectral norm of the
    commutator; H_S, H_E and U are each read as one matrix (`core._typed`),
    U at the size of H_S x H_E.
    """
    hs, he = (_typed(HermitianOperator, h, EpisodeError).matrix for h in (h_system, h_env))
    u = _typed(UnitaryOperator, unitary, EpisodeError, len(hs) * len(he))
    return _conservation(u.matrix, hs, he)


def _conservation(u, hs, he):
    """`is_strict_energy_conserving` of read matrices: the largest singular value of the
    commutator (the SVD of `np.linalg.norm(., 2)`, without its overhead), and each Hamiltonian's
    spectral norm as its largest |eigenvalue|."""
    h_tot = tensor([hs, np.eye(he.shape[0])]) + tensor([np.eye(hs.shape[0]), he])
    residual = float(np.linalg.svd(u @ h_tot - h_tot @ u, compute_uv=False)[0])
    scale = float(np.abs(_eigvalsh(hs)).max() + np.abs(_eigvalsh(he)).max())
    return residual <= CONSERVATION_TOL * max(scale, 1e-300), residual


def fixed_point_sigma(rho_before, rho_after, fixed_point) -> float:
    """S(rho || rho*) - S(rho' || rho*): entropy production for maps whose
    global fixed point is rho*; a pure contraction of distinguishability.
    The one-row case of `fixed_point_sigma_rows`, rho' and rho* read at rho's size."""
    before = _spectrum(rho_before, EpisodeError)
    return float(fixed_point_sigma_rows(before, *(_spectrum(r, EpisodeError, len(before[0]))
                                                  for r in (rho_after, fixed_point))))


def fixed_point_sigma_rows(before, after, fixed_point):
    """`fixed_point_sigma` over leading axes, each argument the (weights,
    eigenvectors) of its states, each shared or one per row (`core._shared_or_rows`);
    +inf where rho leaves rho*'s support.  Both divergences are one kernel
    call."""
    (p, pv), (r, rv), (q, qv) = before, after, fixed_point
    _shared_or_rows(EpisodeError, None, ("rho", p, 1), ("rho'", r, 1), ("rho*", q, 1))
    if p.shape != r.shape or pv.shape != rv.shape:
        (p, r), (pv, rv) = np.broadcast_arrays(p, r), np.broadcast_arrays(pv, rv)
    a, b = _petz_renyi(1.0, np.stack([p, r]), q, qv.conj().swapaxes(-1, -2) @ np.stack([pv, rv]))
    return np.where(np.isinf(a), math.inf, a - np.where(np.isinf(a), 0.0, b))


def has_global_fixed_point(ep: Episode, candidate) -> bool:
    """True when U (rho* x rho_E) U^dag = rho* x rho_E within GLOBAL_FIXED_POINT_TOL,
    rho* read at rho_S's size."""
    joint = tensor([_frozen_matrix(candidate, EpisodeError, ep.rho_system.dim), ep.rho_env])
    u = ep.unitary.matrix
    return float(np.abs(u @ joint @ u.conj().T - joint).max()) <= GLOBAL_FIXED_POINT_TOL


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


def conditional_balance(ep: Episode, kraus_env) -> ConditionalBalance:
    """Entropy production conditioned on a measurement of the environment.

    Measuring E after the interaction cannot back-act on S, so conditioning
    only sharpens the accounting: Sigma_c = Sigma - chi, where chi is the
    Holevo quantity of the conditional system states.  The conditional flux
    equals the unconditional one exactly when the measurement does not
    back-act on the local state of E; otherwise it is computed from the
    general trace formula with the post-measurement average state.
    """
    de = ep.rho_env.dim
    kraus = _frozen_stack(list(kraus_env), EpisodeError, de)
    comp = sum(m.conj().T @ m for m in kraus)
    if np.abs(comp - np.eye(de)).max() > 1e-9:
        raise EpisodeError("Kraus operators do not resolve the identity on E")
    ev = evolve(ep)
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
    backaction_free = float(np.abs(avg_env - ev.rho_env.matrix).max()) <= BACKACTION_TOL
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

def finite_dimension_bound(d_entropy_system, temperature, dim_env: int):
    """Finite-environment tightening of the erasure bound, valid for
    dS_S < 0:  Q_E >= -T dS + 2 T dS^2 / (4 + ln^2(d_E - 1)); over arrays
    of dS_S and T as well, each shared or one per row (`core._shared_or_rows`)."""
    temperature, ds = _erasure_inputs(d_entropy_system, temperature)
    if not np.all(ds < 0):
        raise EpisodeError("finite-dimension correction applies only to dS_S < 0")
    dim_env = _integer(dim_env, EpisodeError, "environment dimension", low=2)
    corr = 2.0 * temperature * ds ** 2 / (4.0 + math.log(dim_env - 1) ** 2)
    return -temperature * ds + corr


def _erasure_inputs(d_entropy_system, temperature, *levels):
    """T > 0 and dS_S (`core._real`), and the level sets given, the three shared or one per
    row of the longest (`core._shared_or_rows`)."""
    read = (_real(temperature, EpisodeError, "temperature", above=0.0),
            _real(d_entropy_system, EpisodeError, "dS_S"),
            *(_real(e, EpisodeError, "energies") for e in levels))
    _shared_or_rows(EpisodeError, None, *zip(("temperature", "dS_S", "energies"), read, (0, 0, 1)))
    return read


def _adaptive_simpson(fn, a, b):
    """Adaptive Simpson quadrature to the relative tolerance SIMPSON_REL_TOL;
    a non-finite value, which no refinement resolves, is an error."""
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
        if not math.isfinite(left + right):
            raise EpisodeError(f"quadrature of a non-finite integrand on [{a}, {b}]")
        if depth > 48:
            return left + right
        if abs(left + right - whole) <= 15.0 * SIMPSON_REL_TOL * (abs(left + right) + 1e-300):
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, depth + 1)
                + recurse(m, b, fm, frm, fb, right, depth + 1))

    if a == b:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, a, b), 0)


def heat_capacity_bound(d_entropy_system: float, temperature: float, heat_capacity) -> float:
    """Erasure bound from the environment heat capacity.

    With Q(T') = int_T^T' C_E and S(T') = int_T^T' C_E/tau, the bound is
    Q_E >= Q(S^{-1}(-dS_S)).  S is inverted by a safeguarded Newton solve
    to 1e-10 (`_invert_entropy`) below T' doubled from 2T to at most
    T_MAX_FACTOR * T, each step a quadrature of C_E/tau and the slope C_E(T')/T'.
    Requires dS_S < 0 (erasure) so the target temperature lies above T.
    """
    temperature, d_entropy_system = _erasure_inputs(d_entropy_system, temperature)
    if not d_entropy_system < 0:
        raise EpisodeError("heat-capacity bound applies only to dS_S < 0")

    def entropy(tp):
        tp = float(tp)
        return (_adaptive_simpson(lambda x: heat_capacity(x) / x, temperature, tp),
                heat_capacity(tp) / tp)

    hi = 2.0 * temperature
    while entropy(hi)[0] < -d_entropy_system:
        hi *= 2.0
        if hi > temperature * T_MAX_FACTOR:
            raise EpisodeError("heat capacity too small to reach the requested entropy")
    t_prime = _invert_entropy(entropy, -d_entropy_system, temperature, hi)
    return _adaptive_simpson(heat_capacity, temperature, float(t_prime))


def gibbs_erasure_bound(d_entropy_system, temperature, energies):
    """`heat_capacity_bound` of a Gibbs environment with the levels `energies` (shared or
    one set per row, as dS_S and T), in closed forms of beta' = 1/T': S = beta'<E> + ln Z,
    its slope -beta' Var(E) and Q = <E>_beta' - <E>_beta (Timpanaro, Santos & Landi, PRL
    124, 240601 (2020)).  beta' is searched on [0, beta], so every -dS_S up to the T' -> inf
    end ln d_E - S(T) has a bound, <E>_uniform - <E>_T at the end; within ERASURE_END_TOL of
    the end (dT'/dS is infinite there) it is the end, beyond it EpisodeError."""
    bound, room = _gibbs_erasure_rows(d_entropy_system, temperature, energies)
    if np.any(room < -ERASURE_END_TOL):
        raise EpisodeError("heat capacity too small to reach the requested entropy")
    return bound


def _gibbs_erasure_rows(d_entropy_system, temperature, energies):
    """`gibbs_erasure_bound` and the room ln d_E - S(T) + dS_S left to its end, with
    a row past the end taken as at the end."""
    temp, ds, levels = _erasure_inputs(d_entropy_system, temperature, energies)
    ds, temp = np.broadcast_arrays(ds, temp)
    if not np.all(ds < 0):
        raise EpisodeError("heat-capacity bound applies only to dS_S < 0")
    levels = levels - levels.min(-1, keepdims=True)

    def moments(b):
        """S, <E> and Var(E) at beta' = b."""
        weights, log_z = _gibbs(levels, b)
        mean = (weights * levels).sum(-1)
        return b * mean + log_z, mean, (weights * (levels - mean[..., None]) ** 2).sum(-1)

    beta = 1.0 / temp
    s0, e0, _ = moments(beta)
    room = math.log(levels.shape[-1]) - s0 + ds
    inside = room > ERASURE_END_TOL

    def entropy(b):
        """S(beta) - S(b), increasing in b, and its slope b Var(E)."""
        s, _, var = moments(b)
        return s0 - s, b * var

    # a row at the end is solved at beta (target 0) and then read at beta' = 0
    b_prime = _invert_entropy(entropy, np.where(inside, ds, 0.0), 0.0, beta)
    return moments(np.where(inside, b_prime, 0.0))[1] - e0, room


def _invert_entropy(entropy, target, lo, hi):
    """x in [lo, hi] with S(x) = target, for entropy(x) = (S(x), dS/dx) and S
    increasing with S(lo) <= target <= S(hi): Newton steps from hi in the
    bracket [lo, hi], a step that would leave it taken as a bisection, until
    the step or the bracket is below 1e-10 * max(1, lo).  Over rows of arrays
    as well, each row stepped as if alone."""
    s, slope = entropy(hi)
    t, live = hi, np.ones(np.shape(s), dtype=bool)
    tol = 1e-10 * np.maximum(1.0, lo)
    for _ in range(200):
        below = s < target
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - (s - target) / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = (np.abs(step - t) < tol) | (hi - lo < tol)
        t = np.where(live, step, t)
        live &= ~done
        if not live.any():
            break
        s, slope = entropy(t)
    return t


def environment_response_operator(ep: Episode) -> np.ndarray:
    """M = Tr_E[U^dag (1 x rho_E) U]; Tr[M rho_S] = <e^{-beta Q}> exactly."""
    return _response_rows(ep.stack)[0]


def _response_rows(stack: EpisodeStack) -> np.ndarray:
    """`environment_response_operator` of every row of a stack."""
    u, ns = stack.unitary, len(stack.system_dims)
    big = u.conj().swapaxes(-1, -2) @ tensor([np.eye(stack.system_dims.total),
                                              stack.rho_env[0]]) @ u
    return _ptrace_matrix(big, stack.dims.factors, range(ns))


@dataclass(frozen=True, eq=False)
class LandauerReport:
    """The erasure bounds of `landauer_rows`, an array entry per row of the stack."""

    heat_env: np.ndarray
    d_entropy_system: np.ndarray
    bound_basic: np.ndarray
    bound_finite_dim: np.ndarray
    bound_heat_capacity: np.ndarray
    bound_exponential: np.ndarray
    satisfied: dict


def landauer_rows(stack: EpisodeStack, beta) -> LandauerReport:
    """The erasure bounds of every row of a thermal-environment stack (of one
    episode: `ep.stack`), beta a scalar or one per row.  The finite-dimension
    and heat-capacity bounds apply where dS_S < 0 and are NaN elsewhere; a
    check is True where its bound does not apply.  The heat-capacity bound is
    that of the Gibbs environment, `gibbs_erasure_bound` on the levels of every
    H_E that its thermality check keeps; a row past the T' -> inf end is at the
    end, since a rho_E that check passes may sit THERMALITY_TOL from Gibbs and
    so gain a little more entropy than the Gibbs state could."""
    beta, levels = _require_thermal_rows(stack, _check_beta(beta, EpisodeError, positive=True))
    temperature = 1.0 / beta
    base = stack.balance
    ds, q = base.d_entropy_system, base.heat_env
    erasure = ds < 0
    finite, capacity = np.full((2, len(stack)), np.nan)
    finite[erasure] = finite_dimension_bound(ds[erasure], temperature[erasure],
                                             stack.env_dims.total)
    # the kept levels may be one Hamiltonian's (`_require_gibbs_rows`)
    capacity[erasure], _ = _gibbs_erasure_rows(ds[erasure], temperature[erasure],
                                               levels if levels.ndim == 1 else levels[erasure])
    expo = _trace_rows(_response_rows(stack), stack.rho_system[0])
    bounds = {"basic": -temperature * ds, "finite_dim": finite,
              "heat_capacity": capacity, "exponential": -temperature * np.log(expo)}
    return LandauerReport(q, ds, *bounds.values(),
                          {k: ~(q < b - 1e-10) for k, b in bounds.items()})


def heat_distribution(ep: Episode, beta: float | None = None):
    """Two-point-measurement heat distribution of the environment.

    Interprets the episode as a channel on E with Kraus operators built
    from the eigendecomposition of rho_S: the transition (j, m) -> (k, n)
    between eigenvectors |s_j> of rho_S and |m> of H_E has the weight
    lam_j |<s_k n|U|s_j m>|^2 p_m and the heat Q = E_n - E_m.  Weights
    below 1e-16 are round-off and are dropped; the rest merge on heats
    equal by the rule of `trajectories.ScalarDistribution.from_samples`.
    Returns (values, probabilities) plus a diagnostics dict: the mean
    equals Q_E and, when beta is supplied, <e^{-beta Q}> equals Tr[M rho_S]
    identically.
    """
    from .trajectories import ScalarDistribution   # trajectories imports this module

    evals_e, evecs_e = _eigh(ep.h_env.matrix)
    lam, svecs = ep.rho_system.eig()
    ds, de = ep.rho_system.dim, ep.rho_env.dim
    # environment populations in the H_E eigenbasis
    rho_e_diag = np.real(np.diag(evecs_e.conj().T @ ep.rho_env.matrix @ evecs_e))
    basis = tensor([svecs, evecs_e])
    amp = (basis.conj().T @ ep.unitary.matrix @ basis).reshape(ds, de, ds, de)  # [k, n, j, m]
    w = np.abs(amp) ** 2 * (lam[:, None] * rho_e_diag)
    q = np.broadcast_to(evals_e[:, None, None] - evals_e, w.shape)            # E_n - E_m
    live = w >= 1e-16
    dist = ScalarDistribution.from_samples(q[live], w[live])
    values, probs = dist.values, dist.probabilities
    diag = {"mean": float(np.sum(values * probs)), "norm": float(np.sum(probs))}
    if beta is not None:
        beta = _check_beta(beta, EpisodeError)
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
                         beta_a: float, beta_b: float) -> CorrelatedHeatFlow:
    """Second law with initial correlations:
    (beta_B - beta_A) Q_B >= dI(A:B); consuming correlations can revert
    the heat flow."""
    (rho_ab, *_), after, q_b = _thermal_exchange(rho_ab, h_a, h_b, unitary, beta_a, beta_b,
                                                 EpisodeError)
    after = DensityOperator(after, rho_ab.dims)
    d_mi = mutual_information(after, [0]) - mutual_information(rho_ab, [0])
    lhs = (beta_b - beta_a) * q_b
    return CorrelatedHeatFlow(
        heat_b=q_b,
        d_mutual_info=d_mi,
        lhs=lhs,
        rhs=d_mi,
        bound_satisfied=lhs >= d_mi - 1e-10,
    )


def _thermal_exchange(rho_ab: DensityOperator, h_a, h_b, unitary, beta_a, beta_b, error):
    """(rho_AB, H_A, H_B, U) as read, rho_AB' = U rho_AB U^dag and
    Q_B = Tr{(1 x H_B) (rho_AB' - rho_AB)}, once rho_AB (`core._typed`: a bare matrix has the
    factors A x B of H_A and H_B), H_A, H_B (`core._hermitian`) and U (`core._unitary`) have the
    sizes of A (the first factor of rho_AB), B (the rest) and AB, the marginals are thermal
    (`_thermality`) and U strictly conserves H_A + H_B; else an `error`."""
    h_a, h_b = _hermitian(h_a, error), _hermitian(h_b, error)
    rho_ab = _typed(DensityOperator, rho_ab, error, None, (len(h_a), len(h_b)))
    da = rho_ab.dims.factors[0]
    _check_size(len(h_a), da, error)
    _check_size(len(h_b), rho_ab.dim // da, error)
    for keep, h, beta, name in (([0], h_a, beta_a, "a"), ([1], h_b, beta_b, "b")):
        marginal = _ptrace_matrix(rho_ab.matrix, (da, len(h_b)), keep)
        if _thermality(marginal, h, _check_beta(beta, error))[0]:
            raise error(f"marginal of {name.upper()} is not thermal at beta_{name}")
    u = _unitary(unitary, error, rho_ab.dim)
    ok, res = _conservation(u, h_a, h_b)
    if not ok:
        raise error(f"unitary violates strict energy conservation ({res:.3e})")
    after = u @ rho_ab.matrix @ u.conj().T
    q_b = np.real(np.trace(tensor([np.eye(len(h_a)), h_b]) @ (after - rho_ab.matrix)))
    return (rho_ab, h_a, h_b, u), after, float(q_b)


def two_qubit_exchange_scenario(alpha, theta, phi, g, t, beta_a, beta_b, omega=1.0):
    """Two thermal qubits with an exchange-type correlation term.

    Returns (rho_AB, H_A, H_B, U, q_b_closed_form) where the closed form is
    Q_B(t) = omega sin(gt) [ (f_A - f_B) sin(gt) - 2 alpha sin(theta - phi)
    cos(gt) ] and U is the energy-conserving partial swap
    exp{-i g t (e^{i phi}|ge><eg| + h.c.)}.
    """
    alpha, theta, phi, g, t, beta_a, beta_b, omega = (
        _real(x, EpisodeError, name, 0.0 if name.startswith("beta") else None) for name, x in zip(
            ("alpha", "theta", "phi", "g", "t", "beta_a", "beta_b", "omega"),
            (alpha, theta, phi, g, t, beta_a, beta_b, omega)))
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

def _mean_force(h, factors, beta, h_env):
    """The mean-force data of a stack (n, D, D) of H_tot on `factors`, the system first: the
    stack H_mf = -(1/beta) ln(R / Z_E) + E_0, the Gibbs weights and eigenvectors of pi_SE and the
    spectrum (round-off cut) of pi_S = R / Tr R, where R = Tr_E e^{-beta (H_tot - E_0)} with E_0
    the lowest level, so nothing overflows.  One stacked `eigh` of H_tot and one of R; ln Z_E
    is `core._gibbs` of H_E, read against the E factors."""
    levels, vecs = _eigh(h)
    shifted = np.exp(-beta * (levels - levels[:, :1]))
    reduced = _ptrace_matrix((vecs * shifted[:, None, :]) @ vecs.conj().swapaxes(-1, -2),
                             factors, [0])
    h_env = _hermitian(h_env, EpisodeError, h.shape[-1] // factors[0])
    log_z_env = _gibbs(_eigvalsh(h_env), beta)[1]
    vals, vecs_s = _eigh((reduced + reduced.conj().swapaxes(-1, -2)) / 2.0)
    if vals.min() <= 0:
        raise EpisodeError("reduced exponential is singular")
    logs = np.log(vals) - log_z_env - beta * levels[:, :1]
    logm = (vecs_s * logs[:, None, :]) @ vecs_s.conj().swapaxes(-1, -2)
    total = shifted.sum(-1, keepdims=True)
    return -logm / beta, (shifted / total, vecs), (_spectral_weights(vals / total), vecs_s)


def mean_force_hamiltonian(h_total, dims, beta: float, h_env) -> HermitianOperator:
    """H_mf = -(1/beta) ln( Tr_E e^{-beta H_tot} / Z_E ), with H_tot shifted
    by its lowest level and ln Z_E from `core._gibbs`, so nothing overflows:
    row 0 of `_mean_force`.

    dims is the (dim_S, dim_E) pair or a HilbertDims whose first factor is
    the system; h_env fixes the bath partition function Z_E; beta > 0.
    H_tot is one matrix (`core._typed`) read against dims, and H_E against the E factors.
    """
    beta = _check_beta(beta, EpisodeError, positive=True)
    h = _typed(HermitianOperator, h_total, EpisodeError).matrix
    factors = _as_dims(dims, len(h), EpisodeError).factors
    return HermitianOperator.from_matrix(_mean_force(h[None], factors, beta, h_env)[0][0],
                                         (factors[0],))


def strong_coupling_sigma(trajectory, h_total_of, beta: float, h_env, dims):
    """Entropy production along a driven strongly-coupled trajectory.

    trajectory: list of (t, rho_SE, lam), read as one stack (`core._trajectory`);
    h_total_of(lam) -> joint Hamiltonian.  Returns dict with times and the two
    equivalent routes: beta*(W(t) - dF(t)) and deltaS(t) - deltaS(0), where deltaS compares
    the joint and reduced relative entropies to the instantaneous mean-force Gibbs states.
    The H_tot are one stack read against dims (`_mean_force`) and the rho_SE one stack of
    states at their size; rho_SE and rho_S take one stacked decomposition each.
    """
    beta = _check_beta(beta, EpisodeError, positive=True)
    times, states, lams = _trajectory(trajectory, ("t", "rho_SE", "lambda"), EpisodeError)
    h = _hermitian([h_total_of(lam) for lam in lams], EpisodeError)
    factors = _as_dims(dims, h.shape[-1], EpisodeError).factors
    m, p, pv = _density_stack(states, EpisodeError, h.shape[-1])
    h_mf, (q, qv), (qs, qsv) = _mean_force(h, factors, beta, h_env)
    rho_s = _ptrace_matrix(m, factors, [0])
    ps, psv = _density_spectra(rho_s, EpisodeError)
    f_neq = _trace_rows(h_mf, rho_s) - _entropy_rows(ps) / beta
    delta_s = (_petz_renyi(1.0, p, q, qv.conj().swapaxes(-1, -2) @ pv)
               - _petz_renyi(1.0, ps, qs, qsv.conj().swapaxes(-1, -2) @ psv))
    energy = _trace_rows(h, m)
    return {
        "times": times,
        "sigma_work_route": beta * ((energy - energy[0]) - (f_neq - f_neq[0])),
        "sigma_relative_entropy_route": delta_s - delta_s[0],
    }


# ---------------------------------------------------------------------------
# Non-Markovianity witnesses
# ---------------------------------------------------------------------------

def _state_lists(n, first, second, dim=None):
    """Two lists of n states, one per time point, as stacks of one size (`_density_stack`,
    each a state), else EpisodeError."""
    a = _density_stack(first, EpisodeError, dim)[0]
    b = _density_stack(second, EpisodeError, a.shape[-1])[0]
    if not len(a) == len(b) == n:
        raise EpisodeError(f"{len(a)} and {len(b)} states for {n} times")
    return a, b


def blp_witness(times, states_1, states_2):
    """Trace-distance witness: any interval with d/dt D > 0 is non-Markovian.

    times are at least 3 (`core._times`); states_1/states_2 are synchronized
    lists of system states (`_state_lists`).  Derivatives are `np.gradient`
    (central differences, one-sided at the ends).
    """
    times = _times(times, EpisodeError, 3)
    dist = _trace_distance_rows(*_state_lists(len(times), states_1, states_2))
    slope = np.gradient(dist, times, axis=0)
    max_slope = float(slope.max())
    return {
        "trace_distance": dist,
        "slope": slope,
        "max_slope": max_slope,
        "is_nonmarkovian": max_slope > BLP_SLOPE_TOL,
    }


def correlation_witness_terms(times, joint_1, joint_2, h_total, dims):
    """Bound d/dt D(rho_S^1, rho_S^2) <= (E(t) + C(t))/2.

    E(t) tracks the difference between the two evolved environment states
    and C(t) the system-environment correlation matrices; both vanish for
    a factorized, static environment.  Returns the terms, the numerical
    derivative of D (as `blp_witness`) and a per-interior-point check with a
    10*dt error budget for the finite-difference derivative.  The joint
    states are lists, one per time point (`_state_lists`), read as stacks.
    """
    times = _times(times, EpisodeError, 3)
    h = _hermitian(h_total, EpisodeError)
    factors = _as_dims(dims, len(h), EpisodeError).factors
    m1, m2 = _state_lists(len(times), joint_1, joint_2, len(h))
    (s1, s2), (e1, e2) = ([_ptrace_matrix(m, factors, [k]) for m in (m1, m2)] for k in (0, 1))

    def commutator_norm(x):
        """The trace norm of Tr_E [H, x], of every time point."""
        return np.linalg.svd(_ptrace_matrix(h @ x - x @ h, factors, [0]), compute_uv=False).sum(-1)

    e_term = np.minimum(*(commutator_norm(tensor([s, e1 - e2])) for s in (s1, s2)))
    c_term = commutator_norm((m1 - tensor([s1, e1])) - (m2 - tensor([s2, e2])))
    dist = _trace_distance_rows(s1, s2)
    slope = np.gradient(dist, times, axis=0)
    dt = float(np.diff(times).max())
    interior = slice(1, len(times) - 1)
    bound = (e_term + c_term) / 2.0
    ok = bool(np.all(slope[interior] <= bound[interior] + 10.0 * dt))
    return {
        "trace_distance": dist,
        "slope": slope,
        "env_term": e_term,
        "correlation_term": c_term,
        "bound_satisfied": ok,
    }
