"""Stroboscopic collisional models and stroke-based engines.

Each stroke is one system+ancilla episode rho_S -> Tr_A{U (rho_S x rho_A)
U^dag}, optionally followed by a system-only unitary while the Hamiltonian
is relabeled H_S^n -> H_S^(n+1).  Ancillas cycle through an alphabet, so
two-temperature alphabets produce limit cycles instead of steady states.

Sign conventions, used in every record: heat Q_A > 0 enters the ancilla,
work W > 0 enters the system.  The stroke-wise first law then reads

    dH_S^n = W_u + W_onoff - Q_A,

with W_onoff := Tr{H_S^n [E_n(rho) - rho]} + Q_A the switching work of the
interaction and W_u the work of the subsequent unitary stroke.

Three tiers of entropy production per stroke:
  general      I(S:A) + S(rho_A'||rho_A)          any ancilla
  thermal      dS_S + beta Q_A                     thermal ancilla
  fixed point  S(rho||rho_th) - S(rho'||rho_th)    thermal operation

Every stroke is also a channel on rho_S alone, built once per alphabet
entry from the Kraus operators sqrt(q_nu) <mu|U|nu> (`core.ancilla_kraus`)
with the system unitary folded in (`_stroke_channel`).  `run` steps the
states by these channels, a block of cycle starts at a time by the powers
of the cycle channel (`_chain`), and makes the strokes whose ancillas
share a size the rows of one `episodes.EpisodeStack` (stroke n takes
alphabet entry n mod L), whose joint states, rho_n' and balances are
those of every other product-state unitary episode.
`preferred_basis` reads the same states and their spectra.  A limit
cycle is the null vector of Phi - 1, Phi the product of the stroke
channels of one cycle.  A unit-modulus eigenvalue of Phi other than 1
(no contraction) is an error, and so is, in `limit_cycle`, a degenerate
eigenvalue 1 (a steady space of dimension > 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DensityOperator,
    HermitianOperator,
    HilbertDims,
    UnitaryOperator,
    _check_beta,
    _check_size,
    _density_stack,
    _eigh,
    _entropy_rows,
    _frozen_matrix,
    _gibbs,
    _hermitian,
    _instance,
    _integer,
    _operator_fields,
    _petz_renyi,
    _ptrace_matrix,
    _real,
    _trace_rows,
    _typed,
    _unitary,
    add_lindblad_term,
    ancilla_kraus,
    kraus_superop,
    relative_entropy,
    tensor,
    thermal_state,
    trace_distance,
    unvec,
    vec,
    von_neumann_entropy,
)
from .episodes import (
    EpisodeStack,
    _thermality,
    fixed_point_sigma_rows,
    is_strict_energy_conserving,
)

# One more cycle may move a fixed point by less than this (trace distance).
FIXED_POINT_TOL = 1e-12
# Eigenvalues of a cycle channel this close to 1 count as 1, and any other
# eigenvalue this close to the unit circle means the cycle does not contract.
UNIT_CIRCLE_TOL = 1e-9
# The collision limit needs an induced shift Tr_A(V rho_A) within this (max entry).
LAMB_SHIFT_TOL = 1e-9
# continuous_limit's pairs must sum to V within this (max entry).
PAIRS_TOL = 1e-9


class CollisionalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Collision specs and running
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AncillaStroke:
    """An ancilla state and Hamiltonian, and the stroke unitary on S (x) A.  A declared
    beta is checked: rho within THERMALITY_TOL of its Gibbs state (`_thermality`)."""

    rho: DensityOperator
    hamiltonian: HermitianOperator
    unitary: UnitaryOperator          # acts on S (x) A
    beta: float | None = None         # declared temperature (enables tier 2)

    def __post_init__(self):
        _operator_fields(self, CollisionalError)
        _hermitian(self.hamiltonian, CollisionalError, self.rho.dim)
        if self.beta is not None and _thermality(self.rho.matrix, self.hamiltonian.matrix,
                                                 _check_beta(self.beta, CollisionalError))[0]:
            raise CollisionalError(f"ancilla is not thermal at beta={self.beta}")


@dataclass(frozen=True)
class CollisionSpec:
    """Cyclic alphabet of ancilla strokes plus the system-side schedule.

    h_system[n] is the system Hamiltonian held fixed during ancilla stroke
    n; system_unitaries[n] (identity when omitted) acts after stroke n
    while the Hamiltonian is relabeled to h_system[n+1].  All schedules are
    cyclic with the alphabet length.
    """

    alphabet: tuple[AncillaStroke, ...]
    h_system: tuple[HermitianOperator, ...]
    system_unitaries: tuple[UnitaryOperator, ...] | None = None

    def __post_init__(self):
        if len(self.alphabet) == 0:
            raise CollisionalError("alphabet must be non-empty")
        if len(self.h_system) != len(self.alphabet):
            raise CollisionalError("need one system Hamiltonian per alphabet entry")
        ds = self.h_system[0].dim
        for h in self.h_system:
            _hermitian(h, CollisionalError, ds)
        for stroke in self.alphabet:
            _unitary(stroke.unitary, CollisionalError, ds * stroke.rho.dim)
        if self.system_unitaries is not None and \
                len(self.system_unitaries) != len(self.alphabet):
            raise CollisionalError("need one system unitary per alphabet entry")
        for u in self.system_unitaries or ():
            _unitary(u, CollisionalError, ds)

    @property
    def dim_system(self) -> int:
        return self.h_system[0].dim

    def stroke(self, n: int) -> AncillaStroke:
        return self.alphabet[n % len(self.alphabet)]

    def h_at(self, n: int) -> HermitianOperator:
        return self.h_system[n % len(self.h_system)]

    def u_at(self, n: int):
        if self.system_unitaries is None:
            return None
        return self.system_unitaries[n % len(self.system_unitaries)]

    @functools.cached_property
    def _channels(self) -> list:
        """One stroke channel per alphabet entry, its system unitary folded in, built once."""
        return [_stroke_channel(s.unitary, s.rho, self.u_at(k))
                for k, s in enumerate(self.alphabet)]

    @functools.cached_property
    def _cycle(self) -> np.ndarray:
        """The cycle channel M_{L-1} .. M_0 of the stroke channels, built once."""
        return functools.reduce(lambda chan, stroke: stroke @ chan, self._channels)


@dataclass(frozen=True)
class StrokeRecord:
    q_ancilla: float
    d_h_system: float
    w_onoff: float
    w_unitary: float
    sigma_general: float
    sigma_thermal: float | None
    sigma_fixed_point: float | None
    first_law_residual: float

    def as_row(self):
        return (self.q_ancilla, self.w_unitary, self.w_onoff,
                self.sigma_general,
                float("nan") if self.sigma_thermal is None else self.sigma_thermal,
                float("nan") if self.sigma_fixed_point is None else self.sigma_fixed_point)


def _stroke_channel(unitary, rho_ancilla, after=None, before=None) -> np.ndarray:
    """Superoperator of rho -> after Tr_A[U (before rho before^dag x rho_A)
    U^dag] after^dag, either system unitary optional."""
    kraus = ancilla_kraus(unitary, rho_ancilla)
    kraus = kraus if after is None else _unitary(after, CollisionalError) @ kraus
    return kraus_superop(kraus if before is None else kraus @ _unitary(before, CollisionalError))


def _chain(spec: CollisionSpec, rho0: DensityOperator, n_strokes: int) -> tuple:
    """rho_0 .. rho_n by the stroke channels, vec(rho_{n+1}) = M_k vec(rho_n), k = n mod L: the
    states, and their (matrices, weights, eigenvectors) as three stacks, rho_0's one-row stack
    (cheaper than restacking the states) joined to rho_1 .. rho_n validated as one
    (`_density_stack`).  The states are made by doubling a block: the m cycle starts rho_0,
    rho_L, .., rho_{(m-1)L} times C^m (C = `CollisionSpec._cycle`, one power held at a time)
    are the next m starts, and L - 1 steps by M_0 .. M_{L-2}, each on every start at once, fill
    in the letters: about log2(n/L) + L matrix products in place of n matrix-vector ones."""
    ds = spec.dim_system
    rho0 = _typed(DensityOperator, rho0, CollisionalError, ds, spec.h_system[0].dims)
    n_starts, power = n_strokes // len(spec.alphabet) + 1, spec._cycle
    starts = vec(rho0.matrix)[None]
    while len(starts) < n_starts:
        if len(starts) > 1:
            power = power @ power                       # C^m, m = len(starts)
        starts = np.concatenate((starts, starts[:n_starts - len(starts)] @ power.T))
    letters = [starts]
    for channel in spec._channels[:-1]:
        letters.append(letters[-1] @ channel.T)
    vecs = np.stack(letters, 1).reshape(-1, ds * ds)[:n_strokes + 1]
    # `unvec` of every row: a C-order reshape, transposed.  The channels keep
    # the trace only to round-off, which the chain would carry from state to state.
    nexts = vecs[1:].reshape(n_strokes, ds, ds).transpose(0, 2, 1)
    nexts = nexts / np.trace(nexts, axis1=1, axis2=2)[:, None, None]
    stack = _density_stack(nexts)
    return ((rho0,) + DensityOperator._rows(stack, rho0.dims),
            tuple(map(np.concatenate, zip(_density_stack((rho0,)), stack))))


def run(spec: CollisionSpec, rho0: DensityOperator, n_strokes: int):
    """Run n_strokes collisions; returns (state list, StrokeRecord list).

    The states are stepped by the stroke channels (`_chain`, by powers of the
    cycle channel), and stroke n takes alphabet entry n mod L.  The strokes
    whose ancillas share a size are the rows of one `EpisodeStack`, validating
    nothing again: rho_n are the chain's (matrices, weights, eigenvectors), H_S,
    H_A, U and rho_A the rows of their entries, and S and A one factor each, so
    each partial trace is one trace.  Its evolution gives every rho_n' and its
    balance every Q_A, W_onoff, Sigma and dS_S.  Each kind of spectrum (rho_n,
    rho_n', rho_A') is one stacked `core._eigh`, in closed form for qubits from
    30 strokes on.  dH_S is read off the chain, so the first-law residual is a
    check, not an identity.
    Tier-2 sigma is reported when the ancilla carries a (checked) beta; tier-3 when in
    addition the stroke unitary is strictly energy conserving; the verdict
    and the Gibbs state are evaluated once per alphabet entry, for its rows.
    """
    n_strokes = _integer(n_strokes, CollisionalError, "n_strokes", low=1)
    states, chain = _chain(spec, rho0, n_strokes)
    alphabet, h_sys = spec.alphabet, np.stack([h.matrix for h in spec.h_system])
    letters = np.arange(n_strokes) % len(alphabet)
    size = np.array([s.rho.dim for s in alphabet])[letters]
    records = [None] * n_strokes
    for dim in np.unique(size):
        rows = np.flatnonzero(size == dim)
        letter, before = letters[rows], tuple(x[rows] for x in chain)
        entries = np.unique(letter)
        local = np.searchsorted(entries, letter)
        h_a, u = (np.stack([getattr(alphabet[k], name).matrix for k in entries])[local]
                  for name in ("hamiltonian", "unitary"))
        rho_a = tuple(x[local] for x in _density_stack([alphabet[k].rho for k in entries]))
        stack = EpisodeStack(h_sys[letter], h_a, u, before, rho_a,
                             HilbertDims((spec.dim_system,)), HilbertDims((dim,)))
        mid, bal = stack.evolved[1], stack.balance
        e_now = _trace_rows(stack.h_system, before[0])
        e_mid = _trace_rows(stack.h_system, mid[0])
        e_next = _trace_rows(h_sys[(letter + 1) % len(alphabet)], chain[0][rows + 1])
        sigma_t, sigma_f = np.full((2, len(rows)), None, dtype=object)
        for k in entries:
            stroke, at, h = alphabet[k], letter == k, spec.h_at(k)
            if stroke.beta is None:
                continue
            sigma_t[at] = bal.d_entropy_system[at] + stroke.beta * bal.heat_env[at]
            if is_strict_energy_conserving(stroke.unitary, h, stroke.hamiltonian)[0]:
                sigma_f[at] = fixed_point_sigma_rows(tuple(x[at] for x in before[1:]),
                                                     tuple(x[at] for x in mid[1:]),
                                                     thermal_state(h, stroke.beta).eig())
        dh, w_u = e_next - e_now, e_next - e_mid
        residual = dh - (w_u + bal.work - bal.heat_env)
        for n, *row in zip(rows.tolist(), bal.heat_env.tolist(), dh.tolist(), bal.work.tolist(),
                           w_u.tolist(), bal.sigma.tolist(), sigma_t.tolist(), sigma_f.tolist(),
                           residual.tolist()):
            records[n] = _instance(StrokeRecord, zip(StrokeRecord.__dataclass_fields__, row))
    return list(states), records


# ---------------------------------------------------------------------------
# Limit cycles
# ---------------------------------------------------------------------------

def _fixed_point(spec: CollisionSpec, m0: np.ndarray, dims, unique: bool) -> DensityOperator:
    """Projection of the state m0 onto ker(chan - 1) along range(chan - 1), chan
    the spec's cycle channel (its stroke channels, the last leftmost), i.e. the
    limit of repeated passes (eigenvalue 1 of a channel is semisimple), from
    the singular vectors of chan - 1 at zero."""
    chan = spec._cycle
    vals = np.linalg.eigvals(chan)
    at_one = np.abs(vals - 1.0) <= UNIT_CIRCLE_TOL
    if np.any(~at_one & (np.abs(vals) >= 1.0 - UNIT_CIRCLE_TOL)):
        raise CollisionalError("cycle channel has a unit-modulus eigenvalue "
                               "other than 1: the map does not contract")
    n_fixed = int(at_one.sum())
    if unique and n_fixed != 1:
        raise CollisionalError(f"eigenvalue 1 of the cycle channel has "
                               f"multiplicity {n_fixed}: degenerate steady space")
    u, _, vh = np.linalg.svd(chan - np.eye(chan.shape[0]))
    right = vh[vh.shape[0] - n_fixed:].conj().T
    left = u[:, u.shape[1] - n_fixed:].conj().T
    m = unvec(right @ np.linalg.solve(left @ right, left @ vec(m0)))
    rho = DensityOperator((m + m.conj().T) / 2.0, dims)
    step = trace_distance(unvec(chan @ vec(rho.matrix)), rho)
    if step >= FIXED_POINT_TOL:
        raise CollisionalError(f"one more cycle moves the fixed point by {step:.3e}")
    return rho


def limit_cycle(spec: CollisionSpec) -> DensityOperator:
    """Fixed point of the full-alphabet composite map, read from the null
    space of its channel (see the module docstring for the errors), and
    checked to move by less than FIXED_POINT_TOL under one more pass."""
    ds = spec.dim_system
    return _fixed_point(spec, np.eye(ds) / ds, (ds,), unique=True)


# ---------------------------------------------------------------------------
# Continuous-time limit of one collision
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DissipatorPieces:
    superop: np.ndarray                  # d^2 x d^2 on vectorized rho_S
    lamb_shift_norm: float
    rates: tuple | None                  # (gamma_minus_k, gamma_plus_k) per pair
    detailed_balance: tuple | None       # gamma+/gamma- ratios per pair


def continuous_limit(v_int, rho_ancilla: DensityOperator, pairs=None) -> DissipatorPieces:
    """Dissipator of the tau -> 0 collision limit with the V/sqrt(tau)
    scaling:  D(rho) = -1/2 Tr_A [V, [V, rho x rho_A]].

    For Hermitian V this is sum_{mu nu} D[sqrt(q_nu) V_{mu nu}] with
    V_{mu nu} = <mu|V|nu> in the eigenbasis of rho_A = sum q_nu |nu><nu|,
    which is how the superoperator is assembled.  Requires a vanishing
    induced shift Tr_A(V rho_A); a violation beyond LAMB_SHIFT_TOL is an error.
    When `pairs` = [(L_k, A_k, g_k), ...] describes
    V = sum_k g_k (L_k^dag A_k + L_k A_k^dag), the familiar two-rate form
    D = sum_k gamma_k^- D[L_k] + gamma_k^+ D[L_k^dag] applies with the
    emission rate gamma_k^- = g_k^2 <A_k A_k^dag> and the absorption rate
    gamma_k^+ = g_k^2 <A_k^dag A_k>, and `detailed_balance` reports the
    ratio gamma^+/gamma^- per pair; for a thermal ancilla and eigenoperator
    A_k it equals e^{-beta omega_k}.  L_k and A_k are read at the system and
    ancilla sizes, and pairs whose sum misses V by more than PAIRS_TOL are an error.
    """
    v = _hermitian(v_int, CollisionalError)
    rho_ancilla = _typed(DensityOperator, rho_ancilla, CollisionalError)
    ra = rho_ancilla.matrix
    da = rho_ancilla.dim
    d = max(1, len(v) // da)
    _check_size(len(v), d * da, CollisionalError)
    shift = _ptrace_matrix(v @ tensor([np.eye(d), ra]), (d, da), [0])
    shift_norm = float(np.abs(shift - np.trace(shift) / d * np.eye(d)).max())
    if shift_norm > LAMB_SHIFT_TOL:
        raise CollisionalError(
            f"ancilla-induced shift Tr_A(V rho_A) = {shift_norm:.3e} is not zero")

    superop = np.zeros((d * d, d * d), dtype=complex)
    for k in ancilla_kraus(v, rho_ancilla):
        add_lindblad_term(superop, k, k)
    rates = db = None
    if pairs is not None:
        pairs = [(_frozen_matrix(l_k, CollisionalError, d),
                  _frozen_matrix(a_k, CollisionalError, da), g_k) for l_k, a_k, g_k in pairs]
        residual = float(np.abs(sum(g * (tensor([l.conj().T, a]) + tensor([l, a.conj().T]))
                                    for l, a, g in pairs) - v).max())
        if residual > PAIRS_TOL:
            raise CollisionalError(f"pairs miss V by {residual:.3e} (max entry)")
        rates = tuple((g ** 2 * float(np.real(np.trace(a @ a.conj().T @ ra))),
                       g ** 2 * float(np.real(np.trace(a.conj().T @ a @ ra))))
                      for _, a, g in pairs)
        db = tuple(gp / gm if gm > 0 else math.inf for gm, gp in rates)
    return DissipatorPieces(superop, shift_norm, rates, db)


# ---------------------------------------------------------------------------
# Preferred basis / classical limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PreferredBasisRecord:
    transition_matrix: np.ndarray     # M_n(i|j), column stochastic
    coherence_factors: np.ndarray     # multiplier per (i, j) pair, |.| <= 1
    sigma_classical: float
    sigma_quantum: float
    populations_before: np.ndarray
    populations_after: np.ndarray


def preferred_basis(spec: CollisionSpec, rho0: DensityOperator, n_strokes: int):
    """Population/coherence split of a thermal-operation collisional model.

    Requires a fixed system eigenbasis ([H_S^n, H_S^m] = 0 for all strokes)
    and strictly energy-conserving strokes with thermal ancillas.  The
    populations then follow the classical detailed-balanced Markov chain
    M_n(i|j), coherences are damped entrywise by factors of modulus <= 1,
    and each stroke's entropy production splits as

        Sigma_n = [S(p^n || p_th) - S(p^(n+1) || p_th)]  (classical)
                + [C(rho^n) - C(rho^(n+1))]              (quantum),

    both pieces separately non-negative.  The states come from the chain
    `run` steps (`_chain`), without the identity work strokes.
    """
    n_strokes = _integer(n_strokes, CollisionalError, "n_strokes", low=1)
    hs = [spec.h_at(n) for n in range(len(spec.alphabet))]
    for a in hs:
        for b in hs:
            if np.abs(a.matrix @ b.matrix - b.matrix @ a.matrix).max() > 1e-10:
                raise CollisionalError("system Hamiltonians in the schedule "
                                       "must commute for a preferred basis")
    if spec.system_unitaries is not None:
        for u in spec.system_unitaries:
            if np.abs(u.matrix - np.eye(u.dim)).max() > 1e-12:
                raise CollisionalError("preferred-basis analysis assumes "
                                       "instantaneous (identity) work strokes")
    # common eigenbasis from the first Hamiltonian
    evals0, basis = _eigh(hs[0].matrix)
    # the chain of each alphabet entry: M_n, coherence factors, p_th
    chains = []
    for k in range(min(n_strokes, len(spec.alphabet))):
        stroke, h = spec.stroke(k), spec.h_at(k)
        if stroke.beta is None:
            raise CollisionalError("preferred basis needs thermal ancillas")
        ok, res = is_strict_energy_conserving(stroke.unitary, h, stroke.hamiltonian)
        if not ok:
            raise CollisionalError(
                f"stroke {k} is not a thermal operation (residual {res:.3e})")
        e_sys = np.real(np.diag(basis.conj().T @ h.matrix @ basis))
        # the stroke channel in the eigenbasis: M_n(i|j) is its |i><i|, |j><j|
        # entry, and its diagonal the coherence multipliers, rho'_ij = c_ij rho_ij
        chan = _stroke_channel(stroke.unitary, stroke.rho, basis.conj().T, basis)
        pop = slice(None, None, len(e_sys) + 1)
        chains.append((chan[pop, pop].real, unvec(chan.diagonal()), _gibbs(e_sys, stroke.beta)[0]))
    _, (matrices, weights, _) = _chain(replace(spec, system_unitaries=None), rho0, n_strokes)
    pops = np.real(np.diagonal(basis.conj().T @ matrices @ basis, axis1=1, axis2=2))
    pops.setflags(write=False)      # rows shared by consecutive records
    # the entropies and divergences of every state at once: C(rho) = S(p) - S(rho),
    # and S(p^n || p_th) and S(p^(n+1) || p_th) against the p_th of stroke n
    probs = np.maximum(pops, 0.0)
    coherence = _entropy_rows(probs) - _entropy_rows(weights)
    p_th = np.array([chains[n % len(chains)][2] for n in range(n_strokes)])
    kl = _petz_renyi(1.0, np.stack([probs[:-1], probs[1:]]), p_th)
    sigma_cl, sigma_q = (kl[0] - kl[1]).tolist(), (coherence[:-1] - coherence[1:]).tolist()
    records = []
    for n in range(n_strokes):
        m_n, c, _ = chains[n % len(chains)]
        records.append(PreferredBasisRecord(
            transition_matrix=m_n,
            coherence_factors=c,
            sigma_classical=sigma_cl[n],
            sigma_quantum=sigma_q[n],
            populations_before=pops[n],
            populations_after=pops[n + 1],
        ))
    return records


# ---------------------------------------------------------------------------
# SWAP engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapEngineSpec:
    eps_a: float
    eps_b: float
    t_a: float
    t_b: float

    def __post_init__(self):
        for name in ("eps_a", "eps_b", "t_a", "t_b"):
            _real(getattr(self, name), CollisionalError, name, above=0.0)


@dataclass(frozen=True)
class SwapEngineResult:
    """Closed-form cycle thermodynamics of the two-qubit SWAP engine.

    Heats and work are positive when energy ENTERS the two-qubit working
    fluid (q_a is drawn from bath a during re-thermalization); sigma is the
    entropy produced per cycle.  The regime splits on eps_b/eps_a against
    t_b/t_a and 1 (for t_a > t_b): refrigerator / engine / heat pump, with
    figure_of_merit the COP, the Otto efficiency 1 - eps_b/eps_a, or the
    heating COP.  sigma_min and sigma_excess only apply to the heat pump.
    """

    work: float
    q_a: float
    q_b: float
    sigma: float
    regime: str
    figure_of_merit: float
    excited_a: float
    excited_b: float
    sigma_min: float | None = None
    sigma_excess: float | None = None


def swap_engine(spec: SwapEngineSpec) -> SwapEngineResult:
    beta_a, beta_b = 1.0 / spec.t_a, 1.0 / spec.t_b
    f_a = 1.0 / (math.exp(beta_a * spec.eps_a) + 1.0)
    f_b = 1.0 / (math.exp(beta_b * spec.eps_b) + 1.0)
    work = -(spec.eps_a - spec.eps_b) * (f_a - f_b)
    q_a = spec.eps_a * (f_a - f_b)
    q_b = spec.eps_b * (f_b - f_a)
    sigma = -(beta_a * spec.eps_a - beta_b * spec.eps_b) * (f_a - f_b)
    ratio = spec.eps_b / spec.eps_a
    t_ratio = spec.t_b / spec.t_a
    sigma_min = None
    sigma_excess = None
    carnot = abs(ratio - t_ratio) < 1e-14
    if carnot:
        regime = "carnot_point"
        fom = 1.0 - t_ratio
    elif ratio < t_ratio:
        regime = "refrigerator"
        fom = spec.eps_b / (spec.eps_a - spec.eps_b)
    elif ratio < 1.0:
        regime = "engine"
        fom = 1.0 - ratio
    else:
        regime = "heat_pump"
        fom = spec.eps_a / (spec.eps_b - spec.eps_a) if ratio != 1.0 else math.inf
        sigma_min = (beta_b - beta_a) * q_a
        sigma_excess = sigma - sigma_min
    return SwapEngineResult(
        work=work, q_a=q_a, q_b=q_b, sigma=sigma, regime=regime,
        figure_of_merit=fom, excited_a=f_a, excited_b=f_b,
        sigma_min=sigma_min, sigma_excess=sigma_excess,
    )


def swap_engine_simulation(spec: SwapEngineSpec):
    """Exact 4x4 oracle: thermalize both qubits, apply the full SWAP,
    account the re-thermalization heats.  Returns (work, q_a, q_b, sigma)
    in the same system-positive convention as `swap_engine`."""
    beta_a, beta_b = 1.0 / spec.t_a, 1.0 / spec.t_b
    h_a = np.diag([0.0, spec.eps_a]).astype(complex)
    h_b = np.diag([0.0, spec.eps_b]).astype(complex)
    rho_a, rho_b = thermal_state(h_a, beta_a), thermal_state(h_b, beta_b)
    joint = tensor([rho_a, rho_b])
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]       # |i j> -> |j i>
    after = swap @ joint @ swap.conj().T
    h_tot = tensor([h_a, np.eye(2)]) + tensor([np.eye(2), h_b])
    work = float(np.real(np.trace(h_tot @ (after - joint))))
    # re-thermalization returns each qubit to its own Gibbs state
    rho_a_after = DensityOperator.from_matrix(_ptrace_matrix(after, (2, 2), [0]))
    rho_b_after = DensityOperator.from_matrix(_ptrace_matrix(after, (2, 2), [1]))
    q_a = float(np.real(np.trace(h_a @ (rho_a.matrix - rho_a_after.matrix))))
    q_b = float(np.real(np.trace(h_b @ (rho_b.matrix - rho_b_after.matrix))))
    sigma = (relative_entropy(rho_a_after, rho_a)
             + relative_entropy(rho_b_after, rho_b))
    return work, q_a, q_b, sigma


# ---------------------------------------------------------------------------
# Four-stroke engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourStrokeResult:
    limit_cycle: DensityOperator
    sigma_hot: float
    sigma_cold: float
    sigma_total: float
    flux_hot: float
    flux_cold: float
    d_entropy_system: float
    q_hot: float | None
    q_cold: float | None


def four_stroke(v1, v2, u_sh, u_sc, rho_hot: DensityOperator,
                rho_cold: DensityOperator, h_system: HermitianOperator,
                h_hot: HermitianOperator | None = None,
                h_cold: HermitianOperator | None = None,
                rho0: DensityOperator | None = None) -> FourStrokeResult:
    """Unitary/hot/unitary/cold stroke cycle with arbitrary bath states.

    Per cycle Sigma = Sigma_H + Sigma_C = dS_S + Phi_H + Phi_C; at the
    limit cycle dS_S = 0 so the net production equals the net flux even
    though Sigma_i != Phi_i individually.

    The cycle is the `CollisionSpec` hot stroke, v2, cold stroke, v1 (a bath given no H
    has H = 0), and its balances are two strokes of `run` from the limit cycle: v1 rho0
    v1^dag (rho0 default maximally mixed) projected onto the cycle channel's fixed points,
    reported rotated back by v1^dag, so an all-identity cycle keeps rho0.  A cycle that
    never settles raises CollisionalError (see the module docstring), as do an operand
    failing its reader (`core._typed`) and an operator of another size than H_S (on S) and its
    bath (on A, S x A).
    """
    h_system = _typed(HermitianOperator, h_system, CollisionalError)
    ds = h_system.dim
    v1, v2 = (_typed(UnitaryOperator, v, CollisionalError, ds) for v in (v1, v2))
    rho = (DensityOperator.maximally_mixed(h_system.dims) if rho0 is None
           else _typed(DensityOperator, rho0, CollisionalError, ds, h_system.dims))
    strokes = []
    for bath, h, u in ((rho_hot, h_hot, u_sh), (rho_cold, h_cold, u_sc)):
        bath = _typed(DensityOperator, bath, CollisionalError)
        u = _typed(UnitaryOperator, u, CollisionalError, ds * bath.dim)
        h = np.zeros_like(bath.matrix) if h is None else h
        strokes.append(AncillaStroke(bath, _typed(HermitianOperator, h, CollisionalError,
                                                  bath.dim), u))
    spec = CollisionSpec(tuple(strokes), (h_system,) * 2, (v2, v1))
    start = _fixed_point(spec, v1.matrix @ rho.matrix @ v1.matrix.conj().T, rho.dims,
                         unique=False)
    states, (hot, cold) = run(spec, start, 2)
    s0, s1, s2 = map(von_neumann_entropy, states)
    return FourStrokeResult(
        limit_cycle=DensityOperator(v1.matrix.conj().T @ start.matrix @ v1.matrix, start.dims),
        sigma_hot=hot.sigma_general, sigma_cold=cold.sigma_general,
        sigma_total=hot.sigma_general + cold.sigma_general,
        flux_hot=hot.sigma_general - (s1 - s0), flux_cold=cold.sigma_general - (s2 - s1),
        d_entropy_system=s2 - s0, q_hot=hot.q_ancilla if h_hot is not None else None,
        q_cold=cold.q_ancilla if h_cold is not None else None)
