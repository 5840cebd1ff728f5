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

Limit cycles are read from the channel Phi of one full cycle, built from
the strokes' Kraus operators sqrt(q_nu) <mu|U|nu> (`core.ancilla_kraus`):
the state is the null vector of Phi - 1.  A unit-modulus eigenvalue of Phi
other than 1 (no contraction) is an error, and so is, in `limit_cycle`, a
degenerate eigenvalue 1 (a steady space of dimension > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HERMITICITY_TOL,
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    _mat,
    _ptrace_matrix,
    add_lindblad_term,
    ancilla_kraus,
    classical_kl,
    kraus_superop,
    relative_entropy,
    shannon_entropy,
    tensor,
    thermal_state,
    trace_distance,
    unvec,
    vec,
    von_neumann_entropy,
)
from .episodes import Episode, balance, evolve, is_strict_energy_conserving

# One more cycle may move a fixed point by less than this (trace distance).
FIXED_POINT_TOL = 1e-12
# Eigenvalues of a cycle channel this close to 1 count as 1, and any other
# eigenvalue this close to the unit circle means the cycle does not contract.
UNIT_CIRCLE_TOL = 1e-9


class CollisionalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Collision specs and running
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AncillaStroke:
    rho: DensityOperator
    hamiltonian: HermitianOperator
    unitary: UnitaryOperator          # acts on S (x) A
    beta: float | None = None         # declared temperature (enables tier 2)


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
        for stroke in self.alphabet:
            if stroke.unitary.dim != ds * stroke.rho.dim:
                raise CollisionalError("stroke unitary does not match S x A dims")
        if self.system_unitaries is not None and \
                len(self.system_unitaries) != len(self.alphabet):
            raise CollisionalError("need one system unitary per alphabet entry")

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


def _apply_collision(rho_s, stroke: AncillaStroke, h_sys):
    ep = Episode(h_sys, stroke.hamiltonian, stroke.unitary, rho_s, stroke.rho)
    ev = evolve(ep)
    return ep, ev


def run(spec: CollisionSpec, rho0: DensityOperator, n_strokes: int,
        conserving_tol: float = 1e-9):
    """Run n_strokes collisions; returns (state list, StrokeRecord list).

    Tier-2 sigma is reported when the ancilla carries a beta; tier-3 when in
    addition the stroke unitary is strictly energy conserving; the verdict
    and the Gibbs state are evaluated once per alphabet entry.
    """
    if n_strokes < 1:
        raise CollisionalError("n_strokes must be >= 1")
    gibbs_of = []     # per alphabet entry: the tier-3 reference, or None
    for k in range(min(n_strokes, len(spec.alphabet))):
        stroke, h = spec.stroke(k), spec.h_at(k)
        ok = stroke.beta is not None and is_strict_energy_conserving(
            stroke.unitary, h, stroke.hamiltonian, conserving_tol)[0]
        gibbs_of.append(thermal_state(h, stroke.beta) if ok else None)
    states = [rho0]
    records = []
    rho = rho0
    for n in range(n_strokes):
        stroke = spec.stroke(n)
        h_now = spec.h_at(n)
        h_next = spec.h_at(n + 1)
        ep, ev = _apply_collision(rho, stroke, h_now)
        bal = balance(ep, ev)
        rho_mid = ev.rho_system
        u_sys = spec.u_at(n)
        if u_sys is None:
            rho_next = rho_mid
        else:
            m = u_sys.matrix @ rho_mid.matrix @ u_sys.matrix.conj().T
            rho_next = DensityOperator(m, rho_mid.dims)
        q_a = bal.heat_env
        e_now = float(np.real(np.trace(h_now.matrix @ rho.matrix)))
        e_mid = float(np.real(np.trace(h_now.matrix @ rho_mid.matrix)))
        e_next = float(np.real(np.trace(h_next.matrix @ rho_next.matrix)))
        w_onoff = (e_mid - e_now) + q_a
        w_u = e_next - e_mid
        dh = e_next - e_now
        sigma_t = None
        sigma_f = None
        if stroke.beta is not None:
            sigma_t = bal.d_entropy_system + stroke.beta * q_a
        gibbs = gibbs_of[n % len(gibbs_of)]
        if gibbs is not None:
            sigma_f = relative_entropy(rho, gibbs) - relative_entropy(rho_mid, gibbs)
        records.append(StrokeRecord(
            q_ancilla=q_a,
            d_h_system=dh,
            w_onoff=w_onoff,
            w_unitary=w_u,
            sigma_general=bal.sigma,
            sigma_thermal=sigma_t,
            sigma_fixed_point=sigma_f,
            first_law_residual=dh - (w_u + w_onoff - q_a),
        ))
        states.append(rho_next)
        rho = rho_next
    return states, records


# ---------------------------------------------------------------------------
# Limit cycles
# ---------------------------------------------------------------------------

def _cycle_channel(spec: CollisionSpec) -> np.ndarray:
    """Superoperator of one full alphabet pass (column stacking)."""
    d = spec.dim_system
    chan = np.eye(d * d, dtype=complex)
    for n, stroke in enumerate(spec.alphabet):
        kraus = ancilla_kraus(stroke.unitary, stroke.rho)
        u_sys = spec.u_at(n)
        if u_sys is not None:
            kraus = u_sys.matrix @ kraus
        chan = kraus_superop(kraus) @ chan
    return chan


def _fixed_point(chan: np.ndarray, rho0: DensityOperator,
                 unique: bool) -> DensityOperator:
    """Projection of rho0 onto ker(chan - 1) along range(chan - 1), i.e.
    the limit of repeated application (eigenvalue 1 of a channel is
    semisimple), from the singular vectors of chan - 1 at zero."""
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
    m = unvec(right @ np.linalg.solve(left @ right, left @ vec(rho0.matrix)))
    rho = DensityOperator((m + m.conj().T) / 2.0, rho0.dims)
    step = trace_distance(unvec(chan @ vec(rho.matrix)), rho)
    if step >= FIXED_POINT_TOL:
        raise CollisionalError(f"one more cycle moves the fixed point by {step:.3e}")
    return rho


def limit_cycle(spec: CollisionSpec) -> DensityOperator:
    """Fixed point of the full-alphabet composite map, read from the null
    space of its channel (see the module docstring for the errors), and
    checked to move by less than FIXED_POINT_TOL under one more pass."""
    d = spec.dim_system
    return _fixed_point(_cycle_channel(spec), DensityOperator.maximally_mixed(d), unique=True)


# ---------------------------------------------------------------------------
# Continuous-time limit of one collision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipatorPieces:
    superop: np.ndarray                  # d^2 x d^2 on vectorized rho_S
    lamb_shift_norm: float
    rates: tuple | None                  # (gamma_minus_k, gamma_plus_k) per pair
    detailed_balance: tuple | None       # gamma+/gamma- ratios per pair


def continuous_limit(v_int, rho_ancilla: DensityOperator, pairs=None,
                     lamb_tol: float = 1e-9) -> DissipatorPieces:
    """Dissipator of the tau -> 0 collision limit with the V/sqrt(tau)
    scaling:  D(rho) = -1/2 Tr_A [V, [V, rho x rho_A]].

    For Hermitian V this is sum_{mu nu} D[sqrt(q_nu) V_{mu nu}] with
    V_{mu nu} = <mu|V|nu> in the eigenbasis of rho_A = sum q_nu |nu><nu|,
    which is how the superoperator is assembled.  Requires a vanishing
    induced shift Tr_A(V rho_A); a violation beyond lamb_tol is an error.
    When `pairs` = [(L_k, A_k, g_k), ...] describes
    V = sum_k g_k (L_k^dag A_k + L_k A_k^dag), the familiar two-rate form
    D = sum_k gamma_k^- D[L_k] + gamma_k^+ D[L_k^dag] applies with the
    emission rate gamma_k^- = g_k^2 <A_k A_k^dag> and the absorption rate
    gamma_k^+ = g_k^2 <A_k^dag A_k>, and `detailed_balance` reports the
    ratio gamma^+/gamma^- per pair; for a thermal ancilla and eigenoperator
    A_k it equals e^{-beta omega_k}.
    """
    v = _mat(v_int)
    if np.abs(v - v.conj().T).max() > HERMITICITY_TOL * max(1.0, np.abs(v).max()):
        raise CollisionalError("interaction V must be Hermitian")
    ra = rho_ancilla.matrix
    da = rho_ancilla.dim
    d = v.shape[0] // da
    shift = _ptrace_matrix(v @ tensor([np.eye(d), ra]), (d, da), [0])
    shift_norm = float(np.abs(shift - np.trace(shift) / d * np.eye(d)).max())
    if shift_norm > lamb_tol:
        raise CollisionalError(
            f"ancilla-induced shift Tr_A(V rho_A) = {shift_norm:.3e} is not zero")

    superop = np.zeros((d * d, d * d), dtype=complex)
    for k in ancilla_kraus(v, rho_ancilla):
        add_lindblad_term(superop, k, k)
    rates = db = None
    if pairs is not None:
        rates = []
        for (_, a_k, g_k) in pairs:
            a = _mat(a_k)
            gamma_minus = g_k ** 2 * float(np.real(np.trace(a @ a.conj().T @ ra)))
            gamma_plus = g_k ** 2 * float(np.real(np.trace(a.conj().T @ a @ ra)))
            rates.append((gamma_minus, gamma_plus))
        rates = tuple(rates)
        db = tuple(gp / gm if gm > 0 else math.inf for gm, gp in rates)
    return DissipatorPieces(superop, shift_norm, rates, db)


# ---------------------------------------------------------------------------
# Preferred basis / classical limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreferredBasisRecord:
    transition_matrix: np.ndarray     # M_n(i|j), column stochastic
    coherence_factors: np.ndarray     # multiplier per (i, j) pair, |.| <= 1
    sigma_classical: float
    sigma_quantum: float
    populations_before: np.ndarray
    populations_after: np.ndarray


def preferred_basis(spec: CollisionSpec, rho0: DensityOperator, n_strokes: int,
                    conserving_tol: float = 1e-9):
    """Population/coherence split of a thermal-operation collisional model.

    Requires a fixed system eigenbasis ([H_S^n, H_S^m] = 0 for all strokes)
    and strictly energy-conserving strokes with thermal ancillas.  The
    populations then follow the classical detailed-balanced Markov chain
    M_n(i|j), coherences are damped entrywise by factors of modulus <= 1,
    and each stroke's entropy production splits as

        Sigma_n = [S(p^n || p_th) - S(p^(n+1) || p_th)]  (classical)
                + [C(rho^n) - C(rho^(n+1))]              (quantum),

    both pieces separately non-negative.
    """
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
    evals0, basis = np.linalg.eigh(hs[0].matrix)
    # the chain of each alphabet entry: M_n, coherence factors, p_th
    chains = []
    for k in range(min(n_strokes, len(spec.alphabet))):
        stroke, h = spec.stroke(k), spec.h_at(k)
        if stroke.beta is None:
            raise CollisionalError("preferred basis needs thermal ancillas")
        ok, res = is_strict_energy_conserving(
            stroke.unitary, h, stroke.hamiltonian, conserving_tol)
        if not ok:
            raise CollisionalError(
                f"stroke {k} is not a thermal operation (residual {res:.3e})")
        e_sys = np.real(np.diag(basis.conj().T @ h.matrix @ basis))
        # Kraus operators sqrt(q_nu) <mu|U|nu> in the system eigenbasis
        kraus = basis.conj().T @ ancilla_kraus(stroke.unitary, stroke.rho) @ basis
        m_n = np.sum(np.abs(kraus) ** 2, axis=0)
        # coherence multipliers: rho'_ij = c_ij rho_ij for i != j
        c = np.einsum("kii,kjj->ij", kraus, kraus.conj())
        p_th = np.exp(-stroke.beta * (e_sys - e_sys.min()))
        chains.append((m_n, c, p_th / p_th.sum()))
    rho = rho0
    records = []
    for n in range(n_strokes):
        m_n, c, p_th = chains[n % len(chains)]
        p_before = np.real(np.diag(basis.conj().T @ rho.matrix @ basis))
        ep, ev = _apply_collision(rho, spec.stroke(n), spec.h_at(n))
        rho_next = ev.rho_system
        p_after = np.real(np.diag(basis.conj().T @ rho_next.matrix @ basis))
        sigma_cl = classical_kl(p_before, p_th) - classical_kl(p_after, p_th)
        coh_before = shannon_entropy(p_before) - von_neumann_entropy(rho)
        coh_after = shannon_entropy(p_after) - von_neumann_entropy(rho_next)
        records.append(PreferredBasisRecord(
            transition_matrix=m_n,
            coherence_factors=c,
            sigma_classical=sigma_cl,
            sigma_quantum=coh_before - coh_after,
            populations_before=p_before,
            populations_after=p_after,
        ))
        rho = rho_next
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
        if min(self.eps_a, self.eps_b, self.t_a, self.t_b) <= 0:
            raise CollisionalError("SWAP engine parameters must be positive")


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
    rho_a = thermal_state(HermitianOperator.from_matrix(h_a), beta_a)
    rho_b = thermal_state(HermitianOperator.from_matrix(h_b), beta_b)
    joint = tensor([rho_a, rho_b])
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
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
                rho0: DensityOperator | None = None,
                at_limit_cycle: bool = True) -> FourStrokeResult:
    """Unitary/hot/unitary/cold stroke cycle with arbitrary bath states.

    Per cycle Sigma = Sigma_H + Sigma_C = dS_S + Phi_H + Phi_C; at the
    limit cycle dS_S = 0 so the net production equals the net flux even
    though Sigma_i != Phi_i individually.

    The balances are taken on the cycle started from rho0 (default:
    maximally mixed), or with at_limit_cycle on the limit cycle rho0 flows
    to: its projection onto the fixed points of the cycle's channel, so an
    all-identity cycle keeps rho0.  A cycle that never settles raises
    CollisionalError (see the module docstring).
    """
    h_h = h_hot or HermitianOperator.from_matrix(np.zeros_like(rho_hot.matrix), rho_hot.dims)
    h_c = h_cold or HermitianOperator.from_matrix(np.zeros_like(rho_cold.matrix), rho_cold.dims)
    rho = rho0 or DensityOperator.maximally_mixed(h_system.dims)
    if at_limit_cycle:
        kraus_h = ancilla_kraus(u_sh, rho_hot) @ _mat(v1)
        kraus_c = ancilla_kraus(u_sc, rho_cold) @ _mat(v2)
        chan = kraus_superop(kraus_c) @ kraus_superop(kraus_h)
        rho = _fixed_point(chan, rho, unique=False)

    m1 = _mat(v1) @ rho.matrix @ _mat(v1).conj().T
    ep_h = Episode(h_system, h_h, u_sh, DensityOperator(m1, rho.dims), rho_hot)
    ev_h = evolve(ep_h)
    bal_h = balance(ep_h, ev_h)
    m2 = _mat(v2) @ ev_h.rho_system.matrix @ _mat(v2).conj().T
    ep_c = Episode(h_system, h_c, u_sc, DensityOperator(m2, rho.dims), rho_cold)
    ev_c = evolve(ep_c)
    bal_c = balance(ep_c, ev_c)
    ds = von_neumann_entropy(ev_c.rho_system) - von_neumann_entropy(rho)
    return FourStrokeResult(
        limit_cycle=rho,
        sigma_hot=bal_h.sigma,
        sigma_cold=bal_c.sigma,
        sigma_total=bal_h.sigma + bal_c.sigma,
        flux_hot=bal_h.flux,
        flux_cold=bal_c.flux,
        d_entropy_system=ds,
        q_hot=bal_h.heat_env if h_hot is not None else None,
        q_cold=bal_c.heat_env if h_cold is not None else None,
    )
