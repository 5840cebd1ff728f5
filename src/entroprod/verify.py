"""Cross-validation suites: every formulation of entropy production the
package implements is checked against an independent route on exactly
solvable small instances.  Each suite returns a list of `Record`s, one
comparison `value op bound` each: a worst deviation against its tolerance,
a least margin against its slack, or a count against its total.  The
verdict and the printed line are derived in `Record` alone; a value over no
rows is NaN, which fails every comparison.  The CLI prints the records and
the acceptance tests assert them; `SUITES` names every suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import classical as cl
from . import collisional as cm
from . import episodes as eps
from . import gaussian as gs
from . import resource as rs
from . import trajectories as tj
from .core import (
    DensityOperator,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    _entropy_rows,
    _petz_renyi,
    hermitian_function,
    tensor,
    thermal_state,
)
from .rand import density_matrices, ginibre, haar_unitaries, random_density, random_probability


# the tolerance of each suite's route comparisons, the bound its records carry
FT_TABLE_TOL = 1e-10
ROUTE_TOL = 1e-10
SWAP_TOL = 1e-12
LANDAUER_TOL = 1e-10
NESS_TOL = 1e-8
QUENCH_TOL = 1e-9
SQUEEZED_TOL = 1e-8

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Record:
    """One check of a suite: it passes when `value op bound` holds, which a NaN
    value never does.  It iterates as the (name, passed, detail) triple and
    prints as `[PASS] name  (value op bound)`."""
    name: str
    value: float
    op: str
    bound: float

    @property
    def passed(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    @property
    def detail(self) -> str:
        value = f"{self.value:.2e}" if isinstance(self.value, float) else f"{self.value}"
        return f"{value} {self.op} {self.bound:g}"

    def __iter__(self):
        return iter((self.name, self.passed, self.detail))

    def __str__(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}  ({self.detail})"


def _qubit_stack(rng, n, thermal_env, beta_omega=None):
    """One validated stack of n random qubit-qubit episodes and their betas, each kind of
    input one draw for all n: beta (uniform in [0.5, 2], or beta omega_E log-uniform on
    beta_omega), the H_S = a Z + b X and H_E = c Z coefficients, the Ginibre factors of a
    non-thermal rho_E, then those of U and rho_S.  A thermal rho_E is Gibbs at its beta."""
    u, hs, he = rng.random(n), rng.normal(size=(n, 2, 1, 1)), 0.5 + rng.random(n)
    beta = (0.5 + 1.5 * u if beta_omega is None
            else beta_omega[0] * (beta_omega[1] / beta_omega[0]) ** u / (2.0 * he))
    h_env = he[:, None, None] * PAULI_Z
    rho_env = (thermal_state(h_env, beta) if thermal_env
               else density_matrices(ginibre(rng, (n, 2, 2))))
    return eps.EpisodeStack.of(hs[:, 0] * PAULI_Z + hs[:, 1] * PAULI_X, h_env,
                               haar_unitaries(ginibre(rng, (n, 4, 4))),
                               density_matrices(ginibre(rng, (n, 2, 2))), rho_env), beta


_EXCHANGE = np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS)
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])


def _qubit_levels(omega, v):
    """V omega |e><e| V^dag per entry of omega, for one qubit unitary V."""
    return v @ (omega[:, None, None] * np.diag([0.0, 1.0])) @ v.conj().T


def _exchange_stack(omega, g, v, rho_system, beta_env):
    """Resonant exchanges exp(-i g (s+ s- + s- s+)) of two qubits with
    H_S = H_E = omega |e><e|, all rotated by V x V (so the eigenvectors are
    complex), E Gibbs at beta_env: one stack, a row per entry of omega, g,
    rho_system and beta_env."""
    h, vv = _qubit_levels(omega, v), np.kron(v, v)
    u = vv @ hermitian_function(g[:, None, None] * _EXCHANGE, lambda x: np.exp(-1j * x))
    return eps.EpisodeStack.of(h, h, u @ vv.conj().T, rho_system, thermal_state(h, beta_env))


def _least(values):
    """The least of `values`, NaN when there are none."""
    values = np.asarray(values, dtype=float)
    return float(values.min()) if values.size else math.nan


def _worst(deltas):
    """The largest |delta|, NaN when there are none."""
    return -_least(-np.abs(deltas))


def ft_table_suite(n_episodes=25):
    """Exhaustive trajectory averages against the four backward choices."""
    rng = np.random.default_rng(101)
    stack, _ = _qubit_stack(rng, n_episodes, thermal_env=False)
    bal, ((joint, p_joint, _), (_, p_after, v_after), (_, _, v_env)) = stack.balance, stack.evolved
    _, p_before, v_before = stack.rho_system
    dephased = tj.populations(joint, tensor([v_after, v_env]))
    targets = {
        tj.BackwardChoice.BATH_RESET: bal.sigma,
        tj.BackwardChoice.CORRELATIONS_DESTROYED: bal.mutual_info,
        tj.BackwardChoice.POST_MEASUREMENT_STATE:
            _entropy_rows(np.maximum(dephased, 0.0)) - _entropy_rows(p_joint),
        tj.BackwardChoice.BOTH_RESET: bal.mutual_info + _petz_renyi(
            1.0, p_after, p_before, v_before.conj().swapaxes(-1, -2) @ v_after)
            + bal.env_displacement,
    }
    worst, ft = {}, []
    for choice, target in targets.items():
        ens = tj.backward_ensemble_rows(stack, choice)
        worst[choice] = _worst(ens.average_sigma() - target)
        ft.append(_worst(ens.integral_ft() - 1.0))
    records = [Record(f"ft-table {c.value} average", worst[c], "<", FT_TABLE_TOL)
               for c in tj.BackwardChoice]
    # both-reset with thermal system and strict conservation
    rng2 = np.random.default_rng(102)
    omega, beta_s, beta_e, g = np.array([[0.5], [0.3], [0.3], [0.3]]) + rng2.random((4, 5))
    v = haar_unitaries(ginibre(rng2, (2, 2)))
    pairs = _exchange_stack(omega, g, v, thermal_state(_qubit_levels(omega, v), beta_s), beta_e)
    ens = tj.backward_ensemble_rows(pairs, tj.BackwardChoice.BOTH_RESET)
    worst_jw = _worst(ens.average_sigma() - (beta_e - beta_s) * pairs.balance.heat_env)
    return records + [
        Record("ft-table exchange form (both reset, conserving)", worst_jw, "<", FT_TABLE_TOL),
        Record("ft-table integral FT <e^-sigma> = 1", _worst(ft), "<", FT_TABLE_TOL),
    ]


def route_equality_suite(n_episodes=25):
    """Information, Clausius, free-energy and fixed-point routes agree, to e^-300 weights,
    and so do the information and multibath routes for a bath of two thermal qubits."""
    rng = np.random.default_rng(202)
    stack, beta = _qubit_stack(rng, n_episodes, thermal_env=True, beta_omega=(0.05, 300.0))
    # thermal operations: resonant exchanges in a rotated basis
    omega, g = np.array([[0.5], [0.2]]) + rng.random((2, n_episodes))
    v = haar_unitaries(ginibre(rng, (2, 2)))
    ops = _exchange_stack(omega, g, v, density_matrices(ginibre(rng, (n_episodes, 2, 2))), beta)
    bal, tb = stack.balance, eps.thermal_balance_rows(stack, beta)
    fp = eps.fixed_point_sigma_rows(ops.rho_system[1:], ops.evolved[1][1:], ops.rho_env[1:])
    # a qubit against two thermal qubits at their own beta: H_S, H_1, H_2 with X, Y and Z
    # parts and a Haar U on 8 dims; rho_E = g_1 x g_2, the Gibbs state of
    # beta_1 H_1 x 1 + beta_2 1 x H_2 at beta = 1, keeps that spectrum and takes the dims
    # (2, 2) of its Hamiltonian rows (its matrices through `from_stack` would be decomposed
    # again, which reads weights near 1e-9 to a relative 1e-8 and the flux to 6e-10)
    hs, h1, h2 = (rng.normal(size=(3, n_episodes, 3, 1, 1)) * _PAULIS).sum(2)
    betas = 0.5 + 1.5 * rng.random((2, n_episodes))
    h_env = tensor([h1, np.eye(2)]), tensor([np.eye(2), h2])
    gibbs = thermal_state([HermitianOperator.from_matrix(m, (2, 2)) for m in
                           sum(b[:, None, None] * h for b, h in zip(betas, h_env))],
                          np.ones(n_episodes))
    bath = eps.EpisodeStack.of(hs, sum(h_env), haar_unitaries(ginibre(rng, (n_episodes, 8, 8))),
                               density_matrices(ginibre(rng, (n_episodes, 2, 2))), gibbs)
    mb = eps.multibath_balance_rows(bath, [eps.BathPart((k,), h, b) for k, (h, b)
                                           in enumerate(zip((h1, h2), betas))])
    return [Record(name, _worst(deltas), "<", ROUTE_TOL) for name, deltas in [
        ("route dS + beta Q == I + D", tb.sigma - bal.sigma),
        ("route beta (W - dF) == I + D", beta * (tb.work - tb.d_free_energy) - bal.sigma),
        ("route fixed-point == I + D (thermal ops)", ops.balance.sigma - fp),
        # the flux from its trace formula Tr{(rho_E - rho_E') ln rho_E}, not from Sigma - dS_S
        ("route flux == beta Q_E", bal.flux - beta * bal.heat_env),
        ("multibath Sigma == I + D", mb.sigma - bath.balance.sigma),
        ("multibath Sigma == T + sum_k D(rho_Ek' || rho_Ek)",
         mb.sigma - (mb.total_correlations + mb.env_displacement)),
        ("multibath flux == sum_k beta_k Q_k",
         bath.balance.flux - (betas.T * mb.heat_per_bath).sum(-1))]]


def swap_engine_suite():
    """Closed forms against the exact 4x4 cycle simulation, and against the
    limit cycle of `four_stroke` with full SWAP strokes between a system qubit
    and Gibbs qubits of the two baths (heats into the bath ancillas), over 50
    gap ratios."""
    sim_deltas, cycle_deltas = [], []
    t_a, t_b = 1.0, 0.5
    swap = np.eye(4)[[0, 2, 1, 3]]                      # |i j> -> |j i>
    for ratio in np.linspace(0.05, 1.6, 50):
        spec = cm.SwapEngineSpec(1.0, float(ratio), t_a, t_b)
        res = cm.swap_engine(spec)
        sim = cm.swap_engine_simulation(spec)
        sim_deltas += [res.work - sim[0], res.q_a - sim[1], res.q_b - sim[2], res.sigma - sim[3]]
        h_a, h_b = (HermitianOperator.from_matrix(np.diag([0.0, e])) for e in (1.0, ratio))
        cyc = cm.four_stroke(np.eye(2), np.eye(2), swap, swap, thermal_state(h_a, 1.0 / t_a),
                             thermal_state(h_b, 1.0 / t_b), h_a, h_hot=h_a, h_cold=h_b)
        cycle_deltas += [cyc.sigma_total - res.sigma, cyc.q_hot + res.q_a,
                         cyc.q_cold + res.q_b, cyc.flux_hot + cyc.flux_cold - res.sigma]
    carnot = cm.swap_engine(cm.SwapEngineSpec(1.0, 0.5, 1.0, 0.5))
    eng = cm.swap_engine(cm.SwapEngineSpec(1.0, 0.7, 1.0, 0.5))
    # the figure of merit is an efficiency in the engine regime only
    otto = abs(eng.figure_of_merit - 0.3) if eng.regime == "engine" else math.nan
    return [
        Record("swap closed forms == 4x4 simulation", _worst(sim_deltas), "<", SWAP_TOL),
        Record("swap closed forms == four-stroke cycle", _worst(cycle_deltas), "<", SWAP_TOL),
        Record("swap Carnot point all-zero",
               _worst([carnot.work, carnot.q_a, carnot.q_b, carnot.sigma]), "<", SWAP_TOL),
        Record("swap engine regime at Otto efficiency", otto, "<", 1e-14),
    ]


def landauer_suite(n_episodes=100):
    """Erasure bounds on random qubit-bath episodes, the heat-capacity bound
    in the closed form of the Gibbs bath (`eps.gibbs_erasure_bound`)."""
    rng = np.random.default_rng(303)
    stack, beta = _qubit_stack(rng, n_episodes, thermal_env=True)
    rep = eps.landauer_rows(stack, beta)
    erasure = rep.d_entropy_system < 0
    q, basic = rep.heat_env[erasure], rep.bound_basic[erasure]
    finite, hc = rep.bound_finite_dim[erasure], rep.bound_heat_capacity[erasure]
    # analytic linear-capacity case
    ds, temp, a_coef = -0.4, 0.8, 1.7
    hc_lin = eps.heat_capacity_bound(ds, temp, lambda t: a_coef * t)
    lin_exact = -temp * ds + ds ** 2 / (2 * a_coef)
    # Reeb-Wolf finite-dimension bound, written out, at d_E = 5
    d_env = 5
    fd_exact = -temp * ds + 2.0 * temp * ds ** 2 / (4.0 + math.log(d_env - 1) ** 2)
    fd_delta = abs(eps.finite_dimension_bound(ds, temp, d_env) - fd_exact)
    return [
        Record("landauer Q >= -T dS", _least(rep.heat_env - rep.bound_basic), ">=", -1e-10),
        Record("landauer finite-d bound tighter", _least(finite - basic), ">=", -1e-12),
        Record("landauer finite-d bound satisfied", _least(q - finite), ">=", -1e-10),
        Record("landauer exponential bound B_Q <= Q",
               _least(rep.heat_env - rep.bound_exponential), ">=", -1e-10),
        Record("landauer heat-capacity bound dominates",
               _least(np.concatenate([q - hc, hc - finite])), ">=", -1e-8),
        Record("landauer linear capacity closed form", abs(hc_lin - lin_exact), "<", LANDAUER_TOL),
        Record("landauer finite-d bound closed form", fd_delta, "<", LANDAUER_TOL),
    ]


def gaussian_ness_suite():
    spec0 = gs.TwoModeNessSpec(omega_a=1.0, omega_b=1.5, g_ab=0.3,
                               kappa_a=0.4, gamma_b=0.2, n_tb=0.6)
    g_cr = gs.critical_coupling(spec0)
    deltas = []
    for g_val in np.linspace(0.05, 0.95, 10) * g_cr:
        spec = gs.TwoModeNessSpec(1.0, 1.5, float(g_val), 0.4, 0.2, 0.6)
        res = gs.two_mode_ness(spec)
        deltas.append(res.entropy_rate - res.entropy_rate_general)
    r99 = gs.two_mode_ness(gs.TwoModeNessSpec(1.0, 1.5, 0.99 * g_cr, 0.4, 0.2, 0.6))
    r90 = gs.two_mode_ness(gs.TwoModeNessSpec(1.0, 1.5, 0.90 * g_cr, 0.4, 0.2, 0.6))
    ratio = r99.entropy_rate / r90.entropy_rate
    # high-temperature limit of the phase-space flux prefactor
    omega, t_high = 1.0, 50.0
    nbar = 1.0 / (math.exp(omega / t_high) - 1.0)
    state = gs.GaussianState.thermal(2.0 * nbar)
    rates = gs.single_mode_rates(0.3, nbar, state, omega=omega)
    frac = rates["flux_rate"] / (rates["heat_rate"] / t_high)
    return [
        Record("ness Pi == general linear formula", _worst(deltas), "<", NESS_TOL),
        Record("ness divergence near critical coupling", ratio, ">", 10.0),
        Record("ness high-T flux prefactor -> 1/T", abs(frac - 1.0), "<", 0.01),
    ]


def classical_suite():
    rng = np.random.default_rng(404)
    sigmas, balance, tur_slack = [], [], []
    for _ in range(200):
        d = int(rng.integers(2, 9))
        rates = rng.random((d, d))
        w = cl.RateMatrix.from_offdiagonal(rates)
        p = random_probability(d, rng)
        s = cl.schnakenberg(w, p)
        sigmas.append(s.sigma_rate)
        balance.append(s.entropy_rate - (s.sigma_rate - s.flux_rate))
    for k in range(20):
        d = int(rng.integers(2, 4))
        e_levels = np.sort(rng.random(d)) * 2.0
        beta_h, beta_c = 0.4 + 0.3 * rng.random(), 1.2 + 0.8 * rng.random()
        parts = []
        for beta in (beta_h, beta_c):
            g = np.zeros((d, d))
            for i in range(d):
                for j in range(d):
                    if i == j:
                        continue
                    g[i, j] = (0.4 + rng.random()) * math.exp(
                        -beta * max(e_levels[i] - e_levels[j], 0.0))
            parts.append(g)
        w = cl.RateMatrix.from_offdiagonal(parts[0] + parts[1],
                                           reservoirs=tuple(parts))
        lhs, rhs, _ = cl.tur_check(w, [(0, 1, 1)])
        tur_slack.append(lhs - rhs)
    adj = cl.ring_adjacency(4)
    w_neq = cl.glauber_ising_competing(4, 1.0, 1.5, 0.8, -0.8, adj)
    p_neq = cl.stationary_distribution(w_neq)
    sigma_neq, _ = cl.multibath_sigma(w_neq, p_neq)
    w_eq = cl.glauber_ising_competing(4, 1.0, 1.5, 0.0, 0.0, adj)
    p_eq = cl.stationary_distribution(w_eq)
    sigma_eq, _ = cl.multibath_sigma(w_eq, p_eq)
    return [
        Record("schnakenberg sigma >= 0 (200 random)", _least(sigmas), ">=", 0.0),
        Record("entropy balance dS/dt = sigma - phi", _worst(balance), "<", 1e-12),
        Record("TUR on 20 two-bath instances", _least(tur_slack), ">=", -1e-8),
        Record("ising checkerboard NESS sigma > 0", sigma_neq, ">", 1e-6),
        Record("ising mu = 0 equilibrium", sigma_eq, "<", 1e-10),
    ]


def quench_suite():
    beta = 1.1
    h_of = lambda lam: PAULI_Z + lam * PAULI_X  # noqa: E731

    def commuting(lam):
        return (1.0 + lam) * PAULI_Z

    rep_c = tj.quench_report(commuting, 0.0, 1e-4, beta)
    fdr_c = abs(rep_c.cumulants[0] - 0.5 * rep_c.cumulants[1])
    rep_n = tj.quench_report(h_of, 0.0, 1e-3, beta)
    lam = np.linspace(0.0, 1.0, 21)
    curve = tj.quench_cgf(PAULI_Z, PAULI_Z + 1e-2 * PAULI_X, beta, lam)
    return [
        Record("quench commuting FDR <sigma> = var/2", fdr_c, "<", QUENCH_TOL),
        Record("quench coherent FDR breaking by Q", abs(rep_n.fdr_residual), "<", QUENCH_TOL),
        Record("quench coherent incompatibility Q > 0", rep_n.incompatibility, ">", 0.0),
        Record("quench kappa3, kappa4 > 0", _least(rep_n.cumulants[2:]), ">", 0.0),
        Record("quench Gallavotti-Cohen K(l) = K(1-l)",
               _worst(curve.values - curve.values[::-1]), "<", QUENCH_TOL),
    ]


def _probability_pairs(rng, n, d=2):
    """n pairs of d-level probability vectors from one draw: (n, d) rows per side."""
    raw = rng.random((n, 2, d))
    p = raw / raw.sum(-1, keepdims=True)
    return p[:, 0], p[:, 1]


def majorization_suite(n_pairs=50, n_renyi=100, n_quenches=20, n_oracle=100):
    """Thermo-majorization curves against the gamma-embedding and the 2x2
    Gibbs-stochastic oracle, Renyi monotonicity in alpha and the work
    sandwich on sudden qubit quenches.  Every raw input is drawn first,
    each kind as one array (the Renyi pairs one per dimension), then each
    block is evaluated as one stack.  The embedded pairs are one
    `embedding_verdict_rows` call, which reads each 10 000-entry embedding
    as its two runs."""
    rng = np.random.default_rng(505)
    e2, beta = np.array([0.0, 1.0]), 1.0
    emb_a, emb_b = _probability_pairs(rng, n_pairs)
    dims = rng.integers(2, 6, size=n_renyi)
    renyi = [_probability_pairs(rng, int((dims == d).sum()), d) for d in np.unique(dims)]
    u, z = rng.random((2, n_quenches)), rng.normal(size=(2, n_quenches, 1, 1))
    beta_q, h_i = 0.5 + u[0], z[0] * PAULI_Z
    h_f = h_i + (0.2 + 0.5 * u[1])[:, None, None] * PAULI_X + 0.2 * z[1] * PAULI_Z
    orc_a, orc_b = _probability_pairs(rng, n_oracle)

    agree = int((rs.thermo_majorizes_rows(e2, emb_a, emb_b, beta)
                 == rs.embedding_verdict_rows(e2, emb_a, emb_b, beta)).sum())
    grid = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0, math.inf)
    # each S_alpha less the one at the order below it
    steps = [np.diff(rs.classical_renyi_rows(*pairs, grid)).ravel() for pairs in renyi]
    work = tj.work_rows(h_i, h_f, np.eye(2), beta_q)
    rep = rs.work_bounds_rows(h_f, beta_q, thermal_state(h_i, beta_q), work.mean_work,
                              work.delta_f, np.linspace(0.0, beta_q, 5, axis=-1))
    v = rs.thermo_majorizes_rows(e2, orc_a, orc_b, beta)
    feas = rs.gibbs_stochastic_feasible_2d_rows(e2, orc_a, orc_b, beta)
    oracle = int((feas == np.isin(v, rs.CONVERTIBLE)).sum())
    return [
        Record("majorization curve == embedding verdict", agree, "==", n_pairs),
        Record("S_alpha monotone in alpha", _least(np.concatenate(steps)), ">=", -1e-12),
        Record("work sandwich W_ext <= W_irr <= W_form",
               _least([rep.w_irr - rep.w_ext_final, rep.w_form_final - rep.w_irr]), ">=", -1e-10),
        Record("Theorem-2 soundness against 2x2 Gibbs-stochastic oracle", oracle, "==", n_oracle),
    ]


def _padded_state(rng, cut):
    """A random 3-level state (`random_density`) padded with zeros into the Fock cut."""
    pad = np.zeros((cut, cut), dtype=complex)
    pad[:3, :3] = random_density(3, rng).matrix
    return DensityOperator.from_matrix(pad)


def squeezed_suite():
    rng = np.random.default_rng(606)
    deltas, residuals = [], []
    for i in range(10):
        r = 0.10 + 0.02 * i
        beta = 2.2 + 0.1 * i
        spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=0.3 + 0.1 * i,
                                       r=r, theta=0.5 + 0.2 * i, beta=beta,
                                       fock_cut=20)
        out = gs.squeezed_sigma(spec, _padded_state(rng, 20))
        deltas.append(out.sigma_affinity - out.sigma_relative_entropy)
        residuals += [out.d_quanta, out.d_asymmetry]
    # r = 0 reduces to the thermal balance
    spec0 = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=0.7, r=0.0,
                                    theta=0.0, beta=2.0, fock_cut=16)
    out0 = gs.squeezed_sigma(spec0, _padded_state(rng, 16))
    thermal_route = (out0.d_entropy_system - 2.0 * out0.d_h_system)
    return [
        Record("squeezed affinity == fixed-point route", _worst(deltas), "<", SQUEEZED_TOL),
        Record("squeezed conservation of quanta and asymmetry", _worst(residuals), "<", 1e-6),
        Record("squeezed r = 0 reduces to thermal route",
               abs(out0.sigma_affinity - thermal_route), "<", 1e-10),
    ]


def liouvillian_suite():
    from . import lindblad as lb
    eps_grid = np.linspace(0.45, 1.05, 9)
    gaps = []
    for e in eps_grid:
        model = lb.kerr_model(-2.0, 1.0, float(e), 0.5, n_scale=3, fock_cut=24)
        gaps.append(lb.gap(model))
    eps_min = eps_grid[np.argmin(gaps)]
    sz_vals = []
    h_grid = np.linspace(0.4, 1.9, 6)
    for h in h_grid:
        model = lb.macrospin_model(float(h), 1.0, 4.0)
        rho_ss = lb.steady_state(model)
        _, _, sz, _ = lb.spin_operators(4.0)
        sz_vals.append(float(np.real(np.trace(sz @ rho_ss.matrix))))
    return [
        # the grid lies inside the semiclassical bistable window of delta = -2 and
        # kappa = 0.5, drives (0.353, 1.108), so its interior is inside the window too
        Record("kerr gap local minimum off the drive grid ends",
               min(eps_min - eps_grid[0], eps_grid[-1] - eps_min), ">", 0.0),
        Record("macrospin <S_z> < 0 below h = 2 kappa", float(np.max(sz_vals)), "<", 0.0),
        Record("macrospin |<S_z>| decreases towards h = 2 kappa",
               float(np.max(np.diff(np.abs(sz_vals)))), "<", 0.0),
    ]


SUITES = {
    "ft-table": ft_table_suite,
    "route-equality": route_equality_suite,
    "swap-engine": swap_engine_suite,
    "landauer": landauer_suite,
    "gaussian-ness": gaussian_ness_suite,
    "classical": classical_suite,
    "quench": quench_suite,
    "majorization": majorization_suite,
    "squeezed": squeezed_suite,
    "liouvillian": liouvillian_suite,
}


def run_suite(name: str) -> list[Record]:
    """The records of one named suite, or of every suite in table order for 'all'."""
    if name == "all":
        return [record for suite in SUITES.values() for record in suite()]
    if name not in SUITES:
        raise KeyError(f"unknown suite '{name}'; choose from {[*SUITES, 'all']}")
    return SUITES[name]()
