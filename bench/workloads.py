"""The benchmark's three workloads.

A workload is a fixed number of rounds.  A round is a list of operations,
the same mix at the same sizes in every round; only the random draws
differ, and they come from the round's own generator, seeded from the
benchmark seed and the round index.  ``make_round`` builds every input up
front (this is part of set-up), so that a round calls nothing but the
program.  Each operation carries a check that compares its result with a
computation made apart from the program (``checks.py``) or with a
property the method must have.  The checks compute their references
when they run, after the timed rounds, so that neither set-up time nor
peak memory includes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.linalg

import checks as ck
from entroprod import classical as cl
from entroprod import cli
from entroprod import collisional as cm
from entroprod import episodes as eps
from entroprod import gaussian as gs
from entroprod import lindblad as lb
from entroprod import resource as rs
from entroprod import trajectories as tj
from entroprod import verify
from entroprod.core import DensityOperator, HermitianOperator, UnitaryOperator

# Fewer rounds than this make the median round time a poor statistic.
MIN_ROUNDS = 3


@dataclass
class Op:
    """One program call with its inputs bound, and the check of its result."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass(frozen=True)
class Workload:
    """A named workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    # Round time measured at the parent commit (one BLAS thread); sets how
    # many rounds a run of a given length makes, so the work per run is
    # fixed for a given --seconds and does not follow the machine's speed.
    nominal_round_s: float
    make_round: Callable[[np.random.Generator, Path], list]
    warm_up: Callable[[Path], None]

    def rounds(self, seconds: float) -> int:
        return max(MIN_ROUNDS, int(round(seconds / self.nominal_round_s)))


# ---------------------------------------------------------------------------
# Random inputs, drawn here so that the program receives only generated data
# ---------------------------------------------------------------------------


def haar(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


def conserving_unitary(ds, de, rng):
    """Haar-random unitary inside each eigenspace of H_S + H_E when both
    ladders have the same spacing (levels 0..ds-1 and 0..de-1)."""
    total = np.add.outer(np.arange(ds), np.arange(de)).ravel()
    u = np.zeros((ds * de, ds * de), dtype=complex)
    for level in np.unique(total):
        idx = np.flatnonzero(total == level)
        u[np.ix_(idx, idx)] = haar(len(idx), rng)
    return u


def exchange_unitary(g):
    """exp(-i g (s+ s- + s- s+)) on two qubits with levels (g, e)."""
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    v = g * (np.kron(sm.conj().T, sm) + np.kron(sm, sm.conj().T))
    return scipy.linalg.expm(-1j * v)


def qubit_h(omega):
    return np.diag([0.0, omega]).astype(complex)


def gibbs_state(h, beta):
    return np.diag(ck.gibbs(np.real(np.diag(h)), beta)).astype(complex)


# The program's validated types, built from plain arrays at set-up.
def density(m, dims=None):
    return DensityOperator.from_matrix(m, dims)


def hermitian(m, dims=None):
    return HermitianOperator.from_matrix(m, dims)


def unitary(m, dims=None):
    return UnitaryOperator.from_matrix(m, dims)


def _read_rows(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))["rows"]


# ---------------------------------------------------------------------------
# dense-generators
# ---------------------------------------------------------------------------

KERR = {"delta": -2.0, "kerr": 1.0, "kappa": 0.5, "n_scale": 1}
KERR_SWEEP = (0.5, 0.65, 0.8, 0.95, 1.1)   # brackets the gap minimum near 0.87


def _kerr_config(cut, drives, seed, out_name):
    return {"schema": "v1", "kind": "lindblad",
            "parameters": {**KERR, "fock_cut": cut, "drive": drives[0]},
            "sweep": {"parameter": "drive", "grid": list(drives)},
            "seed": seed, "output": {"path": out_name, "format": "json"}}


def _check_kerr(cut, drives, sweep):
    def check(path):
        rows = _read_rows(path)
        out = []
        if [r[0] for r in rows] != list(drives):
            return [f"kerr cut {cut}: rows do not follow the drive grid"]
        for drive, gap, _, n_a in rows:
            h, terms = ck.kerr_terms(KERR["delta"], KERR["kerr"], drive, KERR["kappa"],
                                     KERR["n_scale"], cut)
            rho = ck.steady_state_direct(h, terms)
            n_ref = float(np.real(np.trace(np.diag(np.arange(cut)) @ rho)))
            out += ck.check_close(f"kerr cut {cut} drive {drive:.3f} <n>", n_a, n_ref, 1e-8)
            out += ck.check_close(f"kerr cut {cut} drive {drive:.3f} gap", gap,
                                  ck.liouvillian_gap(h, terms), 1e-8)
        if sweep:
            out += ck.check_gap_minimum(drives, [r[1] for r in rows],
                                        KERR["delta"], KERR["kappa"])
        return out
    return check


def dense_round(rng, out_dir):
    ops = []
    seed = int(rng.integers(2 ** 31))
    jitter = float(rng.uniform(-0.02, 0.02))
    drives = [round(d + jitter, 6) for d in KERR_SWEEP]
    cfg = _kerr_config(16, drives, seed, "kerr16.json")
    ops.append(Op("cli.kerr16", lambda: cli.run_config(cfg, out_dir),
                  _check_kerr(16, drives, sweep=True)))
    drives20 = [round(float(d), 6) for d in rng.uniform(0.6, 0.9, size=2)]
    cfg20 = _kerr_config(20, drives20, seed, "kerr20.json")
    ops.append(Op("cli.kerr20", lambda: cli.run_config(cfg20, out_dir),
                  _check_kerr(20, drives20, sweep=False)))

    for cut in (12, 20):
        nbar, r = rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.25)
        theta = rng.uniform(0.0, 2 * math.pi)
        model = lb.squeezed_dissipator(1.0, nbar, r, theta, fock_cut=cut)

        def check(rho, nbar=nbar, r=r, theta=theta, cut=cut):
            h, terms, _, _ = ck.squeezed_bath_terms(1.0, nbar, r, theta, cut)
            return ck.check_steady_state(f"squeezed cut {cut}", rho.matrix, h, terms)
        ops.append(Op(f"squeezed{cut}", lambda model=model: lb.steady_state(model), check))

    for cut in (12, 20):
        omega, nbar = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.6)
        h, terms = ck.thermal_oscillator_terms(omega, 1.0, nbar, cut)
        model = lb.LindbladModel(h, tuple((f, c) for c, f, _ in terms))

        def check(rho, h=h, terms=terms, nbar=nbar, cut=cut):
            x = nbar / (1.0 + nbar)
            want = np.diag(x ** np.arange(cut) / np.sum(x ** np.arange(cut)))
            return (ck.check_steady_state(f"oscillator cut {cut}", rho.matrix, h, terms)
                    + ck.check_close(f"oscillator cut {cut} Gibbs", rho.matrix, want, 1e-9))
        ops.append(Op(f"oscillator{cut}", lambda model=model: lb.steady_state(model), check))

    omega, gamma, beta = rng.uniform(0.5, 1.5), rng.uniform(0.1, 1.0), rng.uniform(0.3, 2.0)
    qubit = lb.thermal_qubit_model(omega, gamma, beta)
    ops.append(Op("thermal-qubit", lambda: lb.steady_state(qubit),
                  lambda rho: ck.check_close("thermal qubit Gibbs", rho.matrix,
                                             gibbs_state(qubit_h(omega), beta), 1e-10)))

    drive = float(rng.uniform(0.5, 1.0))
    kerr8 = lb.kerr_model(KERR["delta"], KERR["kerr"], drive, KERR["kappa"], fock_cut=8)
    rho0 = random_state(8, rng)
    t_grid = np.array([0.0, 0.1, 0.2, 0.3])
    rho0_op = density(rho0)

    def check_integrate(res):
        h8, terms8 = ck.kerr_terms(KERR["delta"], KERR["kerr"], drive, KERR["kappa"], 1, 8)
        return ck.check_integration("integrate kerr cut 8", [s.matrix for s in res.states],
                                    rho0, t_grid, h8, terms8)
    ops.append(Op("integrate", lambda: lb.integrate(kerr8, rho0_op, t_grid), check_integrate))

    for n_sites, mu in ((6, 0.0), (6, rng.uniform(0.5, 1.0)), (9, rng.uniform(0.5, 1.0))):
        temperature = float(rng.uniform(1.5, 2.5))

        def ising(n=n_sites, mu=mu, t=temperature):
            w = cl.glauber_ising_competing(n, 1.0, t, mu, -mu, cl.ring_adjacency(n))
            p = cl.stationary_distribution(w)
            return w, p, cl.multibath_sigma(w, p)[0]

        def check(res, n=n_sites, mu=mu, t=temperature):
            w, p, sigma = res
            return ck.check_ising(f"ising N={n}", w.w, p, sigma,
                                  ck.ising_parts(n, 1.0, t, mu, -mu), mu, -mu)
        ops.append(Op(f"ising{n_sites}", ising, check))

    # Cut 20 and these ranges are where the program's own squeezed suite
    # holds the two routes to 1e-8; smaller cuts leave a truncation error.
    spec = gs.SqueezedExchangeSpec(omega=1.0, g=1.0, t=float(rng.uniform(0.3, 1.2)),
                                   r=float(rng.uniform(0.1, 0.28)),
                                   theta=float(rng.uniform(0, 2 * math.pi)),
                                   beta=float(rng.uniform(2.2, 3.1)), fock_cut=20)
    pad = np.zeros((20, 20), dtype=complex)
    pad[:3, :3] = random_state(3, rng)
    rho_sys = density(pad)

    def check_squeezed(res):
        out = []
        if not res.sigma_affinity >= -1e-10:
            out.append(f"squeezed sigma {res.sigma_affinity:.3e} < 0")
        return out + ck.check_close("squeezed sigma routes", res.sigma_affinity,
                                    res.sigma_relative_entropy, 1e-8)
    ops.append(Op("squeezed-sigma", lambda: gs.squeezed_sigma(spec, rho_sys), check_squeezed))
    ops.append(Op("verify.liouvillian", lambda: verify.run_suite("liouvillian"),
                  ck.check_records))
    return ops


def dense_warm_up(out_dir):
    cli.run_config(_kerr_config(10, [0.2], 1, "warm.json"), out_dir)
    lb.steady_state(lb.squeezed_dissipator(1.0, 0.2, 0.1, 0.3, fock_cut=4))
    lb.integrate(lb.thermal_qubit_model(1.0, 0.5, 1.0), density(np.eye(2) / 2), [0.0, 0.1])
    w = cl.glauber_ising_competing(3, 1.0, 2.0, 0.5, -0.5, cl.ring_adjacency(3))
    cl.multibath_sigma(w, cl.stationary_distribution(w))


# ---------------------------------------------------------------------------
# exact-routes
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("ft-table", "route-equality", "landauer", "majorization", "quench")
CHOICES = tuple(tj.BackwardChoice)


def _renyi(p, q, alpha):
    if alpha == 0.0:
        return -math.log(q[p > 1e-12].sum())
    if alpha == math.inf:
        return math.log(np.max(p / q))
    if alpha == 1.0:
        return float(np.sum(p * np.log(p / q)))
    return math.log(np.sum(p ** alpha * q ** (1.0 - alpha))) / (alpha - 1.0)


def _thermal_episode(ds, de, rng):
    """Qubit system, resonant ladder bath, energy-conserving coupling."""
    omega, beta = rng.uniform(0.5, 1.5), rng.uniform(0.3, 2.0)
    h_s = qubit_h(omega)
    h_e = np.diag(omega * np.arange(de)).astype(complex)
    rho_s, rho_e = random_state(ds, rng), gibbs_state(h_e, beta)
    u = conserving_unitary(ds, de, rng)
    ep = eps.Episode(hermitian(h_s), hermitian(h_e), unitary(u, (ds, de)),
                     density(rho_s), density(rho_e))
    parts = [eps.BathPart((0,), hermitian(h_e), beta)]
    gibbs_s = density(gibbs_state(h_s, beta))
    energies = np.real(np.diag(h_s))

    def call():
        ev = eps.evolve(ep)
        pop0 = rs.EnergyPopulations(energies, np.real(np.diag(rho_s)))
        pop1 = rs.EnergyPopulations(energies, np.real(np.diag(ev.rho_system.matrix)))
        return {
            "balance": eps.balance(ep, ev),
            "thermal": eps.thermal_balance(ep, beta),
            "multibath": eps.multibath_balance(ep, parts, evolved=ev),
            "ensembles": {c: tj.backward_ensemble(ep, c) for c in CHOICES},
            "fixed_point": eps.fixed_point_sigma(ep.rho_system, ev.rho_system, gibbs_s),
            "verdict": rs.thermo_majorizes(pop0, pop1, beta),
            "renyi": rs.renyi_second_laws(pop0, pop1, beta),
        }

    def check(res):
        label = f"episode {ds}x{de}"
        ref = ck.episode_reference(h_s, [h_e], [beta], u, rho_s, rho_e, (de,))
        out = ck.check_balance(label, res["balance"].sigma, ref)
        for route in ("thermal", "multibath"):
            out += ck.check_close(f"{label} {route} sigma", res[route].sigma, ref["sigma"], 1e-10)
        out += ck.check_close(f"{label} fixed-point sigma", res["fixed_point"], ref["sigma"], 1e-10)
        targets = ck.backward_targets(ref, rho_s)
        for c, ens in res["ensembles"].items():
            out += ck.check_ensemble(f"{label} {c.value}", ens.average_sigma(),
                                     ens.integral_ft(), targets[c.value])
        # A thermal operation maps populations by a Gibbs-stochastic matrix.
        if res["verdict"] not in (rs.MajorizationVerdict.YES, rs.MajorizationVerdict.EQUIVALENT):
            out.append(f"{label}: thermo-majorization verdict {res['verdict'].value}")
        renyi = res["renyi"]
        p0 = np.real(np.diag(rho_s))
        p1 = np.real(np.diag(ref["rho_s1"]))
        q = ck.gibbs(energies, beta)
        want = [_renyi(p0, q, a) - _renyi(p1, q, a) for a in renyi.alphas]
        out += ck.check_close(f"{label} Renyi sigma_alpha", renyi.sigma_alpha, want, 1e-9)
        if not renyi.allowed:
            out.append(f"{label}: Renyi second laws forbid a thermal operation")
        return out

    return Op(f"episode{ds}x{de}", call, check)


def _two_bath_episode(rng):
    """Qubit system against two qubit baths at different temperatures."""
    omegas, betas = rng.uniform(0.5, 1.5, size=3), (rng.uniform(0.2, 0.8), rng.uniform(1.0, 3.0))
    h_s = qubit_h(omegas[0])
    h1, h2 = qubit_h(omegas[1]), qubit_h(omegas[2])
    eye = np.eye(2)
    h_e = np.kron(h1, eye) + np.kron(eye, h2)
    rho_s = random_state(2, rng)
    rho_e = np.kron(gibbs_state(h1, betas[0]), gibbs_state(h2, betas[1]))
    u = haar(8, rng)
    ep = eps.Episode(hermitian(h_s), hermitian(h_e, (2, 2)), unitary(u, (2, 2, 2)),
                     density(rho_s), density(rho_e, (2, 2)))
    parts = [eps.BathPart((0,), hermitian(h1), betas[0]),
             eps.BathPart((1,), hermitian(h2), betas[1])]

    def call():
        ev = eps.evolve(ep)
        return {"balance": eps.balance(ep, ev),
                "multibath": eps.multibath_balance(ep, parts, evolved=ev),
                "ensembles": {c: tj.backward_ensemble(ep, c) for c in CHOICES}}

    def check(res):
        ref = ck.episode_reference(h_s, [h1, h2], betas, u, rho_s, rho_e, (2, 2))
        out = ck.check_balance("two-bath episode", res["balance"].sigma, ref)
        out += ck.check_close("two-bath multibath sigma", res["multibath"].sigma,
                              ref["sigma"], 1e-10)
        targets = ck.backward_targets(ref, rho_s)
        for c, ens in res["ensembles"].items():
            out += ck.check_ensemble(f"two-bath {c.value}", ens.average_sigma(),
                                     ens.integral_ft(), targets[c.value])
        return out

    return Op("episode2x2x2", call, check)


def _two_mode(rng):
    base = gs.TwoModeNessSpec(1.0, 1.5, 0.1, float(rng.uniform(0.2, 0.6)),
                              float(rng.uniform(0.1, 0.3)), float(rng.uniform(0.2, 1.0)))
    g_ab = float(rng.uniform(0.1, 0.9)) * gs.critical_coupling(base)
    spec = gs.TwoModeNessSpec(base.omega_a, base.omega_b, g_ab, base.kappa_a,
                              base.gamma_b, base.n_tb)
    # Langevin drift and diffusion of x = (q_a, p_a, q_b, p_b), written out here.
    k, gb, wa, wb = spec.kappa_a, spec.gamma_b, spec.omega_a, spec.omega_b
    drift = np.array([[k, -wa, 0, 0], [wa, k, 2 * g_ab, 0],
                      [0, 0, gb, -wb], [2 * g_ab, 0, wb, gb]], dtype=float)
    diffusion = np.diag([k / 2, k / 2, gb * (spec.n_tb + 0.5), gb * (spec.n_tb + 0.5)])
    return Op("two-mode-ness", lambda: gs.two_mode_ness(spec),
              lambda res: ck.check_two_mode("two-mode ness", res.cov, res.n_a, res.n_b,
                                            res.entropy_rate, drift, diffusion,
                                            spec.kappa_a, spec.gamma_b, spec.n_tb))


def exact_round(rng, out_dir):
    # Enough episodes that the routes weigh about as much in a round as the
    # fixed-input verify suites, whose own loops (quench, landauer) are slow.
    ops = [_thermal_episode(2, 2, rng) for _ in range(12)]
    ops += [_thermal_episode(2, 3, rng) for _ in range(12)]
    ops += [_two_bath_episode(rng) for _ in range(6)]
    ops += [_two_mode(rng) for _ in range(2)]
    ops += [Op(f"verify.{s}", lambda s=s: verify.run_suite(s), ck.check_records)
            for s in VERIFY_SUITES]
    return ops


def exact_warm_up(out_dir):
    rng = np.random.default_rng(0)
    for op in (_thermal_episode(2, 2, rng), _two_bath_episode(rng), _two_mode(rng)):
        op.call()


# ---------------------------------------------------------------------------
# iterated-maps
# ---------------------------------------------------------------------------

# The inputs of the three fixed-point searches (two limit cycles and the
# four-stroke cycle) are fixed: the number of passes they make, and with it
# every call count below them, is then the same in every round and every
# run, so the traced counts compare exactly across seeds.
WEAK_G, WEAK_BETA = 0.1, 1.0
FOUR_STROKE_DRAW = 7                  # seed of its two fixed system rotations
TWO_BATH = ((0.3, 0.5), (0.3, 2.0))   # (coupling, beta) of the hot and cold ancillas
SAMPLED_DIM, SAMPLED_STEPS, SAMPLES = 4, 10, 3000


def _stroke(g, beta, h):
    return cm.AncillaStroke(density(gibbs_state(h, beta)), hermitian(h),
                            unitary(exchange_unitary(g), (2, 2)), beta)


def _limit_cycle_ops():
    h = qubit_h(1.0)
    weak = cm.CollisionSpec((_stroke(WEAK_G, WEAK_BETA, h),), (hermitian(h),))
    two = cm.CollisionSpec(tuple(_stroke(g, b, h) for g, b in TWO_BATH), (hermitian(h),) * 2)

    def check_weak(rho):
        sup = ck.alphabet_superop([(exchange_unitary(WEAK_G), gibbs_state(h, WEAK_BETA))], 2)
        return ck.check_fixed_point("weak-coupling limit cycle", rho.matrix, sup,
                                    cm.FIXED_POINT_TOL, want=gibbs_state(h, WEAK_BETA),
                                    single_mode=True)

    def check_two(rho):
        sup = ck.alphabet_superop(
            [(exchange_unitary(g), gibbs_state(h, b)) for g, b in TWO_BATH], 2)
        return ck.check_fixed_point("two-bath limit cycle", rho.matrix, sup,
                                    cm.FIXED_POINT_TOL, single_mode=True)

    return [Op("limit-cycle-weak", lambda: cm.limit_cycle(weak), check_weak),
            Op("limit-cycle-two-bath", lambda: cm.limit_cycle(two), check_two)]


def _stroke_run(rng, n_strokes=200):
    strokes, parts, h_sys = [], [], []
    for _ in range(2):
        h_a = qubit_h(rng.uniform(0.5, 1.5))
        beta = float(rng.uniform(0.3, 2.0))
        u = haar(4, rng)
        u_sys = haar(2, rng)
        anc = gibbs_state(h_a, beta)
        strokes.append(cm.AncillaStroke(density(anc), hermitian(h_a), unitary(u, (2, 2)), beta))
        parts.append((u, anc, u_sys))
        h_sys.append((u_sys, hermitian(qubit_h(rng.uniform(0.5, 1.5)))))
    spec = cm.CollisionSpec(tuple(strokes), tuple(h for _, h in h_sys),
                            tuple(unitary(u) for u, _ in h_sys))
    rho0 = random_state(2, rng)
    rho0_op = density(rho0)

    def check(res):
        states, records = res
        sups = [np.kron(v.conj(), v) @ ck.stroke_superop(u, anc, 2) for u, anc, v in parts]
        out = ck.check_first_law("stroke run", [r.first_law_residual for r in records])
        worst = min(r.sigma_general for r in records)
        if not worst >= -1e-10:
            out.append(f"stroke run: sigma {worst:.3e} < 0")
        return out + ck.check_stroke_states("stroke run", [s.matrix for s in states], rho0, sups)

    return Op("collisional-run", lambda: cm.run(spec, rho0_op, n_strokes), check)


def _four_stroke():
    h = qubit_h(1.0)
    rng = np.random.default_rng(FOUR_STROKE_DRAW)
    v1, v2 = haar(2, rng), haar(2, rng)
    g_h, g_c, beta_h, beta_c = 0.7, 0.8, 0.3, 2.0
    u_h, u_c = exchange_unitary(g_h), exchange_unitary(g_c)
    hot, cold = gibbs_state(h, beta_h), gibbs_state(h, beta_c)
    args = (v1, v2, unitary(u_h, (2, 2)), unitary(u_c, (2, 2)), density(hot), density(cold),
            hermitian(h))

    def check(res):
        cycle = (ck.stroke_superop(u_c, cold, 2) @ np.kron(v2.conj(), v2)
                 @ ck.stroke_superop(u_h, hot, 2) @ np.kron(v1.conj(), v1))
        out = ck.check_fixed_point("four-stroke cycle", res.limit_cycle.matrix, cycle,
                                   cm.FIXED_POINT_TOL)
        # At the limit cycle dS = 0, so the net production is the net flux.
        out += ck.check_close("four-stroke sigma = flux", res.sigma_total,
                              res.flux_hot + res.flux_cold, 1e-9)
        if not min(res.sigma_hot, res.sigma_cold) >= -1e-12:
            out.append("four-stroke: negative stroke entropy production")
        return out

    return Op("four-stroke", lambda: cm.four_stroke(*args, h_hot=args[6], h_cold=args[6]), check)


def _sampled(rng):
    d = SAMPLED_DIM
    bases = [haar(d, rng) for _ in range(SAMPLED_STEPS + 1)]
    us = [haar(d, rng) for _ in range(SAMPLED_STEPS)]
    # p_0 at least 1/(2d) everywhere keeps e^{-sigma} bounded, so the
    # standard error estimated from the samples is trustworthy.
    p0 = 0.5 / d + 0.5 * rng.dirichlet(np.ones(d))
    psi0 = bases[0] @ (np.sqrt(p0) * np.exp(2j * math.pi * rng.random(d)))
    seed = int(rng.integers(2 ** 31))

    def check(res):
        p0_ref, pn_ref = ck.measurement_marginals(psi0, bases, us)
        out = [] if res.sampled else ["measurement trajectories were not sampled"]
        return out + ck.check_sampled("sampled trajectories", res.sigma_values,
                                      res.probabilities, SAMPLES, p0_ref, pn_ref)

    return Op("sampled-trajectories",
              lambda: tj.measurement_trajectories(psi0, bases, us, n_samples=SAMPLES, seed=seed),
              check)


def iterated_round(rng, out_dir):
    return _limit_cycle_ops() + [_stroke_run(rng), _four_stroke(), _sampled(rng)]


def iterated_warm_up(out_dir):
    rng = np.random.default_rng(0)
    h = qubit_h(1.0)
    cm.limit_cycle(cm.CollisionSpec((_stroke(0.8, 1.0, h),), (hermitian(h),)))
    _stroke_run(rng, n_strokes=4).call()
    _four_stroke().call()
    bases = [haar(2, rng) for _ in range(3)]
    tj.measurement_trajectories(np.ones(2), bases, [haar(2, rng) for _ in range(2)],
                                max_exhaustive=1, n_samples=10, seed=0)


WORKLOADS = {
    w.name: w for w in (
        Workload("dense-generators", 11.0, dense_round, dense_warm_up),
        Workload("exact-routes", 1.4, exact_round, exact_warm_up),
        Workload("iterated-maps", 5.0, iterated_round, iterated_warm_up),
    )
}
