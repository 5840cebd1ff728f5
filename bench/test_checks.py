"""Tests of the benchmark's own correctness checks and of its tracer.

Each check is shown to pass on a right answer and to fail on a
deliberately wrong one.  Runs in seconds, without the full workloads:

    PYTHONPATH=src python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks as ck  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from entroprod import collisional as cm  # noqa: E402
from entroprod import lindblad as lb  # noqa: E402
from entroprod import trajectories as tj  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def perturb(m, eps=1e-4):
    """A state that is still a state, but not the right one."""
    out = m.copy()
    out[0, 1] += eps
    out[1, 0] += eps
    return out


def test_perturbed_steady_state_fails():
    h, terms = ck.thermal_oscillator_terms(1.0, 1.0, 0.4, 6)
    rho = lb.steady_state(lb.LindbladModel(h, tuple((f, c) for c, f, _ in terms))).matrix
    assert ck.check_steady_state("oscillator", rho, h, terms) == []
    assert ck.check_steady_state("oscillator", perturb(rho), h, terms)
    assert ck.check_steady_state("oscillator", rho / 1.01, h, terms)   # trace != 1


def test_squeezed_generator_has_the_bath_moments():
    """Our squeezed-bath generator's steady state has <a^dag a> = N and
    <a a> = M (up to truncation, small here), and the program's state
    passes its residual check; swapping M for its conjugate is caught."""
    h, terms, n_eff, m_eff = ck.squeezed_bath_terms(1.0, 0.2, 0.2, 0.7, 20)
    a = ck.destroy(20)
    mine = ck.steady_state_direct(h, terms)
    moments = [np.trace(a.conj().T @ a @ mine), np.trace(a @ a @ mine)]
    assert ck.check_close("moments", moments, [n_eff, m_eff], 1e-6) == []
    assert ck.check_close("moments", moments, [n_eff, np.conj(m_eff)], 1e-6)
    rho = lb.steady_state(lb.squeezed_dissipator(1.0, 0.2, 0.2, 0.7, fock_cut=20)).matrix
    assert ck.check_steady_state("squeezed", rho, h, terms) == []
    _, wrong, _, _ = ck.squeezed_bath_terms(1.0, 0.2, 0.2, 0.7 + 1.0, 20)
    assert ck.check_steady_state("squeezed", rho, h, wrong)


def test_wrong_integration_fails(rng):
    h, terms = ck.kerr_terms(-2.0, 1.0, 0.7, 0.5, 1, 4)
    rho0 = wl.random_state(4, rng)
    t_grid = [0.0, 0.1, 0.2]
    res = lb.integrate(lb.kerr_model(-2.0, 1.0, 0.7, 0.5, fock_cut=4), wl.density(rho0), t_grid)
    states = [s.matrix for s in res.states]
    assert ck.check_integration("kerr", states, rho0, t_grid, h, terms) == []
    states[-1] = perturb(states[-1], 1e-6)
    assert ck.check_integration("kerr", states, rho0, t_grid, h, terms)


def test_kerr_gap_checks():
    drives = [0.5, 0.65, 0.8, 0.95, 1.1]
    gaps = [ck.liouvillian_gap(*ck.kerr_terms(-2.0, 1.0, e, 0.5, 1, 12)) for e in drives]
    assert ck.check_gap_minimum(drives, gaps, -2.0, 0.5) == []
    assert ck.check_gap_minimum(drives, sorted(gaps, reverse=True), -2.0, 0.5)  # at the edge
    assert ck.check_gap_minimum([d + 0.9 for d in drives], gaps, -2.0, 0.5)  # outside window


def test_kerr_cli_check_catches_wrong_gap(tmp_path):
    drives = [0.3, 0.4]
    cfg = wl._kerr_config(12, drives, 1, "kerr.json")
    path = wl.cli.run_config(cfg, tmp_path)
    check = wl._check_kerr(12, drives, sweep=False)
    assert check(path) == []
    data = json.loads(Path(path).read_text())
    data["rows"][1][1] *= 1.001
    Path(path).write_text(json.dumps(data))
    assert check(path)


def test_ising_checks():
    parts = ck.ising_parts(4, 1.0, 2.0, 0.8, -0.8)
    w = sum(parts)
    vals, vecs = np.linalg.eig(w)
    p = np.real(vecs[:, np.argmin(np.abs(vals))])
    p = p / p.sum()
    sigma = ck.reservoir_sigma(parts, p)
    assert ck.check_ising("ising", w, p, sigma, parts, 0.8, -0.8) == []
    lumped = ck.reservoir_sigma([w], p)       # lumping the reservoirs underestimates
    assert ck.check_ising("ising", w, p, lumped, parts, 0.8, -0.8)
    assert ck.check_ising("ising", w, np.roll(p, 1), sigma, parts, 0.8, -0.8)
    flat = ck.ising_parts(4, 1.0, 2.0, 0.0, 0.0)
    assert ck.check_ising("ising", sum(flat), p, 0.01, flat, 0.0, 0.0)


def test_wrong_backward_choice_fails(rng):
    op = wl._thermal_episode(2, 3, rng)
    res = op.call()
    assert op.check(res) == []
    ens = res["ensembles"]
    swapped = dict(ens)
    swapped[tj.BackwardChoice.BATH_RESET] = ens[tj.BackwardChoice.CORRELATIONS_DESTROYED]
    assert op.check({**res, "ensembles": swapped})


def test_wrong_balance_fails(rng):
    op = wl._two_bath_episode(rng)
    res = op.call()
    assert op.check(res) == []
    ref = {"sigma": res["balance"].sigma, "clausius": res["balance"].sigma}
    assert ck.check_balance("episode", res["balance"].sigma + 1e-6, ref)
    assert ck.check_balance("episode", -0.1, {"sigma": -0.1, "clausius": -0.1})


def test_two_mode_check(rng):
    op = wl._two_mode(rng)
    res = op.call()
    assert op.check(res) == []
    wrong = type(res)(res.cov * 1.001, res.n_a, res.n_b, res.entropy_rate, res.mu_a,
                      res.mu_b, res.entropy_rate_general)
    assert op.check(wrong)


def test_failed_verify_record_fails():
    assert ck.check_records([("a", True, "")]) == []
    assert ck.check_records([("a", True, ""), ("b", False, "off")])


def _power_iterate(sup, tol):
    """The program's stopping rule (stop at the first step below tol and
    return the newer state) on our own channel; returns every iterate."""
    states = [np.eye(2, dtype=complex) / 2]
    while True:
        states.append(ck.apply_superop(sup, states[-1]))
        if ck.trace_distance(states[-1], states[-2]) < tol:
            return states


def test_limit_cycle_one_pass_early_fails():
    h = wl.qubit_h(1.0)
    spec = cm.CollisionSpec((wl._stroke(0.4, 1.0, h),), (wl.hermitian(h),))
    sup = ck.alphabet_superop([(wl.exchange_unitary(0.4), wl.gibbs_state(h, 1.0))], 2)
    gibbs = wl.gibbs_state(h, 1.0)
    program = cm.limit_cycle(spec).matrix
    states = _power_iterate(sup, cm.FIXED_POINT_TOL)
    for rho, wrong in ((program, False), (states[-1], False), (gibbs, False), (states[-2], True)):
        errors = ck.check_fixed_point("cycle", rho, sup, cm.FIXED_POINT_TOL, want=gibbs,
                                      single_mode=True)
        assert bool(errors) == wrong


def test_stroke_run_checks(rng):
    op = wl._stroke_run(rng, n_strokes=6)
    states, records = op.call()
    assert op.check((states, records)) == []
    assert op.check((states[:-1] + [wl.density(perturb(states[-1].matrix))], records))
    assert ck.check_first_law("run", [0.0, 1e-9])


def test_four_stroke_check():
    op = wl._four_stroke()
    res = op.call()
    assert op.check(res) == []
    wrong = type(res)(**{**res.__dict__, "sigma_total": res.sigma_total + 1e-6})
    assert op.check(wrong)


def test_sampled_sigma_shifted_fails(rng):
    d, steps = 3, 3
    bases = [wl.haar(d, rng) for _ in range(steps + 1)]
    us = [wl.haar(d, rng) for _ in range(steps)]
    psi0 = bases[0] @ np.sqrt(np.array([0.5, 0.3, 0.2]))
    res = tj.measurement_trajectories(psi0, bases, us, max_exhaustive=1,
                                      n_samples=wl.SAMPLES, seed=3)
    p0, pn = ck.measurement_marginals(psi0, bases, us)
    assert res.sampled
    assert ck.check_sampled("sampled", res.sigma_values, res.probabilities, wl.SAMPLES,
                            p0, pn) == []
    assert ck.check_sampled("sampled", res.sigma_values + 0.3, res.probabilities,
                            wl.SAMPLES, p0, pn)


def test_tracer_counts_and_restores():
    h = wl.qubit_h(1.0)
    spec = cm.CollisionSpec((wl._stroke(0.4, 1.0, h),), (wl.hermitian(h),))
    sup = ck.alphabet_superop([(wl.exchange_unitary(0.4), wl.gibbs_state(h, 1.0))], 2)
    passes = len(_power_iterate(sup, cm.FIXED_POINT_TOL)) - 1
    original = (cm.run, cm.limit_cycle, np.linalg.eigh)
    t = tracer.Tracer()
    t.install()
    try:
        cm.limit_cycle(spec)
    finally:
        t.uninstall()
    assert (cm.run, cm.limit_cycle, np.linalg.eigh) == original
    metrics = t.metrics(0.0, 0.0)
    assert metrics["collisional.limit_cycle.passes"]["value"] == passes
    assert metrics["collisional.limit_cycle.calls"]["value"] == 1
    assert metrics["collisional.run.calls"]["value"] == passes
    assert metrics["linalg.eig.calls"]["value"] == 1
    assert metrics["episodes.balance.calls"]["value"] == passes


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "round_p50_ms", "setup_s", "peak_rss_mb"}
