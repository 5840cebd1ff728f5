"""Guards on what the benchmark's tooling relies on in the package (read
from `bench/`, which is not edited here): every traced name resolves, the
episode verify suites take a number of eigendecompositions that does not
grow with their number of episodes, the majorization suite one of
eigendecompositions and Renyi kernel calls that does not grow with its
number of pairs or of quenches, its embedded pairs take one run-encoded
call and no written-out embedding with its records unchanged, a one-bath
multibath balance reads the decompositions its thermal balance made, the
landauer suite reads the levels of its thermality check, the exact-route
suites make a number of rng calls that does not grow with their size, the
landauer suite's erasure inversions take few entropy evaluations and match
a bisection, an episode's four backward ensembles share the transitions of
one final basis, and every call the workloads make binds to the signature
of what it calls."""

import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroprod import verify
from entroprod.core import DensityOperator, HermitianOperator, UnitaryOperator

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")


def test_every_traced_name_resolves():
    # a traced benchmark run patches each (module, attribute) of TRACED and
    # would stop on an AttributeError for a name the package no longer has
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _ in tracer.TRACED:
        module = importlib.import_module(module_name)
        if "." in attr:                   # a method, patched on its own class
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name))[method]), attr
        else:
            assert callable(getattr(module, attr)), attr


@pytest.mark.parametrize("suite, pinned", [
    # the Gibbs states enter their stacks with the spectra they keep: one eigh
    # of the Hamiltonians, none of the states
    (verify.ft_table_suite, {"eigh": 9}),
    # the multibath records add ten: the product rho_E's levels, rho_S, and per bath
    # qubit its Gibbs check, its marginals before and after; and three trace distances
    (verify.route_equality_suite, {"eigh": 20, "eigvalsh": 4}),
    # the one eigvalsh is the thermality check's trace distance; the
    # heat-capacity bound reads the levels that check keeps
    (verify.landauer_suite, {"eigh": 5, "eigvalsh": 1})])
def test_episode_suites_decompose_once_per_stack(monkeypatch, count_spectral, suite, pinned):
    # counted at the package's eigensolver, so a closed-form (n, 2, 2) stack counts too
    counts = []
    for n_episodes in (10, 40):
        calls = []
        count_spectral(lambda kind, m: calls.append(kind))
        records = suite(n_episodes=n_episodes)
        monkeypatch.undo()
        assert all(passed for _, passed, _ in records), records
        counts.append({name: calls.count(name) for name in set(calls)})
    assert counts[0] == counts[1] == pinned, counts


class CountingRng:
    """A `Generator` that records the name of each method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        return lambda *a, **k: self._calls.append(name) or method(*a, **k)


@pytest.mark.parametrize("suite, size", [
    (verify.ft_table_suite, "n_episodes"), (verify.route_equality_suite, "n_episodes"),
    (verify.landauer_suite, "n_episodes"), (verify.majorization_suite, "n_quenches")])
def test_suites_draw_each_kind_of_input_at_once(monkeypatch, suite, size):
    # one draw per kind of input for the whole suite: no rng call per episode
    counts = []
    for n in (10, 40):
        calls, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: CountingRng(default_rng(seed), calls))
        records = suite(**{size: n})
        monkeypatch.undo()
        assert all(passed for _, passed, _ in records), records
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


def test_landauer_inversions_take_few_entropy_evaluations(monkeypatch):
    # Newton steps after the doubling: the bisection took 34 per inversion
    from entroprod import episodes as eps
    invert, counts = eps._invert_entropy, []

    def counted(entropy, target, lo, hi):
        calls = []
        t_prime = invert(lambda t: calls.append(t) or entropy(t), target, lo, hi)
        counts.append(len(calls))
        return t_prime
    monkeypatch.setattr(eps, "_invert_entropy", counted)
    verify.landauer_suite()
    assert len(counts) == 2 and max(counts) <= 10, counts


def bisected(entropy, target, temperature):
    """T' with entropy(T') = target by plain bisection, to the last bit."""
    lo, hi = temperature, 2.0 * temperature
    while entropy(hi) < target:
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if entropy(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(levels=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=5),
       temperature=st.floats(0.2, 3.0), fraction=st.floats(0.05, 0.95),
       slope=st.floats(0.3, 3.0), quadratic=st.booleans())
def test_erasure_bounds_match_a_bisection(levels, temperature, fraction, slope, quadratic):
    from entroprod import episodes as eps
    levels = np.array(levels) - min(levels)
    if levels.max() < 0.1:
        levels[-1] = 0.1                  # a bath with room for entropy

    def gibbs(t):
        """S and <E> of the levels at temperature t."""
        w = np.exp(-levels / t)
        mean = (w * levels).sum() / w.sum()
        return mean / t + math.log(w.sum()), mean

    (s0, e0), s_max = gibbs(temperature), math.log(len(levels))
    d_s = -fraction * (s_max - s0)
    t_prime = bisected(lambda t: gibbs(t)[0] - s0, -d_s, temperature)
    want = gibbs(t_prime)[1] - e0
    assert abs(eps.gibbs_erasure_bound(d_s, temperature, levels) - want) < 1e-9

    def capacity(t):
        return slope * t * t + 0.5 if quadratic else slope * t

    d_s = -fraction * 2.0
    t_prime = bisected(lambda t: eps._adaptive_simpson(lambda x: capacity(x) / x,
                                                       temperature, t), -d_s, temperature)
    want = eps._adaptive_simpson(capacity, temperature, t_prime)
    assert abs(eps.heat_capacity_bound(d_s, temperature, capacity) - want) < 1e-9


def count_decompositions(monkeypatch, count_spectral, call):
    """The eigh and eigvalsh (`count_spectral`) and `_petz_renyi` calls that call() makes."""
    from entroprod import core, resource, trajectories
    petz_renyi, calls = core._petz_renyi, []
    count_spectral(lambda kind, m: calls.append(kind))
    for module in (m for m in (core, resource, trajectories) if hasattr(m, "_petz_renyi")):
        monkeypatch.setattr(module, "_petz_renyi", lambda *a, **k:
                            calls.append("_petz_renyi") or petz_renyi(*a, **k))
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return result, {name: calls.count(name) for name in set(calls)}


def majorization_counts(monkeypatch, count_spectral, sizes):
    """The decomposition counts of the majorization suite at each of `sizes`,
    every record passing."""
    counts = []
    for kwargs in sizes:
        records, count = count_decompositions(
            monkeypatch, count_spectral, lambda: verify.majorization_suite(**kwargs))
        assert all(passed for _, passed, _ in records), records
        counts.append(count)
    return counts


def test_majorization_suite_counts_do_not_grow_with_its_pairs(monkeypatch, count_spectral):
    # the pair blocks (curve against embedding, Renyi grid, oracle) are one
    # stack each; the quenches are held fixed
    counts = majorization_counts(monkeypatch, count_spectral, [
        {"n_pairs": n, "n_renyi": n, "n_oracle": n, "n_quenches": 5} for n in (10, 40)])
    assert counts[0] == counts[1]
    # one per dimension of the Renyi pairs, one for work_bounds_rows and one
    # for the lags of the quenches' work rows
    assert counts[0]["_petz_renyi"] == 4 + 1 + 1


def test_majorization_suite_counts_do_not_grow_with_its_quenches(monkeypatch, count_spectral):
    # the quenches are one stack (`trajectories.work_rows`): one eigh per
    # Hamiltonian kind, where the parent took four per quench
    counts = majorization_counts(monkeypatch, count_spectral, [{"n_quenches": n} for n in (10, 40)])
    assert counts[0] == counts[1]


def test_majorization_suite_embeds_its_pairs_as_runs(monkeypatch):
    # one call for the 50 embedded pairs, not 100 gamma_embed calls of
    # 10 000 entries each and 50 majorization_verdict calls; the records
    # are those of the per-pair loop
    from entroprod import resource
    calls = []
    for name in ("gamma_embed", "embedding_verdict_rows", "majorization_verdict"):
        fn = getattr(resource, name)
        monkeypatch.setattr(resource, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    records = verify.majorization_suite()
    assert calls == ["embedding_verdict_rows"]
    assert [(r.name, r.passed, r.bound) for r in records] == [
        ("majorization curve == embedding verdict", True, 50),
        ("S_alpha monotone in alpha", True, -1e-12),
        ("work sandwich W_ext <= W_irr <= W_form", True, -1e-10),
        ("Theorem-2 soundness against 2x2 Gibbs-stochastic oracle", True, 100),
    ]
    assert (records[0].value, records[3].value) == (50, 100)


def test_one_bath_multibath_takes_no_decomposition_after_thermal(monkeypatch, count_spectral):
    # the benchmark's thermal 2x3 episode: the one bath part covers all of E,
    # so its marginals are rho_E and rho_E' and its Gibbs check is the
    # thermal balance's own
    from entroprod import episodes as eps
    from entroprod.core import _gibbs_states
    from entroprod.rand import ginibre, haar_unitaries, random_density
    rng = np.random.default_rng(18)
    beta, omega = 0.8, 1.2
    h_s = np.diag([0.0, omega]).astype(complex)
    h_e = np.diag(omega * np.arange(3.0)).astype(complex)
    total = np.add.outer(np.arange(2), np.arange(3)).ravel()
    u = np.zeros((6, 6), dtype=complex)
    for level in np.unique(total):                # Haar inside each energy shell
        idx = np.flatnonzero(total == level)
        u[np.ix_(idx, idx)] = haar_unitaries(ginibre(rng, (len(idx), len(idx))))
    ep = eps.Episode(HermitianOperator.from_matrix(h_s), HermitianOperator.from_matrix(h_e),
                     UnitaryOperator.from_matrix(u, (2, 3)), random_density(2, rng),
                     DensityOperator.from_matrix(_gibbs_states(h_e, beta)[0]))
    part = eps.BathPart((0,), HermitianOperator.from_matrix(h_e), beta)
    ev = eps.evolve(ep)
    eps.balance(ep, ev)
    thermal = eps.thermal_balance(ep, beta)
    multibath, count = count_decompositions(
        monkeypatch, count_spectral, lambda: eps.multibath_balance(ep, [part], evolved=ev))
    assert count.get("eigh", 0) == count.get("eigvalsh", 0) == 0, count
    assert multibath.sigma == thermal.sigma
    assert multibath.env_displacement == thermal.env_displacement


def test_four_backward_choices_build_three_transition_tensors(monkeypatch):
    # CORRELATIONS_DESTROYED and POST_MEASUREMENT_STATE share the final basis
    # of rho_S' and rho_E', so one episode's four choices build three
    # tensors, and asking again builds none
    from entroprod import episodes as eps, trajectories as tj
    from entroprod.rand import random_density, random_unitary
    rng = np.random.default_rng(19)
    h = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
    ep = eps.Episode(h, HermitianOperator.from_matrix(np.diag([0.0, 1.0, 2.0])),
                     random_unitary(6, rng, dims=(2, 3)), random_density(2, rng),
                     random_density(3, rng))
    build, calls = eps._transition_tensor, []
    monkeypatch.setattr(eps, "_transition_tensor",
                        lambda *a: calls.append(a[1:]) or build(*a))
    for _ in range(2):
        for choice in tj.BackwardChoice:
            tj.backward_ensemble(ep, choice)
    assert sorted(calls) == [(False, False), (True, False), (True, True)]


def test_every_workload_call_binds_to_its_signature():
    # each call of a package name in the workloads (alias.f(...) or
    # Type.method(...)) binds its positional count and keywords, so a
    # dropped or renamed keyword fails here rather than in a benchmark run
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "entroprod":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None) \
                    or importlib.import_module(f"{node.module}.{alias.name}")

    def resolve(func):
        if isinstance(func, ast.Name):
            return names.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = resolve(func.value)
            return None if owner is None else getattr(owner, func.attr)
        return None

    bound = 0
    for node in ast.walk(tree):
        target = resolve(node.func) if isinstance(node, ast.Call) else None
        if target is None or inspect.ismodule(target):
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        signature = inspect.signature(target)
        where = f"line {node.lineno}: {ast.unparse(node.func)}"
        if starred:                       # *args: the keywords alone must exist
            assert all(k in signature.parameters for k in keywords), where
        else:
            try:
                signature.bind(*node.args, **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"{where}: {exc}")
        bound += 1
    assert bound, "no package call found in the workloads"
