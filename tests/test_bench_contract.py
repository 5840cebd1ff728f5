"""Guards on what the benchmark's tooling relies on in the package (read
from `bench/`, which is not edited here): every traced name resolves, the
episode verify suites take a number of eigendecompositions that does not
grow with their number of episodes, the majorization suite one of
eigendecompositions and Renyi kernel calls that does not grow with its
number of pairs or of quenches, a one-bath multibath balance reads the
decompositions its thermal balance made, the landauer suite reads the
levels of its thermality check, an episode's four backward ensembles
share the transitions of one final basis, and every call the workloads
make binds to the signature of what it calls."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("suite", [verify.ft_table_suite, verify.route_equality_suite,
                                   verify.landauer_suite])
def test_episode_suites_decompose_once_per_stack(monkeypatch, suite):
    counts = []
    for n_episodes in (10, 40):
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **k:
                                calls.append(_name) or _fn(*a, **k))
        records = suite(n_episodes=n_episodes)
        monkeypatch.undo()
        assert all(passed for _, passed, _ in records), records
        counts.append({name: calls.count(name) for name in set(calls)})
    assert counts[0] == counts[1]
    if suite is verify.landauer_suite:
        # the one eigvalsh is the thermality check's trace distance; the
        # heat-capacity bound reads the levels that check keeps
        assert counts[0] == {"eigh": 7, "eigvalsh": 1}, counts[0]


def count_decompositions(monkeypatch, call):
    """The eigh, eigvalsh and `_petz_renyi` calls that call() makes."""
    from entroprod import core, resource, trajectories
    petz_renyi, calls = core._petz_renyi, []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    for module in (m for m in (core, resource, trajectories) if hasattr(m, "_petz_renyi")):
        monkeypatch.setattr(module, "_petz_renyi", lambda *a, **k:
                            calls.append("_petz_renyi") or petz_renyi(*a, **k))
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return result, {name: calls.count(name) for name in set(calls)}


def majorization_counts(monkeypatch, sizes):
    """The decomposition counts of the majorization suite at each of `sizes`,
    every record passing."""
    counts = []
    for kwargs in sizes:
        records, count = count_decompositions(
            monkeypatch, lambda: verify.majorization_suite(**kwargs))
        assert all(passed for _, passed, _ in records), records
        counts.append(count)
    return counts


def test_majorization_suite_counts_do_not_grow_with_its_pairs(monkeypatch):
    # the pair blocks (curve against embedding, Renyi grid, oracle) are one
    # stack each; the quenches are held fixed
    counts = majorization_counts(monkeypatch, [
        {"n_pairs": n, "n_renyi": n, "n_oracle": n, "n_quenches": 5} for n in (10, 40)])
    assert counts[0] == counts[1]
    # one per dimension of the Renyi pairs, one for work_bounds_rows and one
    # for the lags of the quenches' work rows
    assert counts[0]["_petz_renyi"] == 4 + 1 + 1


def test_majorization_suite_counts_do_not_grow_with_its_quenches(monkeypatch):
    # the quenches are one stack (`trajectories.work_rows`): one eigh per
    # Hamiltonian kind, where the parent took four per quench
    counts = majorization_counts(monkeypatch, [{"n_quenches": n} for n in (10, 40)])
    assert counts[0] == counts[1]


def test_one_bath_multibath_takes_no_decomposition_after_thermal(monkeypatch):
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
        u[np.ix_(idx, idx)] = haar_unitaries(ginibre(rng, len(idx), len(idx)))
    ep = eps.Episode(HermitianOperator.from_matrix(h_s), HermitianOperator.from_matrix(h_e),
                     UnitaryOperator.from_matrix(u, (2, 3)), random_density(2, rng),
                     DensityOperator.from_matrix(_gibbs_states(h_e, beta)[0]))
    part = eps.BathPart((0,), HermitianOperator.from_matrix(h_e), beta)
    ev = eps.evolve(ep)
    eps.balance(ep, ev)
    thermal = eps.thermal_balance(ep, beta)
    multibath, count = count_decompositions(
        monkeypatch, lambda: eps.multibath_balance(ep, [part], evolved=ev))
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
