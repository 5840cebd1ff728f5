"""Guards on what the benchmark's tooling relies on in the package (read
from `bench/`, which is not edited here): every traced name resolves, the
episode verify suites take a number of eigendecompositions that does not
grow with their number of episodes, and the majorization suite one of
eigendecompositions and Renyi kernel calls that does not grow with its
number of pairs."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from entroprod import verify

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def test_majorization_suite_counts_do_not_grow_with_its_pairs(monkeypatch):
    # the pair blocks (curve against embedding, Renyi grid, oracle) are one
    # stack each; the quenches are held fixed
    from entroprod import core, resource
    petz_renyi, counts = core._petz_renyi, []
    for n in (10, 40):
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **k:
                                calls.append(_name) or _fn(*a, **k))
        for module in (core, resource):
            monkeypatch.setattr(module, "_petz_renyi", lambda *a, **k:
                                calls.append("_petz_renyi") or petz_renyi(*a, **k))
        records = verify.majorization_suite(n_pairs=n, n_renyi=n, n_quenches=5, n_oracle=n)
        monkeypatch.undo()
        assert all(passed for _, passed, _ in records), records
        counts.append({name: calls.count(name) for name in set(calls)})
    assert counts[0] == counts[1]
    # one per dimension of the Renyi pairs, one for work_bounds_rows and the
    # relative entropy of each quench's work statistics
    assert counts[0]["_petz_renyi"] == 4 + 1 + 5
