"""Planted defects: each case breaks one step of one route of the
majorization suite and the record "majorization curve == embedding verdict"
must then fail, so the cross-check between the thermo-majorization curves
and the gamma-embedding is shown to see a fault in either route."""

import inspect
import textwrap

import numpy as np
import pytest

from entroprod import resource as rs, verify

RECORD = "majorization curve == embedding verdict"


def embedding_record():
    (record,) = [r for r in verify.majorization_suite() if r[0] == RECORD]
    return record


def mutant(fn, old, new):
    """fn recompiled in its module's namespace with the one occurrence of
    `old` in its source replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (fn.__name__, old)
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def negated_beta(monkeypatch):
    beta_order = rs._beta_order
    monkeypatch.setattr(rs, "_beta_order",
                        lambda e, p, beta: beta_order(e, p, -np.asarray(beta)))


def step_curves(monkeypatch):
    # each curve read as its value at the last breakpoint left of a point
    monkeypatch.setattr(rs, "_interp_rows",
                        mutant(rs._interp_rows, "slope * (points - xj) + yj", "yj"))


def reversed_weights(monkeypatch):
    rounding = rs._largest_remainder_rounding
    monkeypatch.setattr(rs, "_largest_remainder_rounding",
                        lambda weights, d: rounding(np.asarray(weights)[..., ::-1], d))


def ascending_runs(monkeypatch):
    monkeypatch.setattr(rs, "_run_verdicts",
                        mutant(rs._run_verdicts, "np.argsort(-v,", "np.argsort(v,"))


DEFECTS = {
    "curve: beta -> -beta in the beta-order": negated_beta,
    "curve: interpolation without the chord": step_curves,
    "embedding: rounding of reversed weights": reversed_weights,
    "embedding: runs in ascending order": ascending_runs,
}


def test_the_record_passes_without_a_defect():
    assert embedding_record() == (RECORD, True, "50/50")


@pytest.mark.parametrize("plant", DEFECTS.values(), ids=DEFECTS.keys())
def test_each_planted_defect_fails_the_record(monkeypatch, plant):
    plant(monkeypatch)
    _, passed, detail = embedding_record()
    assert not passed, detail
