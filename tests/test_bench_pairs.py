"""The pair rule and the no-regression verdict of `tools/bench_pairs.py`, on
synthetic runs: the claim needs the change lower in nine tenths of the pairs
(ties count for neither) and a median gap above the parent's interquartile
distance (numpy.percentile, linear)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bp = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bp)

PARENT = [8.0, 8.2, 8.1, 8.4, 7.9, 8.3, 8.0, 8.6, 8.1, 8.2]


def test_a_clear_gain_meets_the_rule():
    change = [x - 1.0 for x in PARENT]
    rule = bp.pair_rule(PARENT, change)
    lo, hi = np.percentile(PARENT, [25, 75])
    assert rule["pairs"] == 10 and rule["change_lower_in_pairs"] == 10
    assert rule["parent_iqr"] == round(hi - lo, 6) and rule["median_gap"] == 1.0
    assert rule["parent_median"] == 8.15 and rule["relative_change"] == round(7.15 / 8.15 - 1, 4)
    assert rule["wins_nine_tenths"] and rule["gap_above_parent_iqr"] and rule["met"]


@pytest.mark.parametrize("lost, tied, met", [(1, 0, True), (2, 0, False), (0, 2, False),
                                             (0, 1, True)])
def test_nine_tenths_of_the_pairs_ties_counting_for_neither(lost, tied, met):
    change = [x - 1.0 for x in PARENT]
    for k in range(lost):
        change[k] = PARENT[k] + 0.5
    for k in range(lost, lost + tied):
        change[k] = PARENT[k]
    rule = bp.pair_rule(PARENT, change)
    assert rule["change_lower_in_pairs"] == 10 - lost - tied
    assert rule["wins_nine_tenths"] is met and rule["met"] is met


def test_a_gap_inside_the_parent_spread_is_not_met():
    parent = [8.0, 9.0] * 5
    change = [x - 0.4 for x in parent]          # lower in every pair, by less than the IQR
    rule = bp.pair_rule(parent, change)
    assert rule["wins_nine_tenths"] and rule["parent_iqr"] == 1.0
    assert not rule["gap_above_parent_iqr"] and not rule["met"]


def test_the_rule_needs_one_change_run_per_parent_run():
    with pytest.raises(ValueError, match="one change run per parent run"):
        bp.pair_rule(PARENT, PARENT[:-1])


@pytest.mark.parametrize("change, bound, verdict", [
    ([x * 1.2 for x in PARENT], 0.25, "no regression"),
    ([x * 1.3 for x in PARENT], 0.25, "regression"),
    ([x * 1.01 for x in PARENT], 0.001, "regression"),
    ([x * 1.0005 for x in PARENT], 0.001, "unresolved"),     # the parent spreads wider than 0.1 %
    ([7.0] * 10, 0.001, "no regression"),                  # every change run below every parent run
])
def test_the_no_regression_verdict(change, bound, verdict):
    assert bp.regression_verdict(PARENT, change, bound) == verdict
    summary = bp.metric_summary(PARENT, change, "ms", bound)
    assert summary["verdict"] == verdict and summary["bound"] == bound
    assert summary["change_lower_in_pairs"] + summary["change_higher_in_pairs"] <= 10
