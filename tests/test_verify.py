"""A `verify.Record` is one comparison `value op bound`: its verdict and its
printed line come from those four fields alone, and a value that is NaN,
as the worst or least of no rows is, fails every comparison."""

import math

import pytest

from entroprod import verify

# the verdict of each op at a value of NaN, +inf, -inf and exactly the bound
VERDICTS = {
    "<": (False, False, True, False),
    "<=": (False, False, True, True),
    ">": (False, True, False, False),
    ">=": (False, True, False, True),
    "==": (False, False, False, True),
}


@pytest.mark.parametrize("op, verdicts", VERDICTS.items(), ids=VERDICTS.keys())
def test_a_record_passes_when_its_comparison_holds(op, verdicts):
    values = (math.nan, math.inf, -math.inf, 1e-10)
    assert tuple(verify.Record("r", v, op, 1e-10).passed for v in values) == verdicts


def test_a_record_prints_and_iterates_as_its_comparison():
    deviation = verify.Record("route", 2.84e-14, "<", 1e-10)
    count = verify.Record("pairs", 49, "==", 50)
    assert str(deviation) == "[PASS] route  (2.84e-14 < 1e-10)"
    assert str(count) == "[FAIL] pairs  (49 == 50)"
    assert tuple(deviation) == ("route", True, "2.84e-14 < 1e-10")
    assert str(verify.Record("none", math.nan, ">=", -1e-8)) == "[FAIL] none  (nan >= -1e-08)"


def test_worst_and_least_of_no_rows_are_nan():
    assert math.isnan(verify._worst([])) and math.isnan(verify._least([]))
    assert verify._worst([1.0, -3.0]) == 3.0 and verify._least([1.0, -3.0]) == -3.0


def test_landauer_records_over_no_erasure_fail():
    # the first three episodes of its seed all raise S_S, so no row erases;
    # the records that read the erasure rows passed over nothing
    erasure = ["landauer finite-d bound tighter", "landauer finite-d bound satisfied",
               "landauer heat-capacity bound dominates"]
    records = {r.name: r for r in verify.landauer_suite(n_episodes=3)}
    assert [math.isnan(records[name].value) for name in erasure] == [True] * 3
    assert [name for name, r in records.items() if not r.passed] == erasure
