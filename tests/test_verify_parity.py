"""`tools/verify_parity.py`: a tree against itself differs in no bit of any record, and the
comparison flags a change of one ulp, and a record that only one side has."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("verify_parity", ROOT / "tools" / "verify_parity.py")
vp = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(vp)


def test_the_quench_suite_against_its_own_tree_reports_nothing(capsys):
    assert vp.main(["quench", "--against", str(ROOT)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("0 of 5 records differ")


def test_one_ulp_is_a_difference():
    one = (1.0).hex()
    ulp = math.nextafter(1.0, 2.0).hex()
    ours = {("quench", "a"): one, ("quench", "b"): (-0.0).hex(), ("quench", "c"): "inf"}
    assert vp.differences(ours, dict(ours)) == []
    (diff,) = vp.differences(ours, {**ours, ("quench", "a"): ulp})
    assert diff[:4] == ("quench", "a", one, ulp)
    assert diff[4] == math.ulp(1.0) / (1.0 + math.ulp(1.0))
    (signed,) = vp.differences(ours, {**ours, ("quench", "b"): (0.0).hex()})
    assert signed[4] == 0.0
    (gone,) = vp.differences(ours, {k: v for k, v in ours.items() if k[1] != "c"})
    assert gone == ("quench", "c", "inf", None, math.inf)
    assert vp.deviation("nan", "nan") == 0.0 and vp.deviation(one, "nan") == math.inf
