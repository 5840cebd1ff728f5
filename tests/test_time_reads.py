"""Every function of entroprod with a `times` or `trajectory` parameter reads
it by the one time rule, `core._times` (a trajectory's entries by
`core._trajectory`, which hands their times to `_times`), so no route
differentiates over NaN, repeated, decreasing, string or boolean times.

The check is static, over the source: a read is any use of the parameter's
name, and it is ruled when it sits inside the arguments of a call of a
reader, or after the function has rebound the parameter to what a reader
returns on an earlier line.  A read the check cannot follow goes on ALLOWED
with the reason."""

import ast
import functools
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "entroprod").glob("*.py"))
PARAMETERS = {"times", "trajectory"}
READERS = {"_times", "_trajectory"}
# "module.function(parameter)": why it may read the parameter unruled
ALLOWED = {
    "core._times(times)": "the rule itself",
    "core._trajectory(trajectory)": "splits the entries and hands their times to `_times`",
}


def _functions():
    """(module name, function) of every function and method in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node


def _is_reader(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) in READERS


def _unruled_reads(fn):
    """"function(parameter)" for each time parameter of `fn` used outside a reader's
    arguments before the function rebinds it to what a reader returns."""
    params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs} & PARAMETERS
    ruled, inside = {}, set()
    for node in ast.walk(fn):
        if _is_reader(node):
            inside.update(map(id, ast.walk(node)))
        if isinstance(node, ast.Assign) and _is_reader(node.value):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        ruled[name.id] = min(ruled.get(name.id, node.lineno), node.lineno)
    return sorted({f"{fn.name}({node.id})" for node in ast.walk(fn)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id in params and id(node) not in inside
                   and node.lineno <= ruled.get(node.id, math.inf)})


@functools.cache
def _package_reads():
    return {f"{module}.{read}" for module, fn in _functions() for read in _unruled_reads(fn)}


def test_every_time_parameter_is_read_through_the_rule():
    assert sorted(_package_reads() - set(ALLOWED)) == []


def test_every_allowed_read_is_still_there():
    assert sorted(set(ALLOWED) - _package_reads()) == []


def test_the_check_sees_an_ad_hoc_read():
    source = ("def f(times, trajectory, states):\n"
              "    n = len(times)\n"
              "    times = _times(times, ValueError)\n"
              "    ts, rhos = _trajectory(trajectory, ('t', 'rho'), ValueError)\n"
              "    return n, times, np.array([t for t, _ in trajectory], dtype=float), states\n")
    assert _unruled_reads(ast.parse(source).body[0]) == ["f(times)", "f(trajectory)"]
