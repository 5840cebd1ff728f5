"""Every function of entroprod that reads the matrix, dims, dim or spectrum
of a parameter annotated with an operator type (`DensityOperator`,
`HermitianOperator`, `UnitaryOperator`) first reads that parameter by the
one rule, `core._typed`, so a bare matrix given there works as its typed
form instead of raising AttributeError.

The check is static, over the source: a read is `param.matrix`,
`param.dims`, `param.dim` or `param.eig()`, and it is ruled when the
function has rebound `param = _typed(...)` on an earlier line.  Private
helpers are checked too, since an entry point often hands its operand
straight to one (`collisional.run` to `_chain`).  A read the check cannot
follow, such as an operand rebound to what a helper returns after typing
it, goes on ALLOWED with the reason."""

import ast
import functools
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "entroprod").glob("*.py"))
OPERATOR_TYPES = {"DensityOperator", "HermitianOperator", "UnitaryOperator"}
READS = {"matrix", "dims", "dim", "eig"}
# "module.function(parameter)": why it may read the parameter unruled
ALLOWED = {
    "episodes.correlated_heat_flow(rho_ab)":
        "rebound to the state `_thermal_exchange` returns, read there by `_typed`",
}


def _functions():
    """(module name, function) of every function and method in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node


def _unruled_reads(fn):
    """"function(parameter)" for each operator-annotated parameter of `fn`
    read before it is rebound by `_typed`."""
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    typed = {a.arg for a in params if a.annotation is not None and OPERATOR_TYPES & {
        n.id for n in ast.walk(a.annotation) if isinstance(n, ast.Name)}}
    ruled = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                and getattr(node.value.func, "id", None) == "_typed":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    ruled[target.id] = min(ruled.get(target.id, node.lineno), node.lineno)
    return sorted({f"{fn.name}({node.value.id})" for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute) and node.attr in READS
                   and isinstance(node.value, ast.Name) and node.value.id in typed
                   and node.lineno <= ruled.get(node.value.id, math.inf)})


@functools.cache
def _package_reads():
    return {f"{module}.{read}" for module, fn in _functions() for read in _unruled_reads(fn)}


def test_every_operator_parameter_is_read_through_the_rule():
    assert sorted(_package_reads() - set(ALLOWED)) == []


def test_every_allowed_read_is_still_there():
    assert sorted(set(ALLOWED) - _package_reads()) == []


def test_the_check_sees_an_unruled_read():
    source = ("def f(rho: DensityOperator | None, h: HermitianOperator, u):\n"
              "    h = _typed(HermitianOperator, h)\n"
              "    return rho.matrix, h.dims, u.dim\n")
    assert _unruled_reads(ast.parse(source).body[0]) == ["f(rho)"]
