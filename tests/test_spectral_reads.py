"""Every Hermitian eigendecomposition of entroprod goes through its one
kernel, `core._eigh` / `core._eigvalsh`, which takes the closed form for a
long stack of 2 x 2 matrices and numpy's LAPACK for anything else.  So the
decomposition counts the tests pin (`count_spectral`) see every
decomposition, and a faster or more accurate solver lands in one place.

The check is static, over the source: a call is `np.linalg.eigh(...)` or
`np.linalg.eigvalsh(...)` (or through `numpy.linalg`, `linalg` or a bare
imported name), and it is ruled only inside the kernel itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "entroprod").glob("*.py"))
SOLVERS = {"eigh", "eigvalsh"}
# "module.function": the kernel, the one place that calls numpy's solver
KERNEL = {"core._eigh", "core._eigvalsh"}


def _direct_calls(tree, module):
    """"module.function:line" of each call of numpy's Hermitian solver in `tree`, by the
    innermost function that makes it ("module.<module>" at the top level)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (f"{module}.{child.name}"
                     if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                owner = fn.value if isinstance(fn, ast.Attribute) else None
                linalg = (owner is not None and getattr(owner, "attr", getattr(owner, "id", None))
                          == "linalg")
                if name in SOLVERS and (linalg or owner is None):
                    found.append(f"{where}:{child.lineno}")
            visit(child, inner)

    visit(tree, f"{module}.<module>")
    return found


def _package_calls():
    return [call for path in SOURCES
            for call in _direct_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def test_only_the_kernel_calls_numpys_hermitian_solver():
    assert [c for c in _package_calls() if c.split(":")[0] not in KERNEL] == []


def test_the_kernel_still_calls_it():
    assert {c.split(":")[0] for c in _package_calls()} == KERNEL


def test_the_check_sees_a_direct_call():
    source = ("import numpy as np\n"
              "from numpy.linalg import eigvalsh\n"
              "def f(m):\n"
              "    return np.linalg.eigh(m), eigvalsh(m), _eigh(m), np.linalg.eig(m)\n"
              "w = numpy.linalg.eigvalsh(x)\n")
    assert _direct_calls(ast.parse(source), "mod") == ["mod.f:4", "mod.f:4", "mod.<module>:5"]
