"""Every reader of a stack of states takes the package's one multi-state form,
`core.DensityRows`, as it is: the states of `collisional.run` or
`lindblad.integrate` give each reader the same bits as the list of their rows.

The guard below keeps it so.  It is static, over the source: a function that
passes one of its parameters (a name in the first argument) to
`core._density_stack` or `core._frozen_stack`, the two stack readers, is
named in READERS, where the row form is fed to it, or on ALLOWED with the
reason it needs no such test."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from entroprod import collisional as cm
from entroprod import core
from entroprod import episodes as eps
from entroprod import lindblad as lb
from entroprod import resource as rs
from entroprod import trajectories as tj
from entroprod.core import SIGMA_MINUS, DensityOperator, HermitianOperator, thermal_state
from entroprod.rand import random_density, random_hermitian, random_unitary

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "entroprod").glob("*.py"))
STACK_READERS = {"_density_stack", "_frozen_stack"}
TIMES = np.linspace(0.0, 1.5, 7)
RNG = np.random.default_rng(46)
H_QUBIT = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
H_ROWS = np.array([random_hermitian(2, RNG).matrix for _ in TIMES])
U_ROWS = np.array([random_unitary(4, RNG).matrix for _ in TIMES])
BASIS = random_unitary(2, RNG).matrix


@functools.cache
def stroke_states(dims=(2,), seed=0) -> core.DensityRows:
    """rho_0 .. rho_6 of a stroke chain on a system of the factor dims `dims` (qubit ancillas),
    as `collisional.run` returns them: one state per entry of TIMES."""
    rng = np.random.default_rng(460 + seed)
    d = math.prod(dims)
    stroke = cm.AncillaStroke(thermal_state(H_QUBIT, 1.0), H_QUBIT,
                              random_unitary(2 * d, rng, dims=dims + (2,)), beta=1.0)
    spec = cm.CollisionSpec((stroke,), (random_hermitian(d, rng, dims=dims),))
    return cm.run(spec, random_density(d, rng, dims=dims), len(TIMES) - 1)[0]


H_JOINT = random_hermitian(4, RNG, dims=(2, 2))
JOINT = (2, 2)
# "module.function": the reader called with every stack of states in the form `form` gives
READERS = {
    "episodes.blp_witness": lambda form: eps.blp_witness(
        TIMES, form(stroke_states()), form(stroke_states(seed=1))),
    "episodes.correlation_witness_terms": lambda form: eps.correlation_witness_terms(
        TIMES, form(stroke_states(JOINT)), form(stroke_states(JOINT, 1)), H_JOINT, JOINT),
    "episodes.EpisodeStack.of": lambda form: eps.EpisodeStack.of(
        H_ROWS, H_ROWS, U_ROWS, form(stroke_states()), form(stroke_states(seed=1))),
    "episodes.fixed_point_sigma_rows": lambda form: eps.fixed_point_sigma_rows(
        form(stroke_states()), form(stroke_states(seed=1)), thermal_state(H_QUBIT, 1.0)),
    "resource.work_bounds_rows": lambda form: rs.work_bounds_rows(
        H_ROWS, 1.0, form(stroke_states()), 0.3, 0.1, [0.25, 0.5]),
    "core.DensityOperator.from_stack": lambda form: DensityOperator.from_stack(
        form(stroke_states(JOINT))),
    "core.dephase": lambda form: core.dephase(form(stroke_states()), H_QUBIT),
    "trajectories.populations": lambda form: tj.populations(form(stroke_states()), BASIS),
}
# "module.function": why it passes a parameter to a stack reader with no row in READERS
ALLOWED = {
    "core._density_stack": "the reader itself, which reads bare states by `_frozen_stack`",
    "core._frozen_matrix": "one matrix, not a stack: the operator types' reader",
    "core._reader.read": "Hamiltonians and unitaries, checked by their type",
    "episodes._marginal": "its stack is a partial trace of a `DensityRows`' matrices",
    "episodes._spectra": "reads the states of `fixed_point_sigma_rows`, one or a stack",
    "episodes._state_lists": "reads the stacks of `blp_witness` and `correlation_witness_terms`",
    "episodes.conditional_balance": "Kraus operators on E, not states",
}


def _arrays(result) -> list:
    """The arrays a reader's result carries, in a fixed order, and its factor dims."""
    if isinstance(result, core.DensityRows):
        return [result.matrices, *result.eig(), result.dims]
    if isinstance(result, eps.EpisodeStack):
        return ([result.dims] + _arrays(result.balance)
                + [x for rows in result.evolved for x in _arrays(rows)])
    if isinstance(result, dict):
        return [np.asarray(v) for v in result.values()]
    if hasattr(result, "__dataclass_fields__"):
        return [v if v is None else np.asarray(v) for v in vars(result).values()]
    return [np.asarray(result)]


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
    return a == b


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_stack_reader_takes_the_row_form_as_its_rows(reader):
    rows, listed = (_arrays(READERS[reader](form)) for form in (lambda r: r, list))
    assert len(rows) == len(listed)
    assert all(_same_bits(a, b) for a, b in zip(rows, listed))


def test_an_integration_is_one_row_form_from_its_start():
    # `integrate` returns its states as one `DensityRows` of rho0's dims, row 0 rho0 by the
    # spectrum it keeps, and a reader takes it as the list of its rows
    rng = np.random.default_rng(463)
    model = lb.LindbladModel(H_JOINT.matrix, ((np.kron(SIGMA_MINUS, np.eye(2)), 0.4),))
    starts = [random_density(4, rng, dims=JOINT) for _ in range(2)]
    runs = [lb.integrate(model, rho0, TIMES).states for rho0 in starts]
    for rows, rho0 in zip(runs, starts):
        assert isinstance(rows, core.DensityRows) and len(rows) == len(TIMES)
        assert rows.dims == rho0.dims
        for kept, own in zip((rows.matrices[0],) + tuple(x[0] for x in rows.eig()),
                             (rho0.matrix,) + rho0.eig()):
            assert np.array_equal(kept, own)
    witness = (eps.correlation_witness_terms(TIMES, *map(form, runs), H_JOINT, JOINT)
               for form in (lambda r: r, list))
    assert all(_same_bits(a, b) for a, b in zip(*map(_arrays, witness)))


def _functions(tree, prefix):
    """("prefix.Class.function", function) of every function and method in `tree`, nested
    ones named through their enclosing functions and classes."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.FunctionDef):
            yield f"{prefix}.{child.name}", child
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _functions(child, f"{prefix}.{child.name}")


def _passes_a_parameter(fn) -> bool:
    """Whether `fn` calls a stack reader with one of its parameters (not self or cls) in
    the first argument."""
    args = fn.args
    params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self", "cls"}
    return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) in STACK_READERS
               and node.args and any(isinstance(name, ast.Name) and name.id in params
                                     for name in ast.walk(node.args[0]))
               for node in ast.walk(fn))


@functools.cache
def _package_functions() -> dict:
    return {name: fn for path in SOURCES
            for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)}


def _package_readers():
    return {name for name, fn in _package_functions().items() if _passes_a_parameter(fn)}


def test_every_stack_reader_is_tested_or_allowed():
    assert sorted(_package_readers() - set(READERS) - set(ALLOWED)) == []


def test_every_listed_reader_is_still_there():
    # a tested reader may read through a private one (`episodes._state_lists`)
    assert sorted(set(READERS) - set(_package_functions())) == []
    assert sorted(set(ALLOWED) - _package_readers()) == []


def test_the_check_sees_an_ad_hoc_reader():
    source = ("class Kind:\n"
              "    def read(self, states, h):\n"
              "        return _density_stack(self.kept), _frozen_stack([states, h])\n"
              "def count(states):\n"
              "    local = list(states)\n"
              "    return len(_density_stack(local))\n"
              "def ad_hoc(first, second):\n"
              "    return _frozen_stack(np.stack([first.matrix, second]), ValueError)\n")
    found = {name for name, fn in _functions(ast.parse(source), "m") if _passes_a_parameter(fn)}
    assert found == {"m.Kind.read", "m.ad_hoc"}
