"""Finite-dimensional operator algebra and the entropy/divergence toolbox.

Conventions used throughout the package: hbar = k_B = 1 and every entropy
is measured in nats (natural logarithm).  Operators live on a tensor
product of finite-dimensional factors and carry their factor dimensions,
so partial traces, bipartite splits and dephasings are unambiguous.

All values are immutable, including the spectrum a `DensityOperator`
keeps from its validation, which every entropy, divergence and eigenbasis
of the state reads (`_typed`, which validates a bare matrix as a state).
Functions never mutate their arguments, except the superoperator builders
`add_sided_term` and `add_lindblad_term`, which work in place on the array
they are given; the real form of a Lindblad generator in the Hermitian
basis of `hermitian_coords` is built apart, straight from its model
(`lindblad.real_generator`).  A bare Hamiltonian is read by
`_hermitian`, the `HermitianOperator` check with the caller's error, a
bare unitary by `_unitary`, the `UnitaryOperator` check with it, and any
other operator by `_frozen_matrix` (square and finite).  An entry point
that needs a state, Hamiltonian or unitary as its type reads it by the one
rule `_typed`: a bare matrix that passes the type's check becomes that
type, of one factor or of the factor dims the caller infers from its other
operands.  These readers take the size the caller expects (`_states`: the
size of the first state), which the one size rule `_check_size` enforces
on bare and typed operands.  scipy is imported only by the generator
kernels that need it (`propagate`, `bordered_solve`,
`gaussian._lyapunov_solve`), not by `import entroprod`.

Every entropy and divergence uses one support rule.  A spectrum read from
an eigensolver (`_spectral_weights`, called by the state validation) has
its eigenvalues <= SPECTRAL_NOISE * d, round-off, set to exactly 0, once;
one known exactly (Gibbs, squeezed thermal and maximally mixed states,
`_exact_spectra`, and an episode's joint state, the products of its
factors' weights, `episodes.EpisodeStack.evolved`) is kept uncut, save that
Petz-Renyi orders above 1 cut an exact weight that rho meets only within
SUPPORT_OVERLAP_TOL; a stack of such states keeps their spectra (`_density_stack`).
Downstream a level is in the support iff its weight is > 0, and rho leaves
sigma's support iff its mass on sigma's zero levels exceeds
SUPPORT_OVERLAP_TOL.  Probability vectors, validated by
`_check_probabilities` with the caller's error, follow the same downstream
rule: the classical divergences are the diagonal case of the one
Petz-Renyi kernel (`_petz_renyi`), the one place eigenvector overlaps are formed.

Equal values have one rule too, `_equal_runs`: in sorted values a new run
starts where the gap to the previous value exceeds the tolerance, and an
infinity joins only an equal infinity.  Degenerate eigenspaces and every
merged support (`trajectories.ScalarDistribution.from_samples`) are runs.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# Validation tolerances for constructed operators.
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
UNITARITY_TOL = 1e-9
# Negative eigenvalues with magnitude <= EIG_FLOOR are numerical PSD noise
# and are clamped to zero before any logarithm; anything more negative is
# rejected (matches the constructor tolerance so validated states never
# fail downstream).
EIG_FLOOR = 1e-9
# The support rule (module docstring): eigensolver round-off per dimension,
# and the mass off sigma's support that still counts as inside it.
SPECTRAL_NOISE = 8 * np.finfo(float).eps
SUPPORT_OVERLAP_TOL = 1e-8
# A bordered generator with a reciprocal condition estimate below this is singular.
NULL_RCOND_TOL = 1e-8
# Eigenvalues within this, times max(1, ||H||), share one eigenspace.
DEGENERACY_TOL = 1e-9


class CoreError(ValueError):
    """Raised when an operator violates its declared invariants."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HilbertDims:
    """Ordered factor dimensions of a tensor-product Hilbert space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_integer(f, CoreError, "factor dimension", low=1) for f in self.factors)
        if len(factors) == 0:
            raise CoreError("HilbertDims needs at least one factor")
        object.__setattr__(self, "factors", factors)

    @property
    def total(self) -> int:
        return math.prod(self.factors)

    def __len__(self):
        return len(self.factors)

    def subdims(self, indices) -> "HilbertDims":
        return HilbertDims(tuple(self.factors[i] for i in sorted(indices)))

    def concat(self, other: "HilbertDims") -> "HilbertDims":
        return HilbertDims(self.factors + other.factors)


def _as_dims(dims, size, error=CoreError) -> HilbertDims:
    if dims is None:
        return HilbertDims((size,))
    if isinstance(dims, HilbertDims):
        d = dims
    else:
        d = HilbertDims(tuple(dims))
    if d.total != size:
        raise error(f"dims {d.factors} do not match matrix size {size}")
    return d


def _check_size(n, dim, error):
    """The one size rule: `error` naming both sizes when an n x n matrix is
    not the dim x dim one its caller expects (dim None: any size)."""
    if dim is not None and n != dim:
        raise error(f"matrix is {n}x{n}, expected {dim}x{dim}")


def _frozen_stack(matrices, error=CoreError, dim=None) -> np.ndarray:
    """Read-only complex copy of one square matrix or stack (..., d, d) of numbers (`_numbers`),
    or operators, of size `dim` when given (`_check_size`), else `error`; a ragged list is
    named by its first entry not of the shape of entry 0 (or of dim x dim), as a row when
    entry 0 is a row of numbers (the list is one matrix).  The matrices of an operator or a
    `DensityRows`, frozen when made, are returned as they are; a list is made an array once."""
    if isinstance(matrices, (_Operator, DensityRows)):
        m = matrices.matrix if isinstance(matrices, _Operator) else matrices.matrices
        _check_size(m.shape[-1], dim, error)
        return m
    if isinstance(matrices, (list, tuple)):
        matrices = [x.matrix if isinstance(x, _Operator) else x for x in matrices]
    try:
        m = _numbers(matrices, error, "matrix entries").astype(complex,
                                                               copy=type(matrices) is not list)
    except error:
        shapes = [np.asarray(x, object).shape for x in matrices] if type(matrices) is list else []
        rows = len(shapes) > 0 and len(shapes[0]) == 1 and all(map(np.isscalar, matrices[0]))
        want = shapes[:1] if dim is None else [(dim,) if rows else (dim, dim)]
        k = next((k for k, s in enumerate(shapes) if [s] != want), None)
        if k is None:
            raise
        where = "row {} of the matrix" if rows else "matrix {} of the stack"
        raise error(where.format(k) + f": shape {shapes[k]}, expected {want[0]}") from None
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise error(f"expected a square matrix, got shape {m.shape}")
    _check_size(m.shape[-1], dim, error)
    # Every later check has the form `err > tol`, which is False for NaN.
    if not np.isfinite(m).all():
        raise error("matrix has NaN or infinite entries")
    return _read_only(m)[0]


def _frozen_matrix(matrix, error=CoreError, dim=None) -> np.ndarray:
    m = _frozen_stack(matrix, error, dim)
    if m.ndim != 2:
        raise error(f"expected a square matrix, got shape {m.shape}")
    return m


def _instance(cls, fields):
    """An instance of the frozen dataclass `cls` with its `fields` (a dict or (name, value) pairs)
    set in one call, neither `__init__` nor `__post_init__` run: for values already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _eigh(m):
    """The package's one Hermitian eigendecomposition: the eigenvalues (ascending) and the
    eigenvectors (columns) of a matrix or a stack (..., d, d), its lower triangle read.  A stack
    of at least _CLOSED_FORM_ROWS 2 x 2 matrices is decomposed in closed form (`_eigh2`), any
    other input by numpy's LAPACK `eigh`."""
    m = np.asarray(m)
    return _eigh2(m) if _closed_form(m) else np.linalg.eigh(m)


def _eigvalsh(m):
    """The eigenvalues of `_eigh`, ascending, by the same rule."""
    m = np.asarray(m)
    return _eigh2(m, vectors=False) if _closed_form(m) else np.linalg.eigvalsh(m)


# The row count from which a stack of 2 x 2 matrices is decomposed in closed form.  On
# complex (n, 2, 2) stacks (numpy 2.4, OpenBLAS 0.3.31, one thread, a 2-core x86-64 host,
# best of 15 x 100 calls) LAPACK `eigh` took 12 us + 1.1-1.7 us per matrix and the closed form
# 32-50 us up to 60 rows; the two crossed between 20 and 30 rows (15 for eigenvalues alone).
_CLOSED_FORM_ROWS = 30


def _closed_form(m) -> bool:
    return m.ndim > 2 and m.shape[-1] == 2 and m.size >= 4 * _CLOSED_FORM_ROWS


def _eigh2(m, vectors=True):
    """`_eigh` of a stack (..., 2, 2) in closed form.  Each matrix [[a, b*], [b, d]] (b its
    lower entry, a and d real parts) has the levels min(a, d) - t and max(a, d) + t, with
    t = |b|^2 / (r + |h|), h = (a - d)/2 and r = hypot(h, |b|), free of cancellation; its
    eigenvectors are the Jacobi rotation by the half angle theta = atan2(|b|, |h|)/2 and the
    phase b/|b|, written in the columns that make a diagonal matrix keep its exact levels and
    unit vectors (e_1, e_0 for a > d; e_0, e_1 otherwise)."""
    a, d, b = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
    size, h = np.abs(b), np.abs(a - d) / 2.0
    on = size > 0
    t = size * np.divide(size, np.hypot(h, size) + h, out=np.zeros_like(size), where=on)
    vals = np.stack((np.minimum(a, d) - t, np.maximum(a, d) + t), -1)
    if not vectors:
        return vals
    half = np.arctan2(size, h) / 2.0
    phase = np.divide(b, size, out=np.ones_like(b), where=on)
    c, u = np.cos(half), phase.conj() * np.sin(half)      # u: the rotation's upper off-diagonal
    w, flip = u.conj(), a <= d
    vecs = np.stack((np.where(flip, c, -u), np.where(flip, u, c),
                     np.where(flip, -w, c), np.where(flip, c, w)), -1)
    return vals, vecs.reshape(m.shape)


def _density_spectra(m, error=CoreError):
    """The density-matrix validation, of one matrix or of a stack
    (..., d, d) by one stacked `_eigh` (closed form for a long stack of qubit
    states, LAPACK otherwise): Hermitian within HERMITICITY_TOL,
    unit trace within TRACE_TOL and no eigenvalue below -EIG_FLOOR, else `error`.
    Returns the eigenvalues (ascending, round-off zeroed by
    `_spectral_weights`) and eigenvectors as columns, both read-only."""
    herm_err = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(m, axis1=-2, axis2=-1)
    evals, evecs = _eigh(m)
    low = evals[..., 0]
    bad = herm_err > HERMITICITY_TOL, abs(tr - 1.0) > TRACE_TOL, low < -EIG_FLOOR
    # one test for the three flags (each _fail_first is its own reduction);
    # eigh of a finite matrix does not fail, so the first failed check raises
    if (bad[0] | bad[1] | bad[2]).any():
        _fail_first(bad[0], herm_err, "density matrix not Hermitian (residual {:.3e})", error)
        _fail_first(bad[1], tr, "density matrix trace {} differs from 1", error)
        _fail_first(bad[2], low, "density matrix has negative eigenvalue {:.3e}", error)
    return _read_only(_spectral_weights(evals), evecs)


def _exact_spectra(matrix, weights, vecs):
    """(matrices, weights, eigenvectors), read-only, of one state or a stack (..., d, d) made from
    its spectrum: `matrix` V diag(w) V^dag (made here when None), the weights kept uncut, passing
    `_check_probabilities` with CoreError, sorted ascending with their vectors (`_ascending`)."""
    w, v = _check_probabilities(weights, CoreError), np.asarray(vecs, dtype=complex)
    m = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) if matrix is None else matrix
    w, v = _ascending(w.reshape(-1, w.shape[-1]), v.reshape(-1, *v.shape[-2:]))
    return _read_only(m, w.reshape(m.shape[:-1]), v.reshape(m.shape))


def _ascending(weights, vecs):
    """Weights (n, d), each row sorted ascending (a stable sort), and their eigenvector
    columns (n, d, d), both read-only: the order of every spectrum made from known
    weights (`_exact_spectra`, `episodes.EpisodeStack.evolved`)."""
    order, rows = np.argsort(weights, kind="stable"), np.arange(len(weights))[:, None]
    return _read_only(weights[rows, order],
                      vecs[rows[..., None], np.arange(order.shape[-1])[:, None], order[:, None, :]])


def _density_stack(states, error=CoreError, dim=None, dims=None) -> DensityRows:
    """The one reader of a stack of states, a `DensityRows` of the factor dims of `_stack_dims`.
    A `DensityRows`, or `DensityOperator`s of one size (`dim` when given), by the spectra they
    keep (one state by views), neither decomposed nor checked again; anything else by
    `_frozen_stack` and `_density_spectra` (one stacked `eigh`), both with `error`."""
    if isinstance(states, DensityRows):
        arrays = (_frozen_stack(states, error, dim),) + states.eig()
    elif isinstance(states, (list, tuple)) and states and all(
            isinstance(s, DensityOperator) and s.dim == (dim or states[0].dim) for s in states):
        kept = [(s.matrix,) + s.eig() for s in states]
        arrays = (tuple(x[None] for x in kept[0]) if len(kept) == 1
                  else _read_only(*map(np.array, zip(*kept))))
    else:
        ms = _frozen_stack(states, error, dim)
        if ms.ndim != 3:
            raise error(f"expected (n, d, d) stacks of states, got shape {ms.shape}")
        arrays = (ms,) + _density_spectra(ms, error)
    return DensityRows(*arrays, _stack_dims(states, arrays[0].shape[-1], error, dims))


def _stack_dims(states, size, error=CoreError, dims=None) -> HilbertDims:
    """A stack's factor dims (one rule): those its operators or rows and `dims` share, else 1."""
    ops = states if isinstance(states, (list, tuple)) else [states]
    every = list(dict.fromkeys(([] if dims is None else [_as_dims(dims, size, error)])
                               + [s.dims for s in ops if isinstance(s, (_Operator, DensityRows))]))
    if len(every) > 1:
        raise error(f"factor dims {every[0].factors} and {every[1].factors} in one stack")
    return every[0] if every else HilbertDims((size,))


def _prepended(rho0, rows) -> DensityRows:
    """rho0, by the spectrum it keeps, as row 0 before the `DensityRows` rows, of rho0's dims."""
    pairs = zip((rho0.matrix,) + rho0.eig(), (rows.matrices,) + rows.eig())
    return DensityRows(*_read_only(*(np.concatenate((a[None], b)) for a, b in pairs)), rho0.dims)


def _fail_first(bad, values, message, error=CoreError):
    """The exception class `error` for the first matrix flagged in `bad`,
    its value formatted into `message`; in a stack it is named by its index."""
    if bad.any() if bad.ndim else bad:
        k = int(np.flatnonzero(bad)[0])
        where = f"matrix {k} of the stack: " if bad.ndim else ""
        raise error(where + message.format(values.flat[k]))


def _check_hermitian(m, error=CoreError):
    """The `HermitianOperator` check of one matrix or of a stack (..., d, d):
    residual within HERMITICITY_TOL * max(1, max |m_ij|), else `error`."""
    herm_err = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    _fail_first(herm_err > HERMITICITY_TOL * scale, herm_err,
                "matrix is not Hermitian (residual {:.3e})", error)


def _check_unitary(m, error=CoreError):
    """The `UnitaryOperator` check of one matrix or of a stack (..., d, d):
    max |U^dag U - 1| within UNITARITY_TOL, else `error`."""
    err = np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))
    _fail_first(err > UNITARITY_TOL, err, "matrix is not unitary (residual {:.3e})", error)


class _Operator:
    """What the operator types share: construction (the matrix frozen, its dims read at
    its size, the type's `_check` passed), the dimension and the JSON matrix schema."""

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _as_dims(self.dims, m.shape[0]))
        self._check(m)

    @classmethod
    def from_matrix(cls, matrix, dims=None):
        return cls(matrix, dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> dict:
        return matrix_to_json(self.matrix, self.dims)

    @classmethod
    def from_json(cls, obj):
        return cls(*matrix_from_json(obj))


@dataclass(frozen=True, eq=False)
class HermitianOperator(_Operator):
    """A Hermitian matrix (Hamiltonian, observable) with factor dims."""

    matrix: np.ndarray
    dims: HilbertDims
    _check = staticmethod(_check_hermitian)


@dataclass(frozen=True, eq=False)
class DensityOperator(_Operator):
    """Positive unit-trace Hermitian matrix: the universal state type.

    Validation (`_density_spectra`) takes one `eigh` of the matrix; its
    eigenvalues (round-off zeroed) and eigenvectors are kept read-only (not in the repr).
    `from_stack` validates a whole stack of states by one stacked `eigh` through the same
    checks, as one `DensityRows` whose rows keep their slices of it.  A state made from its
    known spectrum (`_exact_spectra`) is never decomposed, nor when it enters a stack
    (`_density_stack`).  Equality is identity: states hold arrays.
    """

    matrix: np.ndarray
    dims: HilbertDims
    _eig: tuple = field(init=False, repr=False)

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _as_dims(self.dims, m.shape[0]))
        object.__setattr__(self, "_eig", _density_spectra(m))

    @classmethod
    def from_stack(cls, matrices, dims=None) -> DensityRows:
        """The states of an (n, d, d) stack as one `DensityRows` (`_density_stack`): bare matrices
        by one stacked `_eigh` (each row as validated alone, or within round-off of it in the
        closed form), of the factor dims `dims`, which states' own dims must match."""
        return _density_stack(matrices, CoreError, None, dims)

    @classmethod
    def _validated(cls, spectra, dims=None):
        """A state from one read-only (matrix, weights, eigenvectors) made by
        `_density_stack` or `_exact_spectra`, keeping that spectrum; dims None: one factor."""
        m, w, v = spectra
        dims = HilbertDims((len(w),)) if dims is None else dims
        return _instance(cls, {"matrix": m, "dims": dims, "_eig": (w, v)})

    @classmethod
    def pure(cls, vector, dims=None):
        v = _numbers(vector, CoreError, "a pure state's vector").astype(complex).ravel()
        # scaled by its largest |v_i| first, so the norm neither overflows nor underflows
        scale = np.abs(v).max(initial=0.0) if np.isfinite(v).all() else 0.0
        if not 0.0 < scale < np.inf:
            raise CoreError(f"a pure state needs a finite nonzero vector, got {vector}")
        v = v / scale
        v = v / np.linalg.norm(v)
        return cls.from_matrix(np.outer(v, v.conj()), dims)

    @classmethod
    def maximally_mixed(cls, dims):
        d = dims if isinstance(dims, HilbertDims) else HilbertDims(tuple(np.atleast_1d(dims)))
        n = d.total
        return cls._validated(_exact_spectra(None, np.full(n, 1.0 / n), np.eye(n)), d)

    def eig(self):
        """Eigenvalues (ascending, round-off zeroed) and eigenvectors as
        columns, from the validating decomposition; both arrays are
        read-only."""
        return self._eig


class _RowForm(Sequence):
    """A row form read as a sequence: `len`, and indexing (by an integer, as a list is) and
    iteration that make each row its object (`_row`) when it is read; a slice is a list of them."""

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._row(i) for i in range(*k.indices(len(self)))]
        return self._row(operator.index(k))

    def __iter__(self):
        return map(self._row, range(len(self)))


@dataclass(frozen=True, eq=False)
class DensityRows(_RowForm):
    """States as one validated, read-only (matrices, weights, eigenvectors) stack, all of the
    factor dims `dims`: the package's one form of several states, taken by every stack reader.
    A row form whose rows are `DensityOperator`s (`_validated`, views keeping their spectra)."""

    matrices: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray
    dims: HilbertDims

    def __len__(self):
        return len(self.matrices)

    def _row(self, k) -> DensityOperator:
        return DensityOperator._validated((self.matrices[k], self.weights[k], self.vectors[k]),
                                          self.dims)

    def eig(self):
        return self.weights, self.vectors

    def _take(self, rows) -> DensityRows:
        return DensityRows(self.matrices[rows], self.weights[rows], self.vectors[rows], self.dims)


@dataclass(frozen=True, eq=False)
class UnitaryOperator(_Operator):
    """A unitary matrix with factor dims; U^dag U = 1 within tolerance."""

    matrix: np.ndarray
    dims: HilbertDims
    _check = staticmethod(_check_unitary)


def _reader(kind):
    """The reader of the operator type `kind`: the matrix of a `kind`, or a
    read-only copy of a bare matrix or stack (..., d, d) that passes
    `kind._check`; either of size `dim` when given (`_check_size`), else `error`."""

    def read(op, error=CoreError, dim=None) -> np.ndarray:
        m = _frozen_stack(op, error, dim)
        if not isinstance(op, kind):
            kind._check(m, error)
        return m
    return read


_hermitian, _unitary = _reader(HermitianOperator), _reader(UnitaryOperator)


_OPERATOR_TYPES = {k.__name__: k for k in (HermitianOperator, DensityOperator, UnitaryOperator)}


def _operator_fields(obj, error):
    """`error` naming the first field of the dataclass `obj` annotated with
    an operator type (`_OPERATOR_TYPES`) whose value is not of that type."""
    for f in obj.__dataclass_fields__.values():
        kind, value = _OPERATOR_TYPES.get(f.type), getattr(obj, f.name)
        if kind is not None and not isinstance(value, kind):
            raise error(f"{f.name} must be a {f.type}, got {type(value).__name__}")


# Frequently used single-qubit operators.  Basis ordering (|g>, |e>) with
# qubit Hamiltonians written as diag(0, eps), so SIGMA_MINUS = |g><e|
# de-excites.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def _spectral_weights(vals, scale=1.0):
    """Eigenvalues as weights: every value <= SPECTRAL_NOISE * d * scale (d
    the length of the last axis) is eigensolver round-off, set to exactly 0.
    The one place the package cuts a support."""
    return np.where(vals <= SPECTRAL_NOISE * vals.shape[-1] * scale, 0.0, vals)


def _typed(kind, op, error=CoreError, dim=None, dims=None):
    """The one rule by which an entry point reads a state, Hamiltonian or unitary it needs as
    one: op as the operator type `kind`, of size `dim` when given (`_check_size`), else `error`.
    A `kind` is returned as it is, its own dims kept; a bare matrix once it passes the check of
    `kind` with `error` (a state by one `eigh`, kept), as a `kind` of the factor dims `dims`
    (one factor when None)."""
    if isinstance(op, kind):
        _check_size(op.dim, dim, error)
        return op
    m = _frozen_matrix(op, error, dim)
    dims = _as_dims(dims, len(m), error)
    if kind is DensityOperator:
        return kind._validated((m,) + _density_spectra(m, error), dims)
    kind._check(m, error)
    return _instance(kind, {"matrix": m, "dims": dims})


def _states(error, first, *others) -> tuple:
    """States read by `_typed` with `error`, each of the others at the size of the first."""
    first = _typed(DensityOperator, first, error)
    return (first,) + tuple(_typed(DensityOperator, x, error, first.dim) for x in others)


# ---------------------------------------------------------------------------
# Tensor algebra
# ---------------------------------------------------------------------------

def tensor(ops):
    """Kronecker product of a list of operators, in the order given.

    Accepts wrapped operators or bare arrays (square or rectangular, taken
    as complex; stacks (..., r, c) broadcast over the leading axes) and
    always returns the bare ndarray.  Each product is one broadcast multiply
    and a reshape: the same products as `np.kron`, so the same bits,
    without its per-call overhead on small matrices.
    """
    ops = [op.matrix if isinstance(op, _Operator) else np.asarray(op, dtype=complex) for op in ops]
    if not ops:
        raise CoreError("tensor() needs at least one operand")
    out = ops[0]
    for b in ops[1:]:
        if out.ndim < 2 or b.ndim < 2:
            raise CoreError("tensor() takes operands of at least 2 dimensions")
        (ra, ca), (rb, cb) = out.shape[-2:], b.shape[-2:]
        prod = out[..., :, None, :, None] * b[..., None, :, None, :]
        out = prod.reshape(prod.shape[:-4] + (ra * rb, ca * cb))
    return out


def _ptrace_matrix(mat, factors, keep):
    """Partial trace over the factors not listed in `keep`, of one matrix
    or of a stack (..., D, D): the reshape to (..., factors, factors) and
    one trace per traced factor, the last first, each by `np.einsum` over its
    two axes (the sums of `trace`, without its strided loop over a stack)."""
    factors = tuple(map(int, factors))
    n = len(factors)
    keep = sorted(set(map(int, keep)))
    if not keep:
        raise CoreError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise CoreError(f"keep indices {keep} out of range for {n} factors")
    m = np.asarray(mat, dtype=complex)
    b, d = m.ndim - 2, m.shape[-1]
    t = m.reshape(m.shape[:-2] + factors + factors)
    for k in reversed(range(n)):
        if k not in keep:
            axes = list(range(b + 2 * n))
            axes[b + n + k] = b + k
            t = np.einsum(t, axes, axes[:b + k] + axes[b + k + 1:b + n + k] + axes[b + n + k + 1:])
            n, d = n - 1, d // factors[k]
    return t.reshape(m.shape[:-2] + (d, d))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the kept factors of rho (`_typed`); trace preserved."""
    rho = _typed(DensityOperator, rho)
    m = _ptrace_matrix(rho.matrix, rho.dims.factors, keep)
    return DensityOperator(m, rho.dims.subdims(keep))


# ---------------------------------------------------------------------------
# Superoperators: every one in the package acts on COLUMN-STACKED matrices,
# vec(A X B) = (B^T kron A) vec(X), and is assembled from these terms.
# ---------------------------------------------------------------------------

def vec(matrix) -> np.ndarray:
    """Column-stacked copy of a square matrix."""
    return np.asarray(matrix).flatten(order="F")


def unvec(vector) -> np.ndarray:
    """Inverse of `vec`: the d x d matrix of a length-d^2 vector."""
    v = np.asarray(vector)
    d = math.isqrt(v.size)
    return v.reshape(d, d, order="F")


# A superoperator that maps Hermitian matrices to Hermitian matrices is real
# in the orthonormal Hermitian basis |i><i|, (|i><j| + |j><i|)/sqrt2 and
# i(|i><j| - |j><i|)/sqrt2 (i < j), and has the same eigenvalues there.  The
# basis keeps the slot layout of `vec`: the symmetric element of a pair sits
# in the slot of |i><j| (j*d + i), the antisymmetric one in that of |j><i|.

_SQRT_HALF = math.sqrt(0.5)


def hermitian_coords(matrix) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each of a stack (..., d, d), in the
    Hermitian basis, in `vec` order: rho_ii, sqrt2 Re rho_ij in slot (i, j) and sqrt2 Im rho_ij
    in slot (j, i), i < j."""
    m = np.asarray(matrix)
    d = m.shape[-1]
    coords = math.sqrt(2.0) * np.where(np.tri(d, k=-1, dtype=bool), 0.0 - m.imag, m.real)
    coords.reshape(m.shape[:-2] + (d * d,))[..., ::d + 1] = m.real.diagonal(0, -2, -1)
    return coords.swapaxes(-1, -2).reshape(m.shape[:-2] + (d * d,))


def from_hermitian_coords(coords) -> np.ndarray:
    """Inverse of `hermitian_coords`: the Hermitian matrix of a coordinate vector."""
    c = unvec(np.asarray(coords, dtype=float))
    upper = _SQRT_HALF * (np.triu(c, 1) + 1j * np.tril(c, -1).T)
    return upper + upper.conj().T + np.diag(c.diagonal())


def bordered_solve(gen, trace, rhs=None):
    """x with B x = rhs for a real generator with t^T gen = 0 bordered as
    B = gen - u t^T, where t is 1 on the slots `trace` (which include
    slot 0) and u is the unit vector of slot 0.

    B has the spectrum of gen with one zero replaced by -1, so it is
    singular exactly when the null space of gen is degenerate.  The default
    rhs = -u gives the null vector normalized to t^T x = 1; an rhs with
    t^T rhs = 0 gives the x with gen x = rhs and t^T x = 0 (the Drazin
    inverse of gen applied to rhs).  One LU factorization of B gives both:
    None is returned when LAPACK's estimate of B's reciprocal condition
    number (infinity norm) is below NULL_RCOND_TOL.  gen, a float array, is
    overwritten: B is formed in it and factored in place (a row-major B as
    B^T, column-major), so a caller that keeps its generator passes a copy.
    """
    from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dlange
    gen[0, trace] -= 1.0
    # B^T's 1-norm is B's infinity norm
    trans, a, norm = (0, gen, "I") if gen.flags.f_contiguous else (1, gen.T, "1")
    anorm = dlange(norm, a)
    lu, piv, info = dgetrf(a, overwrite_a=True)
    if info > 0:
        return None
    rcond, _ = dgecon(lu, anorm, norm=norm)
    if not rcond >= NULL_RCOND_TOL:
        return None
    if rhs is None:
        rhs = np.zeros(gen.shape[0])
        rhs[0] = -1.0
    x, _ = dgetrs(lu, piv, rhs, trans=trans)
    return x


def propagate(gen, t_grid, x0, error):
    """The time grid as an array and the rows x(t_k) of the solution of
    dx/dt = gen x, x(t_0) = x0, exact at every step.  One propagator
    expm(gen dt) is held at a time, recomputed where the step changes: the
    peak, gen included, is about 9 matrices of gen's size.  A grid that is
    not a finite (`_real`), nondecreasing, non-empty 1-d sequence raises the
    exception class `error`."""
    from scipy.linalg import expm
    t = np.asarray(_real(t_grid, error, "time grid"))
    if t.ndim != 1 or t.size == 0 or (np.diff(t) < 0).any():
        raise error("time grid must be a nondecreasing, non-empty 1-d sequence")
    xs = np.empty((t.size, len(x0)))
    xs[0] = x0
    step = prop = None
    for k, dt in enumerate(np.diff(t).tolist()):
        if dt != step:
            step, prop = dt, None  # freed before expm allocates
            prop = expm(gen * dt)
        xs[k + 1] = prop @ xs[k]
    return t, xs


def kraus_superop(kraus) -> np.ndarray:
    """Matrix of rho -> sum_k K_k rho K_k^dag, i.e. sum_k conj(K_k) kron K_k:
    one stacked `tensor` of the (n, d, d) Kraus stack, summed over k.  For
    d >= 2 numpy adds the n terms in order, so the bits are those of a sum
    of `np.kron` terms."""
    k = np.asarray(kraus)
    return tensor([k.conj(), k]).sum(0)


def add_sided_term(superop, left, right):
    """Add rho -> left rho + rho right, i.e. 1 kron left + right^T kron 1,
    to `superop` in place, one diagonal block at a time."""
    blocks = _blocks(superop, left.shape[0])
    for j in range(left.shape[0]):
        blocks[j, :, j, :] += left
        blocks[:, j, :, j] += right.T


def add_lindblad_term(superop, a, b, rate=1.0):
    """Add rate * (a rho b^dag - 1/2 {b^dag a, rho}) to `superop` in place.

    a = b = L gives the dissipator D[L]; a != b gives one cross term of a
    Kossakowski matrix.  The conj(b) kron a part is added one block row at
    a time, so no d^2 x d^2 temporary is made.
    """
    blocks = _blocks(superop, a.shape[0])
    rate_b = rate * b.conj()
    for j in range(a.shape[0]):
        blocks[j] += rate_b[j][None, :, None] * a[:, None, :]
    half = (-0.5 * rate) * (b.conj().T @ a)
    add_sided_term(superop, half, half)


def _blocks(superop, d):
    """View blocks[j, i, l, k] = superop[j*d + i, l*d + k] of a C-ordered
    complex superoperator, the entry taking |k><l| to |i><j|."""
    if not (superop.flags.c_contiguous and np.iscomplexobj(superop)):
        raise CoreError("superoperators are built in place on C-ordered complex arrays")
    return superop.reshape(d, d, d, d)


def ancilla_kraus(op, rho_ancilla) -> np.ndarray:
    """Stack of the system operators sqrt(q_nu) <mu|X|nu> of X on S (x) A,
    in the eigenbasis of rho_A = sum q_nu |nu><nu|, dropping q_nu = 0.

    For a unitary U they are the Kraus operators of Tr_A[U (. x rho_A) U^dag].
    """
    x = _frozen_matrix(op)
    q, basis = _typed(DensityOperator, rho_ancilla).eig()
    da = q.size
    ds = max(1, len(x) // da)
    _check_size(len(x), ds * da, CoreError)
    full = np.kron(np.eye(ds), basis)
    amp = (full.conj().T @ x @ full).reshape(ds, da, ds, da)     # [i, mu, j, nu]
    keep = q > 0.0
    terms = amp[:, :, :, keep] * np.sqrt(q[keep])
    return terms.transpose(3, 1, 0, 2).reshape(-1, ds, ds)


# ---------------------------------------------------------------------------
# Entropies and divergences
# ---------------------------------------------------------------------------

def shannon_entropy(p) -> float:
    """-sum p ln p (0 ln 0 := 0) of p validated by `_check_probabilities`."""
    return float(_entropy_rows(_check_probabilities(p, CoreError)))


def _entropy_rows(p):
    """-sum p ln p over the last axis of weights >= 0 (0 ln 0 := 0), so
    over every row of a stack."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(-1)


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho over the eigenvalues, in nats; a bare matrix is
    validated as a state (`_typed`)."""
    return float(_entropy_rows(_typed(DensityOperator, rho).eig()[0]))


def _petz_renyi(alpha, rho, sigma):
    """Petz-Renyi divergence D_alpha(rho || sigma) = ln Tr rho^a sigma^(1-a)
    / (a - 1) from the spectra of rho and sigma, each its (weights, eigenvectors):
    the overlaps amp[..., j, i] = <sigma_j|rho_i> are formed here, the package's
    one such contraction.  Weights p and q alone are the diagonal case.

    Every order is taken over leading axes: alpha, one order or an array of
    them, broadcasts against the leading axes of p, q and amp.  One order
    (also as a grid of one) runs only its own branch; an array of orders
    runs each branch that one of its orders takes, once for the whole
    stack.  alpha = 1 and alpha = inf do not depend on the order, so they
    run once per row of p, q and amp; the finite orders run over the
    broadcast, the other entries at the stand-in order 0.  Powers act on
    the supports, the weights > 0.  alpha = 1 is the relative entropy
    Tr rho (ln rho - ln sigma); alpha = 0 is the support limit
    -ln Tr Pi_rho sigma and alpha = inf the max-ratio limit
    ln max spec sigma^-1/2 rho sigma^-1/2 (one stacked `eigvalsh` with
    overlaps).  Orders alpha >= 1 are +inf when rho leaves sigma's support; each order is
    read by `_real` (>= 0, +inf allowed).
    """
    alpha = np.asarray(_real(alpha, CoreError, "Renyi order", low=0.0, inf=True))
    if isinstance(rho, tuple):
        (p, pv), (q, qv) = rho, sigma
        amp = qv.conj().swapaxes(-1, -2) @ pv
        w = np.abs(amp) ** 2
    else:
        p, q, amp, w = rho, sigma, None, None

    def on_sigma(x):
        """sum_i |<sigma_j|rho_i>|^2 x_i: a function of rho's levels read
        on sigma's."""
        return x if w is None else (w @ x[..., None])[..., 0]

    on, above = q > 0.0, alpha >= 1.0
    r = on_sigma(p) if above.any() else None            # <sigma_j|rho|sigma_j>
    # orders above 1 divide by sigma's weights, so a weight kept exact (as a
    # Gibbs one) that rho meets only within SUPPORT_OVERLAP_TOL is cut as
    # eigensolver output is: through overlaps its ratio is round-off over weight
    q_cut = q
    if w is not None and (alpha > 1.0).any():
        q_cut = np.where(r <= SUPPORT_OVERLAP_TOL, _spectral_weights(q), q)
    on_cut = q_cut > 0.0

    def branch(a):
        """The formula of one branch: a = 1 or a = inf (floats), or an array
        of finite orders other than 1."""
        if isinstance(a, np.ndarray):
            sigma = np.where(a[..., None] > 1.0, q_cut, q)
            tr = (_power(sigma, 1.0 - a[..., None]) * on_sigma(_power(p, a[..., None]))).sum(-1)
            positive = tr > 0.0
            return np.where(positive, np.log(np.where(positive, tr, 1.0)) / (a - 1.0),
                            math.inf)
        if a == 1.0:
            return -_entropy_rows(p) - (r * np.log(np.where(on, q, 1.0))).sum(-1)
        # ln max spec sigma^-1/2 rho sigma^-1/2: the largest ratio p/q, or the
        # top eigenvalue with sigma's zero levels as zero rows; a row wholly
        # off sigma's support reads 0 here and +inf below
        if w is None:
            top = (np.where(on_cut, p, 0.0) / np.where(on_cut, q_cut, 1.0)).max(-1)
        else:
            half = (amp * np.sqrt(p)[..., None, :]
                    / np.sqrt(np.where(on_cut, q_cut, 1.0))[..., :, None])
            half = np.where(on_cut[..., :, None], half, 0.0)  # sigma^-1/2 rho^1/2
            top = _eigvalsh(half @ half.conj().swapaxes(-1, -2))[..., -1]
        return np.log(np.where(top > 0.0, top, 1.0))

    if alpha.size == 1:
        order = alpha.item()
        value = branch(order if order in (1.0, math.inf) else alpha)
    else:
        one, top = alpha == 1.0, alpha == math.inf
        finite = ~(one | top)
        value = np.zeros(())
        for orders, a in ((finite, None), (top, math.inf), (one, 1.0)):
            if orders.any():
                value = np.where(orders, branch(np.where(finite, alpha, 0.0) if a is None else a),
                                 value)
    if r is not None:
        leaves = np.where(on, 0.0, r).sum(-1) > SUPPORT_OVERLAP_TOL
        value = np.where(leaves & above, math.inf, value)
    return value


def _power(x, a):
    """x^a on the support x > 0, and 0 off it (so x^0 is its indicator).
    The orders a are spread to the full shape first: numpy takes a shortcut
    (sqrt, square, reciprocal) for a broadcast order of 0.5, 2 or -1, which
    can differ in the last bit, so an entry would otherwise round one way in
    a one-order call and another in an order grid."""
    on = x > 0.0
    base = np.where(on, x, 1.0)
    return base ** (a + np.zeros_like(base)) * on


def _check_probabilities(p, error):
    """Probability rows (the last axis of p), clipped at 0 after the checks:
    real (`_real_array`), finite, none below -1e-12, each row summing to 1
    within 1e-9; else the exception class `error`."""
    p = _real_array(p, error, "probabilities")
    total = p.sum(-1)
    worst = np.abs(total - 1.0)
    if not (p.min() >= -1e-12 and worst.max() <= 1e-9):     # NaN fails too
        if not np.isfinite(p).all():
            raise error("probabilities must be finite")
        if p.min() < -1e-12:
            raise error(f"negative probability {p.min():.3e}")
        raise error(f"probabilities sum to {total.flat[np.argmax(worst)]}")
    return np.maximum(p, 0.0)


def _numbers(x, error, name, rule="numbers") -> np.ndarray:
    """x as an array (x itself when it is one), else `error` naming x and its `rule`: the one
    test of every number read, operator entries too, against strings, booleans and objects (a
    boolean among the numbers of a list or tuple too, nested or not, which numpy would read as
    0 or 1)."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError):
        a = None
    if a is None or a.dtype.kind not in "iufc" or type(x) in (list, tuple) and _has_bool(x):
        raise error(f"{name} must be {rule}, got {x!r}")
    return a


def _has_bool(x) -> bool:
    """Whether a list or tuple holds a boolean, in it or in a list or tuple nested in it; an
    array in it is not entered (a boolean array is not numbers), one type test per entry."""
    for v in x:
        t = type(v)
        if t is bool or t is np.bool_ or (t is list or t is tuple) and _has_bool(v):
            return True
    return False


def _real_array(x, error, name, rule="real numbers") -> np.ndarray:
    """x as a float array (x itself when it is one), else `error` naming x and its `rule`:
    entries that are not numbers (`_numbers`) or not real."""
    a = _numbers(x, error, name, rule)
    if a.dtype.kind == "c" and (a.imag != 0.0).any():
        raise error(f"{name} must be real, got a nonzero imaginary part")
    return a.real.astype(float, copy=False)


def _real(x, error, name, low=None, above=None, rows=None, inf=False):
    """The one reader of real parameters: x (`_real_array`), each finite (or +-inf, where
    documented: `inf`) and >= low or > above when given, one value as a float; or with
    `rows`, the leading shape of the stack x meets, shared or one per row (`_shared_or_rows`)
    and returned one per row.  Else `error` naming `name` and the rule (`_rule`)."""
    if type(x) is float:        # one Python float, read without numpy
        if not ((x == x if inf else math.isfinite(x)) and (low is None or x >= low)
                and (above is None or x > above)):
            raise error(f"{name} must be {_rule(low, above, inf)}, got {x!r}")
        b = x
    else:
        b = _real_array(x, error, name, _rule(low, above, inf))
        ok = ~np.isnan(b) if inf else np.isfinite(b)
        if low is not None:
            ok &= b >= low
        if above is not None:
            ok &= b > above
        if not ok.all():
            raise error(f"{name} must be {_rule(low, above, inf)}, got {x!r}")
        if b.ndim == 0:
            b = float(b)
        elif rows is not None:
            _shared_or_rows(error, rows, (name, b, 0))
            return b
    # np.full: a shared value skips broadcast_to's Python wrapper
    return b if rows is None else np.full(rows, b)


@functools.lru_cache(maxsize=32)
def _rule(low, above, inf):
    """The rule `_real` reads a value by, as its messages state it."""
    bound = low if above is None else above
    return (("a number" if inf else "a finite number") if bound is None else
            f"{'' if inf else 'finite and '}{'>=' if above is None else '>'} {bound:g}")


def _shared_or_rows(error, rows, *named):
    """The one shape rule: each (name, x, k) of `named`, one value of k axes or a stack of
    them, is one value shared by the rows or one per row of the leading shape `rows` (None:
    the longest leading shape of the operands); else `error` naming x and both shapes."""
    leads = [(name, np.shape(x), np.shape(x)[:np.ndim(x) - k]) for name, x, k in named]
    rows = max((lead for *_, lead in leads), key=len) if rows is None else rows
    for name, shape, lead in leads:
        if lead and lead != rows:
            raise error(f"{name} has shape {shape}: one value, or one per row of {rows}")


def _integer(x, error, name, low=None) -> int:
    """The one reader of an integer parameter: an int or a whole float, never a bool, and
    >= low when given, as an int; else `error` naming `name`."""
    if type(x) is not int:      # a bool is not an int here
        if not (isinstance(x, np.integer) or isinstance(x, (float, np.floating))
                and float(x).is_integer()):
            raise error(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if low is not None and x < low:
        raise error(f"{name} must be an integer >= {low}, got {x!r}")
    return x


def _times(times, error, least=1):
    """The one time rule: a 1-d grid of finite reals (`_real`), strictly increasing, of at least
    `least` points, as a new float array; else `error`, naming the first step that does not rise."""
    t = np.array(_real(times, error, "times"), dtype=float)
    if t.ndim != 1 or t.size < least:
        raise error(f"need at least {least} time points in a 1-d sequence, got shape {t.shape}")
    for k in np.flatnonzero(np.diff(t) <= 0.0)[:1].tolist():
        raise error(f"times must increase strictly: t[{k + 1}] = {t[k + 1]:g} after {t[k]:g}")
    return t


def _trajectory(trajectory, names, error, least=1):
    """The one reader of a trajectory, a list of entries (t, ...) named by `names`: the times by
    `_times` and each further item as one list; else `error` naming the first other entry."""
    for k, e in enumerate(trajectory if isinstance(trajectory, (list, tuple)) else [trajectory]):
        if not isinstance(e, (list, tuple)) or len(e) != len(names):
            raise error(f"trajectory must be a list of ({', '.join(names)}): entry {k} is not")
    columns = [list(c) for c in zip(*trajectory)] or [[]] * len(names)
    return (_times(columns[0], error, least), *columns[1:])


def _trace_rows(a, b):
    """Re Tr(a b) over the leading axes of either side, as one contraction
    sum_ij a_ij b_ji, with no product matrix."""
    return np.einsum("...ij,...ji->...", a, b).real


def relative_entropy(rho, sigma) -> float:
    """Tr rho (ln rho - ln sigma), +inf off sigma's support; bare matrices validated as states,
    sigma at rho's size (`_states`)."""
    return float(_petz_renyi(1.0, *(s.eig() for s in _states(CoreError, rho, sigma))))


def renyi_divergence(rho, sigma, alpha) -> float:
    """Petz-Renyi divergence (alpha-1)^-1 ln Tr rho^a sigma^(1-a), with the
    relative entropy at alpha = 1, the support limit at alpha = 0 and the
    max-ratio limit at alpha = inf (`_petz_renyi`).  Bare matrices are
    validated as states, sigma at rho's size (`_states`)."""
    return float(_petz_renyi(alpha, *(s.eig() for s in _states(CoreError, rho, sigma))))


def mutual_information(rho: DensityOperator, part_a) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB) for the bipartition (part_a | rest) of rho's factors
    (`_typed`: a bare matrix has one, so it has no bipartition)."""
    rho = _typed(DensityOperator, rho)
    n = len(rho.dims)
    part_a = sorted(set(_integer(i, CoreError, "part index") for i in part_a))
    if not part_a or part_a[0] < 0 or part_a[-1] >= n:
        raise CoreError(f"invalid bipartition {part_a} of rho's dims {rho.dims.factors}")
    part_b = [i for i in range(n) if i not in part_a]
    if not part_b:
        raise CoreError(f"bipartition {part_a} of rho's dims {rho.dims.factors} "
                        "must leave a non-empty complement")
    rho_a = partial_trace(rho, part_a)
    rho_b = partial_trace(rho, part_b)
    return (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
            - von_neumann_entropy(rho))


def _gibbs(energies, beta):
    """Thermal weights of the levels and ln Z, shifted by the lowest level;
    over the rows of a stack of level sets, with one beta per row."""
    beta = np.asarray(beta)[..., None]
    low = energies.min(-1, keepdims=True)
    x = np.exp(-beta * (energies - low))
    total = x.sum(-1, keepdims=True)
    return x / total, (-beta * low + np.log(total))[..., 0]


def _gibbs_states(h, beta):
    """Gibbs matrices e^{-beta H}/Z of one H or of a stack (one beta per row) from one
    (stacked) `eigh`, their weights and eigenvectors in the order of the levels, and the levels."""
    vals, vecs = _eigh(h)
    weights = _gibbs(vals, beta)[0]
    return (vecs * weights[..., None, :]) @ vecs.conj().swapaxes(-1, -2), weights, vecs, vals


def _check_beta(beta, error, positive=False, rows=None):
    """beta read by `_real` as an inverse temperature: >= 0, or > 0 where the caller divides."""
    return _real(beta, error, "inverse temperature", None if positive else 0.0,
                 0.0 if positive else None, rows)


def thermal_state(hamiltonian, beta: float) -> DensityOperator:
    """Gibbs state e^{-beta H}/Z (`_gibbs_states`) of H's dims; a bare H is read by `_hermitian`,
    of one factor.  Of an (n, d, d) stack of H and beta shared or one per row: n states, from
    one stacked `eigh`, a `DensityRows` of the factor dims its `HermitianOperator` rows share."""
    h = _hermitian(hamiltonian)
    if h.ndim > 3:
        raise CoreError(f"expected one Hamiltonian or an (n, d, d) stack, got shape {h.shape}")
    b = _check_beta(beta, CoreError, rows=h.shape[:-2])
    spectra = _exact_spectra(*_gibbs_states(h, b)[:3])
    return (DensityOperator._validated(spectra, getattr(hamiltonian, "dims", None)) if h.ndim == 2
            else DensityRows(*spectra, _stack_dims(hamiltonian, h.shape[-1])))


def trace_distance(rho1, rho2) -> float:
    """Half the trace norm of the difference; in [0, 1] for states.  rho2
    is read at rho1's size, both by `_frozen_matrix`."""
    a = _frozen_matrix(rho1)
    return float(_trace_distance_rows(a, _frozen_matrix(rho2, CoreError, len(a))))


def _trace_distance_rows(a, b):
    """`trace_distance` of matrices or stacks, over their leading axes."""
    diff = (a - b + (a - b).conj().swapaxes(-1, -2)) / 2.0
    return 0.5 * np.abs(_eigvalsh(diff)).sum(-1)


# ---------------------------------------------------------------------------
# Equal values, dephasing and coherence
# ---------------------------------------------------------------------------

def _equal_runs(sorted_values, tol) -> np.ndarray:
    """Start index of each run of equal values in an ascending array: a new
    run starts where the gap to the previous value exceeds tol (a scalar, or
    one per value, read at the later value of each gap).  An infinity never
    joins a finite value, whatever the tolerance; equal infinities join."""
    v = np.asarray(sorted_values, dtype=float)
    with np.errstate(invalid="ignore"):           # inf - inf: caught by v == v
        gap = np.diff(v)
    tol = np.broadcast_to(tol, v.shape)[1:]
    same = ((gap <= tol) & np.isfinite(gap)) | (v[1:] == v[:-1])
    return np.flatnonzero(np.concatenate(([v.size > 0], ~same)))


def eigenspace_projectors(hamiltonian):
    """Projectors onto the eigenspaces of H, grouping near-degenerate levels.

    Eigenvalues within DEGENERACY_TOL * max(1, ||H||) of each other share a
    block, so the projection is block-diagonal and never resolves an
    accidental degeneracy into an arbitrary basis (H read by `_hermitian`).
    """
    vals, vecs = _eigh(_hermitian(hamiltonian))
    scale = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
    bounds = np.append(_equal_runs(vals, DEGENERACY_TOL * scale), len(vals))
    blocks = [vecs[:, a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    energies = [float(vals[a:b].mean()) for a, b in zip(bounds[:-1], bounds[1:])]
    return energies, [b @ b.conj().T for b in blocks]


def dephase(rho, hamiltonian):
    """Remove all coherences between distinct eigenspaces of H, read at rho's (a stack's) size."""
    r = _frozen_stack(rho)
    _, projs = eigenspace_projectors(_hermitian(hamiltonian, CoreError, r.shape[-1]))
    out = sum(p @ r @ p for p in projs)
    if isinstance(rho, DensityOperator):
        return DensityOperator(out, rho.dims)
    return out


def relative_entropy_of_coherence(rho, hamiltonian) -> float:
    """C(rho) = S(Delta_H(rho)) - S(rho) >= 0, zero iff already block-diagonal."""
    deph = dephase(rho, hamiltonian)
    return von_neumann_entropy(deph) - von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# Matrix functions used across modules
# ---------------------------------------------------------------------------

def hermitian_function(matrix, fn):
    """Apply a scalar function to a Hermitian matrix (or a stack of them,
    read by `_hermitian`) via eigendecomposition."""
    vals, vecs = _eigh(_hermitian(matrix))
    return (vecs * fn(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


class ChargeSectors:
    """A basis split by an integer charge per basis index.  A sector holds
    the basis indices of one charge (ascending); sectors come in ascending
    charge.  An operator that moves every charge q to q + shift is one
    block per sector, so a function of a charge-conserving Hermitian
    operator and conjugation by the unitary it makes cost sum_q d_q^3,
    not d^3, and never form the dense d x d operator."""

    def __init__(self, charges):
        q = np.asarray(charges)
        if q.ndim != 1 or not np.issubdtype(q.dtype, np.integer):
            raise CoreError("charges must be a 1-d integer array")
        self.charges = q
        self.sector_charge, self.sector, sizes = np.unique(
            q, return_inverse=True, return_counts=True)
        starts = np.cumsum(sizes) - sizes
        order = np.argsort(q, kind="stable")
        self.index = np.split(order, starts[1:])
        # place of each basis index within its sector
        self.position = np.empty_like(order)
        self.position[order] = np.arange(len(q)) - np.repeat(starts, sizes)

    def split(self, rows, cols, vals, shift=0):
        """Blocks of the operator sum_k vals[k] |rows[k]><cols[k]|, block s
        mapping sector s to the sector of charge q_s + shift (with no rows
        where there is none), and the largest |vals[k]| of an entry that
        moves the charge by anything else, which no block holds."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        vals = np.asarray(vals, dtype=complex)
        fits = self.charges[rows] - self.charges[cols] == shift
        leak = float(np.abs(vals[~fits]).max(initial=0.0))
        rows, cols, vals = rows[fits], cols[fits], vals[fits]
        source = self.sector[cols]
        size_of = dict(zip(self.sector_charge.tolist(), map(len, self.index)))
        blocks = []
        for s, idx in enumerate(self.index):
            height = size_of.get(int(self.sector_charge[s]) + shift, 0)
            block = np.zeros((height, len(idx)), dtype=complex)
            k = source == s
            np.add.at(block, (self.position[rows[k]], self.position[cols[k]]), vals[k])
            blocks.append(block)
        return blocks, leak

    def function(self, blocks, fn):
        """`hermitian_function` of a charge-conserving Hermitian operator,
        given as its blocks: one `eigh` per sector."""
        return [hermitian_function(b, fn) for b in blocks]

    def conjugate(self, blocks, rho):
        """U rho U^dag on a dense complex rho, for the block-diagonal U with
        these blocks: one row block, then one column block per sector.  rho
        is overwritten with the result, which is returned."""
        for idx, u in zip(self.index, blocks):
            rho[idx] = u @ rho[idx]
        for idx, u in zip(self.index, blocks):
            rho[:, idx] = rho[:, idx] @ u.conj().T
        return rho


def logm_psd(matrix):
    """Matrix logarithm of a state on its support; a bare matrix is validated as one (`_typed`)."""
    return _log_of(*_typed(DensityOperator, matrix).eig())


def _log_of(vals, vecs):
    """ln on the support from weights and eigenvectors, over leading axes."""
    logs = np.log(np.where(vals > 0.0, vals, 1.0))          # 0 off the support
    return (vecs * logs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Serialization: JSON {"dims": [...], "re": [[...]], "im": [[...]]}
# ---------------------------------------------------------------------------

def matrix_to_json(matrix, dims: HilbertDims) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dims": list(dims.factors),
        "re": np.real(m).tolist(),
        "im": np.imag(m).tolist(),
    }


def matrix_from_json(obj):
    try:
        dims = HilbertDims(tuple(obj["dims"]))
        re, im = (np.asarray(_real(obj[k], CoreError, k)) for k in ("re", "im"))
    except (KeyError, TypeError) as exc:
        raise CoreError(f"malformed matrix object: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise CoreError("re/im parts must be matching 2-d arrays")
    return _frozen_matrix(re + 1j * im, CoreError, dims.total), dims
