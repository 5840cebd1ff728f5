"""Finite-dimensional operator algebra and the entropy/divergence toolbox.

Conventions used throughout the package: hbar = k_B = 1 and every entropy
is measured in nats (natural logarithm).  Operators live on a tensor
product of finite-dimensional factors and carry their factor dimensions,
so partial traces, bipartite splits and dephasings are unambiguous.

All values are immutable, including the spectrum a `DensityOperator`
keeps from its validation, which every entropy, divergence and eigenbasis
of the state reads (`_spectrum`).  Functions never mutate their arguments,
except the superoperator builders `add_sided_term`, `add_lindblad_term` and
`real_superop`, which work in place on the array they are given.

Every entropy and divergence uses one support rule.  Where a spectrum is
made (`_spectral_weights`, called by the state validation and by
`_spectrum`), eigenvalues <= SPECTRAL_NOISE * d, times max(1, lambda_max)
for a bare matrix, are eigensolver round-off and are set to exactly 0,
once.  Downstream a level is in the support iff its weight is > 0, and rho
leaves sigma's support iff its mass on sigma's zero levels exceeds
SUPPORT_OVERLAP_TOL.  Probability vectors are read as given, under the same
downstream rule: the classical divergences are the diagonal case of the
one Petz-Renyi kernel (`_petz_renyi`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

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
        factors = tuple(int(f) for f in self.factors)
        if len(factors) == 0:
            raise CoreError("HilbertDims needs at least one factor")
        if any(f <= 0 for f in factors):
            raise CoreError(f"factor dimensions must be positive, got {factors}")
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


def _as_dims(dims, size) -> HilbertDims:
    if dims is None:
        return HilbertDims((size,))
    if isinstance(dims, HilbertDims):
        d = dims
    else:
        d = HilbertDims(tuple(dims))
    if d.total != size:
        raise CoreError(f"dims {d.factors} do not match matrix size {size}")
    return d


def _frozen_stack(matrices) -> np.ndarray:
    """Read-only complex copy of one square matrix or a stack (..., d, d)."""
    m = np.array(matrices, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise CoreError(f"expected a square matrix, got shape {m.shape}")
    # Every later check has the form `err > tol`, which is False for NaN.
    if not np.isfinite(m).all():
        raise CoreError("matrix has NaN or infinite entries")
    m.setflags(write=False)
    return m


def _frozen_matrix(matrix) -> np.ndarray:
    m = _frozen_stack(matrix)
    if m.ndim != 2:
        raise CoreError(f"expected a square matrix, got shape {m.shape}")
    return m


def _density_spectra(m):
    """The density-matrix validation, of one matrix or of a stack
    (..., d, d) by one stacked `eigh`: Hermitian within HERMITICITY_TOL,
    unit trace within TRACE_TOL and no eigenvalue below -EIG_FLOOR.
    Returns the eigenvalues (ascending, round-off zeroed by
    `_spectral_weights`) and eigenvectors as columns, both read-only."""
    herm_err = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _fail_first(herm_err > HERMITICITY_TOL, herm_err,
                "density matrix not Hermitian (residual {:.3e})")
    tr = np.trace(m, axis1=-2, axis2=-1)
    _fail_first(abs(tr - 1.0) > TRACE_TOL, tr, "density matrix trace {} differs from 1")
    evals, evecs = np.linalg.eigh(m)
    low = evals[..., 0]
    _fail_first(low < -EIG_FLOOR, low, "density matrix has negative eigenvalue {:.3e}")
    evals = _spectral_weights(evals)
    for arr in (evals, evecs):
        arr.setflags(write=False)
    return evals, evecs


def _fail_first(bad, values, message):
    """CoreError for the first matrix flagged in `bad`, its value
    formatted into `message`; in a stack it is named by its index."""
    if bad.any() if bad.ndim else bad:
        k = int(np.flatnonzero(bad)[0])
        where = f"matrix {k} of the stack: " if bad.ndim else ""
        raise CoreError(where + message.format(values.flat[k]))


class _Operator:
    """What the operator types share: construction from a bare matrix,
    the dimension and the JSON matrix schema."""

    @classmethod
    def from_matrix(cls, matrix, dims=None):
        m = np.asarray(matrix, dtype=complex)
        return cls(m, _as_dims(dims, m.shape[0]))

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

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _as_dims(self.dims, m.shape[0]))
        herm_err = np.abs(m - m.conj().T).max()
        scale = max(1.0, np.abs(m).max())
        if herm_err > HERMITICITY_TOL * scale:
            raise CoreError(f"matrix is not Hermitian (residual {herm_err:.3e})")


@dataclass(frozen=True, eq=False)
class DensityOperator(_Operator):
    """Positive unit-trace Hermitian matrix: the universal state type.

    Validation (`_density_spectra`) takes one `eigh` of the matrix; its
    eigenvalues (round-off zeroed) and eigenvectors are kept read-only (not
    in the repr).  `from_stack` validates a whole stack of states by one stacked
    `eigh` through the same checks, and each state keeps its slice of that
    decomposition.  Equality is identity: states hold arrays.
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
    def from_stack(cls, matrices, dims=None) -> tuple:
        """Validated states of an (n, d, d) stack, all with factor dims
        `dims`, from one stacked `eigh`; each state's `eig()` is its slice
        of that decomposition, the same bits as validating it alone."""
        ms = _frozen_stack(matrices)
        if ms.ndim != 3:
            raise CoreError(f"expected an (n, d, d) stack, got shape {ms.shape}")
        d = _as_dims(dims, ms.shape[-1])
        evals, evecs = _density_spectra(ms)
        states = []
        for m, w, v in zip(ms, evals, evecs):
            rho = object.__new__(cls)
            for name, value in (("matrix", m), ("dims", d), ("_eig", (w, v))):
                object.__setattr__(rho, name, value)
            states.append(rho)
        return tuple(states)

    @classmethod
    def pure(cls, vector, dims=None):
        v = np.asarray(vector, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls.from_matrix(np.outer(v, v.conj()), dims)

    @classmethod
    def maximally_mixed(cls, dims):
        d = dims if isinstance(dims, HilbertDims) else HilbertDims(tuple(np.atleast_1d(dims)))
        n = d.total
        return cls(np.eye(n) / n, d)

    def eig(self):
        """Eigenvalues (ascending, round-off zeroed) and eigenvectors as
        columns, from the validating decomposition; both arrays are
        read-only."""
        return self._eig


@dataclass(frozen=True, eq=False)
class UnitaryOperator(_Operator):
    """A unitary matrix with factor dims; U^dag U = 1 within tolerance."""

    matrix: np.ndarray
    dims: HilbertDims

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _as_dims(self.dims, m.shape[0]))
        err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if err > UNITARITY_TOL:
            raise CoreError(f"matrix is not unitary (residual {err:.3e})")


# Frequently used single-qubit operators.  Basis ordering (|g>, |e>) with
# qubit Hamiltonians written as diag(0, eps), so SIGMA_MINUS = |g><e|
# de-excites.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def _mat(op) -> np.ndarray:
    """Accept a wrapped operator or a bare array."""
    if isinstance(op, _Operator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _dims_of(op, size=None) -> HilbertDims:
    if isinstance(op, _Operator):
        return op.dims
    m = np.asarray(op)
    return HilbertDims((m.shape[0] if size is None else size,))


def _clamp_probs(vals: np.ndarray) -> np.ndarray:
    """Clamp numerical PSD noise; reject genuinely negative eigenvalues."""
    vals = np.asarray(vals, dtype=float)
    if vals.min() < -EIG_FLOOR:
        raise CoreError(f"eigenvalue {vals.min():.3e} below the clamping floor")
    return np.maximum(vals, 0.0)


def _spectral_weights(vals, scale=1.0):
    """Eigenvalues as weights: every value <= SPECTRAL_NOISE * d * scale (d
    the length of the last axis) is eigensolver round-off, set to exactly 0.
    The one place the package cuts a support."""
    return np.where(vals <= SPECTRAL_NOISE * vals.shape[-1] * scale, 0.0, vals)


def _spectrum(state) -> tuple[np.ndarray, np.ndarray]:
    """Weights (round-off zeroed) and eigenvectors of a state: those a
    `DensityOperator` keeps, or one `eigh` of a bare PSD matrix."""
    if isinstance(state, DensityOperator):
        return state.eig()
    vals, vecs = np.linalg.eigh(_mat(state))
    vals = _clamp_probs(vals)
    return _spectral_weights(vals, max(1.0, vals[-1])), vecs


# ---------------------------------------------------------------------------
# Tensor algebra
# ---------------------------------------------------------------------------

def tensor(ops):
    """Kronecker product of a list of operators, in the order given.

    Accepts wrapped operators or bare arrays (square or rectangular, taken
    as complex) and always returns the bare ndarray.  Each product is one
    broadcast multiply and a reshape: the same products as `np.kron`, so
    the same bits, without its per-call overhead on small matrices.
    """
    ops = list(ops)
    if not ops:
        raise CoreError("tensor() needs at least one operand")
    out = _mat(ops[0])
    for op in ops[1:]:
        b = _mat(op)
        if out.ndim != 2 or b.ndim != 2:
            raise CoreError("tensor() takes 2-d operands")
        (ra, ca), (rb, cb) = out.shape, b.shape
        out = (out[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)
    return out


def _ptrace_matrix(mat, factors, keep):
    """Partial trace over the factors not listed in `keep`, of one matrix
    or of a stack (..., D, D): the reshape to (..., factors, factors) and
    one `trace` per traced factor, the last first."""
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
            t = t.trace(axis1=b + k, axis2=b + n + k)
            n, d = n - 1, d // factors[k]
    return t.reshape(m.shape[:-2] + (d, d))


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state on the kept factors; trace preserved."""
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
    """Real coordinates of a Hermitian matrix in the Hermitian basis, in
    `vec` order: rho_ii, sqrt2 Re rho_ij in slot (i, j) and sqrt2 Im rho_ij
    in slot (j, i), i < j."""
    m = np.asarray(matrix)
    coords = math.sqrt(2.0) * (np.triu(m.real, 1) - np.tril(m.imag, -1))
    np.fill_diagonal(coords, m.real.diagonal())
    return vec(coords)


def from_hermitian_coords(coords) -> np.ndarray:
    """Inverse of `hermitian_coords`: the Hermitian matrix of a coordinate vector."""
    c = unvec(np.asarray(coords, dtype=float))
    upper = _SQRT_HALF * (np.triu(c, 1) + 1j * np.tril(c, -1).T)
    return upper + upper.conj().T + np.diag(c.diagonal())


def real_superop(superop) -> np.ndarray:
    """Real matrix T^dag S T of a Hermiticity-preserving superoperator S, T
    holding the Hermitian basis in `vec` order; same eigenvalues as S.

    Overwrites `superop` (a C-ordered complex array, as `lindblad.build`
    returns) with T^dag S T by rotating its row and column pairs
    (j*d + i, i*d + j) in place, and returns the real part as a new array.
    """
    n = superop.shape[0]
    d = math.isqrt(n)
    blocks = _blocks(superop, d)
    cols = blocks.reshape(n, d, d)      # cols[:, j, i] is the column of |i><j|
    rows = blocks.reshape(d, d, n)      # rows[j, i, :] is the row of |i><j|
    for i in range(d - 1):
        _rotate_pair(cols[:, i + 1:, i], cols[:, i, i + 1:], 1j)
        _rotate_pair(rows[i + 1:, i, :], rows[i, i + 1:, :], -1j)
    return np.ascontiguousarray(superop.real)


def _rotate_pair(sym, anti, phase):
    """(sym, anti) <- (sym + anti, phase (sym - anti)) / sqrt2, in place."""
    diff = sym - anti
    sym += anti
    sym *= _SQRT_HALF
    np.multiply(diff, phase * _SQRT_HALF, out=anti)


def bordered_solve(gen, trace, rhs=None, null_tol=1e-8):
    """x with B x = rhs for a real generator with t^T gen = 0 bordered as
    B = gen - u t^T, where t is 1 on the slots `trace` (which include
    slot 0) and u is the unit vector of slot 0.

    B has the spectrum of gen with one zero replaced by -1, so it is
    singular exactly when the null space of gen is degenerate.  The default
    rhs = -u gives the null vector normalized to t^T x = 1; an rhs with
    t^T rhs = 0 gives the x with gen x = rhs and t^T x = 0 (the Drazin
    inverse of gen applied to rhs).  One LU factorization of B gives both:
    None is returned when LAPACK's estimate of B's reciprocal condition
    number (infinity norm) is below `null_tol`.
    """
    border = np.array(gen, dtype=float)
    border[0, trace] -= 1.0
    anorm = float(np.abs(border).sum(axis=1).max())
    # B^T is Fortran-ordered, so it is factored in place; trans=1 solves with B.
    lu, piv, info = dgetrf(border.T, overwrite_a=True)
    if info > 0:
        return None
    rcond, _ = dgecon(lu, anorm)
    if not rcond >= null_tol:
        return None
    if rhs is None:
        rhs = np.zeros(border.shape[0])
        rhs[0] = -1.0
    x, _ = dgetrs(lu, piv, rhs, trans=1)
    return x


def propagate(gen, t_grid, x0, error):
    """The time grid as an array and the rows x(t_k) of the solution of
    dx/dt = gen x, x(t_0) = x0, exact at every step.  One propagator
    expm(gen dt) is held at a time, recomputed where the step changes: the
    peak, gen included, is about 9 matrices of gen's size.  A grid that is
    not a finite, nondecreasing, non-empty 1-d sequence raises the
    exception class `error`."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.isfinite(t).all() or (np.diff(t) < 0).any():
        raise error("time grid must be a finite, nondecreasing 1-d sequence")
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
    """Matrix of rho -> sum_k K_k rho K_k^dag, i.e. sum_k conj(K_k) kron K_k."""
    return sum(np.kron(k.conj(), k) for k in kraus)


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
    x = _mat(op)
    q, basis = _spectrum(rho_ancilla)
    da = q.size
    ds = x.shape[0] // da
    full = np.kron(np.eye(ds), basis)
    amp = (full.conj().T @ x @ full).reshape(ds, da, ds, da)     # [i, mu, j, nu]
    keep = q > 0.0
    terms = amp[:, :, :, keep] * np.sqrt(q[keep])
    return terms.transpose(3, 1, 0, 2).reshape(-1, ds, ds)


# ---------------------------------------------------------------------------
# Entropies and divergences
# ---------------------------------------------------------------------------

def shannon_entropy(p) -> float:
    """-sum p ln p with the 0 ln 0 := 0 convention."""
    return float(_entropy_rows(_clamp_probs(np.asarray(p, dtype=float))))


def _entropy_rows(p):
    """-sum p ln p over the last axis of clamped probabilities (0 ln 0 := 0),
    so over every row of a stack."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(-1)


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho over the eigenvalues, in nats."""
    if not isinstance(rho, DensityOperator):
        m = _mat(rho)
        herm_err = np.abs(m - m.conj().T).max()
        if herm_err > HERMITICITY_TOL * max(1.0, np.abs(m).max()):
            raise CoreError("von Neumann entropy of a non-Hermitian matrix")
    return shannon_entropy(_spectrum(rho)[0])


def _petz_renyi(alpha, p, q, amp=None):
    """Petz-Renyi divergence D_alpha(rho || sigma) = ln Tr rho^a sigma^(1-a)
    / (a - 1) from the weights p of rho and q of sigma and the overlaps
    amp[..., j, i] = <sigma_j|rho_i> of their eigenvectors; amp None is the
    diagonal case, p and q weights on one basis (probability vectors).

    Powers act on the supports, the weights > 0.  alpha = 1 is the relative
    entropy Tr rho (ln rho - ln sigma), the one order taken over leading
    axes; alpha = 0 is the support limit -ln Tr Pi_rho sigma and alpha = inf
    the max-ratio limit ln max spec sigma^-1/2 rho sigma^-1/2.  Orders
    alpha >= 1 are +inf when rho leaves sigma's support.
    """
    if alpha < 0:
        raise CoreError(f"negative Renyi order {alpha}")
    w = None if amp is None else np.abs(amp) ** 2

    def on_sigma(x):
        """sum_i |<sigma_j|rho_i>|^2 x_i: a function of rho's levels read
        on sigma's."""
        return x if w is None else (w @ x[..., None])[..., 0]

    on = q > 0.0
    if alpha >= 1.0:
        r = on_sigma(p)                                 # <sigma_j|rho|sigma_j>
        leaves = np.where(on, 0.0, r).sum(-1) > SUPPORT_OVERLAP_TOL
        if alpha == 1.0:
            cross = (r * np.log(np.where(on, q, 1.0))).sum(-1)
            return np.where(leaves, np.inf, -_entropy_rows(p) - cross)
        if leaves:
            return math.inf
    if alpha == math.inf:
        if w is None:
            return math.log(np.max(p[on] / q[on]))
        half = amp[on] * np.sqrt(p) / np.sqrt(q[on])[:, None]    # sigma^-1/2 rho^1/2
        return math.log(np.linalg.eigvalsh(half @ half.conj().T)[-1])
    tr = _power(q, 1.0 - alpha) @ on_sigma(_power(p, alpha))
    return math.inf if tr <= 0.0 else math.log(tr) / (alpha - 1.0)


def _power(x, a):
    """x^a on the support x > 0, and 0 off it (so x^0 is its indicator)."""
    on = x > 0.0
    return np.where(on, x, 1.0) ** a * on


def _state_pair(rho, sigma):
    """Weights p of rho and q of sigma and the overlaps <sigma_j|rho_i>."""
    if _mat(rho).shape != _mat(sigma).shape:
        raise CoreError(f"dimension mismatch {_mat(rho).shape} vs {_mat(sigma).shape}")
    p, pv = _spectrum(rho)
    q, qv = _spectrum(sigma)
    return p, q, qv.conj().T @ pv


def _probability_pair(p, q):
    p, q = _clamp_probs(p), _clamp_probs(q)
    if p.shape != q.shape:
        raise CoreError("divergences need equally sized probability vectors")
    return p, q


def relative_entropy(rho, sigma) -> float:
    """Tr{rho ln rho - rho ln sigma}; +inf when rho leaves sigma's support."""
    return float(_petz_renyi(1.0, *_state_pair(rho, sigma)))


def relative_entropy_spectral(rho, sigma_vals, sigma_vecs) -> float:
    """Relative entropy against a reference given by its exact spectral
    data (e.g. a Gibbs state built from its Hamiltonian).

    Avoids re-diagonalizing the reference, so exponentially small but
    genuine weights keep accurate logarithms instead of being zeroed as
    eigensolver round-off.
    """
    p, pv = _spectrum(rho)
    amp = np.asarray(sigma_vecs, dtype=complex).conj().T @ pv
    return float(_petz_renyi(1.0, p, np.asarray(sigma_vals, dtype=float), amp))


def renyi_divergence(rho, sigma, alpha) -> float:
    """Petz-Renyi divergence (alpha-1)^-1 ln Tr rho^a sigma^(1-a), with the
    relative entropy at alpha = 1, the support limit at alpha = 0 and the
    max-ratio limit at alpha = inf (`_petz_renyi`)."""
    return float(_petz_renyi(alpha, *_state_pair(rho, sigma)))


def classical_kl(p, q) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) of probability vectors:
    the diagonal case of the relative entropy."""
    return float(_petz_renyi(1.0, *_probability_pair(p, q)))


def mutual_information(rho: DensityOperator, part_a) -> float:
    """S(rho_A) + S(rho_B) - S(rho_AB) for the bipartition (part_a | rest)."""
    n = len(rho.dims)
    part_a = sorted(set(int(i) for i in part_a))
    if not part_a or part_a[0] < 0 or part_a[-1] >= n:
        raise CoreError(f"invalid bipartition {part_a} of {n} factors")
    part_b = [i for i in range(n) if i not in part_a]
    if not part_b:
        raise CoreError("bipartition must leave a non-empty complement")
    rho_a = partial_trace(rho, part_a)
    rho_b = partial_trace(rho, part_b)
    return (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
            - von_neumann_entropy(rho))


def thermal_state(hamiltonian, beta: float) -> DensityOperator:
    """Gibbs state e^{-beta H}/Z, computed with a max-shift for safety."""
    if not np.isfinite(beta) or beta < 0:
        raise CoreError(f"inverse temperature must be finite and >= 0, got {beta}")
    h = _mat(hamiltonian)
    vals, vecs = np.linalg.eigh(h)
    w = np.exp(-beta * (vals - vals.min()))
    w = w / w.sum()
    m = (vecs * w) @ vecs.conj().T
    return DensityOperator(m, _dims_of(hamiltonian, h.shape[0]))


def trace_distance(rho1, rho2) -> float:
    """Half the trace norm of the difference; in [0, 1] for states."""
    a = _mat(rho1)
    b = _mat(rho2)
    if a.shape != b.shape:
        raise CoreError(f"dimension mismatch {a.shape} vs {b.shape}")
    diff = (a - b + (a - b).conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# Dephasing and coherence
# ---------------------------------------------------------------------------

def eigenspace_projectors(hamiltonian, degeneracy_tol=1e-9):
    """Projectors onto the eigenspaces of H, grouping near-degenerate levels.

    Eigenvalues within degeneracy_tol * max(1, ||H||) of each other share a
    block, so the projection is block-diagonal and never resolves an
    accidental degeneracy into an arbitrary basis.
    """
    h = _mat(hamiltonian)
    vals, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(vals).max()) if vals.size else 1.0)
    tol = degeneracy_tol * scale
    projectors = []
    energies = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            block = vecs[:, start:i]
            projectors.append(block @ block.conj().T)
            energies.append(float(vals[start:i].mean()))
            start = i
    return energies, projectors


def dephase(rho, hamiltonian, degeneracy_tol=1e-9):
    """Remove all coherences between distinct eigenspaces of H."""
    r = _mat(rho)
    _, projs = eigenspace_projectors(hamiltonian, degeneracy_tol)
    out = np.zeros_like(r)
    for p in projs:
        out += p @ r @ p
    if isinstance(rho, DensityOperator):
        return DensityOperator(out, rho.dims)
    return out


def relative_entropy_of_coherence(rho, hamiltonian, degeneracy_tol=1e-9) -> float:
    """C(rho) = S(Delta_H(rho)) - S(rho) >= 0, zero iff already block-diagonal."""
    deph = dephase(rho, hamiltonian, degeneracy_tol)
    return von_neumann_entropy(deph) - von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# Matrix functions used across modules
# ---------------------------------------------------------------------------

def hermitian_function(matrix, fn):
    """Apply a scalar function to a Hermitian matrix via eigendecomposition."""
    m = _mat(matrix)
    vals, vecs = np.linalg.eigh(m)
    return (vecs * fn(vals)) @ vecs.conj().T


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
        """U rho U^dag on a dense rho, for the block-diagonal U with these
        blocks: one row block, then one column block per sector.  Returns
        a new array."""
        out = np.array(rho, dtype=complex)
        for idx, u in zip(self.index, blocks):
            out[idx] = u @ out[idx]
        for idx, u in zip(self.index, blocks):
            out[:, idx] = out[:, idx] @ u.conj().T
        return out


def logm_psd(matrix):
    """Matrix logarithm of a PSD matrix on its support (pseudo-log)."""
    vals, vecs = _spectrum(matrix)
    logs = np.log(np.where(vals > 0.0, vals, 1.0))          # 0 off the support
    return (vecs * logs) @ vecs.conj().T


# ---------------------------------------------------------------------------
# JSON (de)serialization: {"dims": [...], "re": [[...]], "im": [[...]]}
# ---------------------------------------------------------------------------

def matrix_to_json(matrix, dims=None) -> dict:
    m = np.asarray(matrix, dtype=complex)
    d = dims.factors if isinstance(dims, HilbertDims) else (dims or [m.shape[0]])
    return {
        "dims": [int(x) for x in d],
        "re": np.real(m).tolist(),
        "im": np.imag(m).tolist(),
    }


def matrix_from_json(obj):
    try:
        dims = HilbertDims(tuple(int(x) for x in obj["dims"]))
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise CoreError(f"malformed matrix object: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise CoreError("re/im parts must be matching 2-d arrays")
    m = re + 1j * im
    if m.shape[0] != m.shape[1] or m.shape[0] != dims.total:
        raise CoreError(f"matrix shape {m.shape} inconsistent with dims {dims.factors}")
    return m, dims
