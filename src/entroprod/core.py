"""Finite-dimensional operator algebra and the entropy/divergence toolbox.

Conventions used throughout the package: hbar = k_B = 1 and every entropy
is measured in nats (natural logarithm).  Operators live on a tensor
product of finite-dimensional factors and carry their factor dimensions,
so partial traces, bipartite splits and dephasings are unambiguous.

All values are immutable; functions never mutate their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# A sigma-eigenvalue below this counts as "outside the support" of sigma.
SUPPORT_EIG_CUT = 1e-12
# Probability mass of rho on the null space of sigma beyond this triggers
# an infinite relative entropy.
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
        return int(np.prod(self.factors))

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


def _frozen_matrix(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise CoreError(f"expected a square matrix, got shape {m.shape}")
    # Every later check has the form `err > tol`, which is False for NaN.
    if not np.isfinite(m).all():
        raise CoreError("matrix has NaN or infinite entries")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class HermitianOperator:
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
        m, dims = matrix_from_json(obj)
        return cls(m, dims)


@dataclass(frozen=True)
class DensityOperator:
    """Positive unit-trace Hermitian matrix: the universal state type."""

    matrix: np.ndarray
    dims: HilbertDims

    def __post_init__(self):
        m = _frozen_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", _as_dims(self.dims, m.shape[0]))
        herm_err = np.abs(m - m.conj().T).max()
        if herm_err > HERMITICITY_TOL:
            raise CoreError(f"density matrix not Hermitian (residual {herm_err:.3e})")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise CoreError(f"density matrix trace {tr} differs from 1")
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if evals.min() < -EIG_FLOOR:
            raise CoreError(f"density matrix has negative eigenvalue {evals.min():.3e}")

    @classmethod
    def from_matrix(cls, matrix, dims=None):
        m = np.asarray(matrix, dtype=complex)
        return cls(m, _as_dims(dims, m.shape[0]))

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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eig(self):
        """Eigenvalues (clamped to [0, 1]) and eigenvectors, ascending."""
        vals, vecs = np.linalg.eigh(self.matrix)
        return _clamp_probs(vals), vecs

    def to_json(self) -> dict:
        return matrix_to_json(self.matrix, self.dims)

    @classmethod
    def from_json(cls, obj):
        m, dims = matrix_from_json(obj)
        return cls(m, dims)


@dataclass(frozen=True)
class UnitaryOperator:
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
        m, dims = matrix_from_json(obj)
        return cls(m, dims)


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
    if isinstance(op, (DensityOperator, HermitianOperator, UnitaryOperator)):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _dims_of(op, size=None) -> HilbertDims:
    if isinstance(op, (DensityOperator, HermitianOperator, UnitaryOperator)):
        return op.dims
    m = np.asarray(op)
    return HilbertDims((m.shape[0] if size is None else size,))


def _clamp_probs(vals: np.ndarray) -> np.ndarray:
    """Clamp numerical PSD noise; reject genuinely negative eigenvalues."""
    vals = np.asarray(vals, dtype=float)
    if vals.min() < -EIG_FLOOR:
        raise CoreError(f"eigenvalue {vals.min():.3e} below the clamping floor")
    return np.where(vals < 0.0, 0.0, vals)


# ---------------------------------------------------------------------------
# Tensor algebra
# ---------------------------------------------------------------------------

def tensor(ops):
    """Kronecker product of a list of operators, in the order given.

    Accepts wrapped operators or bare arrays and always returns the bare
    ndarray; `tensor_dims` gives the matching factor bookkeeping.
    """
    ops = list(ops)
    if not ops:
        raise CoreError("tensor() needs at least one operand")
    out = _mat(ops[0])
    for op in ops[1:]:
        out = np.kron(out, _mat(op))
    return out


def tensor_dims(ops) -> HilbertDims:
    dims = []
    for op in ops:
        dims.extend(_dims_of(op).factors)
    return HilbertDims(tuple(dims))


def _ptrace_matrix(mat, factors, keep):
    """Partial trace of `mat` over the factors not listed in `keep`."""
    factors = tuple(int(f) for f in factors)
    n = len(factors)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise CoreError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise CoreError(f"keep indices {keep} out of range for {n} factors")
    t = np.asarray(mat, dtype=complex).reshape(factors + factors)
    row = list(range(n))
    col = [n + k if k in keep else k for k in range(n)]
    out = [k for k in keep] + [n + k for k in keep]
    reduced = np.einsum(t, row + col, out)
    d = int(np.prod([factors[k] for k in keep]))
    return reduced.reshape(d, d)


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


def kraus_superop(kraus) -> np.ndarray:
    """Matrix of rho -> sum_k K_k rho K_k^dag, i.e. sum_k conj(K_k) kron K_k."""
    return sum(np.kron(k.conj(), k) for k in kraus)


def add_lindblad_term(superop, a, b, rate=1.0):
    """Add rate * (a rho b^dag - 1/2 {b^dag a, rho}) to `superop` in place.

    a = b = L gives the dissipator D[L]; a != b gives one cross term of a
    Kossakowski matrix.
    """
    eye = np.eye(a.shape[0])
    bda = b.conj().T @ a
    superop += rate * np.kron(b.conj(), a)
    superop -= (0.5 * rate) * np.kron(eye, bda)
    superop -= (0.5 * rate) * np.kron(bda.T, eye)


def ancilla_kraus(op, rho_ancilla) -> np.ndarray:
    """Stack of the system operators sqrt(q_nu) <mu|X|nu> of X on S (x) A,
    in the eigenbasis of rho_A = sum q_nu |nu><nu|, dropping q_nu = 0.

    For a unitary U they are the Kraus operators of Tr_A[U (. x rho_A) U^dag].
    """
    x = _mat(op)
    q, basis = np.linalg.eigh(_mat(rho_ancilla))
    q = _clamp_probs(q)
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
    p = _clamp_probs(np.asarray(p, dtype=float))
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def von_neumann_entropy(rho) -> float:
    """-Tr rho ln rho over the eigenvalues, in nats."""
    m = _mat(rho)
    herm_err = np.abs(m - m.conj().T).max()
    if herm_err > HERMITICITY_TOL * max(1.0, np.abs(m).max()):
        raise CoreError("von Neumann entropy of a non-Hermitian matrix")
    return shannon_entropy(np.linalg.eigvalsh(m))


def relative_entropy(rho, sigma) -> float:
    """Tr{rho ln rho - rho ln sigma}; +inf when rho leaves sigma's support."""
    r = _mat(rho)
    s = _mat(sigma)
    if r.shape != s.shape:
        raise CoreError(f"dimension mismatch {r.shape} vs {s.shape}")
    p, pv = np.linalg.eigh(r)
    p = _clamp_probs(p)
    q, qv = np.linalg.eigh(s)
    q = _clamp_probs(q)
    # rho expressed in sigma's eigenbasis
    r_in_q = qv.conj().T @ r @ qv
    diag = np.real(np.diag(r_in_q))
    null = q <= SUPPORT_EIG_CUT
    if np.sum(diag[null]) > SUPPORT_OVERLAP_TOL:
        return math.inf
    nz_p = p[p > 0.0]
    term1 = float(np.sum(nz_p * np.log(nz_p)))
    ok = ~null
    term2 = float(np.sum(diag[ok] * np.log(q[ok])))
    return term1 - term2


def relative_entropy_spectral(rho, sigma_vals, sigma_vecs) -> float:
    """Relative entropy against a reference given by its exact spectral
    data (e.g. a Gibbs state built from its Hamiltonian).

    Avoids re-diagonalizing the reference, so exponentially small but
    genuine weights keep accurate logarithms instead of being clipped to
    the numerical null space.
    """
    r = _mat(rho)
    w = np.asarray(sigma_vals, dtype=float)
    v = np.asarray(sigma_vecs, dtype=complex)
    diag = np.real(np.einsum("ik,ij,jk->k", v.conj(), r, v))
    diag = np.clip(diag, 0.0, None)
    null = w <= 0.0
    if np.sum(diag[null]) > SUPPORT_OVERLAP_TOL:
        return math.inf
    p = _clamp_probs(np.linalg.eigvalsh(r))
    nz = p[p > 0.0]
    term1 = float(np.sum(nz * np.log(nz)))
    ok = ~null
    term2 = float(np.sum(diag[ok] * np.log(w[ok])))
    return term1 - term2


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


def _psd_power(vals, vecs, power):
    # zero eigenvalues stay zero: a pseudo-power on the support
    nz = vals > SUPPORT_EIG_CUT
    pw = np.zeros_like(vals)
    pw[nz] = vals[nz] ** power
    return (vecs * pw) @ vecs.conj().T


def _support_projector(vals, vecs, cut=SUPPORT_EIG_CUT):
    nz = vals > cut
    v = vecs[:, nz]
    return v @ v.conj().T


def renyi_divergence(rho, sigma, alpha) -> float:
    """Petz-Renyi divergence (alpha-1)^-1 ln Tr rho^a sigma^(1-a).

    alpha -> 1 delegates to the relative entropy; alpha = 0 uses the
    support-projector limit and alpha = inf the max-ratio limit.
    """
    if alpha < 0:
        raise CoreError(f"negative Renyi order {alpha}")
    r = _mat(rho)
    s = _mat(sigma)
    if r.shape != s.shape:
        raise CoreError(f"dimension mismatch {r.shape} vs {s.shape}")
    if alpha == 1.0:
        return relative_entropy(r, s)
    p, pv = np.linalg.eigh(r)
    p = _clamp_probs(p)
    q, qv = np.linalg.eigh(s)
    q = _clamp_probs(q)
    if alpha == 0.0:
        proj = _support_projector(p, pv)
        val = float(np.real(np.trace(proj @ s)))
        if val <= 0.0:
            return math.inf
        return -math.log(val)
    # support condition whenever a negative power of sigma is involved
    r_in_q = qv.conj().T @ r @ qv
    mass_outside = float(np.sum(np.real(np.diag(r_in_q))[q <= SUPPORT_EIG_CUT]))
    if alpha == math.inf:
        if mass_outside > SUPPORT_OVERLAP_TOL:
            return math.inf
        s_inv_half = _psd_power(q, qv, -0.5)
        m = s_inv_half @ r @ s_inv_half
        top = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).max())
        if top <= 0.0:
            return math.inf
        return math.log(top)
    if alpha > 1.0 and mass_outside > SUPPORT_OVERLAP_TOL:
        return math.inf
    ra = _psd_power(p, pv, alpha)
    sa = _psd_power(q, qv, 1.0 - alpha)
    tr = float(np.real(np.trace(ra @ sa)))
    if tr <= 0.0:
        return math.inf if alpha > 1.0 else -math.inf
    return math.log(tr) / (alpha - 1.0)


def classical_kl(p, q) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) for probability vectors."""
    p = _clamp_probs(np.asarray(p, dtype=float))
    q = _clamp_probs(np.asarray(q, dtype=float))
    if p.shape != q.shape:
        raise CoreError("KL divergence needs equally sized vectors")
    supp = p > 0.0
    p, q = p[supp], q[supp]
    if (q <= 0.0).any():
        return math.inf
    return float(p @ np.log(p / q))


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
    r = _mat(rho)
    deph = _mat(dephase(r, hamiltonian, degeneracy_tol))
    return von_neumann_entropy(deph) - von_neumann_entropy(r)


# ---------------------------------------------------------------------------
# Matrix functions used across modules
# ---------------------------------------------------------------------------

def hermitian_function(matrix, fn):
    """Apply a scalar function to a Hermitian matrix via eigendecomposition."""
    m = _mat(matrix)
    vals, vecs = np.linalg.eigh(m)
    return (vecs * fn(vals)) @ vecs.conj().T


def logm_psd(matrix):
    """Matrix logarithm of a PSD matrix on its support (pseudo-log)."""
    m = _mat(matrix)
    vals, vecs = np.linalg.eigh(m)
    vals = _clamp_probs(vals)
    logs = np.where(vals > SUPPORT_EIG_CUT, np.log(np.where(vals > 0, vals, 1.0)), 0.0)
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
