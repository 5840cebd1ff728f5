"""Seeded random operators for tests, verification suites and sweeps."""

from __future__ import annotations

import numpy as np

from .core import CoreError, DensityOperator, HermitianOperator, UnitaryOperator, _integer


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ginibre(rng, shape) -> np.ndarray:
    """Complex Ginibre entries of `shape`, e.g. a stack of matrices in one
    draw: the real parts of all drawn first, then the imaginary."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitaries(z) -> np.ndarray:
    """Haar-random unitaries from the QR decompositions of Ginibre matrices
    (one or a stack), phases fixed by diag(R) so a draw is deterministic."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def density_matrices(g) -> np.ndarray:
    """States g g^dag / Tr(g g^dag) of Ginibre factors (one or a stack)."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1)[..., None, None]


def random_unitary(dim: int, rng, dims=None) -> UnitaryOperator:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    return UnitaryOperator.from_matrix(haar_unitaries(ginibre(rng_from(rng), (dim, dim))), dims)


def random_hermitian(dim: int, rng, scale=1.0, dims=None) -> HermitianOperator:
    z = ginibre(rng_from(rng), (dim, dim))
    return HermitianOperator.from_matrix(scale * (z + z.conj().T) / 2.0, dims)


def random_density(dim: int, rng, rank=None, dims=None) -> DensityOperator:
    """Random full-rank (or rank-limited, rank an integer >= 1) state from a Ginibre factor."""
    rank = dim if rank is None else _integer(rank, CoreError, "rank", low=1)
    return DensityOperator.from_matrix(density_matrices(ginibre(rng_from(rng), (dim, rank))), dims)


def random_probability(dim: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    p = rng.random(dim)
    return p / p.sum()
