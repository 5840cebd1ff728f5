"""Seeded random operators for tests, verification suites and sweeps."""

from __future__ import annotations

import numpy as np

from .core import DensityOperator, HermitianOperator, UnitaryOperator


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(dim: int, rng, dims=None) -> UnitaryOperator:
    """Haar-random unitary from the QR decomposition of a Ginibre matrix."""
    rng = rng_from(rng)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the draw is deterministic given the seed
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return UnitaryOperator.from_matrix(q, dims)


def random_hermitian(dim: int, rng, scale=1.0, dims=None) -> HermitianOperator:
    rng = rng_from(rng)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator.from_matrix(scale * (z + z.conj().T) / 2.0, dims)


def random_density(dim: int, rng, rank=None, dims=None) -> DensityOperator:
    """Random full-rank (or rank-limited) state from a Ginibre factor."""
    rng = rng_from(rng)
    rank = dim if rank is None else int(rank)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m = m / np.trace(m)
    return DensityOperator.from_matrix(m, dims)


def random_probability(dim: int, rng) -> np.ndarray:
    rng = rng_from(rng)
    p = rng.random(dim)
    return p / p.sum()
