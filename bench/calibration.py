"""Host speed, measured with a fixed piece of work that is not the program.

The host this benchmark was built on alternates between a fast state and
one about 1.6 times slower, for seconds to minutes at a time, and the
guest cannot see it (process CPU time tracks wall time).  A run of any
length this benchmark can afford may fall wholly in either state.  So the
workers time a calibration slice between operations: the same many tiny
eigendecompositions and one dense one every time, the two kinds of work
the workloads are made of.  A slice's time over
``REFERENCE_S`` is the host's slowness factor at that moment, and every
reported time is divided by the factor measured around it.  The slice
calls nothing in entroprod, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Slice time on the reference host in its fast state (2-core VM,
# one BLAS thread), so that a calibrated time reads in seconds of that host.
REFERENCE_S = 0.035

# A slice is taken after any operation that ends this long after the last.
EVERY_S = 0.5

_RNG = np.random.default_rng(0)
_DENSE = _RNG.normal(size=(200, 200))
_TINY = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_TINY = _TINY + _TINY.conj().T
# Bound now, before the tracer can wrap numpy.linalg, so that a slice
# never shows in the traced counts.
_EIG, _EIGH = np.linalg.eig, np.linalg.eigh


def slowness() -> float:
    """Time one calibration slice; returns it as a multiple of REFERENCE_S."""
    t0 = time.perf_counter()
    for _ in range(1000):
        _EIGH(_TINY)
    _EIG(_DENSE)
    return (time.perf_counter() - t0) / REFERENCE_S
