"""Tier-1 cannot hang: a test still running after TEST_TIME_LIMIT seconds
fails with its name.  The limit is a SIGALRM interval timer from the
standard library (pytest-timeout is not a dependency); where there is no
`signal.setitimer` there is no limit.  The `count_spectral` fixture counts the
package's Hermitian eigendecompositions at its one kernel, and `liouvillian_run`
runs the liouvillian suite once for the tests that read it with no defect."""

import signal
import sys
import time

import pytest

# The largest acceptance budget is 60 s, and the slowest test takes a few.
TEST_TIME_LIMIT = 120.0


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT:.0f} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def count_spectral(monkeypatch):
    """count_spectral(record) patches the package's one Hermitian eigensolver, `core._eigh`
    and `core._eigvalsh`, under every name a module of entroprod binds it by, so that each
    call first runs record(kind, matrix), kind "eigh" or "eigvalsh", closed-form and LAPACK
    decompositions alike; `monkeypatch.undo()` restores it."""

    def patch(record):
        from entroprod import core
        kernels = {core._eigh: "eigh", core._eigvalsh: "eigvalsh"}
        for name, module in list(sys.modules.items()):
            for attr in ("_eigh", "_eigvalsh") if name.startswith("entroprod") else ():
                fn = getattr(module, attr, None)
                if fn in kernels:
                    monkeypatch.setattr(module, attr, lambda m, _fn=fn, _kind=kernels[fn]:
                                        record(_kind, m) or _fn(m))
    return patch


@pytest.fixture(scope="session")
def liouvillian_run():
    """The records of one run of the liouvillian suite and that run's own elapsed seconds,
    shared by acceptance criterion 10 and the planted-defect test without a defect."""
    from entroprod import verify
    start = time.time()
    records = verify.liouvillian_suite()
    return records, time.time() - start
