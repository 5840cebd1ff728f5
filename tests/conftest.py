"""Tier-1 cannot hang: a test still running after TEST_TIME_LIMIT seconds
fails with its name.  The limit is a SIGALRM interval timer from the
standard library (pytest-timeout is not a dependency); where there is no
`signal.setitimer` there is no limit."""

import signal

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
