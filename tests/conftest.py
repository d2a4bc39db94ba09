"""Suite-wide time limit: a test that runs longer than a minute fails.

A wrong elimination can loop instead of raising, and one such test would
stall the whole run.  Every test arms a real-time interval timer; when it
expires the handler fails the test by name, and re-arms the timer so code
that catches the first failure and carries on is stopped again.  The
re-arm is short: hypothesis catches the failure and replays the example
(about a dozen times), and each replay should cost a second, not a
minute.
"""

import signal

import pytest

LIMIT_S = 60
REARM_S = 1


def _expired(signum, frame):
    signal.setitimer(signal.ITIMER_REAL, REARM_S)
    pytest.fail(f"test ran longer than {LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
