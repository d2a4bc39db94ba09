import signal

import pytest

import conftest


def test_expiry_fails_the_test_and_rearms_short(monkeypatch):
    # Hypothesis catches the failure and replays the example, so after the
    # first expiry the guard fires again within a second, not a minute.
    armed = []
    monkeypatch.setattr(signal, "setitimer", lambda which, seconds: armed.append((which, seconds)))
    with pytest.raises(pytest.fail.Exception, match="longer than 60 s"):
        conftest._expired(signal.SIGALRM, None)
    assert armed == [(signal.ITIMER_REAL, 1)]
