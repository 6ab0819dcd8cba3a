"""The per-test time limit (conftest.py) and the shorter limits inside tests."""

import signal

import pytest

from helpers import TimeLimitExceeded, time_limit

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


def test_inner_limit_fires_and_restores_the_per_test_limit():
    outer_left, _ = signal.getitimer(signal.ITIMER_REAL)
    outer = signal.getsignal(signal.SIGALRM)
    assert outer_left > 0  # conftest armed it
    with time_limit(5):
        pass
    with pytest.raises(TimeLimitExceeded, match="spin did not finish within 0.05 s"):
        with time_limit(0.05, "spin"):
            while True:
                pass
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= outer_left
    assert signal.getsignal(signal.SIGALRM) is outer


def test_limit_is_not_an_exception():
    """Hypothesis shrinks on an Exception; the limit must end the test instead."""
    assert not issubclass(TimeLimitExceeded, Exception)
