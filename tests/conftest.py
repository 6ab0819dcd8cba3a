"""Every test fails after TEST_LIMIT_S seconds instead of hanging.

The limit is far above the slowest test (about 8 s); a test that passes
it has almost surely stopped making progress, and the run moves on to
the next test instead of sitting until the CI job's own timeout."""

import signal

import pytest

from helpers import time_limit

TEST_LIMIT_S = 60


@pytest.fixture(autouse=True)
def _test_time_limit(request):
    if not hasattr(signal, "setitimer"):
        yield
        return
    with time_limit(TEST_LIMIT_S, request.node.nodeid):
        yield
