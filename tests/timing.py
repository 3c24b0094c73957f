"""A hard time limit for tests that must not hang (pytest-timeout is not used)."""

from __future__ import annotations

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time have passed.

    Uses SIGALRM, so it works in the main thread of a POSIX process only.
    """
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
