"""Tiny importable jobs for exercising the runner itself.

The pool executes jobs by (module path, function name), so tests need
target functions that resolve in worker processes.  Workers inherit the
test session's ``sys.path`` under fork, forkserver and spawn alike, so
``tests.runner_jobs`` resolves in them as it does in the session.
"""

from __future__ import annotations

import time
from pathlib import Path


def ok(text: str = "ok", delay: float = 0.0) -> str:
    """Succeed after an optional delay."""
    if delay:
        time.sleep(delay)
    return text


def boom(message: str = "boom") -> str:
    """Always fail."""
    raise RuntimeError(message)


def sleepy(seconds: float = 5.0) -> str:
    """Sleep long enough to trip a short watchdog timeout."""
    time.sleep(seconds)
    return f"slept {seconds}"


def flaky(marker_dir: str) -> str:
    """Fail on the first call, succeed once a marker file exists.

    The marker lives on disk so the retry may land in a different
    worker process and still see the first attempt.
    """
    marker = Path(marker_dir) / "flaky.attempted"
    if marker.exists():
        return "recovered"
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("1", encoding="utf-8")
    raise RuntimeError("first attempt always fails")
