"""Shared test plumbing: the acceptance-criteria scoreboard and a time
limit.

Acceptance tests wrap their assertions in `acceptance(...)` so every
criterion reports one PASS/FAIL line in the terminal summary, whatever
order pytest ran things in and even when a criterion fails.  A test that
must not hang wraps a call in `time_limit(seconds)`.
"""

import signal
from contextlib import contextmanager

_SCOREBOARD: dict[int, tuple[str, bool, str]] = {}


@contextmanager
def acceptance(number: int, description: str):
    try:
        yield
    except BaseException as exc:
        first = str(exc).strip().splitlines()
        _SCOREBOARD[number] = (description, False, first[0] if first else "")
        raise
    _SCOREBOARD[number] = (description, True, "")


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once it has run `seconds`, by an
    interval timer on this process (Python code is stopped between two
    bytecodes, so one long native call finishes first)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_SCOREBOARD):
        description, passed, note = _SCOREBOARD[n]
        line = f"[criterion {n:2d}] {'PASS' if passed else 'FAIL'}  {description}"
        if note:
            line += f" :: {note}"
        terminalreporter.write_line(line)
    failed = sum(1 for _, ok, _ in _SCOREBOARD.values() if not ok)
    terminalreporter.write_line(
        f"criteria: {len(_SCOREBOARD) - failed} passed, {failed} failed"
    )
