"""Run a child interpreter and time it precisely.

``subprocess.run(..., timeout=...)`` reaps the child by polling with sleeps
that back off up to 50 ms, which rounds a child's measured time to that
schedule.  Here the parent blocks in ``waitpid`` instead, and the time limit
comes from SIGALRM, which interrupts the wait and kills the child.
"""
from __future__ import annotations

import signal
import subprocess
import sys

TIME_LIMIT_S = 120


class ChildTimeout(Exception):
    pass


def _expired(signum, frame):
    raise ChildTimeout(f"child ran longer than {TIME_LIMIT_S} s")


def run_python(args: list[str], env: dict, cwd: str) -> tuple[int, str, str]:
    """Run ``python <args>``; its exit status, stdout and stderr."""
    previous = signal.signal(signal.SIGALRM, _expired)
    with subprocess.Popen(
        [sys.executable, *args], env=env, cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as p:
        signal.alarm(TIME_LIMIT_S)
        try:
            out, err = p.communicate()
        except ChildTimeout:
            p.kill()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return p.returncode, out, err
