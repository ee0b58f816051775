"""A speed probe, for reporting times at a fixed reference speed of the CPU.

The machine this benchmark was tuned on (2 vCPUs of a shared Intel Xeon VM)
switches between two speeds: in the slow state, which lasts from a tenth of
a second to tens of seconds, pure-Python work takes 1.5 to 1.6 times longer.
Runs of the same code therefore differ by whatever share of their time fell
in the slow state.  The probe is a fixed pure-Python task that shares no code
with pinquad.  A run times it between ops, and scales each op's time by
reference / (mean of the probes just before and after the op), which is the
op's time at the speed where the probe takes ``reference_ms``.

For the CLI workload the probe is a child interpreter that imports the
standard modules pinquad's CLI imports and then runs the same task, so that
it pays process start-up and imports as a ``pinquad`` command does; their
cost drifts apart from that of Python code.
"""
from __future__ import annotations

import time

import child

# the value table of one fixed enhancement on 2^14 classes, built by
# doubling as pinquad's forms layer does
PROBE_SOURCE = """
def probe(reps):
    for _ in range(reps):
        table = [0]
        for i in range(14):
            mask = 0x2B5D & ((1 << i) - 1)
            v = i & 3
            table += [(t + v + 2 * ((x & mask).bit_count() & 1)) & 3 for x, t in enumerate(table)]
"""
_ns: dict = {}
exec(PROBE_SOURCE, _ns)
_probe = _ns["probe"]

CHILD_SOURCE = "import argparse, dataclasses, fractions, json\n" + PROBE_SOURCE + "probe(10)\n"

# typical probe times in the fast state of the machine named above
IN_PROCESS_REFERENCE_MS = 1.75
CHILD_REFERENCE_MS = 100.0


class Probe:
    """Times the probe in this process, or in a child interpreter."""

    def __init__(self, child_env: dict | None = None, cwd: str | None = None):
        self.child_env = child_env
        self.cwd = cwd
        self.reference_ms = IN_PROCESS_REFERENCE_MS if child_env is None else CHILD_REFERENCE_MS
        self.every_s = 0.1 if child_env is None else 1.0

    def __call__(self) -> float:
        t0 = time.perf_counter_ns()
        if self.child_env is None:
            _probe(1)
        else:
            code, _, err = child.run_python(["-c", CHILD_SOURCE], self.child_env, self.cwd)
            if code:
                raise RuntimeError(f"speed probe failed: {err}")
        return (time.perf_counter_ns() - t0) / 1e6

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor that turns a time measured between two probes into reference time."""
        return 2 * self.reference_ms / (before_ms + after_ms)
