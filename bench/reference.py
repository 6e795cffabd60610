"""Fixed reference work that rescales measured times to one machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts:
another tenant can slow every process on the machine by a third or more
for tens of seconds, in CPU time as much as in wall time.  A run that
lands in such a stretch reads slow although the program did not change.
So the harness times fixed reference work next to the program's
operations, on the same CPU, and scales each measured time by
``nominal / reference time``: the figures it reports are what the
operations would take on a machine where the reference takes its nominal
time.  The reference is part of the benchmark, not of the program, so a
change to the program moves the scaled figures exactly as it moves the
raw ones.

Other tenants slow different kinds of work by different amounts, so each
time is scaled by a reference of its own kind:

- ``COMPUTE`` scales in-process operations.  It is a deep copy of a
  nested, config-like tree, an arithmetic loop and small NumPy calls, in
  about equal parts copy and loop, as cotv's parse-and-evaluate path mixes
  them.  Other tenants slow the copy more than cotv's operations and the
  loop less: scaled by either one alone, runs of the same code still
  drifted with the reference time, by 5-15% between runs.
- ``SPAWN`` scales whole processes (set-up and ``cotv value`` runs).  It
  starts a bare interpreter and waits for it to exit: exec, dynamic
  loading and page faults, as every process start is.  It tracked set-up
  time to within 4% (spread of the scaled times), where ``COMPUTE`` left
  21%.

Import this module only after the harness has checked that it runs in a
full checkout: it imports NumPy.
"""

from __future__ import annotations

import copy
import statistics
import subprocess
import sys
import time

import numpy as np

_GRID = np.linspace(0.0, 1.0, 2048)
_TREE = {
    "models": [{"family": "exponential", "params": {"rate": 0.01 * i, "shift": 0.0},
                "tags": ["a", "b", "c"], "meta": {"id": str(i)}} for i in range(150)],
    "index": {str(i): i for i in range(150)},
}


def _compute() -> None:
    copy.deepcopy(_TREE)
    total = 0
    for i in range(10_000):
        total += i * i
    for k in range(25):
        float(np.exp(-_GRID * (k * 1e-3)).sum())


def _spawn() -> None:
    # no timeout: with one, the wait polls with sleeps and the time it
    # reads is rounded to the polling steps
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


class Reference:
    """One kind of reference work and its nominal time."""

    def __init__(self, name: str, work, nominal_s: float):
        self.name = name
        self.work = work
        self.nominal_s = nominal_s

    def timings(self, calls: int) -> list[float]:
        """Wall time of each of ``calls`` reference calls, in seconds."""
        out = []
        for _ in range(calls):
            started = time.perf_counter()
            self.work()
            out.append(time.perf_counter() - started)
        return out

    def scale(self, samples: list[float]) -> float:
        """Factor that turns times measured beside ``samples`` into times
        at the nominal reference speed."""
        return self.nominal_s / statistics.median(samples)


# Nominal times: about the median of one call on the 2-core VM the
# benchmark was written on.
COMPUTE = Reference("compute", _compute, 0.0025)
SPAWN = Reference("spawn", _spawn, 0.012)
