"""A fixed piece of work that measures how fast the host runs right now.

The host is shared, and its speed drifts by tens of percent over minutes.
The same Python work, run in the same moments as the program, slows down
with it.  So the benchmark times this reference between the program's
calls and states each time in reference units (see run.py).  Nothing here
imports wzs, so a change to the program cannot change the reference.

The mix mirrors what wzs spends its time on: sets of products mod n, the
least element of each, and OR-ing shifted big-integer masks.

Calls that start a process of their own, such as the `wzs` CLI calls and
the workers' set-up, are matched by `timed_child`: a fresh interpreter that
makes CHILD_CALLS reference calls, timed from spawn to exit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

MODULUS = 1999
CHILD_CALLS = 3
FULL = (1 << MODULUS) - 1


def work() -> int:
    """One reference call; returns a checksum so the work cannot be skipped."""
    n, acc = MODULUS, 0
    for x in range(2, 90):
        orbit = {a * x % n for a in range(1, n, 3)}
        acc += min(orbit) + len(orbit)
        mask = 1
        for r in sorted(orbit)[:40]:
            mask |= ((mask << r) | (mask >> (n - r))) & FULL
        acc ^= mask.bit_count()
    return acc


_checksum: list[int] = []


def timed() -> float:
    """Seconds one reference call takes now."""
    t0 = perf_counter()
    value = work()
    elapsed = perf_counter() - t0
    if _checksum and value != _checksum[0]:
        raise RuntimeError("the reference work gave a different checksum")
    _checksum[:] = [value]
    return elapsed


def timed_child() -> float:
    """Seconds a fresh interpreter takes to start and make CHILD_CALLS calls."""
    t0 = perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return perf_counter() - t0


if __name__ == "__main__":
    for _ in range(CHILD_CALLS):
        work()
