"""A fixed unit of interpreter work, timed next to every measured op.

The benchmark runs on a few cores of a shared host, whose speed for this
process changes from minute to minute: the same op, and the unit below,
can take twice as long in one run as in the next, and all of a run's
timings move together.  So each op's time is reported as it would read
on a host where the unit takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / unit

where ``unit`` is the mean of one ``sample()`` taken just before the op
and one just after it, in the same process.  The unit uses only this
directory's code (dict polynomial products, like the program's own
arithmetic), so no change to the program can move it; a program that
gets faster reads faster by the same share.  Raw wall-clock figures and
each run's speed factor (``REFERENCE_S / unit``) go to the metadata line.
"""

from __future__ import annotations

import random
import time

import lpoly

# The unit's time on an idle 2-core x86-64 container with Python 3.11.
REFERENCE_S = 0.0008
REPEATS = 8

_rng = random.Random(0)
_F, _G = ({tuple(_rng.randint(-2, 2) for _ in range(3)): _rng.randint(1, 5)
           for _ in range(12)} for _ in range(2))


def sample() -> float:
    """Seconds for REPEATS products of two fixed 3-variable polynomials."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        lpoly.mul(_F, _G)
    return time.perf_counter() - start


def scaled(seconds: float, unit: float) -> float:
    return seconds * REFERENCE_S / unit
