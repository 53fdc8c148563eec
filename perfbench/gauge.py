"""Machine-speed gauge: a fixed reference computation timed between the work.

On a shared machine the same code runs up to 1.7 times slower for
stretches of ten to thirty seconds while other tenants' work runs, and
process CPU time slows down with it.  No estimator over the work's own
timings removes that: a run that falls in a slow stretch is slow.  The
gauge times a fixed pure-Python computation, of the same kind as the
program's own work (integer bit operations, floats, lists, dicts and
small calls), between the units of work of a run.  A unit's time
multiplied by the scale of the readings around it is expressed on a
machine on which the reference takes ``REFERENCE_S``: a slow stretch
slows the work and the reference alike and cancels, while a change in
the program moves only the work.
"""

from __future__ import annotations

import statistics
import time

# Mean time of one reference() on the 2-vCPU x86-64 machine the
# README's baseline figures come from.  Only ratios of scaled times are
# compared, so this constant fixes the unit and nothing else.
REFERENCE_S = 0.0065


def _mix(a: int, b: int) -> int:
    return ((a ^ (b << 1)) & 0xFFFFFFFF) | (a & b).bit_count()


def reference() -> float:
    """A fixed computation whose time tracks the machine's speed."""
    words = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]
    seen = {}
    acc, x = 0, 0.5
    for i in range(6000):
        w = words[i & 255]
        acc = _mix(acc, w)
        seen[acc & 1023] = i
        x = min(x + 0.25, abs(x - (w & 7) * 0.125) + 1e-3)
    return acc + x + len(seen)


class Gauge:
    """Reference timings taken between the units of work of a run.

    A unit of work timed right after ``tick()`` is scaled by the mean of
    the reading that tick returns and the next one, the readings that
    bracket it; so end every run with a forced tick."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self, force: bool = False) -> int:
        """Time the reference now if ``every_s`` has passed since the last
        reading; return the index of the latest reading.

        Call it between timed units of work, never inside one."""
        now = time.perf_counter()
        if force or now >= self._next or not self.samples:
            reference()
            self.samples.append(time.perf_counter() - now)
            self._next = time.perf_counter() + self.every_s
        return len(self.samples) - 1

    def scale(self, index: int | None = None) -> float:
        """Reference seconds per measured second: for a unit of work timed
        after reading ``index``, or over the whole run."""
        readings = self.samples if index is None else self.samples[index:index + 2]
        return REFERENCE_S / statistics.fmean(readings)
