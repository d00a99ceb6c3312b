"""Wall times scaled to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by a third over
minutes as neighbours come and go, while a job's time at a fixed speed
repeats to about 2%. A fixed pure-Python kernel that does the kind of work
ctrd does (frozen dataclasses, tuple hashing, dict copies, small sorts,
sets of event pairs composed as relations) is
timed right before and right after each measured interval, as the median
of three passes so that one preempted pass does not count. The interval's
wall time is reported scaled by REFERENCE_S over the mean of the two kernel
times: the time the interval would have taken on a machine that runs the
kernel in exactly REFERENCE_S. Where the machine runs the kernel in about
REFERENCE_S, scaled and raw times agree.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Optional

REFERENCE_S = 0.008
_EVENTS = 700
_PASSES = 3


@dataclass(frozen=True)
class _Event:
    client: int
    n: int


def _kernel() -> int:
    # records, hashing and dict copies, as in configuration keys and copies
    table: dict = {}
    acc = 0
    for i in range(_EVENTS):
        ev = _Event(i % 7, i)
        table[ev] = dict(table) if i % 500 == 0 else (i, i + 1)
        acc ^= hash((ev, i))
        acc += sorted([(i * 7) % 13, (i * 5) % 11, i % 3])[0]
    # relation algebra over event pairs, as in the checkers
    events = list(table)
    rel = {(events[i], events[(i * 31) % _EVENTS]) for i in range(_EVENTS)}
    rel |= {(b, a) for a, b in rel}
    succ: dict = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    composed = {(a, c) for a, b in rel for c in succ[b]}
    order = sorted(succ, key=lambda e: (e.client, e.n))
    return acc ^ hash(frozenset(composed)) ^ len(order)


def kernel_seconds() -> float:
    """Seconds one kernel pass takes now (median of three passes), after
    collecting earlier garbage."""
    gc.collect()
    passes = []
    for _ in range(_PASSES):
        t0 = time.perf_counter()
        _kernel()
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes)


class Scaler:
    """Scales consecutive intervals; each kernel run closes one interval
    and opens the next."""

    def __init__(self, calibrate_now: bool = True) -> None:
        self.before: Optional[float] = kernel_seconds() if calibrate_now else None

    def scale(self, wall: float) -> float:
        after = kernel_seconds()
        before = after if self.before is None else self.before
        self.before = after
        return wall * REFERENCE_S / ((before + after) / 2)
