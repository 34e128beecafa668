"""Host-speed normalisation of the benchmark's timings.

The benchmark shares a few cores of a host with other tenants.  Their
load slows every instruction this process runs, by as much as 1.8x on a
2-vCPU Xeon guest, and it changes within seconds.  The guest counts no
steal time for it, and CPU time inflates as much as wall-clock time, so
no clock and no statistic of one run's samples can separate it from the
simulator's own cost.

So every timed step is bracketed by short slices of a fixed calibration
kernel, run in this process.  A step's time is scaled by
``REFERENCE_S / c``, where ``c`` is the mean of the two slices' median
kernel times.  ``REFERENCE_S`` is the kernel's time on that host when it
is quiet, so a scaled time is the time the step would have taken on the
quiet host.  The raw host times are kept in the run records beside the
scaled ones.

A pool pass runs in worker processes on every core, so slices taken by
this process alone track it poorly.  It is bracketed instead by
:class:`ParallelSlicer` slices, which run the kernel at once in as many
helper processes as the pool has workers; the helpers sit idle while
the pass runs.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Tuple

__all__ = [
    "PARALLEL_SLICE_S",
    "REFERENCE_S",
    "SLICE_S",
    "ParallelSlicer",
    "ScaledClock",
    "calibration_slice",
    "kernel",
]

#: The kernel's time on a quiet host: the fifth percentile of 1200
#: per-slice medians (48 s) on a 2-vCPU Intel Xeon guest, CPython 3.11.
REFERENCE_S = 0.77e-3
#: Host time one calibration slice runs for.
SLICE_S = 0.04
#: Host time one helper runs its kernel for in a parallel slice.
PARALLEL_SLICE_S = 0.3


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 3 % 17
        self.next: Optional[_Node] = None


def kernel() -> int:
    """Fixed interpreter work in the simulator's idiom: object creation,
    attribute traffic along a linked list, dict and branch operations."""
    nodes = [_Node(key) for key in range(500)]
    for previous, node in zip(nodes, nodes[1:]):
        previous.next = node
    table: dict = {}
    total = 0
    for sweep in range(8):
        node: Optional[_Node] = nodes[0]
        while node is not None:
            slot = (node.key * 7 + sweep) & 1023
            table[slot] = table.get(slot, 0) + node.weight
            total += node.weight if node.key & 1 else -1
            node = node.next
    return total


def calibration_slice(seconds: float = SLICE_S) -> float:
    """Median kernel time over about ``seconds`` of host time."""
    samples = []
    start = time.perf_counter()
    while True:
        tick = time.perf_counter()
        kernel()
        tock = time.perf_counter()
        samples.append(tock - tick)
        if tock - start >= seconds and len(samples) >= 3:
            return statistics.median(samples)


class ParallelSlicer:
    """Calibration slices run at once in ``workers`` helper processes.

    Calling it returns the mean of the helpers' median kernel times.  Use
    it as a context manager: leaving it stops the helpers and waits for
    them to end.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)

    def __call__(self) -> float:
        futures = [
            self._pool.submit(calibration_slice, PARALLEL_SLICE_S) for _ in range(self.workers)
        ]
        return statistics.mean(future.result() for future in futures)

    def __enter__(self) -> "ParallelSlicer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True)


class ScaledClock:
    """Times steps in quiet-host seconds.

    :meth:`start` takes a calibration slice; each :meth:`lap` runs one
    step, takes the slice after it and scales the step by the mean of its
    two slices.  The slice after a lap serves as the slice before the
    next, so back-to-back laps cost one slice each.  Call :meth:`start`
    again after untimed work.
    """

    def __init__(self, slicer: Callable[[], float] = calibration_slice) -> None:
        self._slicer = slicer
        self._before: Optional[float] = None
        #: Every slice's kernel time over REFERENCE_S, for the run record.
        self.slowdowns: list = []

    def _slice(self) -> float:
        value = self._slicer()
        self.slowdowns.append(value / REFERENCE_S)
        return value

    def start(self) -> None:
        self._before = self._slice()

    def lap(self, step: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``step()``; return its result, raw seconds and scaled seconds."""
        if self._before is None:
            self.start()
        tick = time.perf_counter()
        result = step()
        raw = time.perf_counter() - tick
        after = self._slice()
        scaled = raw * REFERENCE_S * 2.0 / (self._before + after)
        self._before = after
        return result, raw, scaled
