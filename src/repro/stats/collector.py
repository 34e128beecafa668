"""Per-message statistics collection with warm-up handling.

Messages are numbered in creation order across the whole network: the
collector stamps each one's ``creation_index`` as it registers it.  The
first ``warmup_messages`` of them are excluded from the reported
statistics, matching the paper's methodology (10,000 warm-up injections
before the 400,000 measured ones).

The object core reports every delivery through
:meth:`StatsCollector.record_delivered`, whose Python accumulators are
the executable reference.  The flat C core keeps the same accumulators
itself, updated with the same double operations in the same order, and
the collector reads them through the core's ``tally`` (see
:meth:`StatsCollector.read_tally_from`); it then calls only the delivery
callbacks back on a delivery.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.stats.latency import LatencySummary, P2Quantile, RunningStats

if TYPE_CHECKING:  # pragma: no cover - typing-only import avoids a package cycle
    from repro.traffic.message import Message

__all__ = ["StatsCollector"]


class StatsCollector:
    """Accumulates message-level statistics for one simulation run."""

    def __init__(
        self,
        warmup_messages: int = 0,
        measure_messages: Optional[int] = None,
        num_nodes: int = 1,
    ) -> None:
        if warmup_messages < 0:
            raise ValueError("warm-up message count cannot be negative")
        self._warmup = warmup_messages
        self._measure_target = measure_messages
        self._num_nodes = max(1, num_nodes)
        self._created = 0
        self._delivered = 0
        self._measured_delivered = 0
        self._measured_flits = 0
        # p50/p99 ride on streaming P² estimators, so the headline
        # percentiles need no per-message sample list (memory stays flat
        # on 400k-message runs).
        self._total_latency = RunningStats()
        self._p50 = P2Quantile(0.5)
        self._p99 = P2Quantile(0.99)
        self._network_latency = RunningStats()
        self._hops = RunningStats()
        self._first_measured_delivery: Optional[int] = None
        self._last_delivery_cycle = 0
        #: Observers of every tail-flit ejection (closed-loop workload
        #: engines release DAG successors from here).  The object
        #: interfaces run them from ``record_delivered`` and the flat core
        #: from its own delivery accounting, so both cores fire the same
        #: callbacks at the same cycles in the same order.
        self._delivery_callbacks: List[Callable[["Message", int], None]] = []
        #: The flat core's ``tally`` once it accumulates for this collector.
        self._core_tally: Optional[Callable[[], tuple]] = None

    # -- recording ---------------------------------------------------------------

    def add_delivery_callback(
        self, callback: Callable[["Message", int], None]
    ) -> None:
        """Invoke ``callback(message, cycle)`` on every delivered tail flit.

        Callbacks see every delivery (warm-up included) and run after the
        streaming accounting; they must not retain the message (the
        collector keeps no per-message state, and observers are expected
        to match).
        """
        self._delivery_callbacks.append(callback)

    @property
    def delivery_callbacks(self) -> List[Callable[["Message", int], None]]:
        """The registered delivery callbacks: the live list, which a core
        that accounts deliveries itself calls on each one."""
        return self._delivery_callbacks

    def read_tally_from(self, tally: Callable[[], tuple]) -> None:
        """Read every delivery count and statistic from ``tally()`` from
        now on: a core that accounts deliveries itself (the flat C core)
        instead of calling :meth:`record_delivered`.  ``tally()`` returns
        :meth:`_tally`'s tuple."""
        self._core_tally = tally

    def record_created(self, message: "Message") -> None:
        """Register a newly generated message: stamp its creation index."""
        message.creation_index = self._created
        self._created += 1

    def record_delivered(self, message: "Message", cycle: int) -> None:
        """Register delivery of a message's tail flit and accumulate latency."""
        self._delivered += 1
        self._last_delivery_cycle = cycle
        index = message.creation_index
        measured = (
            index is not None
            and index >= self._warmup
            and (
                self._measure_target is None
                or index < self._warmup + self._measure_target
            )
        )
        if measured:
            self._measured_delivered += 1
            self._measured_flits += message.length
            self._total_latency.add(message.total_latency)
            self._p50.add(message.total_latency)
            self._p99.add(message.total_latency)
            self._network_latency.add(message.network_latency)
            self._hops.add(message.hops)
            if self._first_measured_delivery is None:
                self._first_measured_delivery = cycle
        for callback in self._delivery_callbacks:
            callback(message, cycle)

    # -- progress queries -----------------------------------------------------------

    @property
    def created(self) -> int:
        """Messages generated so far."""
        return self._created

    @property
    def delivered(self) -> int:
        """Messages delivered so far (including warm-up)."""
        if self._core_tally is not None:
            return self._core_tally()[0]
        return self._delivered

    @property
    def measured_delivered(self) -> int:
        """Measured (post-warm-up) messages delivered so far."""
        if self._core_tally is not None:
            return self._core_tally()[1]
        return self._measured_delivered

    @property
    def warmup_messages(self) -> int:
        """Number of leading messages excluded from statistics."""
        return self._warmup

    @property
    def measure_messages(self) -> Optional[int]:
        """Messages measured after the warm-up (None: every later one)."""
        return self._measure_target

    def all_measured_delivered(self) -> bool:
        """True once every intended measured message has been delivered."""
        if self._measure_target is None:
            return False
        return self.measured_delivered >= self._measure_target

    # -- summary ----------------------------------------------------------------------

    def _tally(self) -> Tuple:
        """The delivery accounting: ``(delivered, measured, measured
        flits, first measured delivery cycle or None, last delivery cycle,
        moments of the total latency, of the network latency and of the
        hops, p50, p99 of the total latency)``, each moments entry
        :meth:`RunningStats.moments`."""
        if self._core_tally is not None:
            return self._core_tally()
        return (
            self._delivered,
            self._measured_delivered,
            self._measured_flits,
            self._first_measured_delivery,
            self._last_delivery_cycle,
            self._total_latency.moments(),
            self._network_latency.moments(),
            self._hops.moments(),
            self._p50.value,
            self._p99.value,
        )

    def summary(self, cycles: int, saturated: bool = False) -> LatencySummary:
        """Aggregate the collected statistics over ``cycles`` simulated cycles."""
        delivered, measured, flits, first, last, total, network, hops, p50, p99 = (
            self._tally()
        )
        if self._measure_target:
            completion = measured / self._measure_target
        else:
            completion = 1.0 if self._created == 0 else delivered / self._created
        if first is not None and cycles > 0:
            window = max(1, last - first + 1)
            throughput = flits / (window * self._num_nodes)
        else:
            throughput = 0.0
        _, avg_total, variance, _, max_total = total
        return LatencySummary(
            created=self._created,
            delivered=delivered,
            measured=measured,
            avg_total_latency=avg_total,
            avg_network_latency=network[1],
            std_total_latency=math.sqrt(variance),
            max_total_latency=max_total,
            avg_hops=hops[1],
            throughput=throughput,
            cycles=cycles,
            completion_ratio=completion,
            saturated=saturated,
            p50_total_latency=p50,
            p99_total_latency=p99,
        )

    def __repr__(self) -> str:
        return (
            f"StatsCollector(created={self._created}, delivered={self.delivered}, "
            f"measured={self.measured_delivered})"
        )
