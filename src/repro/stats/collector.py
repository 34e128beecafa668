"""Per-message statistics collection with warm-up handling.

Messages are numbered in creation order across the whole network.  The
first ``warmup_messages`` of them are excluded from the reported
statistics, matching the paper's methodology (10,000 warm-up injections
before the 400,000 measured ones).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

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
        self._order: Dict[int, int] = {}
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
        #: engines release DAG successors from here).  The collector is
        #: the single delivery point shared by the object interfaces and
        #: the flat core, so hooking here guarantees both cores fire the
        #: same callbacks at the same cycles in the same order.
        self._delivery_callbacks: List[Callable[["Message", int], None]] = []

    # -- recording ---------------------------------------------------------------

    def add_delivery_callback(
        self, callback: Callable[["Message", int], None]
    ) -> None:
        """Invoke ``callback(message, cycle)`` on every delivered tail flit.

        Callbacks see every delivery (warm-up included) and run after the
        collector's own streaming accounting; they must not retain the
        message (the collector itself keeps no per-message state after
        delivery, and observers are expected to match).
        """
        self._delivery_callbacks.append(callback)

    def record_created(self, message: "Message") -> None:
        """Register a newly generated message (assigns its creation index)."""
        self._order[message.message_id] = self._created
        self._created += 1

    def record_delivered(self, message: "Message", cycle: int) -> None:
        """Register delivery of a message's tail flit and accumulate latency."""
        self._delivered += 1
        self._last_delivery_cycle = cycle
        # Pop (rather than read) the creation index: each message is
        # delivered at most once, and keeping one dict entry per created
        # message would grow memory without bound on long runs.
        index = self._order.pop(message.message_id, None)
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
        return self._delivered

    @property
    def measured_delivered(self) -> int:
        """Measured (post-warm-up) messages delivered so far."""
        return self._measured_delivered

    @property
    def warmup_messages(self) -> int:
        """Number of leading messages excluded from statistics."""
        return self._warmup

    def all_measured_delivered(self) -> bool:
        """True once every intended measured message has been delivered."""
        if self._measure_target is None:
            return False
        return self._measured_delivered >= self._measure_target

    # -- summary ----------------------------------------------------------------------

    def summary(self, cycles: int, saturated: bool = False) -> LatencySummary:
        """Aggregate the collected statistics over ``cycles`` simulated cycles."""
        if self._measure_target:
            completion = self._measured_delivered / self._measure_target
        else:
            completion = 1.0 if self._created == 0 else self._delivered / self._created
        if self._first_measured_delivery is not None and cycles > 0:
            window = max(1, self._last_delivery_cycle - self._first_measured_delivery + 1)
            throughput = self._measured_flits / (window * self._num_nodes)
        else:
            throughput = 0.0
        return LatencySummary(
            created=self._created,
            delivered=self._delivered,
            measured=self._measured_delivered,
            avg_total_latency=self._total_latency.mean,
            avg_network_latency=self._network_latency.mean,
            std_total_latency=self._total_latency.std,
            max_total_latency=self._total_latency.maximum,
            avg_hops=self._hops.mean,
            throughput=throughput,
            cycles=cycles,
            completion_ratio=completion,
            saturated=saturated,
            p50_total_latency=self._p50.value,
            p99_total_latency=self._p99.value,
        )

    def __repr__(self) -> str:
        return (
            f"StatsCollector(created={self._created}, delivered={self._delivered}, "
            f"measured={self._measured_delivered})"
        )
