"""Output checks: committed expected values plus invariants for any seed.

Every simulation point the benchmark runs is one operation.  It fails if
it raises or if any check below reports a problem; :func:`compare` and
the ``*_problems`` functions return the problems as strings (empty when
the point is correct).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Sequence

__all__ = [
    "Ledger",
    "compare",
    "open_outputs",
    "open_problems",
    "rows_digest",
    "study_result_problems",
]


class Ledger:
    """Keeps every message a statistics collector registers, so the
    collector's counters can be checked against the messages' own state."""

    def __init__(self, stats) -> None:
        self.stats = stats
        self.messages: list = []
        record_created = stats.record_created
        messages = self.messages

        def record(message) -> None:
            messages.append(message)
            record_created(message)

        stats.record_created = record

    def problems(self) -> List[str]:
        """Conservation: created = delivered + in flight + queued, with
        the right-hand side counted from the messages themselves."""
        delivered = sum(1 for m in self.messages if m.ejection_cycle is not None)
        queued = sum(1 for m in self.messages if m.injection_cycle is None)
        in_flight = len(self.messages) - delivered - queued
        created = self.stats.created
        problems = []
        if created != delivered + in_flight + queued:
            problems.append(
                f"conservation: created {created} != delivered {delivered} "
                f"+ in flight {in_flight} + queued {queued}"
            )
        if self.stats.delivered != delivered:
            problems.append(
                f"conservation: collector delivered {self.stats.delivered} != "
                f"{delivered} messages with an ejection cycle"
            )
        return problems


def open_outputs(simulator, result) -> Dict[str, object]:
    """The simulated outputs of one open-loop point that must repeat."""
    summary = result.summary
    return {
        "latency": summary.avg_total_latency,
        "throughput": summary.throughput,
        "cycles": result.cycles,
        "flits_forwarded": sum(simulator.core.flits_forwarded),
        "delivered": summary.delivered,
    }


def open_problems(simulator, result, ledger: Ledger) -> List[str]:
    """Invariants of one open-loop point, for any seed."""
    problems = ledger.problems()
    summary = result.summary
    target = simulator.config.measure_messages
    if summary.measured != target:
        problems.append(f"measured delivered {summary.measured} != target {target}")
    # zero_load_latency() averages over every node pair, but a finite run
    # measures its own sample of distances, so the sound lower bound is
    # the contention-free latency of the hops the measured messages made.
    length = simulator.config.message_length
    hop = (result.zero_load_latency - (length - 1)) / (
        simulator.topology.average_distance() + 1.0
    )
    floor = summary.avg_hops * hop + (length - 1)
    if summary.avg_total_latency < floor - 1e-9:
        problems.append(
            f"latency {summary.avg_total_latency!r} below the zero-load latency "
            f"{floor!r} of its measured hops"
        )
    return problems


def study_result_problems(config, result) -> List[str]:
    """Invariants of one single-seed study point, for any seed."""
    summary = result.summary
    if config.workload is not None:
        drain = result.drain or {}
        problems = []
        if not drain.get("drained"):
            problems.append(f"{config.workload}: workload did not drain")
        if summary.measured != drain.get("transfers"):
            problems.append(
                f"{config.workload}: delivered {summary.measured} != "
                f"transfers {drain.get('transfers')}"
            )
        return problems
    if summary.measured != config.measure_messages:
        return [
            f"load {config.normalized_load}: measured delivered "
            f"{summary.measured} != target {config.measure_messages}"
        ]
    return []


def rows_digest(rows: Sequence[Mapping[str, object]]) -> str:
    """SHA-256 of the report rows as canonical JSON."""
    text = json.dumps(list(rows), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare(expected: Mapping[str, object], actual: Mapping[str, object]) -> List[str]:
    """Exact equality of every expected value."""
    return [
        f"{key}: expected {value!r}, got {actual.get(key)!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]
