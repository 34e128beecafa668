"""Closed-loop execution of a workload DAG over the network.

The :class:`WorkloadEngine` holds the run-time state of one
:class:`~repro.workload.dag.WorkloadDag`: which steps are still blocked,
which are pending at their home node, and which messages are in flight.
One :class:`WorkloadSource` per node exposes the same duck-typed source
protocol the open-loop :class:`~repro.traffic.generator.TrafficSource`
implements (``messages_due(cycle)`` plus the ``next_due_cycle()``
quiescence forecast), so both network cores consume closed-loop traffic
through exactly the machinery they already have.

Release semantics (the one rule everything else follows): a step whose
last predecessor completes at cycle ``c`` becomes *ready* at ``c + 1`` --
strictly in the future.  Compute steps complete inside an interface's
evaluate, so a same-cycle release would be picked up this cycle by a
home node that evaluates later and next cycle by one that evaluated
earlier; deferring every release by one cycle makes the outcome
independent of node order, and of how each core visits its
interfaces.  A ready
transfer is injected at its ready cycle; a ready compute step completes
``delay`` cycles later without touching the network.

Completions arrive through two paths: transfer tails via the
delivery callback :meth:`WorkloadEngine.on_delivered` (registered with
:meth:`repro.stats.collector.StatsCollector.add_delivery_callback`, which
both cores run on every ejection, in the same order), and
compute steps via the owning source's ``messages_due`` poll at their
completion cycle.  Every release wakes the successor's home node through
one ``wake(node, cycle)`` callback (:meth:`WorkloadEngine.attach_wake`),
so the flat core's wake heap never sleeps through newly unblocked work
(the object interfaces poll their sources every cycle and attach none);
the pending lists back ``next_due_cycle`` exactly, which keeps the
forecast safe under the flat core's end-of-evaluate wake recomputation.

All retained state is O(DAG + in-flight): pending entries and the
in-flight map shrink as the workload drains, and the drain metrics
(time to drain, per-phase completion cycles) are streaming counters --
no per-message history is ever kept.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional

from repro.traffic.message import Message
from repro.workload.dag import COMPUTE, WorkloadDag

__all__ = ["WorkloadEngine", "WorkloadSource"]


class WorkloadEngine:
    """Run-time state of one workload DAG (shared by every node's source)."""

    def __init__(self, dag: WorkloadDag, num_nodes: int) -> None:
        dag.check_nodes_in_range(num_nodes)
        self._dag = dag
        self._num_nodes = num_nodes
        #: Unsatisfied predecessor count per DAG index.
        self._blocked: List[int] = list(dag.indegree)
        #: Per-node sorted pending lists of ``(due_cycle, dag_index)``:
        #: transfers awaiting injection and compute steps awaiting their
        #: completion cycle.  ``(due, idx)`` keys are unique (each step is
        #: released exactly once), so the list order -- and therefore the
        #: message creation order -- is canonical regardless of the order
        #: same-cycle completions were observed in.
        self._pending: List[List[tuple]] = [[] for _ in range(num_nodes)]
        #: ``wake(node, cycle)`` into the executing core (attached by the
        #: simulator once the network exists).
        self._wake: Optional[Callable[[int, int], None]] = None
        #: In-flight transfer messages: message_id -> DAG index.  Entries
        #: are popped on delivery; the map is never iterated, so the
        #: process-global message ids cannot influence behaviour.
        self._inflight: Dict[int, int] = {}
        self._nodes_remaining = len(dag)
        self._phase_remaining = dag.phase_node_counts()
        self._phase_cycles: List[Optional[int]] = [None] * dag.phase_count
        self._drain_cycle: Optional[int] = None
        for idx, blocked_by in enumerate(self._blocked):
            if blocked_by == 0:
                self._release(idx, ready_cycle=0)

    # -- wiring --------------------------------------------------------------------

    def sources(self) -> List["WorkloadSource"]:
        """One source per node, in node-id order (feeds ``Network``)."""
        return [WorkloadSource(self, node) for node in range(self._num_nodes)]

    def attach_wake(self, wake: Callable[[int, int], None]) -> None:
        """Install the flat core's wake callback.

        ``wake(node, cycle)`` must wake node ``node``'s interface for
        ``cycle`` (:meth:`FlatNetworkCore.wake_interface`).  The object
        core attaches none: its interfaces poll their sources every
        cycle.
        """
        self._wake = wake

    # -- the source protocol (per node) -------------------------------------------

    def next_due_cycle(self, node: int) -> Optional[int]:
        """Earliest pending due cycle at ``node``, or None when idle.

        None does *not* mean "never again": a later release re-arms the
        node through its wake callback, so the flat core may sleep the
        interface until then.
        """
        pending = self._pending[node]
        return pending[0][0] if pending else None

    def messages_due(self, node: int, cycle: int) -> List[Message]:
        """Transfers of ``node`` falling due at ``cycle``.

        Pending compute steps whose completion cycle arrives are retired
        here too (their successors release at ``cycle + 1``, so the loop
        never chases its own insertions into the current cycle).
        """
        pending = self._pending[node]
        due: List[Message] = []
        while pending and pending[0][0] < cycle + 1:
            _, idx = pending.pop(0)
            step = self._dag.nodes[idx]
            if step.kind == COMPUTE:
                self._complete(idx, cycle)
                continue
            message = Message(
                source=step.src,
                destination=step.dst,
                length=step.flits,
                creation_cycle=cycle,
            )
            self._inflight[message.message_id] = idx
            due.append(message)
        return due

    # -- completions ---------------------------------------------------------------

    def on_delivered(self, message: Message, cycle: int) -> None:
        """Delivery callback: a transfer's tail flit was ejected.

        Hooked on the stats collector, so both cores report through the
        single existing ejection path; non-workload messages (none exist
        in a closed-loop run, but plugin sources could mix) are ignored.
        """
        idx = self._inflight.pop(message.message_id, None)
        if idx is not None:
            self._complete(idx, cycle)

    def _complete(self, idx: int, cycle: int) -> None:
        step = self._dag.nodes[idx]
        self._nodes_remaining -= 1
        self._phase_remaining[step.phase] -= 1
        if self._phase_remaining[step.phase] == 0:
            self._phase_cycles[step.phase] = cycle
        if self._nodes_remaining == 0:
            self._drain_cycle = cycle
        for succ in self._dag.successors[idx]:
            self._blocked[succ] -= 1
            if self._blocked[succ] == 0:
                self._release(succ, cycle + 1)

    def _release(self, idx: int, ready_cycle: int) -> None:
        """Queue a now-unblocked step at its home node and wake it."""
        step = self._dag.nodes[idx]
        due = ready_cycle + step.delay
        insort(self._pending[step.home], (due, idx))
        if self._wake is not None:
            self._wake(step.home, due)

    # -- drain metrics -------------------------------------------------------------

    @property
    def drained(self) -> bool:
        """Whether every DAG step has completed."""
        return self._nodes_remaining == 0

    def drain_metrics(self, cycles: int, critical_path_cycles: int) -> Dict[str, object]:
        """The closed-loop result record (folded into ``SimulationResult``).

        ``time_to_drain`` is the completion cycle of the last DAG step,
        or the simulated cycle count when the run hit its budget first
        (``drained`` says which).  ``critical_path_utilization`` compares
        the static dependency-chain lower bound against the achieved
        drain time: 1.0 means the network added no contention at all.
        """
        drained = self._drain_cycle is not None
        time_to_drain = self._drain_cycle if drained else cycles
        utilization = (
            float(critical_path_cycles) / float(time_to_drain)
            if time_to_drain > 0
            else 1.0
        )
        return {
            "drained": drained,
            "time_to_drain": int(time_to_drain),
            "phase_cycles": list(self._phase_cycles),
            "critical_path_cycles": int(critical_path_cycles),
            "critical_path_utilization": utilization,
            "transfers": self._dag.num_transfers,
            "total_flits": self._dag.total_flits,
        }

    def __repr__(self) -> str:
        return (
            f"WorkloadEngine(steps={len(self._dag)}, "
            f"remaining={self._nodes_remaining}, inflight={len(self._inflight)})"
        )


class WorkloadSource:
    """One node's view of the engine (the duck-typed source protocol)."""

    __slots__ = ("_engine", "_node")

    def __init__(self, engine: WorkloadEngine, node: int) -> None:
        self._engine = engine
        self._node = node

    @property
    def node(self) -> int:
        """Node this source injects at."""
        return self._node

    def next_due_cycle(self) -> Optional[int]:
        """Earliest pending due cycle, or None while nothing is queued."""
        return self._engine.next_due_cycle(self._node)

    def messages_due(self, cycle: int) -> List[Message]:
        """Transfers of this node falling due at ``cycle``."""
        return self._engine.messages_due(self._node, cycle)

    def __repr__(self) -> str:
        return f"WorkloadSource(node={self._node})"
