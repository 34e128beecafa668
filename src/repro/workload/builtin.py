"""Built-in closed-loop workload generators (registry kind ``"workload"``).

Each factory is called as ``factory(config, topology)`` and returns the
:class:`~repro.workload.dag.WorkloadDag` the engine executes:

``request-reply``
    An open client loop: every client node sends ``workload_iters``
    requests to its mirror server, each answered by a reply, with at most
    ``workload_window`` request/reply exchanges outstanding per client
    (request *i* waits for reply *i - window*).  Transfer sizes follow
    ``message_length`` (requests) and half of it (replies).
``allreduce``
    Ring all-reduce over the first ``workload_group`` nodes (0 = every
    node): ``2*(g-1)`` steps of neighbour-to-neighbour chunk transfers of
    ``max(1, workload_hidden // g)`` flits, each step chained on the
    previous step's arrival, repeated ``workload_iters`` times (one phase
    per iteration).
``alltoall``
    Phased all-to-all over the same group: in phase *k* every member
    sends to the member ``k+1`` positions ahead, and a zero-delay barrier
    (fan-in compute step at the group lead) separates consecutive phases.
``llm-decode``
    Tensor-parallel LLM decode: the mesh is split into consecutive
    TP groups of ``workload_group`` nodes; each of ``workload_layers``
    layers runs on group ``layer % num_groups`` as a per-member compute
    step (``workload_compute`` cycles) followed by a ring all-reduce of
    the hidden activations, then passes activations member-to-member into
    the next layer's group (one phase per layer).
``trace``
    :class:`TraceWorkload` -- replays the JSON edge-list DAG named by
    ``workload_trace`` (see :meth:`WorkloadDag.from_trace_dict`).

All generators are pure functions of the configuration and topology:
no randomness, so the DAG -- and with the engine's canonical release
order, the whole run -- is deterministic given the config.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from repro.registry import register
from repro.workload.dag import COMPUTE, TRANSFER, WorkloadDag, WorkloadNode

__all__ = [
    "TraceWorkload",
    "example_trace_path",
    "llm_decode_workload",
    "phased_alltoall_workload",
    "request_reply_workload",
    "ring_allreduce_workload",
]


def _group_nodes(config, topology, minimum: int = 2) -> List[int]:
    """The collective's node group: the first ``workload_group`` node ids
    (0 = all nodes), validated against the topology and ``minimum``."""
    size = config.workload_group or topology.num_nodes
    if size > topology.num_nodes:
        raise ValueError(
            f"workload_group={size} exceeds the {topology.num_nodes}-node "
            "topology"
        )
    if size < minimum:
        raise ValueError(
            f"workload {config.workload!r} needs a group of at least "
            f"{minimum} nodes, got workload_group={size}"
        )
    return list(range(size))


def _transfer(src: int, dst: int, flits: int, phase: int) -> WorkloadNode:
    return WorkloadNode(kind=TRANSFER, src=src, dst=dst, flits=flits, phase=phase)


def _compute(home: int, delay: int, phase: int) -> WorkloadNode:
    return WorkloadNode(kind=COMPUTE, src=home, dst=home, delay=delay, phase=phase)


def _ring_allreduce_steps(
    nodes: List[WorkloadNode],
    edges: List[Tuple[int, int]],
    members: List[int],
    flits: int,
    phase: int,
    entry_deps: List[int],
) -> List[int]:
    """Append one ring all-reduce over ``members`` to the DAG.

    ``entry_deps[m]`` (or -1 for none) gates member ``m``'s first send;
    returns per-member indices of the final-step transfer *received* at
    each member (the completion the next stage depends on).
    """
    group = len(members)
    received = list(entry_deps)
    for _ in range(2 * (group - 1)):
        sends: List[int] = []
        for position, member in enumerate(members):
            dst = members[(position + 1) % group]
            idx = len(nodes)
            nodes.append(_transfer(member, dst, flits, phase))
            # A member forwards once its own inbound chunk of the
            # previous step (or its entry dependency) has arrived.
            if received[position] >= 0:
                edges.append((received[position], idx))
            sends.append(idx)
        # The transfer received at member m came from its ring predecessor.
        received = [sends[(position - 1) % group] for position in range(group)]
    return received


@register("workload", "request-reply")
def request_reply_workload(config, topology) -> WorkloadDag:
    """Windowed request-reply pairs between mirror client/server nodes."""
    num_nodes = topology.num_nodes
    if num_nodes < 2:
        raise ValueError("the request-reply workload needs at least two nodes")
    iters = config.workload_iters
    window = config.workload_window
    request_flits = config.message_length
    reply_flits = max(1, config.message_length // 2)
    nodes: List[WorkloadNode] = []
    edges: List[Tuple[int, int]] = []
    for client in range(num_nodes // 2):
        server = num_nodes - 1 - client
        replies: List[int] = []
        for iteration in range(iters):
            request = len(nodes)
            nodes.append(_transfer(client, server, request_flits, iteration))
            reply = len(nodes)
            nodes.append(_transfer(server, client, reply_flits, iteration))
            edges.append((request, reply))
            if iteration >= window:
                # The bounded outstanding window: request i waits for
                # reply i - window.
                edges.append((replies[iteration - window], request))
            replies.append(reply)
    return WorkloadDag(nodes, edges)


@register("workload", "allreduce")
def ring_allreduce_workload(config, topology) -> WorkloadDag:
    """Iterated ring all-reduce over the configured node group."""
    members = _group_nodes(config, topology)
    flits = max(1, config.workload_hidden // len(members))
    nodes: List[WorkloadNode] = []
    edges: List[Tuple[int, int]] = []
    entry = [-1] * len(members)
    for iteration in range(config.workload_iters):
        entry = _ring_allreduce_steps(
            nodes, edges, members, flits, phase=iteration, entry_deps=entry
        )
    return WorkloadDag(nodes, edges)


@register("workload", "alltoall")
def phased_alltoall_workload(config, topology) -> WorkloadDag:
    """Phased all-to-all with a barrier between consecutive phases."""
    members = _group_nodes(config, topology)
    group = len(members)
    flits = max(1, config.workload_hidden // group)
    nodes: List[WorkloadNode] = []
    edges: List[Tuple[int, int]] = []
    barrier = -1
    phase = 0
    for _ in range(config.workload_iters):
        for offset in range(1, group):
            sends: List[int] = []
            for position, member in enumerate(members):
                idx = len(nodes)
                nodes.append(
                    _transfer(member, members[(position + offset) % group], flits, phase)
                )
                if barrier >= 0:
                    edges.append((barrier, idx))
                sends.append(idx)
            # The barrier is a fan-in compute step at the group lead: the
            # next phase starts only after every transfer of this phase
            # has delivered.
            barrier = len(nodes)
            nodes.append(_compute(members[0], 0, phase))
            for idx in sends:
                edges.append((idx, barrier))
            phase += 1
    return WorkloadDag(nodes, edges)


@register("workload", "llm-decode")
def llm_decode_workload(config, topology) -> WorkloadDag:
    """Tensor-parallel decode: per-layer all-reduce plus activation passing."""
    group = config.workload_group or min(4, topology.num_nodes)
    if group < 2:
        raise ValueError(
            "the llm-decode workload needs a TP group of at least 2 nodes, "
            f"got workload_group={group}"
        )
    if group > topology.num_nodes:
        raise ValueError(
            f"workload_group={group} exceeds the {topology.num_nodes}-node "
            "topology"
        )
    num_groups = topology.num_nodes // group
    activation_flits = max(1, config.workload_hidden // group)
    nodes: List[WorkloadNode] = []
    edges: List[Tuple[int, int]] = []
    # Per-member dependency carried into the next layer (-1 = root).
    carried = [-1] * group
    for layer in range(config.workload_layers):
        members = [(layer % num_groups) * group + position for position in range(group)]
        computes: List[int] = []
        for position, member in enumerate(members):
            idx = len(nodes)
            nodes.append(_compute(member, config.workload_compute, layer))
            if carried[position] >= 0:
                edges.append((carried[position], idx))
            computes.append(idx)
        reduced = _ring_allreduce_steps(
            nodes, edges, members, activation_flits, phase=layer, entry_deps=computes
        )
        if layer + 1 < config.workload_layers:
            next_members = [
                (((layer + 1) % num_groups) * group) + position
                for position in range(group)
            ]
            if next_members == members:
                # Single pipeline stage: the next layer runs on the same
                # group, gated directly on the all-reduce completion.
                carried = reduced
            else:
                carried = []
                for position, member in enumerate(members):
                    idx = len(nodes)
                    nodes.append(
                        _transfer(
                            member, next_members[position], activation_flits, layer
                        )
                    )
                    edges.append((reduced[position], idx))
                    carried.append(idx)
    return WorkloadDag(nodes, edges)


class TraceWorkload:
    """Replays a JSON edge-list DAG from ``config.workload_trace``.

    The trace format is documented by
    :meth:`repro.workload.dag.WorkloadDag.from_trace_dict`; a shipped
    example lives at :func:`example_trace_path`.  Every failure mode --
    missing path, unreadable file, invalid JSON, malformed records,
    cycles, endpoints beyond the topology -- raises ``ValueError`` with a
    message naming the problem.
    """

    name = "trace"

    def __call__(self, config, topology) -> WorkloadDag:
        path = config.workload_trace
        if not path:
            raise ValueError(
                "the trace workload needs workload_trace=PATH pointing at a "
                "JSON DAG (see repro/workload/example_trace.json)"
            )
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ValueError(
                f"cannot read workload trace {path!r}: {error}"
            ) from None
        dag = WorkloadDag.from_trace_json(text)
        dag.check_nodes_in_range(topology.num_nodes)
        return dag


register("workload", "trace", obj=TraceWorkload())


def example_trace_path() -> Path:
    """The shipped example trace (used by docs and tests)."""
    return Path(__file__).resolve().parent / "example_trace.json"
