"""Core schedules: the object network vs. the flat struct-of-arrays core.

The simulator's fourth two-implementations-one-semantics axis, selected
by :attr:`~repro.core.config.SimulationConfig.core_mode`:

``"objects"``
    The executable specification.  The simulator assembles an object
    :class:`~repro.network.network.Network` and registers its routers
    and interfaces with the kernel as individual components; all
    per-cycle behaviour lives in :class:`~repro.router.router.Router`
    and :class:`~repro.network.interface.NetworkInterface`.

``"flat"``
    The default.  The whole network is one kernel component,
    :class:`FlatNetworkCore`, built straight from the topology, the
    router configuration, the routing algorithm and the per-node
    selectors and sources (:class:`FlatCoreParts`) -- no object network
    is assembled.  It holds the hot state in flat preallocated
    parallel arrays -- one global virtual-channel table indexed by
    ``(router, port, vc)`` with arrays for buffer occupancy, credits,
    routing decisions (allocated output channel/port) and the two-stage
    round-robin arbiter pointers -- plus four global cycle-indexed
    arrival wheels replacing the per-component mailboxes.  Per cycle it
    drains the wheels once, then runs virtual-channel allocation, switch
    allocation and forwarding as a single pass over the per-router
    active index lists, then the injection pass over the due network
    interfaces.  This removes the per-component kernel dispatch, the
    per-event wake callbacks and the per-router mailbox scans that bound
    the busy path at 16x16/32x32 saturation (see ``BENCH_core.json``).

Both schedules are bit-identical: the flat core replays the object
core's per-cycle phase order exactly (all routers deliver, interfaces
deliver, routers evaluate in node order, interfaces evaluate in node
order), keeps every RNG consultation site (path selectors, traffic
sources, the shared message budget) in the same order, and reports the
same quiescence cycles to the activity kernel.
``tests/test_link_equivalence.py`` enforces this across the full
sixteen-combination kernel x switch x link x core cube.

A note on numpy: the busy path is dominated by irregular, data-dependent
control flow (per-port round-robin groups, head/tail transitions,
selector consultations) over a few dozen live channels per cycle, so
vectorizing it wholesale would replace cheap short Python loops with
per-cycle array-build overhead.  The flat core therefore stays in plain
index arithmetic over preallocated lists, which profiling shows is where
the win is; numpy remains an option for future whole-array passes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.engine.kernel import no_wake
from repro.network.topology import LOCAL_PORT, port_direction
from repro.registry import CORE_MODES, register
from repro.selection.base import OutputPortStatus, PathSelector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import Topology
    from repro.router.config import RouterConfig
    from repro.routing.base import RoutingAlgorithm

__all__ = [
    "CORE_MODE_NAMES",
    "CoreSchedule",
    "FLAT",
    "FlatCoreParts",
    "FlatNetworkCore",
    "OBJECTS",
    "core_schedule_by_name",
]


@dataclass(frozen=True)
class CoreSchedule:
    """One named implementation of the whole-network core.

    Parameters
    ----------
    name:
        Report name ("objects" or "flat").
    flat:
        Whether the simulator should build a :class:`FlatNetworkCore`
        instead of assembling an object network and registering its
        components individually.
    """

    name: str
    flat: bool


#: The per-component object network (the executable specification).
OBJECTS = CoreSchedule(name="objects", flat=False)

#: The flat struct-of-arrays whole-network core (default).
FLAT = CoreSchedule(name="flat", flat=True)

register("core", OBJECTS.name, obj=OBJECTS, provenance=f"{__name__}:OBJECTS")
register("core", FLAT.name, obj=FLAT, provenance=f"{__name__}:FLAT")

#: Built-in schedule names.
CORE_MODE_NAMES = (OBJECTS.name, FLAT.name)


def core_schedule_by_name(name: str) -> CoreSchedule:
    """Look up a registered core schedule by its report name."""
    schedule = CORE_MODES.get(name)
    if not isinstance(schedule, CoreSchedule):
        raise ValueError(
            f"core mode {name!r} is registered but is not a CoreSchedule: "
            f"{schedule!r}"
        )
    return schedule


# Input virtual-channel states as plain ints (VCState without the enum
# dispatch): IDLE -> 0, ROUTING -> 1, ACTIVE -> 2.
_IDLE = 0
_ROUTING = 1
_ACTIVE = 2

#: ``ni_wake`` sentinel for "idle until an external credit arrival".
_NEVER = math.inf


def _membership_remove(members: List[int], flat: int) -> None:
    """Remove ``flat`` from a sorted membership array if present."""
    index = bisect_left(members, flat)
    if index < len(members) and members[index] == flat:
        del members[index]


@dataclass(frozen=True)
class FlatCoreParts:
    """Everything :class:`FlatNetworkCore` is built from.

    Parameters
    ----------
    topology:
        Node/link structure; the core's wiring comes from
        :meth:`~repro.network.topology.Topology.links`.
    router_config:
        Microarchitecture shared by every router.
    routing:
        Routing algorithm shared by every router.
    selectors:
        One path selector per node, indexed by node id.  The simulator
        creates them in ascending node order, exactly as the object
        network does, so both cores consume identical RNG streams.
    sources:
        One traffic source per node (None for nodes that only sink
        traffic).
    """

    topology: "Topology"
    router_config: "RouterConfig"
    routing: "RoutingAlgorithm"
    selectors: Sequence[PathSelector]
    sources: Sequence[Optional[object]]


class FlatNetworkCore:
    """The whole network as one flat-array kernel component.

    Built from a :class:`FlatCoreParts` record -- topology, router
    configuration, routing algorithm, per-node path selectors and
    per-node traffic sources -- and the simulation's
    :class:`~repro.stats.collector.StatsCollector`.  No object router or
    interface is involved.

    Address spaces
    --------------
    * global input/output virtual channel: ``(node * radix + port) * vcs + vc``
    * global port: ``node * radix + port``
    * injection slot: ``node * vcs + vc``

    The four arrival wheels (router flits, router output credits, NI
    ejections, NI injection credits) are cycle-indexed lanes shared by
    the whole network; every push carries a strictly future arrival
    cycle bounded by the wheel size, so the lane for the current cycle
    is always exact.  Ejections are pushed in ascending node order and
    each node's local output port forwards at most one flit per cycle,
    so the eject drain reports deliveries to the statistics collector in
    the same node order as the object interfaces -- keeping even the
    floating-point accumulation order of the latency statistics
    identical.
    """

    def __init__(self, parts: FlatCoreParts, stats) -> None:
        topology = parts.topology
        config = parts.router_config
        routing = parts.routing
        routing.validate(config.vcs_per_port)

        self._topology = topology
        self._stats = stats
        self._decide = routing.decide_cached

        num_nodes = topology.num_nodes
        radix = topology.radix
        vcs = config.vcs_per_port
        self._num_nodes = num_nodes
        self._radix = radix
        self._vcs = vcs
        self._channels_per_node = radix * vcs

        vc_classes = routing.vc_classes(vcs)
        self._adaptive_vcs = vc_classes.adaptive_vcs
        self._escape_vcs = vc_classes.escape_vcs
        # Per-port escape pools indexed by the header's dateline class for
        # that port's dimension (Router._escape_pools).  The ejection port
        # and every mesh port offer the full escape set in both classes,
        # so the class read is a harmless constant off datelines.
        if vc_classes.escape_classes is not None:
            _pools = vc_classes.escape_classes
        else:
            _pools = (vc_classes.escape_vcs, vc_classes.escape_vcs)
        self._escape_pools: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [
            (vc_classes.escape_vcs, vc_classes.escape_vcs)
            if port == LOCAL_PORT
            else _pools
            for port in range(radix)
        ]
        self._port_dimension: List[int] = [
            0 if port == LOCAL_PORT else port_direction(port)[0]
            for port in range(radix)
        ]

        self._selectors: List[PathSelector] = list(parts.selectors)
        self._selector_records = (
            getattr(type(self._selectors[0]), "record_use", None)
            is not PathSelector.record_use
        )
        self._sources = list(parts.sources)

        # Hot timing constants (identical to the Router's).
        pipeline = config.pipeline
        self._selection_offset = pipeline.selection_offset
        self._lookahead = pipeline.lookahead
        self._local_delay = pipeline.switch_delay
        self._link_delay = config.link_delay
        self._credit_delay = config.credit_delay
        self._capacity = config.buffer_depth
        #: Atomic VC allocation on wrapping topologies: required credit
        #: level (the full downstream buffer) before a header may claim
        #: an output VC, 0 (disabled) on meshes (Router._atomic_credits).
        self._atomic_credits = config.buffer_depth if topology.wraps else 0
        # Per-output-port forward delay (Router._port_delays): ejection at
        # the local switch delay, each link port at switch delay plus its
        # dimension's link traversal time.
        switch_delay = pipeline.switch_delay
        self._port_hop_delay: List[int] = [self._local_delay] * radix
        for port in range(1, radix):
            dimension = port_direction(port)[0]
            self._port_hop_delay[port] = switch_delay + config.link_delay_for(
                dimension
            )
        # Dateline bits contributed by each global output port's link
        # (Router._dateline_bits, flattened over the whole network).
        self._dateline_bits: List[int] = [0] * (num_nodes * radix)
        for node in range(num_nodes):
            for port in range(1, radix):
                self._dateline_bits[node * radix + port] = topology.dateline_bits(
                    node, port
                )

        # -- flat state arrays ------------------------------------------------
        num_channels = num_nodes * radix * vcs
        num_ports = num_nodes * radix
        from collections import deque

        #: Input VC buffers / state machine / pipeline-ready cycle.
        self._in_buf = [deque() for _ in range(num_channels)]
        self._in_state = [_IDLE] * num_channels
        self._in_ready = [0] * num_channels
        #: Allocated global output channel and output port (-1 when idle).
        self._in_out_g = [-1] * num_channels
        self._in_out_port = [-1] * num_channels
        #: Output VC credits and owning global input channel (-1 free).
        self._out_credits = [config.buffer_depth] * num_channels
        self._out_owner = [-1] * num_channels
        #: Per-port connectivity and path-selection usage metadata.
        self._out_connected = [False] * num_ports
        self._out_usage = [0] * num_ports
        self._out_last_used = [-1] * num_ports
        #: Two-stage round-robin arbiter pointers (mirror RoundRobinArbiter:
        #: start at slot 0, advance to one past the winner on every grant).
        self._in_prio = [0] * num_ports
        self._out_prio = [0] * num_ports
        #: Per-router sorted membership arrays of local ``port*vcs+vc``
        #: indices in the ROUTING / ACTIVE states.
        self._routing_members: List[List[int]] = [[] for _ in range(num_nodes)]
        self._active_members: List[List[int]] = [[] for _ in range(num_nodes)]
        #: Whether this cycle's switch stage released an output VC (per router).
        self._released = [False] * num_nodes
        #: Per-router statistics (parity with Router.flits_forwarded/.headers_routed).
        self.flits_forwarded = [0] * num_nodes
        self.headers_routed = [0] * num_nodes

        # -- wiring -----------------------------------------------------------
        #: Downstream global input-channel base per output port (-1 = the
        #: local interface or unconnected) and upstream global output-channel
        #: base per input port (-1 = the local interface / unconnected).
        self._dest_base = [-1] * num_ports
        self._up_base = [-1] * num_ports
        for node, port, neighbor, neighbor_port in topology.links():
            self._dest_base[node * radix + port] = (
                neighbor * radix + neighbor_port
            ) * vcs
            self._out_connected[node * radix + port] = True
            self._up_base[neighbor * radix + neighbor_port] = (
                node * radix + port
            ) * vcs
        for node in range(num_nodes):
            self._out_connected[node * radix + LOCAL_PORT] = True

        # Per-channel destination maps hoisted out of the forward path:
        # the flit destination of each *output* channel (the downstream
        # global input channel, or -1 for the local ejection lane) and
        # the credit destination of each *input* channel (the upstream
        # global output channel, or ``-(injection slot) - 1`` when the
        # local interface feeds the port).
        self._go_flit_dest = [-1] * num_channels
        self._g_credit_dest = [0] * num_channels
        for node in range(num_nodes):
            for port in range(radix):
                pidx = node * radix + port
                dest = self._dest_base[pidx]
                up = self._up_base[pidx]
                for vc in range(vcs):
                    g = pidx * vcs + vc
                    self._go_flit_dest[g] = dest + vc if dest >= 0 else -1
                    self._g_credit_dest[g] = (
                        up + vc if up >= 0 else -(node * vcs + vc) - 1
                    )

        # -- injection / ejection interfaces ----------------------------------
        num_slots = num_nodes * vcs
        self._ni_credits = [config.buffer_depth] * num_slots
        self._ni_busy = [False] * num_slots
        self._ni_flits = [deque() for _ in range(num_slots)]
        self._ni_queue = [deque() for _ in range(num_nodes)]
        self._ni_next_slot = [0] * num_nodes
        #: Earliest cycle each interface must be evaluated; every node
        #: starts active (cycle 0), exactly like kernel registration.
        self._ni_wake: List[float] = [0] * num_nodes

        # -- global arrival wheels --------------------------------------------
        self._wheel_size = 1 + max(
            switch_delay + config.max_link_delay,
            self._link_delay,
            self._local_delay,
            self._credit_delay,
        )
        size = self._wheel_size
        #: (global input channel, flit) entries.
        self._flit_lanes: List[list] = [[] for _ in range(size)]
        #: Global output-channel indices (credit returns between routers
        #: and from the ejection side).
        self._credit_lanes: List[list] = [[] for _ in range(size)]
        #: (local output global channel, flit) ejections toward the NIs,
        #: pushed in ascending node order within each cycle.
        self._eject_lanes: List[list] = [[] for _ in range(size)]
        #: Injection-slot indices (credits returned to the NIs).
        self._ni_credit_lanes: List[list] = [[] for _ in range(size)]
        self._flit_pending = 0
        self._credit_pending = 0
        self._eject_pending = 0
        self._ni_credit_pending = 0

        #: Wake callback installed by an activity-aware kernel (unused:
        #: all events are internal, reported via ``next_event_cycle``).
        self._wake: Callable[[int], None] = no_wake

    # -- per-cycle behaviour ---------------------------------------------------

    def deliver(self, cycle: int) -> None:
        """Drain the four global wheels for this cycle.

        Mirrors the object phase order: router flit/credit absorption,
        then the interfaces' ejection and injection-credit drains (the
        eject lane in ascending node order, matching the object
        interfaces' node-ordered delivery reporting).
        """
        slot = cycle % self._wheel_size
        if self._flit_pending:
            lane = self._flit_lanes[slot]
            if lane:
                self._flit_pending -= len(lane)
                in_buf = self._in_buf
                in_state = self._in_state
                in_ready = self._in_ready
                routing_members = self._routing_members
                capacity = self._capacity
                ready = cycle + self._selection_offset
                per_node = self._channels_per_node
                for g, flit in lane:
                    flit.arrival_cycle = cycle
                    buffer = in_buf[g]
                    if len(buffer) >= capacity:
                        raise OverflowError(
                            f"input VC {g} overflow: credit protocol violated"
                        )
                    buffer.append(flit)
                    if flit.is_head and in_state[g] == _IDLE and len(buffer) == 1:
                        in_state[g] = _ROUTING
                        in_ready[g] = ready
                        node = g // per_node
                        insort(routing_members[node], g - node * per_node)
                del lane[:]
        if self._credit_pending:
            lane = self._credit_lanes[slot]
            if lane:
                self._credit_pending -= len(lane)
                out_credits = self._out_credits
                for go in lane:
                    out_credits[go] += 1
                del lane[:]
        if self._eject_pending:
            lane = self._eject_lanes[slot]
            if lane:
                self._eject_pending -= len(lane)
                credit_arrival = cycle + self._credit_delay
                credit_lane = self._credit_lanes[credit_arrival % self._wheel_size]
                stats = self._stats
                for go, flit in lane:
                    credit_lane.append(go)
                    self._credit_pending += 1
                    if flit.is_tail:
                        message = flit.message
                        message.ejection_cycle = cycle
                        stats.record_delivered(message, cycle)
                del lane[:]
        if self._ni_credit_pending:
            lane = self._ni_credit_lanes[slot]
            if lane:
                self._ni_credit_pending -= len(lane)
                ni_credits = self._ni_credits
                ni_wake = self._ni_wake
                vcs = self._vcs
                for s in lane:
                    ni_credits[s] += 1
                    node = s // vcs
                    if ni_wake[node] > cycle:
                        ni_wake[node] = cycle
                del lane[:]

    def evaluate(self, cycle: int) -> None:
        """Run the routers' allocation/forwarding pass, then injection.

        This is the busy path the flat core exists for, so the router
        loop is written as one flat function: every hot array is bound
        to a local exactly once per cycle and the two-stage switch
        allocation plus crossbar forwarding (the flat analogue of
        ``Router._allocate_switch_batched`` and ``Router._forward``) are
        inlined into the per-router body instead of paying a method call
        and attribute-binding prologue per busy router per cycle.
        """
        routing_members = self._routing_members
        active_members = self._active_members
        released = self._released
        in_buf = self._in_buf
        in_ready = self._in_ready
        in_state = self._in_state
        in_out_g = self._in_out_g
        in_out_port = self._in_out_port
        out_credits = self._out_credits
        out_owner = self._out_owner
        out_usage = self._out_usage
        out_last_used = self._out_last_used
        in_prio = self._in_prio
        out_prio = self._out_prio
        go_flit_dest = self._go_flit_dest
        g_credit_dest = self._g_credit_dest
        flit_lanes = self._flit_lanes
        credit_lanes = self._credit_lanes
        eject_lanes = self._eject_lanes
        ni_credit_lanes = self._ni_credit_lanes
        flits_forwarded = self.flits_forwarded
        vcs = self._vcs
        radix = self._radix
        per_node = self._channels_per_node
        wheel = self._wheel_size
        selection_offset = self._selection_offset
        lookahead = self._lookahead
        selector_records = self._selector_records
        selectors = self._selectors
        decide = self._decide
        neighbor = self._topology.neighbor
        credit_slot = (cycle + self._credit_delay) % wheel
        eject_slot = (cycle + self._local_delay) % wheel
        port_hop_delay = self._port_hop_delay
        dateline_bits = self._dateline_bits
        flit_pushed = 0
        credit_pushed = 0
        eject_pushed = 0
        ni_credit_pushed = 0
        next_cycle = cycle + 1
        for node in range(self._num_nodes):
            rmembers = routing_members[node]
            amembers = active_members[node]
            if not rmembers and not amembers:
                continue
            released[node] = False
            base = node * per_node

            # ---- virtual-channel allocation over the ROUTING channels ----
            # (snapshot: success moves the channel to the ACTIVE array).
            if rmembers:
                for local in tuple(rmembers):
                    g = base + local
                    if in_ready[g] > cycle:
                        continue
                    buffer = in_buf[g]
                    if not buffer:
                        continue
                    head = buffer[0]
                    if not head.is_head:
                        raise AssertionError(
                            "non-header flit at the head of a ROUTING "
                            f"channel: {head!r}"
                        )
                    self._try_allocate(node, g, local, head, cycle)
                if not amembers:
                    continue

            pbase = node * radix

            # ---- switch stage 1: nominate one sendable VC per input port.
            # One walk of the sorted ACTIVE array; groups are the per-port
            # contiguous runs, flushed on every group change.  ``nominated``
            # holds (out_port, winner local) pairs in first-nomination
            # order of the output ports.
            nominated = None
            group_base = -1
            priority = 0
            first_local = -1
            first_at_or_after = -1
            for local in amembers:
                gbase = local - local % vcs
                if gbase != group_base:
                    if first_local >= 0:
                        winner = (
                            first_at_or_after
                            if first_at_or_after >= 0
                            else first_local
                        )
                        in_prio[pbase + group_base // vcs] = (
                            winner - group_base + 1
                        ) % vcs
                        if nominated is None:
                            nominated = [(in_out_port[base + winner], winner)]
                        else:
                            nominated.append((in_out_port[base + winner], winner))
                        first_local = -1
                        first_at_or_after = -1
                    group_base = gbase
                    priority = gbase + in_prio[pbase + gbase // vcs]
                g = base + local
                if in_buf[g] and out_credits[in_out_g[g]] > 0:
                    if first_local < 0:
                        first_local = local
                        if local >= priority:
                            first_at_or_after = local
                    elif first_at_or_after < 0 and local >= priority:
                        first_at_or_after = local
            if first_local >= 0:
                winner = (
                    first_at_or_after if first_at_or_after >= 0 else first_local
                )
                in_prio[pbase + group_base // vcs] = (
                    winner - group_base + 1
                ) % vcs
                if nominated is None:
                    nominated = [(in_out_port[base + winner], winner)]
                else:
                    nominated.append((in_out_port[base + winner], winner))
            if nominated is None:
                continue

            # ---- switch stage 2 + crossbar forwarding: grant one
            # nominating input port per requested output (first-nomination
            # order; first nominator at or after the output's round-robin
            # pointer, wrapping to the lowest) and move the winner's flit.
            forwarded = 0
            granted_outputs = None
            for out_port, _nominee in nominated:
                if granted_outputs is None:
                    granted_outputs = [out_port]
                elif out_port in granted_outputs:
                    continue
                else:
                    granted_outputs.append(out_port)
                priority = out_prio[pbase + out_port]
                winner = -1
                fallback = -1
                for other_port, local in nominated:
                    if other_port != out_port:
                        continue
                    if fallback < 0:
                        fallback = local
                    if local // vcs >= priority:
                        winner = local
                        break
                if winner < 0:
                    winner = fallback
                out_prio[pbase + out_port] = (winner // vcs + 1) % radix

                # ---- forward the winner's head-of-buffer flit ----
                g = base + winner
                buffer = in_buf[g]
                flit = buffer.popleft()
                go = in_out_g[g]
                pidx = pbase + out_port
                out_credits[go] -= 1
                out_usage[pidx] += 1
                out_last_used[pidx] = cycle
                if selector_records:
                    selectors[node].record_use(out_port, cycle)
                # Return a credit for the input buffer slot just freed.
                up = g_credit_dest[g]
                if up >= 0:
                    credit_lanes[credit_slot].append(up)
                    credit_pushed += 1
                else:
                    ni_credit_lanes[credit_slot].append(-up - 1)
                    ni_credit_pushed += 1
                if flit.is_head:
                    flit.hops += 1
                    flit.message.hops = flit.hops
                    bits = dateline_bits[pidx]
                    if bits:
                        flit.dateline_mask |= bits
                    if lookahead and out_port != LOCAL_PORT:
                        next_node = neighbor(node, out_port)
                        flit.lookahead_node = next_node
                        flit.lookahead_decision = decide(
                            next_node, flit.destination
                        )
                dest = go_flit_dest[go]
                if dest >= 0:
                    flit_lanes[
                        (cycle + port_hop_delay[out_port]) % wheel
                    ].append((dest, flit))
                    flit_pushed += 1
                else:
                    eject_lanes[eject_slot].append((go, flit))
                    eject_pushed += 1
                if flit.is_tail:
                    out_owner[go] = -1
                    released[node] = True
                    in_state[g] = _IDLE
                    in_out_g[g] = -1
                    in_out_port[g] = -1
                    _membership_remove(amembers, winner)
                    if buffer:
                        head = buffer[0]
                        if not head.is_head:
                            raise AssertionError(
                                "expected a header after a tail on channel "
                                f"{g}, found {head!r}"
                            )
                        in_state[g] = _ROUTING
                        ready = head.arrival_cycle + selection_offset
                        in_ready[g] = ready if ready > cycle else next_cycle
                        insort(rmembers, winner)
                forwarded += 1
            flits_forwarded[node] += forwarded
        self._flit_pending += flit_pushed
        self._credit_pending += credit_pushed
        self._eject_pending += eject_pushed
        self._ni_credit_pending += ni_credit_pushed

        ni_wake = self._ni_wake
        for node in range(self._num_nodes):
            if ni_wake[node] <= cycle:
                self._evaluate_interface(node, cycle)

    def _try_allocate(self, node: int, g: int, local: int, head, cycle: int) -> bool:
        """Attempt to allocate an output virtual channel for a routed header.

        Candidate construction, selector consultation and the escape
        fallback replicate ``Router._try_allocate`` exactly: the selector
        is consulted only when at least two candidate ports have a free
        adaptive-class VC (in which case allocation always succeeds), so
        failed attempts draw no RNG and mutate no state.
        """
        if (
            self._lookahead
            and head.lookahead_node == node
            and head.lookahead_decision is not None
        ):
            decision = head.lookahead_decision
        else:
            decision = self._decide(node, head.destination)

        vcs = self._vcs
        pbase = node * self._radix
        out_connected = self._out_connected
        out_owner = self._out_owner
        out_credits = self._out_credits
        atomic = self._atomic_credits
        adaptive_vcs = self._adaptive_vcs
        candidate_ports: List[int] = []
        candidate_free: List[List[int]] = []
        for port in decision.adaptive_ports:
            if not out_connected[pbase + port]:
                continue
            obase = (pbase + port) * vcs
            if atomic:
                free = [
                    vc
                    for vc in adaptive_vcs
                    if out_owner[obase + vc] < 0 and out_credits[obase + vc] == atomic
                ]
            else:
                free = [vc for vc in adaptive_vcs if out_owner[obase + vc] < 0]
            if free:
                candidate_ports.append(port)
                candidate_free.append(free)

        selected_port = -1
        selected_vc = -1
        if candidate_ports:
            if len(candidate_ports) == 1:
                selected_port = candidate_ports[0]
                selected_vc = candidate_free[0][0]
            else:
                statuses = [
                    self._port_status(pbase, port, len(free))
                    for port, free in zip(candidate_ports, candidate_free)
                ]
                selected_port = self._selectors[node].select(statuses)
                try:
                    index = candidate_ports.index(selected_port)
                except ValueError:
                    raise AssertionError(
                        f"path selector chose port {selected_port} outside the "
                        f"candidate set {sorted(candidate_ports)}"
                    ) from None
                selected_vc = candidate_free[index][0]
        else:
            escape_port = decision.escape_port
            if self._escape_vcs and out_connected[pbase + escape_port]:
                pool = self._escape_pools[escape_port][
                    (head.dateline_mask >> self._port_dimension[escape_port]) & 1
                ]
                obase = (pbase + escape_port) * vcs
                if atomic:
                    free = [
                        vc
                        for vc in pool
                        if out_owner[obase + vc] < 0
                        and out_credits[obase + vc] == atomic
                    ]
                else:
                    free = [vc for vc in pool if out_owner[obase + vc] < 0]
                if free:
                    selected_port = escape_port
                    selected_vc = free[0]

        if selected_port < 0:
            return False

        go = (pbase + selected_port) * vcs + selected_vc
        if out_owner[go] >= 0:
            raise ValueError(f"output VC {go} already owned by {out_owner[go]}")
        out_owner[go] = g
        self._in_out_g[g] = go
        self._in_out_port[g] = selected_port
        self._in_state[g] = _ACTIVE
        _membership_remove(self._routing_members[node], local)
        insort(self._active_members[node], local)
        self.headers_routed[node] += 1
        return True

    def _port_status(self, pbase: int, port: int, num_free: int) -> OutputPortStatus:
        """Selector-facing status of one output port (see Router._port_status)."""
        vcs = self._vcs
        pidx = pbase + port
        obase = pidx * vcs
        out_credits = self._out_credits
        out_owner = self._out_owner
        total_credits = 0
        busy = 0
        for vc in range(vcs):
            total_credits += out_credits[obase + vc]
            if out_owner[obase + vc] >= 0:
                busy += 1
        dimension = -1 if port == LOCAL_PORT else port_direction(port)[0]
        return OutputPortStatus(
            port=port,
            dimension=dimension,
            usage_count=self._out_usage[pidx],
            last_used_cycle=self._out_last_used[pidx],
            total_credits=total_credits,
            busy_vcs=busy,
            free_vcs=num_free,
        )

    # -- injection (network interfaces) ------------------------------------------

    def _evaluate_interface(self, node: int, cycle: int) -> None:
        """One interface's evaluate: generate, start injections, send one
        flit; then recompute its wake cycle (the quiescence the kernel
        would perform per component)."""
        source = self._sources[node]
        queue = self._ni_queue[node]
        stats = self._stats
        if source is not None:
            for message in source.messages_due(cycle):
                queue.append(message)
                stats.record_created(message)

        vcs = self._vcs
        sbase = node * vcs
        ni_busy = self._ni_busy
        ni_flits = self._ni_flits
        if queue:
            for vc in range(vcs):
                if not queue:
                    break
                s = sbase + vc
                if ni_busy[s] or ni_flits[s]:
                    continue
                message = queue.popleft()
                ni_busy[s] = True
                flits = ni_flits[s]
                flits.extend(message.make_flits())
                if self._lookahead:
                    header = flits[0]
                    header.lookahead_node = node
                    header.lookahead_decision = self._decide(
                        node, message.destination
                    )

        ni_credits = self._ni_credits
        next_slot = self._ni_next_slot[node]
        for offset in range(vcs):
            vc = (next_slot + offset) % vcs
            s = sbase + vc
            flits = ni_flits[s]
            if not flits or ni_credits[s] <= 0:
                continue
            flit = flits.popleft()
            ni_credits[s] -= 1
            if flit.is_head:
                flit.message.injection_cycle = cycle
                stats.record_injected(flit.message, cycle)
            self._flit_lanes[
                (cycle + self._link_delay) % self._wheel_size
            ].append((node * self._channels_per_node + vc, flit))
            self._flit_pending += 1
            if flit.is_tail:
                ni_busy[s] = False
            self._ni_next_slot[node] = (vc + 1) % vcs
            break

        self._ni_wake[node] = self._interface_next_event(node, cycle + 1)

    def _interface_next_event(self, node: int, cycle: int) -> float:
        """Earliest cycle this interface must be evaluated again.

        Mirrors ``NetworkInterface.next_event_cycle`` minus the mailbox
        terms: ejection arrivals need no evaluation (the global eject
        drain performs the whole delivery) and injection-credit arrivals
        re-arm the wake at drain time.
        """
        vcs = self._vcs
        sbase = node * vcs
        ni_flits = self._ni_flits
        ni_credits = self._ni_credits
        ni_busy = self._ni_busy
        free_slot = False
        for vc in range(vcs):
            s = sbase + vc
            if ni_flits[s]:
                if ni_credits[s] > 0:
                    return cycle
            elif not ni_busy[s]:
                free_slot = True
        if free_slot and self._ni_queue[node]:
            return cycle
        source = self._sources[node]
        if source is not None:
            next_due = getattr(source, "next_due_cycle", None)
            if next_due is None:
                # Sources without a due-cycle forecast are polled every cycle.
                return cycle
            due = next_due()
            if due is not None:
                return due if due > cycle else cycle
        return _NEVER

    # -- quiescence (activity-aware kernel) ----------------------------------------

    def set_wake(self, callback: Callable[[int], None]) -> None:
        """Install the kernel wake callback (kept for protocol parity;
        every event is internal to the core, so it is never invoked)."""
        self._wake = callback

    def wake_interface(self, node: int, cycle: int) -> None:
        """Re-arm one interface's wake cycle for a source event at ``cycle``.

        The flat-core counterpart of ``NetworkInterface.wake_source``:
        closed-loop sources (:mod:`repro.workload`) queue new work at a
        node from outside its own evaluation, so they lower the node's
        scheduler wake here.  Safe against the end-of-evaluate recompute
        in ``_evaluate_interface`` because the source's ``next_due_cycle``
        forecast covers the same pending entry; released work is always
        strictly future, matching the kernel's wake contract.
        """
        if cycle < self._ni_wake[node]:
            self._ni_wake[node] = cycle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle (``>= cycle``) at which anything has work.

        The minimum over every object component's ``next_event_cycle``:
        per-router sendable/ready conditions, the interfaces' wake
        cycles, and the earliest pending arrival of the four wheels.
        """
        upcoming: Optional[int] = None
        in_buf = self._in_buf
        in_ready = self._in_ready
        in_out_g = self._in_out_g
        out_credits = self._out_credits
        released = self._released
        per_node = self._channels_per_node
        routing_members = self._routing_members
        for node, active in enumerate(self._active_members):
            base = node * per_node
            for local in active:
                g = base + local
                if in_buf[g] and out_credits[in_out_g[g]] > 0:
                    return cycle
            members = routing_members[node]
            if members:
                rel = released[node]
                for local in members:
                    ready = in_ready[base + local]
                    if ready >= cycle:
                        if upcoming is None or ready < upcoming:
                            upcoming = ready
                    elif rel:
                        return cycle
        wake = min(self._ni_wake)
        if wake <= cycle:
            return cycle
        if wake is not _NEVER and (upcoming is None or wake < upcoming):
            upcoming = int(wake)
        for pending, lanes in (
            (self._flit_pending, self._flit_lanes),
            (self._credit_pending, self._credit_lanes),
            (self._eject_pending, self._eject_lanes),
            (self._ni_credit_pending, self._ni_credit_lanes),
        ):
            if not pending:
                continue
            size = self._wheel_size
            for offset in range(size):
                if lanes[(cycle + offset) % size]:
                    arrival = cycle + offset
                    if arrival <= cycle:
                        return cycle
                    if upcoming is None or arrival < upcoming:
                        upcoming = arrival
                    break
        return upcoming

    # -- introspection -----------------------------------------------------------

    def is_idle(self) -> bool:
        """True when no flit is buffered, queued or in flight anywhere."""
        if (
            self._flit_pending
            or self._eject_pending
            or any(self._ni_queue)
            or any(self._ni_flits)
        ):
            return False
        if any(self._in_buf):
            return False
        return all(state == _IDLE for state in self._in_state)

    def input_state(self, node: int, port: int, vc: int) -> Tuple[int, int]:
        """(state, buffered flits) of one input VC (tests, introspection)."""
        g = (node * self._radix + port) * self._vcs + vc
        return self._in_state[g], len(self._in_buf[g])

    def output_credits(self, node: int, port: int, vc: int) -> int:
        """Current credit count of one output VC (tests, introspection)."""
        return self._out_credits[(node * self._radix + port) * self._vcs + vc]

    def output_owner(self, node: int, port: int, vc: int) -> int:
        """Owning global input channel of one output VC (-1 when free)."""
        return self._out_owner[(node * self._radix + port) * self._vcs + vc]

    def in_flight_credits(self, node: int) -> List[Tuple[int, int]]:
        """``(port, vc)`` of every credit in flight toward ``node``'s
        output VCs (conservation tests and debugging)."""
        vcs = self._vcs
        lo = node * self._channels_per_node
        hi = lo + self._channels_per_node
        pairs = []
        for lane in self._credit_lanes:
            for go in lane:
                if lo <= go < hi:
                    local = go - lo
                    pairs.append((local // vcs, local % vcs))
        return pairs

    def __repr__(self) -> str:
        return (
            f"FlatNetworkCore(nodes={self._num_nodes}, radix={self._radix}, "
            f"vcs={self._vcs})"
        )
