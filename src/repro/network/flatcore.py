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
    arrival wheels replacing the per-component mailboxes.  Flits are
    plain ints (see :class:`FlatNetworkCore`), so a hop moves one int
    and builds no object.  Per cycle it drains the wheels once, then
    runs virtual-channel allocation, switch allocation and forwarding as
    a single pass over the *busy-router worklist* (the node-ordered
    routers holding ROUTING/ACTIVE channels), then the injection pass
    over the interfaces the *wake heap* reports due.  Idle routers and
    interfaces cost nothing per cycle, and ``next_event_cycle`` reads
    the same two structures instead of scanning the network.  The
    benchmark trajectory of this path lives in ``perfbench/``.

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
from collections import deque
from heapq import heappop, heappush
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

# Flit role bits (see FlatNetworkCore, "Address spaces").
_HEAD = 2
_TAIL = 1

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
    * message slot: an index into the per-message header arrays
      (message, destination, dateline mask, look-ahead node/decision,
      header arrival cycle), taken when an interface starts injecting
      the message and recycled when its tail is ejected.
    * flit: the int ``message_slot << 2 | head << 1 | tail``.  Input
      buffers hold flits; wheel lanes hold ``flit << channel_bits |
      channel`` with the destination global input channel (flit lanes)
      or the local output channel (eject lanes) in the low bits.

    Scheduling state
    ----------------
    * ``_busy`` -- the node-ordered worklist of routers with ROUTING or
      ACTIVE channels.  The flit drain adds a router when it gives it
      its first member; its own evaluation drops it once it is empty.
      Only these routers are evaluated and scanned for quiescence.
    * ``_ni_heap`` -- a lazy ``(wake, node)`` min-heap beside the
      per-interface wake cycles ``_ni_wake``.  Every finite wake value
      has an entry, except wakes for the next interface pass: an
      injecting interface re-arms for the next cycle, and an injection
      credit re-arms a blocked one for the current cycle, once per flit
      each, so those nodes go to the plain list ``_ni_soon`` instead.
      Heap entries whose wake no longer matches are stale and skipped.
      Due interfaces are evaluated once each, in ascending node order.

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
        # (Router._dateline_bits, flattened over the whole network) and
        # the node each global output port leads to (-1 for ejection and
        # unconnected ports).
        num_ports = num_nodes * radix
        self._dateline_bits: List[int] = [0] * num_ports
        self._port_neighbor: List[int] = [-1] * num_ports
        for node in range(num_nodes):
            for port in range(1, radix):
                self._dateline_bits[node * radix + port] = topology.dateline_bits(
                    node, port
                )

        # -- flat state arrays ------------------------------------------------
        num_channels = num_nodes * radix * vcs
        #: Bits of a wheel-lane entry below the flit (see Address spaces).
        self._chan_bits = num_channels.bit_length()
        self._chan_mask = (1 << self._chan_bits) - 1

        #: Input VC buffers (flit ints) / state machine / pipeline-ready cycle.
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
        #: Ascending nodes with a non-empty membership array.
        self._busy: List[int] = []
        #: Whether this cycle's switch stage released an output VC (per router).
        self._released = [False] * num_nodes
        #: Per-router statistics (parity with Router.flits_forwarded/.headers_routed).
        self.flits_forwarded = [0] * num_nodes
        self.headers_routed = [0] * num_nodes

        #: Per-message header state, indexed by message slot.
        self._slot_msg: List[Optional[object]] = []
        self._slot_dest: List[int] = []
        self._slot_mask: List[int] = []
        self._slot_la_node: List[int] = []
        self._slot_la_dec: List[Optional[object]] = []
        self._slot_arrival: List[int] = []
        #: Recycled message slots (a stack).
        self._slot_free: List[int] = []

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
            self._port_neighbor[node * radix + port] = neighbor
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
        #: Flits of the message an injection slot is sending that have not
        #: left yet (0 = the slot is free) and that message's slot.
        self._ni_left = [0] * num_slots
        self._ni_slot = [-1] * num_slots
        self._ni_queue = [deque() for _ in range(num_nodes)]
        self._ni_next_slot = [0] * num_nodes
        #: Earliest cycle each interface must be evaluated; every node
        #: starts active (cycle 0), exactly like kernel registration.
        self._ni_wake: List[float] = [0] * num_nodes
        #: Lazy ``(wake, node)`` heap over the finite ``_ni_wake`` values
        #: beyond the next cycle, and the nodes due the next cycle.
        self._ni_heap: List[Tuple[int, int]] = [(0, node) for node in range(num_nodes)]
        self._ni_soon: List[int] = []

        # -- global arrival wheels --------------------------------------------
        self._wheel_size = 1 + max(
            switch_delay + config.max_link_delay,
            self._link_delay,
            self._local_delay,
            self._credit_delay,
        )
        size = self._wheel_size
        #: ``flit << channel_bits | global input channel`` entries.
        self._flit_lanes: List[list] = [[] for _ in range(size)]
        #: Global output-channel indices (credit returns between routers
        #: and from the ejection side).
        self._credit_lanes: List[list] = [[] for _ in range(size)]
        #: ``flit << channel_bits | local output global channel`` ejections
        #: toward the NIs, pushed in ascending node order within each cycle.
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
        chan_bits = self._chan_bits
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
                slot_arrival = self._slot_arrival
                chan_mask = self._chan_mask
                for entry in lane:
                    g = entry & chan_mask
                    flit = entry >> chan_bits
                    buffer = in_buf[g]
                    if len(buffer) >= capacity:
                        raise OverflowError(
                            f"input VC {g} overflow: credit protocol violated"
                        )
                    buffer.append(flit)
                    if flit & _HEAD:
                        slot_arrival[flit >> 2] = cycle
                        if in_state[g] == _IDLE and len(buffer) == 1:
                            in_state[g] = _ROUTING
                            in_ready[g] = ready
                            node = g // per_node
                            members = routing_members[node]
                            if not members and not self._active_members[node]:
                                insort(self._busy, node)
                            insort(members, g - node * per_node)
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
                credit_lane = self._credit_lanes[
                    (cycle + self._credit_delay) % self._wheel_size
                ]
                self._credit_pending += len(lane)
                chan_mask = self._chan_mask
                tail_bit = 1 << chan_bits
                slot_shift = chan_bits + 2
                slot_msg = self._slot_msg
                stats = self._stats
                for entry in lane:
                    credit_lane.append(entry & chan_mask)
                    if entry & tail_bit:
                        s = entry >> slot_shift
                        message = slot_msg[s]
                        message.ejection_cycle = cycle
                        stats.record_delivered(message, cycle)
                        slot_msg[s] = None
                        self._slot_free.append(s)
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
                        self._ni_soon.append(node)
                del lane[:]

    def evaluate(self, cycle: int) -> None:
        """Run the busy routers' allocation/forwarding pass, then the due
        interfaces' injection.

        This is the busy path the flat core exists for, so the router
        loop is written as one flat function: every hot array is bound
        to a local exactly once per cycle and the two-stage switch
        allocation plus crossbar forwarding (the flat analogue of
        ``Router._allocate_switch_batched`` and ``Router._forward``) are
        inlined into the per-router body instead of paying a method call
        and attribute-binding prologue per busy router per cycle.
        """
        busy = self._busy
        if busy:
            self._evaluate_routers(busy, cycle)
        soon = self._ni_soon
        heap = self._ni_heap
        if soon or (heap and heap[0][0] <= cycle):
            # The nodes re-armed for this pass, plus the live due heap
            # entries, in node order; a node named twice runs once.
            self._ni_soon = []
            due = soon
            if heap and heap[0][0] <= cycle:
                ni_wake = self._ni_wake
                while heap and heap[0][0] <= cycle:
                    wake, node = heappop(heap)
                    if ni_wake[node] == wake:
                        due.append(node)
            due.sort()
            last = -1
            for node in due:
                if node != last:
                    self._evaluate_interface(node, cycle)
                    last = node

    def _evaluate_routers(self, busy: List[int], cycle: int) -> None:
        """One allocation/forwarding pass over the busy-router worklist."""
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
        slot_msg = self._slot_msg
        slot_dest = self._slot_dest
        slot_mask = self._slot_mask
        slot_la_node = self._slot_la_node
        slot_la_dec = self._slot_la_dec
        slot_arrival = self._slot_arrival
        flits_forwarded = self.flits_forwarded
        vcs = self._vcs
        radix = self._radix
        per_node = self._channels_per_node
        wheel = self._wheel_size
        chan_bits = self._chan_bits
        selection_offset = self._selection_offset
        lookahead = self._lookahead
        selector_records = self._selector_records
        selectors = self._selectors
        decide = self._decide
        port_neighbor = self._port_neighbor
        credit_slot = (cycle + self._credit_delay) % wheel
        credit_lane = self._credit_lanes[credit_slot]
        ni_credit_lane = self._ni_credit_lanes[credit_slot]
        eject_lane = self._eject_lanes[(cycle + self._local_delay) % wheel]
        port_hop_delay = self._port_hop_delay
        dateline_bits = self._dateline_bits
        flit_pushed = 0
        credit_pushed = 0
        eject_pushed = 0
        ni_credit_pushed = 0
        next_cycle = cycle + 1
        emptied = False
        for node in busy:
            rmembers = routing_members[node]
            amembers = active_members[node]
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
                    if not head & _HEAD:
                        raise AssertionError(
                            "non-header flit at the head of a ROUTING "
                            f"channel {g}: {head:#x}"
                        )
                    self._try_allocate(node, g, local, head >> 2)
                if not amembers:
                    continue

            pbase = node * radix

            # ---- switch stage 1: nominate one sendable VC per input port.
            # One walk of the sorted ACTIVE array; channels that cannot
            # send are skipped first, groups are the per-port contiguous
            # runs of the rest, flushed on every group change.
            # ``nominated`` holds (out_port, winner local) pairs of every
            # group but the last, in first-nomination order.
            nominated = None
            group_base = -1
            for local in amembers:
                g = base + local
                if not in_buf[g] or out_credits[in_out_g[g]] <= 0:
                    continue
                gbase = local - local % vcs
                if gbase != group_base:
                    if group_base >= 0:
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
                    group_base = gbase
                    priority = gbase + in_prio[pbase + gbase // vcs]
                    first_local = local
                    first_at_or_after = local if local >= priority else -1
                elif first_at_or_after < 0 and local >= priority:
                    first_at_or_after = local
            if group_base < 0:
                continue
            winner = first_at_or_after if first_at_or_after >= 0 else first_local
            in_prio[pbase + group_base // vcs] = (winner - group_base + 1) % vcs
            out_port = in_out_port[base + winner]

            # ---- switch stage 2: grant one nominating input port per
            # requested output (first-nomination order; first nominator at
            # or after the output's round-robin pointer, wrapping to the
            # lowest).  A lone nominee always wins its output.
            if nominated is None:
                out_prio[pbase + out_port] = (winner // vcs + 1) % radix
                grants = ((out_port, winner),)
            else:
                nominated.append((out_port, winner))
                grants = []
                granted_outputs = []
                for out_port, _nominee in nominated:
                    if out_port in granted_outputs:
                        continue
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
                    grants.append((out_port, winner))

            # ---- crossbar forwarding of every granted head-of-buffer flit.
            for out_port, winner in grants:
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
                    credit_lane.append(up)
                    credit_pushed += 1
                else:
                    ni_credit_lane.append(-up - 1)
                    ni_credit_pushed += 1
                if flit & _HEAD:
                    s = flit >> 2
                    slot_msg[s].hops += 1
                    bits = dateline_bits[pidx]
                    if bits:
                        slot_mask[s] |= bits
                    if lookahead and out_port != LOCAL_PORT:
                        next_node = port_neighbor[pidx]
                        slot_la_node[s] = next_node
                        slot_la_dec[s] = decide(next_node, slot_dest[s])
                dest = go_flit_dest[go]
                if dest >= 0:
                    flit_lanes[(cycle + port_hop_delay[out_port]) % wheel].append(
                        flit << chan_bits | dest
                    )
                    flit_pushed += 1
                else:
                    eject_lane.append(flit << chan_bits | go)
                    eject_pushed += 1
                if flit & _TAIL:
                    out_owner[go] = -1
                    released[node] = True
                    in_state[g] = _IDLE
                    in_out_g[g] = -1
                    in_out_port[g] = -1
                    _membership_remove(amembers, winner)
                    if buffer:
                        head = buffer[0]
                        if not head & _HEAD:
                            raise AssertionError(
                                "expected a header after a tail on channel "
                                f"{g}, found {head:#x}"
                            )
                        in_state[g] = _ROUTING
                        ready = slot_arrival[head >> 2] + selection_offset
                        in_ready[g] = ready if ready > cycle else next_cycle
                        insort(rmembers, winner)
            flits_forwarded[node] += len(grants)
            if not amembers and not rmembers:
                emptied = True
        if emptied:
            busy[:] = [
                node for node in busy if routing_members[node] or active_members[node]
            ]
        self._flit_pending += flit_pushed
        self._credit_pending += credit_pushed
        self._eject_pending += eject_pushed
        self._ni_credit_pending += ni_credit_pushed

    def _try_allocate(self, node: int, g: int, local: int, slot: int) -> bool:
        """Attempt to allocate an output virtual channel for a routed header.

        Candidate construction, selector consultation and the escape
        fallback replicate ``Router._try_allocate`` exactly: the selector
        is consulted only when at least two candidate ports have a free
        adaptive-class VC (in which case allocation always succeeds), so
        failed attempts draw no RNG and mutate no state.
        """
        if (
            self._lookahead
            and self._slot_la_node[slot] == node
            and self._slot_la_dec[slot] is not None
        ):
            decision = self._slot_la_dec[slot]
        else:
            decision = self._decide(node, self._slot_dest[slot])

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
                    (self._slot_mask[slot] >> self._port_dimension[escape_port]) & 1
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

    def _new_slot(self, message) -> int:
        """Take a message slot for ``message`` and reset its header state
        (the arrival cycle is written when the header reaches a buffer)."""
        if self._slot_free:
            slot = self._slot_free.pop()
            self._slot_msg[slot] = message
            self._slot_dest[slot] = message.destination
            self._slot_mask[slot] = 0
            self._slot_la_node[slot] = -1
            self._slot_la_dec[slot] = None
            return slot
        self._slot_msg.append(message)
        self._slot_dest.append(message.destination)
        self._slot_mask.append(0)
        self._slot_la_node.append(-1)
        self._slot_la_dec.append(None)
        self._slot_arrival.append(0)
        return len(self._slot_msg) - 1

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
        ni_left = self._ni_left
        ni_slot = self._ni_slot
        if queue:
            for vc in range(vcs):
                if not queue:
                    break
                s = sbase + vc
                if ni_left[s]:
                    continue
                message = queue.popleft()
                slot = self._new_slot(message)
                ni_slot[s] = slot
                ni_left[s] = message.length
                if self._lookahead:
                    self._slot_la_node[slot] = node
                    self._slot_la_dec[slot] = self._decide(node, message.destination)

        ni_credits = self._ni_credits
        next_slot = self._ni_next_slot[node]
        for offset in range(vcs):
            vc = (next_slot + offset) % vcs
            s = sbase + vc
            left = ni_left[s]
            if not left or ni_credits[s] <= 0:
                continue
            slot = ni_slot[s]
            flit = slot << 2 | (left == 1)
            ni_left[s] = left - 1
            ni_credits[s] -= 1
            message = self._slot_msg[slot]
            if left == message.length:
                flit |= _HEAD
                message.injection_cycle = cycle
                stats.record_injected(message, cycle)
            self._flit_lanes[(cycle + self._link_delay) % self._wheel_size].append(
                flit << self._chan_bits | node * self._channels_per_node + vc
            )
            self._flit_pending += 1
            self._ni_next_slot[node] = (vc + 1) % vcs
            break

        wake = self._interface_next_event(node, cycle + 1)
        self._ni_wake[node] = wake
        if wake == cycle + 1:
            self._ni_soon.append(node)
        elif wake < _NEVER:
            heappush(self._ni_heap, (wake, node))

    def _interface_next_event(self, node: int, cycle: int) -> float:
        """Earliest cycle this interface must be evaluated again.

        Mirrors ``NetworkInterface.next_event_cycle`` minus the mailbox
        terms: ejection arrivals need no evaluation (the global eject
        drain performs the whole delivery) and injection-credit arrivals
        re-arm the wake at drain time.
        """
        vcs = self._vcs
        sbase = node * vcs
        ni_left = self._ni_left
        ni_credits = self._ni_credits
        free_slot = False
        for s in range(sbase, sbase + vcs):
            if ni_left[s]:
                if ni_credits[s] > 0:
                    return cycle
            else:
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
            heappush(self._ni_heap, (cycle, node))

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle (``>= cycle``) at which anything has work.

        The minimum over every object component's ``next_event_cycle``:
        the busy routers' sendable/ready conditions, the interfaces
        re-armed for this cycle (the kernel asks for the cycle after the
        one just evaluated) or the earliest live wake on the heap, and
        the earliest pending arrival of the four wheels.
        """
        if self._ni_soon:
            return cycle
        upcoming: Optional[int] = None
        busy = self._busy
        if busy:
            in_buf = self._in_buf
            in_ready = self._in_ready
            in_out_g = self._in_out_g
            out_credits = self._out_credits
            released = self._released
            per_node = self._channels_per_node
            routing_members = self._routing_members
            active_members = self._active_members
            for node in busy:
                base = node * per_node
                for local in active_members[node]:
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
        heap = self._ni_heap
        if heap:
            ni_wake = self._ni_wake
            while heap and ni_wake[heap[0][1]] != heap[0][0]:
                heappop(heap)
            if heap:
                wake = heap[0][0]
                if wake <= cycle:
                    return cycle
                if upcoming is None or wake < upcoming:
                    upcoming = wake
        if (
            self._flit_pending
            or self._credit_pending
            or self._eject_pending
            or self._ni_credit_pending
        ):
            size = self._wheel_size
            flit_lanes = self._flit_lanes
            credit_lanes = self._credit_lanes
            eject_lanes = self._eject_lanes
            ni_credit_lanes = self._ni_credit_lanes
            for offset in range(size):
                index = (cycle + offset) % size
                if (
                    flit_lanes[index]
                    or credit_lanes[index]
                    or eject_lanes[index]
                    or ni_credit_lanes[index]
                ):
                    if offset == 0:
                        return cycle
                    if upcoming is None or cycle + offset < upcoming:
                        upcoming = cycle + offset
                    break
        return upcoming

    # -- introspection -----------------------------------------------------------

    def is_idle(self) -> bool:
        """True when no flit is buffered, queued or in flight anywhere."""
        if (
            self._flit_pending
            or self._eject_pending
            or any(self._ni_queue)
            or any(self._ni_left)
        ):
            return False
        if any(self._in_buf):
            return False
        return all(state == _IDLE for state in self._in_state)

    def message_conservation_error(self) -> Optional[str]:
        """Why the message count does not balance, or None when it does.

        Every message the statistics collector saw created is delivered,
        holds a live message slot, or is still queued at its interface.
        O(slots + nodes); the simulator checks it once per run.
        """
        created = self._stats.created
        delivered = self._stats.delivered
        live = sum(1 for message in self._slot_msg if message is not None)
        queued = sum(len(queue) for queue in self._ni_queue)
        if created == delivered + live + queued:
            return None
        return (
            f"created {created} != delivered {delivered} + live message "
            f"slots {live} + queued at interfaces {queued}"
        )

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
