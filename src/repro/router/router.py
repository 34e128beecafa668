"""The pipelined wormhole router (PROUD / LA-PROUD).

One :class:`Router` models a single node's switch: input virtual-channel
buffers, the routing decision block (routing algorithm + table + path
selection), virtual-channel allocation, the crossbar with two-stage
round-robin switch allocation, credit-based flow control and the output
virtual-channel multiplexers.

Timing model
------------
* A header flit written into an input buffer at cycle ``t`` becomes
  eligible for selection/arbitration at ``t + pipeline.selection_offset``
  (3 cycles for the 5-stage PROUD pipe, 2 for the 4-stage LA-PROUD pipe).
* Body and tail flits use the bypass path and are eligible immediately.
* A flit granted the switch at cycle ``s`` reaches the next router's input
  buffer at ``s + pipeline.switch_delay + link_delay`` (crossbar traversal,
  VC multiplexing, then the link), or ``s + switch_delay`` for the local
  ejection port.

Under no contention a header therefore spends ``depth + link_delay``
cycles per hop -- 6 for PROUD and 5 for LA-PROUD with the paper's
unit-delay links -- which is exactly the contention-free router latency of
Table 2.

Switch-allocation schedules
---------------------------
The per-cycle busy path (virtual-channel allocation plus the two-stage
switch allocation) has two implementations over one semantics, selected
by :attr:`RouterConfig.switch_mode` (see :mod:`repro.router.switch`):

``"reference"``
    Visits every input virtual channel of every port each cycle and
    arbitrates through :meth:`RoundRobinArbiter.grant`.  Kept as the
    executable specification.

``"batched"``
    The default.  The router maintains two sorted membership arrays of
    flat ``port * vcs + vc`` indices -- channels in the ROUTING state and
    channels in the ACTIVE state -- updated incrementally at the three
    state-transition sites (header arrival, output-VC allocation, tail
    departure; the same events the kernel's quiescence hooks observe).
    Per-cycle work then touches only those arrays: the VC-allocation pass
    walks the ROUTING array, and switch allocation nominates and grants
    in one flat pass over the ACTIVE array using the arbiters'
    sorted-request fast path, with per-flit statistics accumulated per
    pass.  Iteration order over the sorted arrays equals the reference's
    port-major/VC-minor traversal, so arbitration outcomes, selector
    consultations and RNG draws are bit-identical; this is enforced by
    ``tests/test_router_equivalence.py`` and
    ``tests/test_router_properties.py``.

Link-transport schedules
------------------------
*How* in-flight flits and credits are carried between neighbours has its
own two-implementations-one-semantics split, selected by
:attr:`RouterConfig.link_mode` (see :mod:`repro.network.link`):
``"reference"`` keeps one deque of ``(cycle, vc, payload)`` tuples per
input port, drained tuple-at-a-time; ``"batched"`` (the default) stores
arrivals in cycle-indexed :class:`~repro.network.link.ArrivalWheel`
lanes.  Senders push through prebound receiver closures built at wiring
time (``_forward`` issues no per-flit ``receive_flit`` dispatch; flit
entries are ``(flat_channel, flit)`` pairs, credit entries flat channel
indices applied via ``_out_vcs_flat``), and the drain consumes the
current cycle's lane whole -- the wired-window contract makes lane
membership exact, so no arrival comparisons are needed.  Wakes carry
identical cycles and external pushes fall back to the wheels' ``far``
lists, so the two schedules are bit-identical;
``tests/test_link_equivalence.py`` enforces this across the full kernel
x switch x link cube.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from itertools import chain
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.kernel import no_wake
from repro.network.link import ArrivalWheel
from repro.network.topology import LOCAL_PORT, Topology, port_direction
from repro.router.arbiter import RoundRobinArbiter
from repro.router.channels import (
    InputVirtualChannel,
    OutputPort,
    OutputVirtualChannel,
    VCState,
)
from repro.router.config import RouterConfig
from repro.routing.base import RouteDecision, RoutingAlgorithm
from repro.selection.base import OutputPortStatus, PathSelector
from repro.traffic.message import Flit

__all__ = ["Router"]


def _membership_remove(members: List[int], flat: int) -> None:
    """Remove ``flat`` from a sorted membership array if present."""
    index = bisect_left(members, flat)
    if index < len(members) and members[index] == flat:
        del members[index]


def _flit_receiver_for(target: object, target_port: int) -> Callable:
    """``target``'s prebound flit receiver for ``target_port``.

    Routers and network interfaces build their own lane-push closures
    (:meth:`Router.make_flit_receiver`); any other target -- test doubles,
    user components -- is wrapped through its plain ``receive_flit``.
    """
    maker = getattr(target, "make_flit_receiver", None)
    if maker is not None:
        return maker(target_port)
    receive = target.receive_flit

    def receiver(vc: int, flit: Flit, arrival_cycle: int) -> None:
        receive(target_port, vc, flit, arrival_cycle)

    return receiver


def _credit_receiver_for(target: object, target_port: int) -> Callable:
    """``target``'s prebound credit receiver for ``target_port``
    (see :func:`_flit_receiver_for`)."""
    maker = getattr(target, "make_credit_receiver", None)
    if maker is not None:
        return maker(target_port)
    receive = target.receive_credit

    def receiver(vc: int, arrival_cycle: int) -> None:
        receive(target_port, vc, arrival_cycle)

    return receiver


class Router:
    """A single pipelined wormhole router.

    Parameters
    ----------
    node_id:
        The node this router serves.
    topology:
        Network topology (used for neighbor lookup and port geometry).
    config:
        Microarchitectural parameters (VCs, buffers, pipeline, delays,
        switch-allocation schedule).
    routing:
        Routing algorithm providing per-destination port candidates and
        the virtual-channel class partition.
    selector:
        Path-selection heuristic instance owned by this router.
    """

    def __init__(
        self,
        node_id: int,
        topology: Topology,
        config: RouterConfig,
        routing: RoutingAlgorithm,
        selector: PathSelector,
    ) -> None:
        routing.validate(config.vcs_per_port)
        self._node_id = node_id
        self._topology = topology
        self._config = config
        self._pipeline = config.pipeline
        self._routing = routing
        #: Bound memoized-decide entry point (one shared memo per network;
        #: see ``RoutingAlgorithm.decision_cache``).
        self._decide = routing.decide_cached
        self._selector = selector
        self._vc_classes = routing.vc_classes(config.vcs_per_port)

        radix = topology.radix
        self._radix = radix
        self._vcs = config.vcs_per_port
        self._inputs: List[List[InputVirtualChannel]] = [
            [
                InputVirtualChannel(port, vc, config.buffer_depth)
                for vc in range(config.vcs_per_port)
            ]
            for port in range(radix)
        ]
        #: The input channels as one flat array indexed by
        #: ``port * vcs_per_port + vc`` (the batched pass's address space).
        self._channels_flat: List[InputVirtualChannel] = [
            channel for per_port in self._inputs for channel in per_port
        ]
        self._outputs: List[OutputPort] = [
            OutputPort(port, config.vcs_per_port, config.buffer_depth)
            for port in range(radix)
        ]
        # Downstream / upstream wiring filled in by the network assembly.
        self._downstream: List[Optional[Tuple[object, int]]] = [None] * radix
        self._upstream: List[Optional[Tuple[object, int]]] = [None] * radix
        #: Which link-transport schedule carries in-flight flits/credits
        #: (see the module docstring and :mod:`repro.network.link`).
        self._batched_links = config.link_schedule().batched
        # Mailboxes carrying in-flight flits and credits: cycle-indexed
        # arrival wheels under the batched link schedule (flit entries
        # are ``(flat_channel, flit)`` pairs, credit entries flat
        # ``port * vcs + vc`` indices), per-port tuple deques under the
        # reference one.
        if self._batched_links:
            max_link_delay = config.max_link_delay
            wheel_size = 1 + max(
                max_link_delay + config.pipeline.switch_delay,
                config.pipeline.switch_delay,
                max_link_delay,
                config.credit_delay,
            )
            self._flit_wheel = ArrivalWheel(wheel_size)
            self._credit_wheel = ArrivalWheel(wheel_size)
            #: Output virtual channels as one flat array indexed by
            #: ``port * vcs + vc`` (the credit drain's address space).
            self._out_vcs_flat: List[OutputVirtualChannel] = [
                output.vcs[vc]
                for output in self._outputs
                for vc in range(config.vcs_per_port)
            ]
            # Skip the class-level dispatch: the kernel calls the batched
            # drain directly.
            self.deliver = self._deliver_batched_links
        else:
            self._flit_mailboxes: List[Deque[Tuple[int, int, Flit]]] = [
                deque() for _ in range(radix)
            ]
            self._credit_mailboxes: List[Deque[Tuple[int, int]]] = [
                deque() for _ in range(radix)
            ]
        #: Per-output-port flit receivers and per-input-port credit
        #: receivers of the wired neighbours (batched link schedule only;
        #: filled in by ``connect_output``/``set_upstream``).  These are
        #: the targets' prebound lane-push closures, so ``_forward``
        #: appends straight into the outgoing link's lane -- the lane is
        #: the send buffer, consumed in one pass by the downstream drain
        #: -- instead of dispatching ``receive_flit``/``receive_credit``
        #: per flit.
        self._flit_senders: List[Optional[Callable]] = [None] * radix
        self._credit_senders: List[Optional[Callable]] = [None] * radix
        #: Entries currently enqueued across all mailboxes of each kind;
        #: lets ``deliver`` and ``next_event_cycle`` skip the per-port
        #: scans entirely when nothing is in flight.
        self._pending_flits = 0
        self._pending_credits = 0
        # Crossbar arbiters: one per input port (among its VCs) and one per
        # output port (among the input ports).
        self._input_arbiters = [
            RoundRobinArbiter(config.vcs_per_port) for _ in range(radix)
        ]
        self._output_arbiters = [RoundRobinArbiter(radix) for _ in range(radix)]
        #: Wake callback installed by an activity-aware kernel.
        self._wake: Callable[[int], None] = no_wake
        # Kernel active-flag view (see set_active_hint): the default
        # always reads False, so un-registered routers wake on every event.
        self._kernel_active: Sequence[bool] = (False,)
        self._kernel_index = 0
        #: Input virtual channels not in the IDLE state (cheap quiescence
        #: check; kept exact by the three state-transition sites below).
        self._occupied_channels = 0
        #: Sorted flat indices of channels in the ROUTING state (awaiting
        #: an output virtual channel) and in the ACTIVE state (owning one).
        self._routing_members: List[int] = []
        self._active_members: List[int] = []
        #: Whether this cycle's switch stage released an output virtual
        #: channel.  VC allocation runs *before* switch allocation within
        #: ``evaluate``, so a header that failed allocation this cycle may
        #: be unblocked by a tail departing later in the same cycle -- an
        #: event no mailbox wake reports, because it is internal to this
        #: router.  ``next_event_cycle`` consults this flag.
        self._released_output_vc = False

        #: Which busy-path schedule to run (see module docstring).
        self._batched = config.switch_schedule().batched
        # Preallocated scratch of the batched pass (reused every cycle so
        # the hot loop allocates nothing).
        self._out_requests: List[List[InputVirtualChannel]] = [
            [] for _ in range(radix)
        ]
        self._touched_outputs: List[int] = []
        #: Round-robin priority pointers of the batched pass.  They mirror
        #: the :class:`RoundRobinArbiter` pointers bit for bit -- both
        #: start at slot 0 and advance to one past the winner on every
        #: grant -- but live in flat integer arrays so the hot loop reads
        #: them without a method call.  (The arbiter objects remain the
        #: reference schedule's -- and the tests' -- entry point.)
        self._input_priorities: List[int] = [0] * radix
        self._output_priorities: List[int] = [0] * radix

        # Hot-path constants hoisted out of the per-flit loops.
        self._selection_offset = self._pipeline.selection_offset
        self._lookahead = self._pipeline.lookahead
        self._local_delay = self._pipeline.switch_delay
        self._credit_delay = config.credit_delay
        #: Crossbar-to-arrival delay per output port: switch traversal
        #: for the local ejection port, switch plus the (per-dimension)
        #: link delay for network ports.
        switch_delay = self._pipeline.switch_delay
        self._port_delays: List[int] = [self._local_delay] * radix
        for port in range(1, radix):
            dimension = port_direction(port)[0]
            self._port_delays[port] = switch_delay + config.link_delay_for(dimension)
        #: Dateline-crossing mask contribution per output port (see
        #: ``Topology.dateline_bits``); all zeros on meshes, so the mesh
        #: forward path pays one indexed read per header.
        self._dateline_bits: List[int] = [
            0 if port == LOCAL_PORT else topology.dateline_bits(node_id, port)
            for port in range(radix)
        ]
        # Escape-channel pools per output port, indexed by the dateline
        # class the header's mask selects: ``(class0_pool, class1_pool)``.
        # Without a dateline split (meshes) both entries are the whole
        # escape pool, as is the local ejection port's (a message leaving
        # the network needs no dateline ordering).
        classes = self._vc_classes
        if classes.escape_classes is not None:
            escape_pools = classes.escape_classes
        else:
            escape_pools = (classes.escape_vcs, classes.escape_vcs)
        self._escape_pools: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [
            (classes.escape_vcs, classes.escape_vcs)
            if port == LOCAL_PORT
            else escape_pools
            for port in range(radix)
        ]
        #: Dimension of each network port: the bit of the dateline mask
        #: that selects the escape class at that port.
        self._port_dimension: List[int] = [
            0 if port == LOCAL_PORT else port_direction(port)[0]
            for port in range(radix)
        ]
        #: Atomic virtual-channel allocation (wrapping topologies): the
        #: downstream buffer capacity a candidate VC must have fully
        #: credited back before a new header may claim it, 0 (disabled)
        #: on meshes.  One message per channel queue is an assumption of
        #: Duato's wormhole deadlock-freedom proof; with FIFO chaining a
        #: header can sit inside an escape buffer behind a foreign
        #: message that re-entered the adaptive network, letting a cycle
        #: of committed adaptive channels block the escape subnetwork
        #: (observed as tornado-on-torus deadlock).
        self._atomic_credits = config.buffer_depth if topology.wraps else 0
        #: Whether the selector actually listens to ``record_use``
        #: notifications (history-based heuristics); detected once so the
        #: per-flit forward path skips the no-op call for the others.
        self._selector_records = (
            getattr(type(selector), "record_use", None) is not PathSelector.record_use
        )

        #: Statistics: flits forwarded through the crossbar and headers routed.
        self.flits_forwarded = 0
        self.headers_routed = 0

    # -- identity and wiring --------------------------------------------------

    @property
    def node_id(self) -> int:
        """Node this router serves."""
        return self._node_id

    @property
    def config(self) -> RouterConfig:
        """Microarchitectural configuration."""
        return self._config

    @property
    def selector(self) -> PathSelector:
        """This router's path-selection heuristic instance."""
        return self._selector

    @property
    def routing(self) -> RoutingAlgorithm:
        """Routing algorithm used by the decision block."""
        return self._routing

    @property
    def switch_mode(self) -> str:
        """The busy-path schedule in use ("reference" or "batched")."""
        return self._config.switch_mode

    def connect_output(self, port: int, target: object, target_port: int) -> None:
        """Attach ``target`` (a router or network interface) downstream of
        ``port``.  ``target`` must expose ``receive_flit(port, vc, flit, cycle)``."""
        self._downstream[port] = (target, target_port)
        self._outputs[port].connected = True
        if self._batched_links:
            self._flit_senders[port] = _flit_receiver_for(target, target_port)

    def set_upstream(self, port: int, target: object, target_port: int) -> None:
        """Record who feeds input ``port`` so credits can be returned to it.
        ``target`` must expose ``receive_credit(port, vc, cycle)``."""
        self._upstream[port] = (target, target_port)
        if self._batched_links:
            self._credit_senders[port] = _credit_receiver_for(target, target_port)

    # -- prebound lane receivers (batched link schedule) -----------------------

    def make_flit_receiver(self, port: int) -> Callable[[int, Flit, int], None]:
        """A prebound fast path of :meth:`receive_flit` for one input port.

        Upstream flushes call the returned ``receiver(vc, flit, arrival)``
        instead of dispatching ``receive_flit`` per flit; it performs the
        identical side effects (lane push and wake).  Falls
        back to wrapping :meth:`receive_flit` under the reference link
        schedule, so mixed-schedule wiring stays correct.
        """
        if not self._batched_links:
            receive = self.receive_flit

            def receiver(vc: int, flit: Flit, arrival_cycle: int) -> None:
                receive(port, vc, flit, arrival_cycle)

            return receiver
        wheel = self._flit_wheel
        slots = wheel.slots
        size = wheel.size
        base = port * self._vcs

        def receiver(vc: int, flit: Flit, arrival_cycle: int) -> None:
            slots[arrival_cycle % size].append((base + vc, flit))
            if not self._kernel_active[self._kernel_index]:
                self._wake(arrival_cycle)

        return receiver

    def make_credit_receiver(self, port: int) -> Callable[[int, int], None]:
        """A prebound fast path of :meth:`receive_credit` for one output
        port's upstream direction; same contract as
        :meth:`make_flit_receiver`."""
        if not self._batched_links:
            receive = self.receive_credit

            def receiver(vc: int, arrival_cycle: int) -> None:
                receive(port, vc, arrival_cycle)

            return receiver
        wheel = self._credit_wheel
        slots = wheel.slots
        size = wheel.size
        base = port * self._vcs

        def receiver(vc: int, arrival_cycle: int) -> None:
            slots[arrival_cycle % size].append(base + vc)
            if not self._kernel_active[self._kernel_index]:
                self._wake(arrival_cycle)

        return receiver

    def input_channel(self, port: int, vc: int) -> InputVirtualChannel:
        """Direct access to an input virtual channel (tests, introspection)."""
        return self._inputs[port][vc]

    def output_port(self, port: int) -> OutputPort:
        """Direct access to an output port (tests, introspection)."""
        return self._outputs[port]

    # -- mailbox interface (called by neighbours and the network interface) ---

    def receive_flit(self, port: int, vc: int, flit: Flit, arrival_cycle: int) -> None:
        """Schedule a flit to appear in input ``(port, vc)`` at ``arrival_cycle``.

        Under the batched link schedule this public method makes no
        assumption about ``arrival_cycle`` and therefore routes through
        the wheel's ``far`` overflow list; the wired simulation path uses
        the prebound window receivers (:meth:`make_flit_receiver`)
        instead.
        """
        if self._batched_links:
            self._flit_wheel.far.append(
                (arrival_cycle, port * self._vcs + vc, flit)
            )
        else:
            self._flit_mailboxes[port].append((arrival_cycle, vc, flit))
            self._pending_flits += 1
        if not self._kernel_active[self._kernel_index]:
            self._wake(arrival_cycle)

    def receive_credit(self, port: int, vc: int, arrival_cycle: int) -> None:
        """Schedule a credit return for output ``(port, vc)`` at ``arrival_cycle``
        (same ``far`` routing as :meth:`receive_flit` when batched)."""
        if self._batched_links:
            self._credit_wheel.far.append((arrival_cycle, port * self._vcs + vc))
        else:
            self._credit_mailboxes[port].append((arrival_cycle, vc))
            self._pending_credits += 1
        if not self._kernel_active[self._kernel_index]:
            self._wake(arrival_cycle)

    def free_input_vcs(self, port: int) -> List[int]:
        """Input VCs of ``port`` that are idle and empty (used by injection)."""
        return [
            vc
            for vc, channel in enumerate(self._inputs[port])
            if channel.state is VCState.IDLE and not channel.buffer
        ]

    # -- per-cycle behaviour ---------------------------------------------------

    def deliver(self, cycle: int) -> None:
        """Absorb flits and credits whose link traversal completes this cycle."""
        # Batched instances bind ``self.deliver`` to the wheel drain at
        # construction, so the kernel never reaches this guard; it keeps
        # explicit class-level calls (``Router.deliver(r, c)``) correct.
        # To instrument the batched drain, patch the class *before*
        # constructing the simulator (see test_router_properties).
        if self._batched_links:
            self._deliver_batched_links(cycle)
            return
        if self._pending_flits:
            absorbed = 0
            inputs = self._inputs
            for port, mailbox in enumerate(self._flit_mailboxes):
                while mailbox and mailbox[0][0] <= cycle:
                    _, vc, flit = mailbox.popleft()
                    absorbed += 1
                    channel = inputs[port][vc]
                    flit.arrival_cycle = cycle
                    buffer = channel.buffer
                    if len(buffer) >= channel.capacity:  # inlined channel.push
                        raise OverflowError(
                            f"input VC ({channel.port},{channel.vc}) overflow: "
                            "credit protocol violated"
                        )
                    buffer.append(flit)
                    if (
                        flit.is_head
                        and channel.state is VCState.IDLE
                        and len(buffer) == 1
                    ):
                        channel.state = VCState.ROUTING
                        channel.ready_cycle = cycle + self._selection_offset
                        self._occupied_channels += 1
                        insort(self._routing_members, port * self._vcs + vc)
            self._pending_flits -= absorbed
        if self._pending_credits:
            absorbed = 0
            outputs = self._outputs
            for port, credits in enumerate(self._credit_mailboxes):
                if not credits:
                    continue
                port_vcs = outputs[port].vcs
                while credits and credits[0][0] <= cycle:
                    _, vc = credits.popleft()
                    absorbed += 1
                    port_vcs[vc].credits += 1
            self._pending_credits -= absorbed

    def _deliver_batched_links(self, cycle: int) -> None:
        """Wheel version of :meth:`deliver`: consume this cycle's lanes whole.

        The wired-window contract (see :mod:`repro.network.link`)
        guarantees the lane at ``cycle % size`` holds exactly the
        arrivals due this cycle, so the drain is one slice per wheel --
        no arrival-cycle comparisons, no per-port scans, no tuple
        popleft loop.  The per-flit state transitions are identical to
        the reference drain; absorption order across ports within one
        cycle is immaterial (distinct lanes feed distinct input channels
        and every per-flit effect is commutative across channels).  The
        ``far`` overflow (external pushes with arbitrary arrivals) is
        checked with one boolean and drained by explicit comparison.
        """
        wheel = self._flit_wheel
        lane = wheel.slots[cycle % wheel.size]
        if lane:
            channels = self._channels_flat
            selection_offset = self._selection_offset
            routing_members = self._routing_members
            idle = VCState.IDLE
            for flat, flit in lane:
                channel = channels[flat]
                flit.arrival_cycle = cycle
                buffer = channel.buffer
                if len(buffer) >= channel.capacity:  # inlined channel.push
                    raise OverflowError(
                        f"input VC ({channel.port},{channel.vc}) overflow: "
                        "credit protocol violated"
                    )
                buffer.append(flit)
                if (
                    flit.is_head
                    and channel.state is idle
                    and len(buffer) == 1
                ):
                    channel.state = VCState.ROUTING
                    channel.ready_cycle = cycle + selection_offset
                    self._occupied_channels += 1
                    insort(routing_members, flat)
            del lane[:]
        if wheel.far:
            self._drain_far_flits(cycle)
        wheel = self._credit_wheel
        lane = wheel.slots[cycle % wheel.size]
        if lane:
            out_vcs = self._out_vcs_flat
            for flat in lane:
                out_vcs[flat].credits += 1
            del lane[:]
        if wheel.far:
            self._drain_far_credits(cycle)

    def _absorb_flit(self, flat: int, flit: Flit, cycle: int) -> None:
        """Move one arrived flit into its input channel (cold far path;
        the wheel drain inlines this body)."""
        channel = self._channels_flat[flat]
        flit.arrival_cycle = cycle
        buffer = channel.buffer
        if len(buffer) >= channel.capacity:
            raise OverflowError(
                f"input VC ({channel.port},{channel.vc}) overflow: "
                "credit protocol violated"
            )
        buffer.append(flit)
        if flit.is_head and channel.state is VCState.IDLE and len(buffer) == 1:
            channel.state = VCState.ROUTING
            channel.ready_cycle = cycle + self._selection_offset
            self._occupied_channels += 1
            insort(self._routing_members, flat)

    def _drain_far_flits(self, cycle: int) -> None:
        """Absorb due ``far`` flit arrivals (external pushes), FIFO order.

        The lane key groups entries by input port, matching the
        reference's one-deque-per-port head-blocking.
        """
        vcs = self._vcs
        for _, flat, flit in self._flit_wheel.drain_far_due(
            cycle, lane_key=lambda entry: entry[1] // vcs
        ):
            self._absorb_flit(flat, flit, cycle)

    def _drain_far_credits(self, cycle: int) -> None:
        """Apply due ``far`` credit returns (external pushes)."""
        vcs = self._vcs
        out_vcs = self._out_vcs_flat
        for _, flat in self._credit_wheel.drain_far_due(
            cycle, lane_key=lambda entry: entry[1] // vcs
        ):
            out_vcs[flat].credits += 1

    def evaluate(self, cycle: int) -> None:
        """Run this cycle's virtual-channel allocation and switch allocation."""
        self._released_output_vc = False
        if self._batched:
            if self._routing_members:
                self._allocate_virtual_channels_batched(cycle)
            if self._active_members:
                self._allocate_switch_batched(cycle)
        else:
            self._allocate_virtual_channels(cycle)
            self._allocate_switch(cycle)

    # -- routing and virtual-channel allocation --------------------------------

    def _route_decision(self, flit: Flit) -> RouteDecision:
        """Use the carried look-ahead decision when valid, else do the lookup."""
        if (
            self._lookahead
            and flit.lookahead_node == self._node_id
            and flit.lookahead_decision is not None
        ):
            return flit.lookahead_decision  # type: ignore[return-value]
        return self._decide(self._node_id, flit.destination)

    def _usable_port(self, port: int) -> bool:
        """A port can be used if a link (or the local interface) is attached."""
        return self._outputs[port].connected

    def _port_status(self, port: int, free_vcs: List[int]) -> OutputPortStatus:
        output = self._outputs[port]
        dimension = -1 if port == LOCAL_PORT else port_direction(port)[0]
        return OutputPortStatus(
            port=port,
            dimension=dimension,
            usage_count=output.usage_count,
            last_used_cycle=output.last_used_cycle,
            total_credits=output.total_credits(),
            busy_vcs=output.busy_vc_count(),
            free_vcs=len(free_vcs),
        )

    def _allocate_virtual_channels(self, cycle: int) -> None:
        """Reference VC-allocation pass: visit every channel of every port."""
        for port in range(self._radix):
            for channel in self._inputs[port]:
                if channel.state is not VCState.ROUTING:
                    continue
                if channel.ready_cycle > cycle or not channel.buffer:
                    continue
                head = channel.buffer[0]
                if not head.is_head:
                    raise AssertionError(
                        f"non-header flit at the head of a ROUTING channel: {head!r}"
                    )
                self._try_allocate(channel, head, cycle)

    def _allocate_virtual_channels_batched(self, cycle: int) -> None:
        """Batched VC-allocation pass: visit only the ROUTING channels.

        The membership array is sorted by flat index, so the traversal
        order -- and therefore the first-come-first-served claiming of
        output virtual channels, selector consultations and RNG draws --
        matches the reference pass exactly.  A snapshot is taken because a
        successful allocation moves the channel to the ACTIVE array.
        """
        channels = self._channels_flat
        for flat in tuple(self._routing_members):
            channel = channels[flat]
            if channel.ready_cycle > cycle or not channel.buffer:
                continue
            head = channel.buffer[0]
            if not head.is_head:
                raise AssertionError(
                    f"non-header flit at the head of a ROUTING channel: {head!r}"
                )
            self._try_allocate(channel, head, cycle)

    def _try_allocate(
        self, channel: InputVirtualChannel, head: Flit, cycle: int
    ) -> bool:
        """Attempt to allocate an output virtual channel for a routed header."""
        decision = self._route_decision(head)

        # Adaptive candidates: ports permitted by the table that currently
        # have a free adaptive-class virtual channel.  On wrapping
        # topologies allocation is atomic: the candidate's downstream
        # buffer must be empty (see ``_atomic_credits``).
        atomic = self._atomic_credits
        adaptive_free: Dict[int, List[int]] = {}
        for port in decision.adaptive_ports:
            if not self._usable_port(port):
                continue
            output = self._outputs[port]
            if atomic:
                free = output.empty_vcs(self._vc_classes.adaptive_vcs, atomic)
            else:
                free = output.free_vcs(self._vc_classes.adaptive_vcs)
            if free:
                adaptive_free[port] = free

        selected_port: Optional[int] = None
        selected_vc: Optional[int] = None
        if adaptive_free:
            if len(adaptive_free) == 1:
                selected_port = next(iter(adaptive_free))
            else:
                statuses = [
                    self._port_status(port, free) for port, free in adaptive_free.items()
                ]
                selected_port = self._selector.select(statuses)
                if selected_port not in adaptive_free:
                    raise AssertionError(
                        f"path selector chose port {selected_port} outside the "
                        f"candidate set {sorted(adaptive_free)}"
                    )
            selected_vc = adaptive_free[selected_port][0]
        elif self._vc_classes.escape_vcs and self._usable_port(decision.escape_port):
            # Fall back to the escape channel (dimension-order
            # subfunction), drawing from the dateline class the header's
            # crossing mask selects for this port's dimension (the whole
            # escape pool on meshes and at the ejection port).
            escape_port = decision.escape_port
            pool = self._escape_pools[escape_port][
                (head.dateline_mask >> self._port_dimension[escape_port]) & 1
            ]
            output = self._outputs[escape_port]
            if atomic:
                free = output.empty_vcs(pool, atomic)
            else:
                free = output.free_vcs(pool)
            if free:
                selected_port = escape_port
                selected_vc = free[0]

        if selected_port is None or selected_vc is None:
            return False

        out_channel = self._outputs[selected_port].vcs[selected_vc]
        out_channel.allocate(channel.port, channel.vc)
        channel.out_port = selected_port
        channel.out_vc = selected_vc
        channel.out_channel = out_channel
        channel.state = VCState.ACTIVE
        flat = channel.port * self._vcs + channel.vc
        _membership_remove(self._routing_members, flat)
        insort(self._active_members, flat)
        self.headers_routed += 1
        return True

    # -- switch (crossbar) allocation -------------------------------------------

    def _allocate_switch(self, cycle: int) -> None:
        """Reference switch-allocation pass: visit every channel, arbitrate
        through the general round-robin entry point."""
        # Stage 1: each input port nominates one of its sendable VCs.
        nominations: Dict[int, InputVirtualChannel] = {}
        for port in range(self._radix):
            requests = []
            for vc, channel in enumerate(self._inputs[port]):
                if channel.state is not VCState.ACTIVE or not channel.buffer:
                    continue
                out_channel = self._outputs[channel.out_port].vcs[channel.out_vc]
                if out_channel.credits <= 0:
                    continue
                requests.append(vc)
            if not requests:
                continue
            winner = self._input_arbiters[port].grant(requests)
            if winner is not None:
                nominations[port] = self._inputs[port][winner]

        if not nominations:
            return

        # Stage 2: each output port grants one nominating input port.
        by_output: Dict[int, List[int]] = {}
        for port, channel in nominations.items():
            by_output.setdefault(channel.out_port, []).append(port)
        for out_port, requesting_inputs in by_output.items():
            winner = self._output_arbiters[out_port].grant(requesting_inputs)
            if winner is None:
                continue
            self._forward(nominations[winner], cycle)
            self.flits_forwarded += 1

    def _allocate_switch_batched(self, cycle: int) -> None:
        """Batched switch-allocation pass: one flat walk of the ACTIVE array.

        The array is sorted by flat ``port * vcs + vc`` index, so channels
        of one input port are contiguous and in ascending VC order -- the
        exact request order the reference pass hands its arbiters.  For a
        sorted request list the rotating-priority grant reduces to "first
        requester at or after the pointer, else the lowest requester"
        (:meth:`RoundRobinArbiter.grant_sorted`); both stages inline that
        reduction against the router's flat priority arrays, and grants
        forward in first-nomination order of the output ports, exactly as
        the reference's insertion-ordered dictionary does.
        """
        active = self._active_members
        channels = self._channels_flat
        vcs = self._vcs
        input_priorities = self._input_priorities
        out_requests = self._out_requests
        touched = self._touched_outputs

        # Stage 1: nominate one sendable VC per input port.  Channels of
        # one port are contiguous in the sorted array, so a single walk
        # tracks the round-robin winner of the current group and flushes
        # the nomination when the group (or the array) ends.
        group_base = -1          # flat index of the current port's VC 0
        priority = 0             # that port's round-robin pointer
        first_flat = -1          # lowest sendable flat of the group
        first_at_or_after = -1   # lowest sendable flat at/after the pointer
        for flat in active:
            base = flat - flat % vcs
            if base != group_base:
                if first_flat >= 0:
                    winner = (
                        first_at_or_after if first_at_or_after >= 0 else first_flat
                    )
                    vc = winner - group_base
                    input_priorities[group_base // vcs] = (vc + 1) % vcs
                    nominated = channels[winner]
                    per_output = out_requests[nominated.out_port]
                    if not per_output:
                        touched.append(nominated.out_port)
                    per_output.append(nominated)
                    first_flat = -1
                    first_at_or_after = -1
                group_base = base
                priority = base + input_priorities[base // vcs]
            channel = channels[flat]
            if channel.buffer and channel.out_channel.credits > 0:
                if first_flat < 0:
                    first_flat = flat
                    if flat >= priority:
                        first_at_or_after = flat
                elif first_at_or_after < 0 and flat >= priority:
                    first_at_or_after = flat
        if first_flat >= 0:
            winner = first_at_or_after if first_at_or_after >= 0 else first_flat
            vc = winner - group_base
            input_priorities[group_base // vcs] = (vc + 1) % vcs
            nominated = channels[winner]
            per_output = out_requests[nominated.out_port]
            if not per_output:
                touched.append(nominated.out_port)
            per_output.append(nominated)

        if not touched:
            return

        # Stage 2: grant one nominating input port per requested output.
        output_priorities = self._output_priorities
        radix = self._radix
        forwarded = 0
        for out_port in touched:
            per_output = out_requests[out_port]
            priority = output_priorities[out_port]
            winner_channel = None
            for nominated in per_output:
                if nominated.port >= priority:
                    winner_channel = nominated
                    break
            if winner_channel is None:
                winner_channel = per_output[0]
            output_priorities[out_port] = (winner_channel.port + 1) % radix
            del per_output[:]
            self._forward(winner_channel, cycle)
            forwarded += 1
        del touched[:]
        self.flits_forwarded += forwarded

    def _forward(self, channel: InputVirtualChannel, cycle: int) -> None:
        """Move the head flit of ``channel`` through the crossbar.

        The caller accounts the flit in ``flits_forwarded`` (per grant in
        the reference pass, per batch in the batched pass).
        """
        flit = channel.pop()
        out_port = channel.out_port
        out_channel = channel.out_channel
        output = self._outputs[out_port]
        out_channel.credits -= 1
        output.usage_count += 1
        output.last_used_cycle = cycle
        if self._selector_records:
            self._selector.record_use(out_port, cycle)

        # Return a credit for the input buffer slot just freed.
        if self._batched_links:
            sender = self._credit_senders[channel.port]
            if sender is not None:
                sender(channel.vc, cycle + self._credit_delay)
        else:
            upstream = self._upstream[channel.port]
            if upstream is not None:
                target, target_port = upstream
                target.receive_credit(
                    target_port, channel.vc, cycle + self._credit_delay
                )

        if flit.is_head:
            flit.hops += 1
            flit.message.hops = flit.hops
            bits = self._dateline_bits[out_port]
            if bits:
                # Crossing this dimension's dateline (wraparound) link:
                # escape requests downstream switch to dateline class 1.
                flit.dateline_mask |= bits
            if self._lookahead and out_port != LOCAL_PORT:
                # Look-ahead routing: compute the decision for the next
                # router now, concurrently with the crossbar traversal, and
                # carry it in the (partially rewritten) header flit.
                next_node = self._topology.neighbor(self._node_id, out_port)
                flit.lookahead_node = next_node
                flit.lookahead_decision = self._decide(next_node, flit.destination)

        downstream = self._downstream[out_port]
        if downstream is None:
            raise AssertionError(
                f"router {self._node_id} forwarded a flit to unconnected port {out_port}"
            )
        delay = self._port_delays[out_port]
        if self._batched_links:
            self._flit_senders[out_port](channel.out_vc, flit, cycle + delay)
        else:
            target, target_port = downstream
            target.receive_flit(target_port, channel.out_vc, flit, cycle + delay)

        if flit.is_tail:
            out_channel.release()
            self._released_output_vc = True
            channel.release()
            self._occupied_channels -= 1
            _membership_remove(
                self._active_members, channel.port * self._vcs + channel.vc
            )
            self._start_next_message(channel, cycle)

    def _start_next_message(self, channel: InputVirtualChannel, cycle: int) -> None:
        """After a tail departs, start routing the next buffered header, if any."""
        if not channel.buffer:
            return
        head = channel.buffer[0]
        if not head.is_head:
            raise AssertionError(
                f"expected a header after a tail on VC ({channel.port},{channel.vc}), "
                f"found {head!r}"
            )
        channel.state = VCState.ROUTING
        channel.ready_cycle = max(
            head.arrival_cycle + self._selection_offset, cycle + 1
        )
        self._occupied_channels += 1
        insort(self._routing_members, channel.port * self._vcs + channel.vc)

    # -- quiescence (activity-aware kernel) ---------------------------------------

    def set_wake(self, callback: Callable[[int], None]) -> None:
        """Install the kernel callback invoked when an event is scheduled
        for this router (a flit or credit posted to one of its mailboxes)."""
        self._wake = callback

    def set_active_hint(self, flags: Sequence[bool], index: int) -> None:
        """Install the kernel's live active-flag view of this router.

        Send paths read ``flags[index]`` before invoking the wake
        callback: when the router is already active the callback would
        return immediately, so one boolean read replaces a call per
        scheduled flit/credit arrival.  Without a kernel the default
        hint reads False, so every event still wakes.
        """
        self._kernel_active = flags
        self._kernel_index = index

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle (``>= cycle``) at which this router has work.

        The kernel calls this right after the router's ``evaluate``, with
        ``cycle`` being the *next* cycle.  Skipped cycles must be provable
        no-ops; the reasoning per input-channel state:

        * ``ACTIVE`` with buffered flits and downstream credits: sendable,
          run now.
        * ``ACTIVE`` but credit-blocked or waiting for flits: switch
          allocation skips it, and the blocking event (a credit or flit
          arrival) lands in a mailbox, which wakes the router.
        * ``ROUTING`` with a future ``ready_cycle``: the pipeline keeps
          the header ineligible until then; sleep until ``ready_cycle``.
        * ``ROUTING`` already past ``ready_cycle``: the allocation attempt
          *this* cycle failed.  Failed attempts are pure no-ops, and their
          inputs (output-VC ownership) change in exactly two ways: a tail
          forwarded by this router's own switch stage later in the same
          cycle (tracked by ``_released_output_vc``, which keeps the
          router awake for the retry), or a tail forwarded on a future
          cycle -- which requires a sendable channel then, and becoming
          sendable takes a mailbox event, which wakes the router.  So
          when no VC was released this cycle, the retry can wait for the
          next wake.

        Mailbox arrivals bound the sleep; ``None`` means fully idle until
        ``receive_flit``/``receive_credit`` wakes the router.

        The batched schedule computes the same value from the membership
        arrays instead of scanning every channel.
        """
        if self._batched:
            return self._next_event_cycle_batched(cycle)
        upcoming: Optional[int] = None
        if self._occupied_channels:
            idle, routing, active = VCState.IDLE, VCState.ROUTING, VCState.ACTIVE
            outputs = self._outputs
            for inputs in self._inputs:
                for channel in inputs:
                    state = channel.state
                    if state is idle:
                        if channel.buffer:  # defensive: cannot normally happen
                            return cycle
                        continue
                    if state is routing:
                        ready = channel.ready_cycle
                        if ready >= cycle:
                            if upcoming is None or ready < upcoming:
                                upcoming = ready
                        elif self._released_output_vc:
                            # The failed allocation may succeed next cycle:
                            # a tail departing through this router's own
                            # switch stage freed an output VC after the
                            # allocation stage ran.
                            return cycle
                        # else: just failed allocation with inputs that can
                        # only change on a wake event; sleep until then.
                    elif state is active:
                        if channel.buffer:
                            out = outputs[channel.out_port].vcs[channel.out_vc]
                            if out.credits > 0:
                                return cycle
                        # else: credit-blocked or mid-message bubble; the
                        # unblocking credit/flit arrival wakes the router.
                    else:  # pragma: no cover - WAITING is unused, be safe
                        return cycle
        return self._earliest_mailbox_arrival(cycle, upcoming)

    def _next_event_cycle_batched(self, cycle: int) -> Optional[int]:
        """Membership-array version of :meth:`next_event_cycle`.

        Returns the identical value: ``cycle`` as soon as any ACTIVE
        channel is sendable (or a past-ready ROUTING channel can retry a
        released output VC), else the minimum of the future ROUTING ready
        cycles and the earliest mailbox arrivals.
        """
        channels = self._channels_flat
        for flat in self._active_members:
            channel = channels[flat]
            if channel.buffer and channel.out_channel.credits > 0:
                return cycle
        upcoming: Optional[int] = None
        released = self._released_output_vc
        for flat in self._routing_members:
            ready = channels[flat].ready_cycle
            if ready >= cycle:
                if upcoming is None or ready < upcoming:
                    upcoming = ready
            elif released:
                return cycle
        return self._earliest_mailbox_arrival(cycle, upcoming)

    def _earliest_mailbox_arrival(
        self, cycle: int, upcoming: Optional[int]
    ) -> Optional[int]:
        """Fold the earliest pending flit/credit arrival into ``upcoming``.

        ``cycle`` anchors the wheels' lane-offset scan; the value equals
        the reference deques' minimum head, so both link schedules report
        identical cycles to the kernel's quiescence pass.
        """
        if self._batched_links:
            arrival = self._flit_wheel.earliest_pending(cycle)
            if arrival is not None and (upcoming is None or arrival < upcoming):
                upcoming = arrival
            arrival = self._credit_wheel.earliest_pending(cycle)
            if arrival is not None and (upcoming is None or arrival < upcoming):
                upcoming = arrival
            return upcoming
        if self._pending_flits:
            for mailbox in self._flit_mailboxes:
                if mailbox:
                    arrival = mailbox[0][0]
                    if upcoming is None or arrival < upcoming:
                        upcoming = arrival
        if self._pending_credits:
            for mailbox in self._credit_mailboxes:
                if mailbox:
                    arrival = mailbox[0][0]
                    if upcoming is None or arrival < upcoming:
                        upcoming = arrival
        return upcoming

    # -- introspection -----------------------------------------------------------

    def is_idle(self) -> bool:
        """True when no flit is buffered or in flight toward this router."""
        if self._batched_links:
            if self._flit_wheel:
                return False
        elif any(self._flit_mailboxes[port] for port in range(self._radix)):
            return False
        for port in range(self._radix):
            for channel in self._inputs[port]:
                if channel.buffer or channel.state is not VCState.IDLE:
                    return False
        return True

    def held_flits(self) -> Iterator[Flit]:
        """Every flit buffered at or in flight toward this router, under
        either link schedule (the message-conservation check)."""
        for per_port in self._inputs:
            for channel in per_port:
                yield from channel.buffer
        if self._batched_links:
            entries = chain(chain.from_iterable(self._flit_wheel.slots), self._flit_wheel.far)
        else:
            entries = chain.from_iterable(self._flit_mailboxes)
        # Every wheel, far and mailbox entry ends with its flit.
        for entry in entries:
            yield entry[-1]

    def in_flight_credits(self) -> List[Tuple[int, int]]:
        """``(port, vc)`` of every credit currently in flight toward this
        router, whichever link schedule is active (introspection for the
        conservation tests and debugging)."""
        if self._batched_links:
            vcs = self._vcs
            pairs = [
                (flat // vcs, flat % vcs)
                for lane in self._credit_wheel.slots
                for flat in lane
            ]
            pairs.extend(
                (entry[1] // vcs, entry[1] % vcs) for entry in self._credit_wheel.far
            )
            return pairs
        return [
            (port, vc)
            for port, mailbox in enumerate(self._credit_mailboxes)
            for _, vc in mailbox
        ]

    def __repr__(self) -> str:
        return (
            f"Router(node={self._node_id}, pipeline={self._pipeline.name}, "
            f"vcs={self._config.vcs_per_port}, switch={self._config.switch_mode}, "
            f"link={self._config.link_mode})"
        )
