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

The executable reference
------------------------
This router is the object core (``core_mode="objects"``): the readable
specification of the paper's router, and the fallback for hosts without
a C compiler.  Each cycle it visits every input virtual channel of every
port, arbitrates through :meth:`RoundRobinArbiter.grant`, and carries
in-flight flits and credits in one ``(cycle, vc, payload)`` deque per
port.  The default flat C core (:mod:`repro.network.flatcore`) must
reproduce it bit for bit; ``tests/test_link_equivalence.py`` and
``tests/test_core_fuzz.py`` enforce that.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Tuple

from repro.network.topology import LOCAL_PORT, Topology, port_direction
from repro.router.arbiter import RoundRobinArbiter
from repro.router.channels import InputVirtualChannel, OutputPort, VCState
from repro.routing.base import RouteDecision, RoutingAlgorithm
from repro.selection.base import OutputPortStatus, PathSelector
from repro.traffic.message import Flit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SimulationConfig

__all__ = ["Router"]


class Router:
    """A single pipelined wormhole router.

    Parameters
    ----------
    node_id:
        The node this router serves.
    topology:
        Network topology (used for neighbor lookup and port geometry).
    config:
        The simulation configuration; the router reads its
        microarchitectural fields (``vcs_per_port``, ``buffer_depth``,
        ``pipeline_timing``, ``link_delay``/``link_delays`` and
        ``credit_delay``).
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
        config: "SimulationConfig",
        routing: RoutingAlgorithm,
        selector: PathSelector,
    ) -> None:
        self._node_id = node_id
        self._topology = topology
        self._config = config
        self._pipeline = config.pipeline_timing
        self._routing = routing
        #: Bound memoized-decide entry point (one shared memo per network;
        #: see ``RoutingAlgorithm.decision_cache``).
        self._decide = routing.decide_cached
        self._selector = selector
        self._vc_classes = routing.vc_classes(config.vcs_per_port)

        radix = topology.radix
        self._radix = radix
        self._inputs: List[List[InputVirtualChannel]] = [
            [
                InputVirtualChannel(port, vc, config.buffer_depth)
                for vc in range(config.vcs_per_port)
            ]
            for port in range(radix)
        ]
        self._outputs: List[OutputPort] = [
            OutputPort(port, config.vcs_per_port, config.buffer_depth)
            for port in range(radix)
        ]
        # Downstream / upstream wiring filled in by the network assembly.
        self._downstream: List[Optional[Tuple[object, int]]] = [None] * radix
        self._upstream: List[Optional[Tuple[object, int]]] = [None] * radix
        # Mailboxes carrying in-flight flits and credits: one deque of
        # ``(arrival_cycle, vc, payload)`` tuples per port.
        self._flit_mailboxes: List[Deque[Tuple[int, int, Flit]]] = [
            deque() for _ in range(radix)
        ]
        self._credit_mailboxes: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(radix)
        ]
        # Crossbar arbiters: one per input port (among its VCs) and one per
        # output port (among the input ports).
        self._input_arbiters = [
            RoundRobinArbiter(config.vcs_per_port) for _ in range(radix)
        ]
        self._output_arbiters = [RoundRobinArbiter(radix) for _ in range(radix)]

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

        #: Statistics: headers this router allocated an output VC for.
        self.headers_routed = 0

    # -- identity and wiring --------------------------------------------------

    @property
    def node_id(self) -> int:
        """Node this router serves."""
        return self._node_id

    @property
    def config(self) -> "SimulationConfig":
        """The configuration the router's parameters come from."""
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
    def flits_forwarded(self) -> int:
        """Flits this router's crossbar forwarded: the sum of its output
        ports' use counters."""
        return sum(output.usage_count for output in self._outputs)

    def connect_output(self, port: int, target: object, target_port: int) -> None:
        """Attach ``target`` (a router or network interface) downstream of
        ``port``.  ``target`` must expose ``receive_flit(port, vc, flit, cycle)``."""
        self._downstream[port] = (target, target_port)
        self._outputs[port].connected = True

    def set_upstream(self, port: int, target: object, target_port: int) -> None:
        """Record who feeds input ``port`` so credits can be returned to it.
        ``target`` must expose ``receive_credit(port, vc, cycle)``."""
        self._upstream[port] = (target, target_port)

    def input_channel(self, port: int, vc: int) -> InputVirtualChannel:
        """Direct access to an input virtual channel (tests, introspection)."""
        return self._inputs[port][vc]

    def output_port(self, port: int) -> OutputPort:
        """Direct access to an output port (tests, introspection)."""
        return self._outputs[port]

    # -- mailbox interface (called by neighbours and the network interface) ---

    def receive_flit(self, port: int, vc: int, flit: Flit, arrival_cycle: int) -> None:
        """Schedule a flit to appear in input ``(port, vc)`` at ``arrival_cycle``."""
        self._flit_mailboxes[port].append((arrival_cycle, vc, flit))

    def receive_credit(self, port: int, vc: int, arrival_cycle: int) -> None:
        """Schedule a credit return for output ``(port, vc)`` at ``arrival_cycle``."""
        self._credit_mailboxes[port].append((arrival_cycle, vc))

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
        for port, mailbox in enumerate(self._flit_mailboxes):
            while mailbox and mailbox[0][0] <= cycle:
                _, vc, flit = mailbox.popleft()
                channel = self._inputs[port][vc]
                flit.arrival_cycle = cycle
                buffer = channel.buffer
                if len(buffer) >= channel.capacity:  # inlined channel.push
                    raise OverflowError(
                        f"input VC ({channel.port},{channel.vc}) overflow: "
                        "credit protocol violated"
                    )
                buffer.append(flit)
                if flit.is_head and channel.state is VCState.IDLE and len(buffer) == 1:
                    channel.state = VCState.ROUTING
                    channel.ready_cycle = cycle + self._selection_offset
        for port, credits in enumerate(self._credit_mailboxes):
            while credits and credits[0][0] <= cycle:
                _, vc = credits.popleft()
                self._outputs[port].vcs[vc].credits += 1

    def evaluate(self, cycle: int) -> None:
        """Run this cycle's virtual-channel allocation and switch allocation."""
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
        """VC-allocation pass: visit every channel of every port."""
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
        self.headers_routed += 1
        return True

    # -- switch (crossbar) allocation -------------------------------------------

    def _allocate_switch(self, cycle: int) -> None:
        """Two-stage switch allocation over every channel of every port."""
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

    def _forward(self, channel: InputVirtualChannel, cycle: int) -> None:
        """Move the head flit of ``channel`` through the crossbar, counting
        it in the output port's use history (what LFU/LRU rank by)."""
        flit = channel.pop()
        out_port = channel.out_port
        out_channel = channel.out_channel
        output = self._outputs[out_port]
        out_channel.credits -= 1
        output.usage_count += 1
        output.last_used_cycle = cycle

        # Return a credit for the input buffer slot just freed.
        upstream = self._upstream[channel.port]
        if upstream is not None:
            target, target_port = upstream
            target.receive_credit(target_port, channel.vc, cycle + self._credit_delay)

        if flit.is_head:
            flit.message.hops += 1
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
        target, target_port = downstream
        target.receive_flit(
            target_port, channel.out_vc, flit, cycle + self._port_delays[out_port]
        )

        if flit.is_tail:
            out_channel.release()
            channel.release()
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

    # -- introspection -----------------------------------------------------------

    def held_flits(self) -> Iterator[Flit]:
        """Every flit buffered at or in flight toward this router (the
        message-conservation check)."""
        for per_port in self._inputs:
            for channel in per_port:
                yield from channel.buffer
        for mailbox in self._flit_mailboxes:
            for _, _, flit in mailbox:
                yield flit

    def in_flight_credits(self) -> List[Tuple[int, int]]:
        """``(port, vc)`` of every credit currently in flight toward this
        router (introspection for the conservation tests and debugging)."""
        return [
            (port, vc)
            for port, mailbox in enumerate(self._credit_mailboxes)
            for _, vc in mailbox
        ]

    def __repr__(self) -> str:
        return (
            f"Router(node={self._node_id}, pipeline={self._pipeline.name}, "
            f"vcs={self._config.vcs_per_port})"
        )
