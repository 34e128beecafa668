"""Per-node network interfaces (NIs).

The network interface sits on the router's local port (port 0).  On the
injection side it holds the source queue of messages produced by its
traffic source, breaks each message into flits and feeds them to the
router's local input port under credit-based flow control, mirroring an
upstream router (one message owns one virtual channel until its tail has
been sent).  On the ejection side it consumes flits delivered by the
router's local output port, returns credits, and reports completed
messages to the statistics collector.

For look-ahead routers the NI also performs the first-hop table lookup and
places the resulting route decision in the header flit, as described in
Section 3 of the paper (the header must arrive at the first router with
its valid path options already filled in).

Ejected flits and returned credits wait in two FIFO mailboxes of
``(arrival_cycle, vc, payload)`` tuples, drained in order once their
head is due -- the same mailbox semantics as the router's.  This is the
object core's interface (``core_mode="objects"``); the flat C core
models the interfaces in its own arrays.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional, Tuple

from repro.network.topology import LOCAL_PORT
from repro.router.router import Router
from repro.routing.base import RoutingAlgorithm
from repro.stats.collector import StatsCollector
from repro.traffic.message import Flit, Message

__all__ = ["NetworkInterface"]


class _InjectionSlot:
    """Book-keeping for one virtual channel of the injection port."""

    __slots__ = ("vc", "credits", "flits", "busy")

    def __init__(self, vc: int, credits: int) -> None:
        self.vc = vc
        self.credits = credits
        self.flits: Deque[Flit] = deque()
        self.busy = False


class NetworkInterface:
    """The injection/ejection endpoint attached to one router's local port."""

    def __init__(
        self,
        node_id: int,
        router: Router,
        routing: RoutingAlgorithm,
        stats: StatsCollector,
        source: Optional[object] = None,
    ) -> None:
        self._node_id = node_id
        self._router = router
        self._routing = routing
        self._decide = routing.decide_cached
        self._stats = stats
        self._source = source
        config = router.config
        self._link_delay = config.link_delay
        self._credit_delay = config.credit_delay
        self._lookahead = config.pipeline_timing.lookahead
        self._slots: List[_InjectionSlot] = [
            _InjectionSlot(vc, config.buffer_depth) for vc in range(config.vcs_per_port)
        ]
        self._injection_queue: Deque[Message] = deque()
        self._next_slot = 0
        # Ejection-side mailboxes of (arrival_cycle, vc[, flit]) tuples.
        self._eject_mailbox: Deque[Tuple[int, int, Flit]] = deque()
        self._credit_mailbox: Deque[Tuple[int, int]] = deque()

    # -- identity --------------------------------------------------------------

    @property
    def node_id(self) -> int:
        """Node this interface serves."""
        return self._node_id

    @property
    def source(self) -> Optional[object]:
        """The traffic source feeding this interface (None for sinks)."""
        return self._source

    @property
    def queue_length(self) -> int:
        """Messages waiting in the source queue (not yet being injected)."""
        return len(self._injection_queue)

    def offer(self, message: Message) -> None:
        """Place a message in the source queue (used by tests and sources)."""
        self._injection_queue.append(message)
        self._stats.record_created(message)

    # -- mailbox interface (called by the router) --------------------------------

    def receive_flit(self, port: int, vc: int, flit: Flit, arrival_cycle: int) -> None:
        """Accept an ejected flit from the router's local output port."""
        self._eject_mailbox.append((arrival_cycle, vc, flit))

    def receive_credit(self, port: int, vc: int, arrival_cycle: int) -> None:
        """Accept a credit for a freed slot of the router's local input port."""
        self._credit_mailbox.append((arrival_cycle, vc))

    # -- per-cycle behaviour ------------------------------------------------------

    def deliver(self, cycle: int) -> None:
        """Consume ejected flits and returned credits due this cycle."""
        mailbox = self._eject_mailbox
        while mailbox and mailbox[0][0] <= cycle:
            _, vc, flit = mailbox.popleft()
            # The interface drains the ejection channel immediately and
            # returns the buffer slot to the router's local output port.
            self._router.receive_credit(LOCAL_PORT, vc, cycle + self._credit_delay)
            if flit.is_tail:
                message = flit.message
                message.ejection_cycle = cycle
                self._stats.record_delivered(message, cycle)
        credits = self._credit_mailbox
        while credits and credits[0][0] <= cycle:
            _, vc = credits.popleft()
            self._slots[vc].credits += 1

    def evaluate(self, cycle: int) -> None:
        """Generate new messages, start injections and send one flit."""
        if self._source is not None:
            for message in self._source.messages_due(cycle):
                self.offer(message)
        self._start_new_injections(cycle)
        self._inject_one_flit(cycle)

    # -- injection machinery -------------------------------------------------------

    def _start_new_injections(self, cycle: int) -> None:
        """Assign queued messages to free injection virtual channels."""
        if not self._injection_queue:
            return
        for slot in self._slots:
            if not self._injection_queue:
                break
            if slot.busy or slot.flits:
                continue
            message = self._injection_queue.popleft()
            slot.busy = True
            slot.flits.extend(message.make_flits())
            header = slot.flits[0]
            if self._lookahead:
                # First-hop lookup performed by the interface so the header
                # arrives at the source router ready for arbitration.
                header.lookahead_node = self._node_id
                header.lookahead_decision = self._decide(
                    self._node_id, message.destination
                )

    def _inject_one_flit(self, cycle: int) -> None:
        """Send at most one flit over the injection channel this cycle."""
        num_slots = len(self._slots)
        for offset in range(num_slots):
            index = (self._next_slot + offset) % num_slots
            slot = self._slots[index]
            if not slot.flits or slot.credits <= 0:
                continue
            flit = slot.flits.popleft()
            slot.credits -= 1
            if flit.is_head:
                flit.message.injection_cycle = cycle
            self._router.receive_flit(
                LOCAL_PORT, slot.vc, flit, cycle + self._link_delay
            )
            if flit.is_tail:
                slot.busy = False
            self._next_slot = (index + 1) % num_slots
            return

    # -- introspection ---------------------------------------------------------------

    def held_flits(self) -> Iterator[Flit]:
        """Every flit waiting to be injected here or in flight toward the
        ejection side (the message-conservation check)."""
        for slot in self._slots:
            yield from slot.flits
        for _, _, flit in self._eject_mailbox:
            yield flit

    def __repr__(self) -> str:
        return f"NetworkInterface(node={self._node_id}, queued={len(self._injection_queue)})"
