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

The ejection-side mailboxes follow the link-transport schedule selected
by :attr:`~repro.router.config.RouterConfig.link_mode`: per-flit
``(cycle, vc, flit)`` tuple deques under ``"reference"``, cycle-indexed
:class:`~repro.network.link.ArrivalWheel` lanes drained whole under
``"batched"`` -- see :mod:`repro.network.link`.  Both schedules are
bit-identical for all wired traffic (the quiescence hooks report the
same earliest-arrival cycles); external pushes through the public
``receive_*`` methods follow the reference FIFO/head-blocking semantics
via the wheel's ``far`` path, up to the early-wake approximation noted
in :mod:`repro.network.link`.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Callable, Deque, Iterator, List, Optional, Sequence

from repro.engine.kernel import no_wake
from repro.network.link import ArrivalWheel
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
        self._lookahead = config.pipeline.lookahead
        self._slots: List[_InjectionSlot] = [
            _InjectionSlot(vc, config.buffer_depth) for vc in range(config.vcs_per_port)
        ]
        self._injection_queue: Deque[Message] = deque()
        self._next_slot = 0
        # Ejection-side mailboxes: arrival lanes under the batched link
        # schedule, tuple deques under the reference one.
        self._batched_links = config.link_schedule().batched
        if self._batched_links:
            # Eject entries are (vc, flit) pairs, credit entries plain VCs.
            wheel_size = 1 + max(
                config.pipeline.switch_delay, config.credit_delay
            )
            self._eject_mailbox = ArrivalWheel(wheel_size)
            self._credit_mailbox = ArrivalWheel(wheel_size)
            # Skip the class-level dispatch: the kernel calls the batched
            # drain directly.
            self.deliver = self._deliver_batched_links
            # Prebound router receivers for the injection flit and the
            # ejection-side credit return (see Router.make_flit_receiver);
            # wrapped plain methods when the router is a test double.
            from repro.router.router import _credit_receiver_for, _flit_receiver_for

            self._send_router_flit = _flit_receiver_for(router, LOCAL_PORT)
            self._send_router_credit = _credit_receiver_for(router, LOCAL_PORT)
        else:
            self._eject_mailbox = deque()
            self._credit_mailbox = deque()
        #: Wake callback installed by an activity-aware kernel.
        self._wake: Callable[[int], None] = no_wake
        # Kernel active-flag view (see set_active_hint): the default
        # always reads False, so un-registered interfaces wake per event.
        self._kernel_active: Sequence[bool] = (False,)
        self._kernel_index = 0

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
        # Deliberately unguarded: components start every run in the
        # active set, so pre-run offers are always picked up, and the
        # interface's own evaluate() offers while it is already active;
        # mid-run offers from *outside* the schedule need an
        # exhaustive-mode kernel (documented in next_event_cycle).
        self._injection_queue.append(message)  # repro: allow=W001
        self._stats.record_created(message)

    # -- mailbox interface (called by the router) --------------------------------

    def receive_flit(self, port: int, vc: int, flit: Flit, arrival_cycle: int) -> None:
        """Accept an ejected flit from the router's local output port."""
        if self._batched_links:
            # No window assumption for the public method: route far.
            self._eject_mailbox.far.append((arrival_cycle, vc, flit))
        else:
            self._eject_mailbox.append((arrival_cycle, vc, flit))
        if not self._kernel_active[self._kernel_index]:
            self._wake(arrival_cycle)

    def receive_credit(self, port: int, vc: int, arrival_cycle: int) -> None:
        """Accept a credit for a freed slot of the router's local input port."""
        if self._batched_links:
            self._credit_mailbox.far.append((arrival_cycle, vc))
        else:
            self._credit_mailbox.append((arrival_cycle, vc))
        if not self._kernel_active[self._kernel_index]:
            self._wake(arrival_cycle)

    def make_flit_receiver(self, port: int) -> Callable[[int, Flit, int], None]:
        """Prebound fast path of :meth:`receive_flit` (batched link
        schedule): the router's per-pass flush calls it without method
        dispatch.  Wraps the plain method under the reference schedule."""
        if not self._batched_links:
            receive = self.receive_flit

            def receiver(vc: int, flit: Flit, arrival_cycle: int) -> None:
                receive(port, vc, flit, arrival_cycle)

            return receiver
        wheel = self._eject_mailbox
        slots = wheel.slots
        size = wheel.size

        def receiver(vc: int, flit: Flit, arrival_cycle: int) -> None:
            slots[arrival_cycle % size].append((vc, flit))
            if not self._kernel_active[self._kernel_index]:
                self._wake(arrival_cycle)

        return receiver

    def make_credit_receiver(self, port: int) -> Callable[[int, int], None]:
        """Prebound fast path of :meth:`receive_credit`; same contract as
        :meth:`make_flit_receiver`."""
        if not self._batched_links:
            receive = self.receive_credit

            def receiver(vc: int, arrival_cycle: int) -> None:
                receive(port, vc, arrival_cycle)

            return receiver
        wheel = self._credit_mailbox
        slots = wheel.slots
        size = wheel.size

        def receiver(vc: int, arrival_cycle: int) -> None:
            slots[arrival_cycle % size].append(vc)
            if not self._kernel_active[self._kernel_index]:
                self._wake(arrival_cycle)

        return receiver

    # -- per-cycle behaviour ------------------------------------------------------

    def deliver(self, cycle: int) -> None:
        """Consume ejected flits and returned credits due this cycle."""
        # Batched instances bind ``self.deliver`` to the wheel drain at
        # construction, so the kernel never reaches this guard; it keeps
        # explicit class-level calls correct.  To instrument the batched
        # drain, patch the class *before* constructing the simulator.
        if self._batched_links:
            self._deliver_batched_links(cycle)
            return
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

    def _deliver_batched_links(self, cycle: int) -> None:
        """Wheel version of :meth:`deliver`: consume this cycle's lanes whole.

        Per-flit effects (credit return through the prebound router
        receiver, tail-delivery recording) are identical to the
        reference drain, in the same FIFO order; the wired-window
        contract (see :mod:`repro.network.link`) makes the lane for
        ``cycle`` exact, and external pushes land in the wheels' ``far``
        lists, drained by explicit comparison.
        """
        wheel = self._eject_mailbox
        lane = wheel.slots[cycle % wheel.size]
        if lane:
            send_credit = self._send_router_credit
            credit_arrival = cycle + self._credit_delay
            stats = self._stats
            for vc, flit in lane:
                send_credit(vc, credit_arrival)
                if flit.is_tail:
                    message = flit.message
                    message.ejection_cycle = cycle
                    stats.record_delivered(message, cycle)
            del lane[:]
        if wheel.far:
            self._drain_far_ejects(cycle)
        wheel = self._credit_mailbox
        lane = wheel.slots[cycle % wheel.size]
        if lane:
            slots = self._slots
            for vc in lane:
                slots[vc].credits += 1
            del lane[:]
        if wheel.far:
            self._drain_far_credits(cycle)

    def _drain_far_ejects(self, cycle: int) -> None:
        """Consume due ``far`` ejections (external pushes), FIFO order."""
        for _, vc, flit in self._eject_mailbox.drain_far_due(cycle):
            self._send_router_credit(vc, cycle + self._credit_delay)
            if flit.is_tail:
                message = flit.message
                message.ejection_cycle = cycle
                self._stats.record_delivered(message, cycle)

    def _drain_far_credits(self, cycle: int) -> None:
        """Apply due ``far`` injection credits (external pushes)."""
        for _, vc in self._credit_mailbox.drain_far_due(cycle):
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
                self._stats.record_injected(flit.message, cycle)
            if self._batched_links:
                self._send_router_flit(slot.vc, flit, cycle + self._link_delay)
            else:
                self._router.receive_flit(
                    LOCAL_PORT, slot.vc, flit, cycle + self._link_delay
                )
            if flit.is_tail:
                slot.busy = False
            self._next_slot = (index + 1) % num_slots
            return

    # -- quiescence (activity-aware kernel) ----------------------------------------

    def set_wake(self, callback: Callable[[int], None]) -> None:
        """Install the kernel callback invoked when an event is scheduled
        for this interface (an ejected flit or a returned credit)."""
        self._wake = callback

    def set_active_hint(self, flags: Sequence[bool], index: int) -> None:
        """Install the kernel's live active-flag view of this interface;
        send paths read ``flags[index]`` and skip the wake callback when
        the interface is already active (see ``Router.set_active_hint``)."""
        self._kernel_active = flags
        self._kernel_index = index

    def wake_source(self, cycle: int) -> None:
        """Wake this interface for a source event scheduled at ``cycle``.

        Closed-loop sources (:mod:`repro.workload`) queue new work from
        *outside* the interface's own evaluation -- a delivery elsewhere
        releases a DAG successor here -- so they call this to re-arm an
        interface the activity kernel may have put to sleep on a ``None``
        forecast.  The released work is always strictly future
        (``cycle`` is after the current one), matching the kernel's
        wake contract.
        """
        if not self._kernel_active[self._kernel_index]:
            self._wake(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle (``>= cycle``) at which this interface has work.

        Returns ``cycle`` when a flit can be injected (a slot with flits
        and credits) or a queued message can claim a free slot; otherwise
        the earliest of the pending mailbox arrivals and the source's next
        due cycle (credit-blocked slots are unblocked by a credit arrival,
        which wakes the interface); and ``None`` when the source is
        exhausted and nothing is queued or in flight.  Components start
        every run in the active set, so messages placed with :meth:`offer`
        before the run begins are always picked up; mid-run external
        offers require an exhaustive-schedule kernel.
        """
        free_slot = False
        for slot in self._slots:
            if slot.flits:
                if slot.credits > 0:
                    # A flit can be injected this cycle.
                    return cycle
                # Credit-blocked: the returning credit wakes us.
            elif not slot.busy:
                free_slot = True
        if self._injection_queue and free_slot:
            # A queued message can claim a free virtual channel now.
            return cycle
        upcoming: Optional[int] = None
        if self._batched_links:
            upcoming = self._eject_mailbox.earliest_pending(cycle)
            arrival = self._credit_mailbox.earliest_pending(cycle)
            if arrival is not None and (upcoming is None or arrival < upcoming):
                upcoming = arrival
        else:
            if self._eject_mailbox:
                upcoming = self._eject_mailbox[0][0]
            if self._credit_mailbox:
                arrival = self._credit_mailbox[0][0]
                if upcoming is None or arrival < upcoming:
                    upcoming = arrival
        source = self._source
        if source is not None:
            next_due = getattr(source, "next_due_cycle", None)
            if next_due is None:
                # Sources without a due-cycle forecast must be polled
                # every cycle for new messages.
                return cycle
            due = next_due()
            if due is not None:
                due = max(due, cycle)
                if upcoming is None or due < upcoming:
                    upcoming = due
        return upcoming

    # -- introspection ---------------------------------------------------------------

    def is_idle(self) -> bool:
        """True when nothing is queued, in flight or awaiting ejection."""
        if self._injection_queue or self._eject_mailbox:
            return False
        return all(not slot.flits for slot in self._slots)

    def held_flits(self) -> Iterator[Flit]:
        """Every flit waiting to be injected here or in flight toward the
        ejection side (the message-conservation check)."""
        for slot in self._slots:
            yield from slot.flits
        mailbox = self._eject_mailbox
        if self._batched_links:
            entries = chain(chain.from_iterable(mailbox.slots), mailbox.far)
        else:
            entries = mailbox
        # Every wheel, far and mailbox entry ends with its flit.
        for entry in entries:
            yield entry[-1]

    def __repr__(self) -> str:
        return f"NetworkInterface(node={self._node_id}, queued={len(self._injection_queue)})"
