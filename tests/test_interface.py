"""Tests for the network interface (injection and ejection endpoint)."""


from repro.network.interface import NetworkInterface
from repro.network.topology import LOCAL_PORT, MeshTopology
from repro.core.config import SimulationConfig
from repro.router.pipeline import LA_PROUD
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.duato import DuatoFullyAdaptiveRouting
from repro.stats.collector import StatsCollector
from repro.tables.economical import EconomicalStorageTable
from repro.traffic.message import Message


class RecordingRouter:
    """Stands in for the router: records injected flits and credits."""

    def __init__(self, config):
        self.config = config
        self.flits = []
        self.credits = []

    def receive_flit(self, port, vc, flit, arrival_cycle):
        self.flits.append((arrival_cycle, port, vc, flit))

    def receive_credit(self, port, vc, arrival_cycle):
        self.credits.append((arrival_cycle, port, vc))


def build_interface(pipeline=LA_PROUD, vcs=2, buffer_depth=5):
    topology = MeshTopology((3, 3))
    # Duato needs an adaptive VC beside its escape VC; one VC per port
    # takes dimension-order routing.
    if vcs > 1:
        routing = DuatoFullyAdaptiveRouting(topology, EconomicalStorageTable(topology))
    else:
        routing = DimensionOrderRouting(topology)
    config = SimulationConfig(
        mesh_dims=(3, 3),
        routing="duato" if vcs > 1 else "dimension-order",
        vcs_per_port=vcs,
        buffer_depth=buffer_depth,
        pipeline=pipeline.name,
    )
    router = RecordingRouter(config)
    stats = StatsCollector()
    interface = NetworkInterface(
        node_id=4, router=router, routing=routing, stats=stats, source=None
    )
    return interface, router, stats, topology


def drive(interface, cycles, start=0):
    for cycle in range(start, start + cycles):
        interface.deliver(cycle)
        interface.evaluate(cycle)
    return start + cycles


def test_injects_one_flit_per_cycle():
    interface, router, stats, topology = build_interface()
    message = Message(source=4, destination=0, length=4, creation_cycle=0)
    interface.offer(message)
    drive(interface, 10)
    assert len(router.flits) == 4
    arrival_cycles = [cycle for cycle, _, _, _ in router.flits]
    assert arrival_cycles == sorted(arrival_cycles)
    # One flit per cycle over the injection channel.
    assert len(set(arrival_cycles)) == 4
    assert stats.created == 1


def test_injection_sets_injection_cycle_and_stats():
    interface, router, stats, topology = build_interface()
    message = Message(source=4, destination=0, length=2, creation_cycle=0)
    interface.offer(message)
    drive(interface, 5)
    assert message.injection_cycle is not None
    assert stats.created == 1


def test_lookahead_interface_precomputes_first_hop_decision():
    interface, router, stats, topology = build_interface(pipeline=LA_PROUD)
    interface.offer(Message(source=4, destination=0, length=2, creation_cycle=0))
    drive(interface, 5)
    header = router.flits[0][3]
    assert header.lookahead_node == 4
    assert header.lookahead_decision is not None


def test_non_lookahead_interface_leaves_header_plain():
    from repro.router.pipeline import PROUD

    interface, router, stats, topology = build_interface(pipeline=PROUD)
    interface.offer(Message(source=4, destination=0, length=2, creation_cycle=0))
    drive(interface, 5)
    header = router.flits[0][3]
    assert header.lookahead_node is None


def test_injection_respects_credits():
    interface, router, stats, topology = build_interface(vcs=2, buffer_depth=3)
    interface.offer(Message(source=4, destination=0, length=10, creation_cycle=0))
    drive(interface, 20)
    # Only buffer_depth flits can be outstanding on the chosen VC without
    # credit returns from the router.
    assert len(router.flits) == 3
    used_vc = router.flits[0][2]
    for cycle in (21, 22):
        interface.receive_credit(LOCAL_PORT, used_vc, cycle)
    drive(interface, 10, start=21)
    assert len(router.flits) == 5


def test_concurrent_messages_use_distinct_vcs():
    interface, router, stats, topology = build_interface(vcs=2)
    interface.offer(Message(source=4, destination=0, length=3, creation_cycle=0))
    interface.offer(Message(source=4, destination=8, length=3, creation_cycle=0))
    drive(interface, 3)
    vcs_used = {vc for _, _, vc, _ in router.flits}
    assert vcs_used == {0, 1}


def test_queue_length_reflects_backlog():
    interface, router, stats, topology = build_interface(vcs=1)
    for _ in range(3):
        interface.offer(Message(source=4, destination=0, length=2, creation_cycle=0))
    assert interface.queue_length == 3
    drive(interface, 1)
    assert interface.queue_length == 2


def test_ejection_records_delivery_and_returns_credit():
    interface, router, stats, topology = build_interface()
    message = Message(source=0, destination=4, length=2, creation_cycle=0)
    message.injection_cycle = 1
    flits = message.make_flits()
    interface.receive_flit(LOCAL_PORT, 1, flits[0], 10)
    interface.receive_flit(LOCAL_PORT, 1, flits[1], 11)
    drive(interface, 15)
    assert message.is_delivered
    assert message.ejection_cycle == 11
    assert stats.delivered == 1
    # One credit per consumed flit goes back to the router's local port.
    assert len(router.credits) == 2
    assert all(port == LOCAL_PORT for _, port, _ in router.credits)


def test_offered_work_is_queued():
    interface, router, stats, topology = build_interface()
    assert interface.queue_length == 0
    interface.offer(Message(source=4, destination=0, length=1, creation_cycle=0))
    assert interface.queue_length == 1


# -- mailbox semantics ---------------------------------------------------------------
#
# These tests pin the mailbox behaviour the flat core's arrival wheels
# must reproduce.


def _single_flit(source, destination):
    """The one flit (head == tail) of a fresh single-flit message."""
    message = Message(source=source, destination=destination, length=1, creation_cycle=0)
    message.injection_cycle = 0
    return message.make_flits()[0]


def test_fifo_drain_order_when_flits_share_an_arrival_cycle():
    """Several flits due the same cycle drain in arrival (FIFO) order:
    the credits returned to the router's local port replay the exact
    receive order, even across interleaved virtual channels."""
    interface, router, stats, topology = build_interface()
    delivered = []
    original = stats.record_delivered
    stats.record_delivered = lambda message, cycle: (
        delivered.append(message), original(message, cycle)
    )
    flits = [_single_flit(0, 4), _single_flit(8, 4), _single_flit(2, 4)]
    for flit, vc in zip(flits, (0, 1, 0)):
        interface.receive_flit(LOCAL_PORT, vc, flit, 5)
    interface.deliver(5)
    assert stats.delivered == 3
    assert [message.source for message in delivered] == [0, 8, 2]
    # Credit per consumed flit, in FIFO order, stamped cycle + credit_delay.
    assert router.credits == [(6, LOCAL_PORT, 0), (6, LOCAL_PORT, 1), (6, LOCAL_PORT, 0)]


def test_same_cycle_credit_unblocks_injection_that_cycle():
    """A credit arriving at cycle c is applied by deliver(c) -- before
    evaluate(c) -- so a credit-blocked slot injects the same cycle, and
    an ejected flit consumed at c is recorded at c alongside it."""
    interface, router, stats, topology = build_interface(vcs=1, buffer_depth=2)
    interface.offer(Message(source=4, destination=0, length=3, creation_cycle=0))
    drive(interface, 3)  # cycles 0-2: two flits exhaust the credits, then block
    assert len(router.flits) == 2
    # Both a returning credit and an ejected flit land at cycle 4.
    interface.receive_credit(LOCAL_PORT, 0, 4)
    ejected = _single_flit(0, 4)
    interface.receive_flit(LOCAL_PORT, 0, ejected, 4)
    drive(interface, 3, start=3)  # cycles 3-5
    # The blocked third flit went out at cycle 4 (arrival 4 + link_delay).
    assert len(router.flits) == 3
    assert router.flits[2][0] == 4 + router.config.link_delay
    # The ejected message was delivered at cycle 4, credit stamped 4 + 1.
    assert ejected.message.ejection_cycle == 4
    assert stats.delivered == 1
    assert (5, LOCAL_PORT, 0) in router.credits


def test_single_flit_messages_inject_and_eject():
    """length-1 messages (head == tail) free their slot immediately on
    injection and complete delivery from one mailbox entry."""
    interface, router, stats, topology = build_interface(vcs=1)
    interface.offer(Message(source=4, destination=0, length=1, creation_cycle=0))
    interface.offer(Message(source=4, destination=8, length=1, creation_cycle=0))
    drive(interface, 3)
    # One flit per cycle on the single VC: the slot freed by the first
    # tail is reused by the second message the following cycle.
    assert len(router.flits) == 2
    assert [flit.is_head and flit.is_tail for _, _, _, flit in router.flits] == [True, True]
    assert router.flits[1][0] == router.flits[0][0] + 1
    # Ejection side: one entry delivers the whole message.
    ejected = _single_flit(0, 4)
    interface.receive_flit(LOCAL_PORT, 0, ejected, 10)
    interface.deliver(10)
    assert ejected.message.is_delivered
    assert ejected.message.ejection_cycle == 10
    assert len(router.credits) == 1


def test_out_of_order_external_pushes_are_head_blocked():
    """External pushes with non-monotonic arrival cycles follow the
    mailbox-deque contract: a flit queued behind a later-due flit waits
    for it (head blocking), then both drain in FIFO order the cycle the
    head comes due."""
    interface, router, stats, topology = build_interface()
    late = _single_flit(0, 4)
    early = _single_flit(8, 4)
    interface.receive_flit(LOCAL_PORT, 0, late, 9)
    interface.receive_flit(LOCAL_PORT, 0, early, 7)
    interface.deliver(7)
    assert stats.delivered == 0  # blocked behind the cycle-9 head
    interface.deliver(8)
    assert stats.delivered == 0
    interface.deliver(9)
    assert stats.delivered == 2
    assert late.message.ejection_cycle == 9
    assert early.message.ejection_cycle == 9
    # One credit per consumed flit, both stamped cycle + credit_delay.
    assert [cycle for cycle, _, _ in router.credits] == [10, 10]
