"""Unit tests for a single router driven with stub neighbours.

These tests exercise the router microarchitecture in isolation: pipeline
timing, virtual-channel allocation (adaptive and escape classes), switch
allocation, credit-based flow control and look-ahead header generation.
"""

from __future__ import annotations


from repro.network.topology import LOCAL_PORT, MeshTopology, port_for
from repro.router.channels import VCState
from repro.core.config import SimulationConfig
from repro.router.pipeline import LA_PROUD, PROUD
from repro.router.router import Router
from repro.routing.duato import DuatoFullyAdaptiveRouting
from repro.selection.heuristics import StaticDimensionOrderSelector
from repro.tables.economical import EconomicalStorageTable
from repro.traffic.message import Message

EAST = port_for(0, True)
WEST = port_for(0, False)
NORTH = port_for(1, True)
SOUTH = port_for(1, False)


class StubNeighbor:
    """Records every flit and credit scheduled toward it."""

    def __init__(self):
        self.flits = []
        self.credits = []

    def receive_flit(self, port, vc, flit, arrival_cycle):
        self.flits.append((arrival_cycle, port, vc, flit))

    def receive_credit(self, port, vc, arrival_cycle):
        self.credits.append((arrival_cycle, port, vc))


def build_router(pipeline=PROUD, vcs=4, buffer_depth=5, selector=None):
    """A fully connected center router of a 3x3 mesh plus its stubs."""
    topology = MeshTopology((3, 3))
    node = topology.node_id((1, 1))
    table = EconomicalStorageTable(topology)
    routing = DuatoFullyAdaptiveRouting(topology, table)
    config = SimulationConfig(
        mesh_dims=(3, 3), vcs_per_port=vcs, buffer_depth=buffer_depth, pipeline=pipeline.name
    )
    router = Router(
        node_id=node,
        topology=topology,
        config=config,
        routing=routing,
        selector=selector or StaticDimensionOrderSelector(),
    )
    stubs = {}
    for port in range(topology.radix):
        stub = StubNeighbor()
        router.connect_output(port, stub, port)
        router.set_upstream(port, stub, port)
        stubs[port] = stub
    return router, topology, stubs


def drive(router, cycles, start=0):
    for cycle in range(start, start + cycles):
        router.deliver(cycle)
        router.evaluate(cycle)
    return start + cycles


def inject_message(router, topology, destination_coords, length=3, vc=1, cycle=0, spacing=1):
    """Place a whole message in the router's local input port at ``cycle``.

    ``spacing`` controls the arrival distance between consecutive flits; the
    default of one flit per cycle matches an uncongested injection channel.
    """
    destination = topology.node_id(destination_coords)
    message = Message(
        source=router.node_id, destination=destination, length=length, creation_cycle=cycle
    )
    for offset, flit in enumerate(message.make_flits()):
        router.receive_flit(LOCAL_PORT, vc, flit, cycle + offset * spacing)
    return message


def test_header_timing_matches_pipeline_depth():
    for pipeline, expected_hop in ((PROUD, 6), (LA_PROUD, 5)):
        router, topology, stubs = build_router(pipeline=pipeline)
        inject_message(router, topology, (2, 1), length=1, cycle=0)
        drive(router, 12)
        arrivals = stubs[EAST].flits
        assert len(arrivals) == 1
        arrival_cycle = arrivals[0][0]
        # The flit entered the input buffer at cycle 0, so its appearance at
        # the downstream input equals the per-hop latency.
        assert arrival_cycle == expected_hop


def test_body_flits_stream_one_per_cycle():
    router, topology, stubs = build_router()
    inject_message(router, topology, (2, 1), length=4, cycle=0)
    drive(router, 20)
    arrivals = [cycle for cycle, _, _, _ in stubs[EAST].flits]
    assert len(arrivals) == 4
    assert arrivals == [arrivals[0] + offset for offset in range(4)]


def test_adaptive_port_selection_prefers_x_with_static_selector():
    router, topology, stubs = build_router()
    inject_message(router, topology, (2, 2), length=1, cycle=0)
    drive(router, 12)
    assert len(stubs[EAST].flits) == 1
    assert len(stubs[NORTH].flits) == 0


def test_vc_allocation_uses_adaptive_class_first():
    router, topology, stubs = build_router()
    inject_message(router, topology, (2, 1), length=2, cycle=0)
    drive(router, 4)
    channel = router.input_channel(LOCAL_PORT, 1)
    assert channel.state is VCState.ACTIVE
    # Escape VC is index 0; the adaptive class starts at 1.
    assert channel.out_vc >= 1


def test_escape_channel_used_when_adaptive_vcs_are_busy():
    router, topology, stubs = build_router()
    east_output = router.output_port(EAST)
    for vc in (1, 2, 3):
        east_output.vcs[vc].allocate(4, 0)  # adaptive VCs taken by others
    inject_message(router, topology, (2, 1), length=1, cycle=0)
    drive(router, 12)
    assert len(stubs[EAST].flits) == 1
    _, _, used_vc, _ = stubs[EAST].flits[0]
    assert used_vc == 0  # the escape virtual channel


def test_header_waits_when_no_suitable_vc_is_free():
    router, topology, stubs = build_router()
    east_output = router.output_port(EAST)
    for vc in range(4):
        east_output.vcs[vc].allocate(4, 0)
    inject_message(router, topology, (2, 1), length=1, cycle=0)
    drive(router, 15)
    assert stubs[EAST].flits == []
    channel = router.input_channel(LOCAL_PORT, 1)
    assert channel.state is VCState.ROUTING
    # Freeing one adaptive VC lets the message proceed.
    east_output.vcs[2].release()
    drive(router, 10, start=15)
    assert len(stubs[EAST].flits) == 1


def test_credit_exhaustion_stalls_forwarding():
    router, topology, stubs = build_router(buffer_depth=2)
    # Four flits injected slowly enough that the local input buffer (2 deep)
    # absorbs the back-pressure; the downstream credits (2) stall the rest.
    inject_message(router, topology, (2, 1), length=4, cycle=0, spacing=2)
    drive(router, 30)
    # Only buffer_depth flits can be in flight without credit returns.
    assert len(stubs[EAST].flits) == 2
    # Returning credits releases the remaining flits.
    router.receive_credit(EAST, stubs[EAST].flits[0][2], 31)
    router.receive_credit(EAST, stubs[EAST].flits[0][2], 32)
    drive(router, 10, start=31)
    assert len(stubs[EAST].flits) == 4


def test_upstream_credit_returned_for_every_forwarded_flit():
    router, topology, stubs = build_router()
    inject_message(router, topology, (2, 1), length=3, vc=2, cycle=0)
    drive(router, 20)
    local_stub = stubs[LOCAL_PORT]
    assert len(local_stub.credits) == 3
    assert all(vc == 2 for _, _, vc in local_stub.credits)


def test_tail_releases_output_vc_and_input_channel():
    router, topology, stubs = build_router()
    inject_message(router, topology, (2, 1), length=3, cycle=0)
    drive(router, 25)
    channel = router.input_channel(LOCAL_PORT, 1)
    assert channel.state is VCState.IDLE
    east_output = router.output_port(EAST)
    assert all(vc.is_free for vc in east_output.vcs)


def test_one_grant_per_output_port_per_cycle():
    router, topology, stubs = build_router()
    # Two messages from different input ports compete for the East port.
    message = Message(source=0, destination=topology.node_id((2, 1)), length=1,
                      creation_cycle=0)
    other = Message(source=0, destination=topology.node_id((2, 1)), length=1,
                    creation_cycle=0)
    for flit in message.make_flits():
        router.receive_flit(WEST, 1, flit, 0)
    for flit in other.make_flits():
        router.receive_flit(SOUTH, 1, flit, 0)
    drive(router, 15)
    arrivals = [cycle for cycle, _, _, _ in stubs[EAST].flits]
    assert len(arrivals) == 2
    assert arrivals[0] != arrivals[1]


def test_lookahead_router_attaches_next_hop_decision():
    router, topology, stubs = build_router(pipeline=LA_PROUD)
    message = inject_message(router, topology, (2, 2), length=1, cycle=0)
    drive(router, 12)
    (_, _, _, flit) = stubs[EAST].flits[0]
    next_node = topology.neighbor(router.node_id, EAST)
    assert flit.lookahead_node == next_node
    assert flit.lookahead_decision is not None
    assert NORTH in flit.lookahead_decision.adaptive_ports
    assert message.hops == 1


def test_non_lookahead_router_leaves_header_unannotated():
    router, topology, stubs = build_router(pipeline=PROUD)
    inject_message(router, topology, (2, 2), length=1, cycle=0)
    drive(router, 12)
    (_, _, _, flit) = stubs[EAST].flits[0]
    assert flit.lookahead_node is None
    assert flit.lookahead_decision is None


def test_ejection_goes_to_the_local_port():
    router, topology, stubs = build_router()
    message = Message(source=0, destination=router.node_id, length=2, creation_cycle=0)
    for offset, flit in enumerate(message.make_flits()):
        router.receive_flit(WEST, 1, flit, offset)
    drive(router, 15)
    assert len(stubs[LOCAL_PORT].flits) == 2


def test_flit_and_header_counters():
    router, topology, stubs = build_router()
    inject_message(router, topology, (2, 1), length=4, cycle=0)
    drive(router, 25)
    assert router.flits_forwarded == 4
    assert router.headers_routed == 1
    # The crossbar counts each flit in its output port's use history (what
    # LFU/LRU read); the router's counter is the sum over its ports.
    east = router.output_port(EAST)
    assert east.usage_count == 4
    delay = router.config.pipeline_timing.switch_delay + router.config.link_delay_for(0)
    assert east.last_used_cycle == stubs[EAST].flits[-1][0] - delay


def test_free_input_vcs_reporting():
    router, topology, stubs = build_router()
    assert router.free_input_vcs(LOCAL_PORT) == [0, 1, 2, 3]
    inject_message(router, topology, (2, 1), length=2, vc=3, cycle=0)
    router.deliver(0)
    assert 3 not in router.free_input_vcs(LOCAL_PORT)
