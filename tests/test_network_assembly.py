"""Tests for the network assembly (routers + interfaces wired by the topology)."""

import pytest

from repro.network.network import Network
from repro.network.topology import LOCAL_PORT, MeshTopology
from repro.core.config import SimulationConfig
from repro.routing.duato import DuatoFullyAdaptiveRouting
from repro.selection.heuristics import StaticDimensionOrderSelector
from repro.stats.collector import StatsCollector
from repro.tables.economical import EconomicalStorageTable


@pytest.fixture
def network():
    topology = MeshTopology((3, 3))
    table = EconomicalStorageTable(topology)
    routing = DuatoFullyAdaptiveRouting(topology, table)
    return Network(
        topology=topology,
        config=SimulationConfig(mesh_dims=(3, 3), pipeline="proud"),
        routing=routing,
        selector_factory=lambda node: StaticDimensionOrderSelector(),
        stats=StatsCollector(),
        sources=None,
    )


def test_one_router_and_interface_per_node(network):
    assert len(network.routers) == 9
    assert len(network.interfaces) == 9
    for node in range(9):
        assert network.router(node).node_id == node
        assert network.interface(node).node_id == node


def test_components_order_routers_then_interfaces(network):
    """Each phase visits every router in node order, then every
    interface in node order: the order the flat core replays and the
    order interfaces draw from the shared message budget."""
    log = []
    for kind, members in (("router", network.routers), ("interface", network.interfaces)):
        for member in members:
            for phase in ("deliver", "evaluate"):
                original = getattr(member, phase)

                def recorded(cycle, original=original, entry=(phase, kind, member.node_id)):
                    log.append((cycle, *entry))
                    original(cycle)

                setattr(member, phase, recorded)
    network.deliver(3)
    network.evaluate(3)
    walk = [("router", node) for node in range(9)] + [
        ("interface", node) for node in range(9)
    ]
    assert log == [(3, "deliver", *member) for member in walk] + [
        (3, "evaluate", *member) for member in walk
    ]


def test_every_network_link_is_described(network):
    # A 3x3 mesh has 2 * (2*3 + 2*3) = 24 unidirectional links.
    links = list(network.topology.links())
    assert len(links) == 24
    for node, port, neighbor, _ in links:
        assert network.topology.neighbor(node, port) == neighbor
        assert network.router(node).output_port(port).connected


def test_router_ports_connected_according_to_topology(network):
    topology = network.topology
    for node in range(topology.num_nodes):
        router = network.router(node)
        assert router.output_port(LOCAL_PORT).connected
        for port in range(1, topology.radix):
            expected = topology.neighbor(node, port) is not None
            assert router.output_port(port).connected == expected


def test_fresh_network_is_idle(network):
    components = [*network.routers, *network.interfaces]
    assert not any(True for component in components for _ in component.held_flits())
    assert all(interface.queue_length == 0 for interface in network.interfaces)

