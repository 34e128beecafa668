"""Tests for full-table routing."""

import pytest

from repro.network.topology import LOCAL_PORT, MeshTopology, port_for
from repro.routing.providers import dimension_order_provider
from repro.tables.base import TableProgrammingError
from repro.tables.full_table import FullRoutingTable


@pytest.fixture
def mesh():
    return MeshTopology((4, 4))


def test_default_programming_is_minimal_adaptive(mesh):
    table = FullRoutingTable(mesh)
    origin = mesh.node_id((1, 1))
    assert set(table.lookup(origin, mesh.node_id((3, 3)))) == {
        port_for(0, True),
        port_for(1, True),
    }
    assert table.lookup(origin, origin) == (LOCAL_PORT,)


def test_storage_cost_is_one_entry_per_destination(mesh):
    table = FullRoutingTable(mesh)
    assert table.entries_per_router() == 16
    assert table.num_routers() == 16
    assert table.total_entries() == 256


def test_lookup_ports_are_always_productive(mesh):
    table = FullRoutingTable(mesh)
    for source in range(mesh.num_nodes):
        for destination in range(mesh.num_nodes):
            ports = table.lookup(source, destination)
            assert ports
            assert set(ports) <= set(mesh.minimal_ports(source, destination))


def test_custom_provider_programming(mesh):
    table = FullRoutingTable(mesh, provider=dimension_order_provider(mesh))
    origin = mesh.node_id((0, 0))
    assert table.lookup(origin, mesh.node_id((3, 3))) == (port_for(0, True),)


def test_a_provider_giving_no_port_is_refused(mesh):
    with pytest.raises(TableProgrammingError, match="no ports for 0->5"):
        FullRoutingTable(mesh, provider=lambda current, destination: (
            () if (current, destination) == (0, 5) else (LOCAL_PORT,)
        ))
