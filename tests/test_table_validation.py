"""Tests for routing-relation validation (connectivity, minimality, deadlock)."""

import pytest

from repro.network.topology import MeshTopology, TorusTopology
from repro.routing.providers import (
    dimension_order_provider,
    minimal_adaptive_provider,
    negative_first_provider,
    north_last_provider,
    west_first_provider,
)
from repro.tables.economical import EconomicalStorageTable
from repro.tables.full_table import FullRoutingTable
from repro.tables.interval import IntervalRoutingTable
from repro.tables.mappings import BlockClusterMapping, RowClusterMapping
from repro.tables.meta_table import MetaRoutingTable
from repro.tables.validation import (
    channel_dependency_graph,
    check_connectivity,
    check_minimality,
    escape_subfunction_is_deadlock_free,
    is_deadlock_free,
)


@pytest.fixture(scope="module")
def mesh():
    return MeshTopology((4, 4))


def test_all_shipped_tables_are_connected(mesh):
    tables = [
        FullRoutingTable(mesh),
        EconomicalStorageTable(mesh),
        MetaRoutingTable(mesh, RowClusterMapping(mesh)),
        MetaRoutingTable(mesh, BlockClusterMapping(mesh, block_dims=(2, 2))),
        IntervalRoutingTable(mesh),
    ]
    for table in tables:
        assert check_connectivity(table, mesh) == [], type(table).__name__


def test_minimal_tables_pass_minimality(mesh):
    for table in (FullRoutingTable(mesh), EconomicalStorageTable(mesh)):
        assert check_minimality(table, mesh) == []


def test_interval_routing_is_not_minimal(mesh):
    # Tree-based interval routing trades path quality for table size; the
    # paper lists non-minimal paths as one of its drawbacks.
    assert check_minimality(IntervalRoutingTable(mesh), mesh) != []


def test_broken_relation_is_reported(mesh):
    def broken(current, destination):
        # Always send messages East, even off the edge of the mesh.
        return (1,)

    problems = check_connectivity(broken, mesh)
    assert problems
    assert any("off the network" in problem for problem in problems)


def test_dimension_order_routing_is_deadlock_free(mesh):
    assert is_deadlock_free(mesh, dimension_order_provider(mesh))
    assert escape_subfunction_is_deadlock_free(mesh)


def test_turn_models_are_deadlock_free(mesh):
    assert is_deadlock_free(mesh, north_last_provider(mesh))
    assert is_deadlock_free(mesh, west_first_provider(mesh))
    assert is_deadlock_free(mesh, negative_first_provider(mesh))


def test_unrestricted_adaptive_routing_has_cyclic_dependencies(mesh):
    # This is the motivation for Duato's escape channels: fully adaptive
    # minimal routing on a single channel class is NOT deadlock free.
    assert not is_deadlock_free(mesh, minimal_adaptive_provider(mesh))


def test_interval_tree_routing_is_deadlock_free(mesh):
    assert is_deadlock_free(mesh, IntervalRoutingTable(mesh))


@pytest.mark.parametrize(
    "torus", [TorusTopology((4, 4)), TorusTopology((4, 4, 4))], ids=["2d", "3d"]
)
def test_torus_without_datelines_is_cyclic(torus):
    # The wraparound rings close a dependency cycle in every dimension
    # (radix >= 4, so minimal routes chain two channels of a ring);
    # dimension-order routing alone cannot break it.
    assert not escape_subfunction_is_deadlock_free(torus, dateline_classes=False)
    assert not is_deadlock_free(torus, dimension_order_provider(torus))


@pytest.mark.parametrize(
    "torus", [TorusTopology((4, 4)), TorusTopology((4, 4, 4))], ids=["2d", "3d"]
)
def test_torus_with_datelines_is_deadlock_free(torus):
    # The two-class dateline discipline breaks every wraparound ring's
    # cycle; the dispatch picks it automatically because the topology
    # wraps.
    assert escape_subfunction_is_deadlock_free(torus)
    assert is_deadlock_free(
        torus, dimension_order_provider(torus), dateline_classes=True
    )


def test_mesh_dispatch_stays_single_class(mesh):
    # On a mesh both disciplines agree -- the dateline mask never sets a
    # bit, so the class-aware graph is two disconnected copies of the
    # single-class one.
    assert escape_subfunction_is_deadlock_free(mesh)
    assert escape_subfunction_is_deadlock_free(mesh, dateline_classes=True)


def test_dependency_graph_structure(mesh):
    graph = channel_dependency_graph(mesh, dimension_order_provider(mesh))
    # One graph node per unidirectional network channel.
    assert graph.number_of_nodes() == len(list(mesh.links()))
    # XY routing never turns from Y back into X, so no (node, Y-port) ->
    # (neighbor, X-port) edges exist.
    for (node, port), (neighbor, next_port) in graph.edges():
        holding_dimension = (port - 1) // 2
        next_dimension = (next_port - 1) // 2
        assert next_dimension >= holding_dimension
