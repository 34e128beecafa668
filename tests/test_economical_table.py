"""Tests for the economical-storage (sign-indexed) routing table."""

from itertools import product

import pytest

from repro.network.topology import (
    LOCAL_PORT,
    MeshTopology,
    TorusTopology,
    port_for,
    productive_ports,
)
from repro.routing.providers import (
    dimension_order_provider,
    minimal_adaptive_provider,
    negative_first_provider,
    north_last_provider,
    sign_rule_provider,
    west_first_provider,
)
from repro.tables.base import TableProgrammingError
from repro.tables.economical import EconomicalStorageTable
from repro.tables.full_table import FullRoutingTable

EAST = port_for(0, True)
WEST = port_for(0, False)
NORTH = port_for(1, True)
SOUTH = port_for(1, False)


@pytest.fixture
def mesh():
    return MeshTopology((4, 4))


def test_entry_count_matches_paper_claim(mesh):
    table = EconomicalStorageTable(mesh)
    assert table.entries_per_router() == 9
    three_d = EconomicalStorageTable(MeshTopology((3, 3, 3)))
    assert three_d.entries_per_router() == 27


def test_lookup_equals_full_table_for_every_pair(mesh):
    economical = EconomicalStorageTable(mesh)
    full = FullRoutingTable(mesh)
    for source in range(mesh.num_nodes):
        for destination in range(mesh.num_nodes):
            assert set(economical.lookup(source, destination)) == set(
                full.lookup(source, destination)
            ), (source, destination)


def test_index_of_is_the_sign_pair(mesh):
    table = EconomicalStorageTable(mesh)
    origin = mesh.node_id((1, 1))
    assert table.index_of(origin, mesh.node_id((3, 0))) == (1, -1)
    assert table.index_of(origin, origin) == (0, 0)


def test_quadrant_axis_and_local_entries(mesh):
    table = EconomicalStorageTable(mesh)
    origin = mesh.node_id((1, 1))
    assert set(table.entry(origin, (1, 1))) == {EAST, NORTH}
    assert table.entry(origin, (1, 0)) == (EAST,)
    assert table.entry(origin, (0, -1)) == (SOUTH,)
    assert table.entry(origin, (0, 0)) == (LOCAL_PORT,)


def test_corner_node_unreachable_patterns_get_geometric_defaults():
    mesh = MeshTopology((3, 3))
    table = EconomicalStorageTable(mesh)
    corner = mesh.node_id((0, 0))
    # No destination lies south-west of the origin corner, but the entry is
    # still programmed (and never consulted).
    assert set(table.entry(corner, (-1, -1))) == {WEST, SOUTH}


def test_north_last_programming_matches_figure7():
    mesh = MeshTopology((3, 3))
    table = EconomicalStorageTable(mesh, provider=north_last_provider(mesh))
    node = mesh.node_id((1, 1))
    # North-east and north-west quadrants lose the +Y (North) choice.
    assert table.entry(node, (1, 1)) == (EAST,)
    assert table.entry(node, (-1, 1)) == (WEST,)
    # Straight north keeps its only (allowed) port.
    assert table.entry(node, (0, 1)) == (NORTH,)
    # Southern quadrants keep both choices.
    assert set(table.entry(node, (1, -1))) == {EAST, SOUTH}


def test_describe_lists_all_entries(mesh):
    table = EconomicalStorageTable(mesh)
    entries = table.describe(mesh.node_id((2, 2)))
    assert len(entries) == 9
    signs = [signs for signs, _ in entries]
    assert len(set(signs)) == 9


def test_table_works_on_torus_signs():
    for dims in ((4, 4), (3, 3, 3)):
        torus = TorusTopology(dims)
        table = EconomicalStorageTable(torus)
        full = FullRoutingTable(torus)
        assert table.entries_per_router() == 3 ** len(dims)
        for source in range(torus.num_nodes):
            for destination in range(torus.num_nodes):
                assert table.lookup(source, destination) == full.lookup(
                    source, destination
                ), (dims, source, destination)


# -- sign-class programming ----------------------------------------------------


def _pair_walk_describe(topology, provider):
    """Reference programming: intersect the provider's answers over every
    destination of each sign class, one router at a time, and give sign
    patterns no destination shows the geometric default."""
    patterns = list(product((-1, 0, 1), repeat=topology.n_dims))
    described = []
    for node in range(topology.num_nodes):
        common = {}
        for destination in range(topology.num_nodes):
            signs = topology.relative_signs(node, destination)
            ports = set(provider(node, destination))
            common[signs] = common[signs] & ports if signs in common else ports
        described.append([
            (signs, tuple(sorted(common[signs])) if signs in common
             else productive_ports(signs))
            for signs in patterns
        ])
    return described


_TWO_D_PROVIDERS = (
    minimal_adaptive_provider,
    dimension_order_provider,
    north_last_provider,
    west_first_provider,
    negative_first_provider,
)
_N_D_PROVIDERS = (
    minimal_adaptive_provider,
    dimension_order_provider,
    negative_first_provider,
)
_SHAPES = [
    (MeshTopology, (2, 2)),
    (MeshTopology, (3, 3)),
    (MeshTopology, (4, 4)),
    (MeshTopology, (2, 5)),
    (MeshTopology, (5, 3)),
    (MeshTopology, (2, 2, 2)),
    (MeshTopology, (3, 3, 3)),
    (MeshTopology, (2, 3, 4)),
    (TorusTopology, (2, 2)),
    (TorusTopology, (3, 3)),
    (TorusTopology, (4, 4)),
    (TorusTopology, (2, 5)),
    (TorusTopology, (5, 4)),
    (TorusTopology, (2, 2, 2)),
    (TorusTopology, (3, 3, 3)),
    (TorusTopology, (2, 3, 5)),
]


@pytest.mark.parametrize(
    "kind,dims", _SHAPES, ids=[f"{k.__name__}-{'x'.join(map(str, d))}" for k, d in _SHAPES]
)
def test_sign_class_programming_matches_pair_walk(kind, dims):
    topology = kind(dims)
    factories = _TWO_D_PROVIDERS if len(dims) == 2 else _N_D_PROVIDERS
    for factory in factories:
        provider = factory(topology)
        table = EconomicalStorageTable(topology, provider=provider)
        expected = _pair_walk_describe(topology, provider)
        for node in range(topology.num_nodes):
            assert table.describe(node) == expected[node], (factory.__name__, node)


@pytest.mark.parametrize("dims", [(8, 8), (3, 4, 5)])
def test_sign_rule_evaluated_at_most_once_per_sign_pattern(dims):
    mesh = MeshTopology(dims)
    calls = []

    def rule(signs):
        calls.append(signs)
        return productive_ports(signs)

    EconomicalStorageTable(mesh, provider=sign_rule_provider(mesh, rule))
    assert len(calls) <= 3 ** len(dims)
    assert len(set(calls)) == len(calls)


def test_provider_without_sign_rule_is_refused(mesh):
    def provider(current, destination):
        return mesh.minimal_ports(current, destination)

    with pytest.raises(TableProgrammingError, match="sign_rule"):
        EconomicalStorageTable(mesh, provider=provider)


def test_empty_sign_rule_answer_is_refused(mesh):
    provider = sign_rule_provider(mesh, lambda signs: ())
    with pytest.raises(TableProgrammingError, match="no port"):
        EconomicalStorageTable(mesh, provider=provider)
