"""Tests for the n-dimensional mesh topology."""

import pytest

from repro.network.topology import (
    LOCAL_PORT,
    MeshTopology,
    TorusTopology,
    port_direction,
    port_for,
)


def test_port_numbering_convention():
    assert LOCAL_PORT == 0
    assert port_for(0, positive=True) == 1   # +X / East
    assert port_for(0, positive=False) == 2  # -X / West
    assert port_for(1, positive=True) == 3   # +Y / North
    assert port_for(1, positive=False) == 4  # -Y / South


def test_port_direction_round_trips():
    for dimension in range(3):
        for positive in (True, False):
            port = port_for(dimension, positive)
            assert port_direction(port) == (dimension, 1 if positive else -1)


def test_port_direction_rejects_local_port():
    with pytest.raises(ValueError):
        port_direction(LOCAL_PORT)


def test_mesh_counts_and_radix(mesh4x4):
    assert mesh4x4.num_nodes == 16
    assert mesh4x4.n_dims == 2
    assert mesh4x4.radix == 5


def test_mesh_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        MeshTopology((1, 4))
    with pytest.raises(ValueError):
        MeshTopology(())


def test_coordinates_and_node_id_are_inverses(mesh4x4):
    for node in range(mesh4x4.num_nodes):
        assert mesh4x4.node_id(mesh4x4.coordinates(node)) == node


def test_coordinate_layout_dimension_zero_fastest(mesh4x4):
    assert mesh4x4.coordinates(0) == (0, 0)
    assert mesh4x4.coordinates(1) == (1, 0)
    assert mesh4x4.coordinates(4) == (0, 1)
    assert mesh4x4.node_id((3, 3)) == 15


def test_node_id_validates_bounds(mesh4x4):
    with pytest.raises(ValueError):
        mesh4x4.node_id((4, 0))
    with pytest.raises(ValueError):
        mesh4x4.node_id((0,))


def test_neighbors_interior_node(mesh4x4):
    node = mesh4x4.node_id((1, 1))
    assert mesh4x4.neighbor(node, port_for(0, True)) == mesh4x4.node_id((2, 1))
    assert mesh4x4.neighbor(node, port_for(0, False)) == mesh4x4.node_id((0, 1))
    assert mesh4x4.neighbor(node, port_for(1, True)) == mesh4x4.node_id((1, 2))
    assert mesh4x4.neighbor(node, port_for(1, False)) == mesh4x4.node_id((1, 0))


def test_neighbors_missing_at_mesh_edges(mesh4x4):
    corner = mesh4x4.node_id((0, 0))
    assert mesh4x4.neighbor(corner, port_for(0, False)) is None
    assert mesh4x4.neighbor(corner, port_for(1, False)) is None
    assert mesh4x4.neighbor(corner, port_for(0, True)) is not None


def test_neighbor_of_local_port_is_none(mesh4x4):
    assert mesh4x4.neighbor(5, LOCAL_PORT) is None


def test_reverse_port_pairs_up(mesh4x4):
    assert mesh4x4.reverse_port(port_for(0, True)) == port_for(0, False)
    assert mesh4x4.reverse_port(port_for(1, False)) == port_for(1, True)


def test_links_are_consistent_with_neighbors(mesh4x4):
    links = list(mesh4x4.links())
    # A 4x4 mesh has 2 * (3*4 + 3*4) = 48 unidirectional links.
    assert len(links) == 48
    for node, port, neighbor, neighbor_port in links:
        assert mesh4x4.neighbor(node, port) == neighbor
        assert mesh4x4.neighbor(neighbor, neighbor_port) == node


def test_relative_signs(mesh4x4):
    origin = mesh4x4.node_id((1, 1))
    assert mesh4x4.relative_signs(origin, mesh4x4.node_id((3, 2))) == (1, 1)
    assert mesh4x4.relative_signs(origin, mesh4x4.node_id((0, 1))) == (-1, 0)
    assert mesh4x4.relative_signs(origin, origin) == (0, 0)


def test_minimal_ports_quadrant_and_axis(mesh4x4):
    origin = mesh4x4.node_id((1, 1))
    northeast = mesh4x4.node_id((3, 3))
    assert set(mesh4x4.minimal_ports(origin, northeast)) == {
        port_for(0, True),
        port_for(1, True),
    }
    east_only = mesh4x4.node_id((3, 1))
    assert mesh4x4.minimal_ports(origin, east_only) == (port_for(0, True),)
    assert mesh4x4.minimal_ports(origin, origin) == (LOCAL_PORT,)


def test_dimension_order_port_prefers_x_first(mesh4x4):
    origin = mesh4x4.node_id((1, 1))
    assert mesh4x4.dimension_order_port(origin, mesh4x4.node_id((3, 3))) == port_for(0, True)
    assert mesh4x4.dimension_order_port(origin, mesh4x4.node_id((1, 3))) == port_for(1, True)
    assert mesh4x4.dimension_order_port(origin, origin) == LOCAL_PORT


def test_distance_is_manhattan(mesh4x4):
    assert mesh4x4.distance(mesh4x4.node_id((0, 0)), mesh4x4.node_id((3, 3))) == 6
    assert mesh4x4.distance(mesh4x4.node_id((2, 1)), mesh4x4.node_id((2, 1))) == 0


def test_average_distance_known_value():
    # The closed form must equal the pair walk over ordered distinct pairs
    # exactly, not just approximately: it feeds the run's cycle budget.
    for topology in (
        MeshTopology((3, 3)),
        MeshTopology((2, 5)),
        MeshTopology((4, 3, 2)),
        TorusTopology((2, 2)),
        TorusTopology((4, 4)),
        TorusTopology((5, 3)),
        TorusTopology((3, 4, 5)),
    ):
        n = topology.num_nodes
        total = sum(topology.distance(a, b) for a in range(n) for b in range(n))
        assert topology.average_distance() == total / (n * (n - 1)), topology


def test_average_distance_is_computed_once_per_topology(monkeypatch):
    """A topology never changes, and every run() lap asks for the
    zero-load latency, so the pair sum runs once per instance."""
    topology = MeshTopology((4, 4))
    first = topology.average_distance()
    calls = []
    monkeypatch.setattr(topology, "distance", lambda a, b: calls.append((a, b)) or 0)
    assert topology.average_distance() == first
    assert calls == []
    assert MeshTopology((4, 4)).average_distance() == first


def test_bisection_and_saturation_rate():
    mesh = MeshTopology((16, 16))
    assert mesh.bisection_channels() == 32
    assert mesh.saturation_flit_rate() == pytest.approx(0.25)
    rectangular = MeshTopology((8, 4))
    # The binding cut is across the longer (8-wide) dimension.
    assert rectangular.bisection_channels() == 2 * 4
    assert rectangular.saturation_flit_rate() == pytest.approx(0.5)


def test_three_dimensional_mesh():
    mesh = MeshTopology((3, 3, 3))
    assert mesh.num_nodes == 27
    assert mesh.radix == 7
    center = mesh.node_id((1, 1, 1))
    corner = mesh.node_id((2, 2, 2))
    assert mesh.distance(center, corner) == 3
    assert len(mesh.minimal_ports(center, corner)) == 3
