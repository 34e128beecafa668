"""Tests for the torus topologies (wraparound links, datelines, 3-D)."""

import pytest

from repro.network.topology import LOCAL_PORT, TorusTopology, port_for


def test_wrap_flag(torus4x4):
    assert torus4x4.wraps is True


def test_every_port_connected(torus4x4):
    for node in range(torus4x4.num_nodes):
        for port in range(1, torus4x4.radix):
            assert torus4x4.neighbor(node, port) is not None


def test_wraparound_neighbor(torus4x4):
    east_edge = torus4x4.node_id((3, 1))
    assert torus4x4.neighbor(east_edge, port_for(0, True)) == torus4x4.node_id((0, 1))
    south_edge = torus4x4.node_id((2, 0))
    assert torus4x4.neighbor(south_edge, port_for(1, False)) == torus4x4.node_id((2, 3))


def test_distance_uses_shorter_way_around(torus4x4):
    a = torus4x4.node_id((0, 0))
    b = torus4x4.node_id((3, 0))
    # Going -X wraps around in one hop instead of three.
    assert torus4x4.distance(a, b) == 1
    c = torus4x4.node_id((2, 2))
    assert torus4x4.distance(a, c) == 4


def test_relative_signs_follow_minimal_direction(torus4x4):
    a = torus4x4.node_id((0, 0))
    b = torus4x4.node_id((3, 0))
    assert torus4x4.relative_signs(a, b) == (-1, 0)
    # Exactly half way: ties break toward the positive direction.
    c = torus4x4.node_id((2, 0))
    assert torus4x4.relative_signs(a, c) == (1, 0)


def test_torus_has_twice_the_bisection_of_a_mesh():
    torus = TorusTopology((8, 8))
    assert torus.bisection_channels() == 32
    assert torus.saturation_flit_rate() == pytest.approx(1.0)


def test_link_count(torus4x4):
    # Every node has 4 outgoing network links on a 2-D torus.
    assert len(list(torus4x4.links())) == 4 * torus4x4.num_nodes


def test_dateline_bits_mark_exactly_the_wrap_links(torus4x4):
    # The dateline of dimension d sits on the wrap link: leaving the
    # last coordinate in +d or the zeroth in -d sets bit d; every other
    # hop (and the ejection port) leaves the mask alone.
    for node in range(torus4x4.num_nodes):
        assert torus4x4.dateline_bits(node, LOCAL_PORT) == 0
        x, y = torus4x4.coordinates(node)
        assert torus4x4.dateline_bits(node, port_for(0, True)) == (
            1 if x == 3 else 0
        )
        assert torus4x4.dateline_bits(node, port_for(0, False)) == (
            1 if x == 0 else 0
        )
        assert torus4x4.dateline_bits(node, port_for(1, True)) == (
            2 if y == 3 else 0
        )
        assert torus4x4.dateline_bits(node, port_for(1, False)) == (
            2 if y == 0 else 0
        )


def test_each_ring_has_one_dateline_per_direction(torus4x4):
    # Exactly one link of every unidirectional ring is a dateline --
    # one class switch per wrap traversal, never two.
    for dimension in (0, 1):
        for positive in (True, False):
            port = port_for(dimension, positive)
            marked = sum(
                1
                for node in range(torus4x4.num_nodes)
                if torus4x4.dateline_bits(node, port)
            )
            # 4 rings of 4 nodes in each dimension of a 4x4 torus.
            assert marked == 4


def test_torus3d_geometry_matches_generic_torus():
    # A 3-D torus is the n-dimensional torus at n = 3: the "torus"
    # registry entry builds it from three mesh_dims.
    from repro.core.config import SimulationConfig
    from repro.core.simulator import build_topology

    cube = build_topology(SimulationConfig(mesh_dims=(4, 4, 4), topology="torus"))
    assert type(cube) is TorusTopology
    assert cube.wraps is True
    assert cube.num_nodes == 64
    assert cube.radix == 7  # ejection + 2 ports per dimension
    corner = cube.node_id((3, 3, 3))
    for dimension in range(3):
        up = port_for(dimension, positive=True)
        assert cube.neighbor(corner, up) == cube.node_id(
            tuple(0 if d == dimension else 3 for d in range(3))
        )
        assert cube.dateline_bits(corner, up) == 1 << dimension
        assert cube.dateline_bits(cube.node_id((0, 0, 0)), up) == 0


def test_torus3d_registry_entry():
    # A 3-D torus has no name of its own: "torus3d" fails at
    # construction, listing the registered spellings.
    from repro.core.config import SimulationConfig

    with pytest.raises(ValueError, match="registered alternatives: mesh, torus"):
        SimulationConfig(mesh_dims=(4, 4, 4), topology="torus3d", routing="duato")
