"""Tests for the routing algorithms (dimension-order, Duato, turn model)."""

import pytest

from repro.core.config import SimulationConfig
from repro.network.topology import LOCAL_PORT, MeshTopology, TorusTopology, port_for
from repro.routing.base import RouteDecision, VirtualChannelClasses
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.duato import DuatoFullyAdaptiveRouting
from repro.routing.turn_model import TurnModelRouting
from repro.tables.economical import EconomicalStorageTable
from repro.tables.full_table import FullRoutingTable

EAST = port_for(0, True)
NORTH = port_for(1, True)


@pytest.fixture
def mesh():
    return MeshTopology((4, 4))


def test_route_decision_all_ports_deduplicates():
    decision = RouteDecision(adaptive_ports=(1, 3), escape_port=1)
    assert decision.all_ports == (1, 3)
    decision = RouteDecision(adaptive_ports=(3,), escape_port=1)
    assert decision.all_ports == (3, 1)


def test_vc_classes_reject_overlap():
    with pytest.raises(ValueError):
        VirtualChannelClasses(adaptive_vcs=(0, 1), escape_vcs=(1,))


def test_dimension_order_decision_and_classes(mesh):
    algorithm = DimensionOrderRouting(mesh)
    origin = mesh.node_id((1, 1))
    decision = algorithm.decide(origin, mesh.node_id((3, 3)))
    assert decision.adaptive_ports == (EAST,)
    assert decision.escape_port == EAST
    classes = algorithm.vc_classes(4)
    assert classes.adaptive_vcs == (0, 1, 2, 3)
    assert classes.escape_vcs == ()


def test_dimension_order_on_torus_uses_dateline_classes():
    torus = TorusTopology((4, 4))
    algorithm = DimensionOrderRouting(torus)
    with pytest.raises(ValueError, match="got vcs_per_port=1"):
        algorithm.vc_classes(1)  # one VC cannot hold two dateline classes
    classes = algorithm.vc_classes(4)
    assert classes.adaptive_vcs == ()
    assert classes.escape_vcs == (0, 1, 2, 3)
    assert classes.escape_classes == ((0, 1), (2, 3))
    # Decisions must flow entirely through the class-aware escape branch.
    origin = torus.node_id((0, 0))
    decision = algorithm.decide(origin, torus.node_id((3, 0)))
    assert decision.adaptive_ports == ()
    assert decision.escape_port != LOCAL_PORT


def test_duato_classes_reserve_escape_channels(mesh):
    table = EconomicalStorageTable(mesh)
    algorithm = DuatoFullyAdaptiveRouting(mesh, table)
    classes = algorithm.vc_classes(4)
    assert classes.escape_vcs == (0,)
    assert classes.adaptive_vcs == (1, 2, 3)
    assert algorithm.vc_classes(2).adaptive_vcs == (1,)


def test_duato_requires_enough_vcs(mesh):
    table = EconomicalStorageTable(mesh)
    algorithm = DuatoFullyAdaptiveRouting(mesh, table)
    with pytest.raises(ValueError):
        algorithm.vc_classes(1)


def test_duato_decision_combines_table_and_escape(mesh):
    table = EconomicalStorageTable(mesh)
    algorithm = DuatoFullyAdaptiveRouting(mesh, table)
    origin = mesh.node_id((1, 1))
    decision = algorithm.decide(origin, mesh.node_id((3, 3)))
    assert set(decision.adaptive_ports) == {EAST, NORTH}
    assert decision.escape_port == EAST  # dimension-order goes X first
    local = algorithm.decide(origin, origin)
    assert local.adaptive_ports == (LOCAL_PORT,)
    assert local.escape_port == LOCAL_PORT


def test_duato_with_full_table_matches_economical(mesh):
    economical = DuatoFullyAdaptiveRouting(mesh, EconomicalStorageTable(mesh))
    full = DuatoFullyAdaptiveRouting(mesh, FullRoutingTable(mesh))
    for source in range(mesh.num_nodes):
        for destination in range(mesh.num_nodes):
            a = economical.decide(source, destination)
            b = full.decide(source, destination)
            assert set(a.adaptive_ports) == set(b.adaptive_ports)
            assert a.escape_port == b.escape_port


def test_duato_torus_needs_two_escape_vcs(mesh):
    """The escape VCs follow from the topology: one on a mesh, one per
    dateline class on a torus, each with at least one adaptive VC."""
    torus = TorusTopology((4, 4))
    on_torus = DuatoFullyAdaptiveRouting(torus, EconomicalStorageTable(torus))
    on_mesh = DuatoFullyAdaptiveRouting(mesh, EconomicalStorageTable(mesh))
    for vcs in (3, 4):
        classes = on_torus.vc_classes(vcs)
        assert classes.escape_vcs == (0, 1)
        assert classes.adaptive_vcs == tuple(range(2, vcs))
        assert classes.escape_classes == ((0,), (1,))
    for vcs in (2, 3, 4):
        classes = on_mesh.vc_classes(vcs)
        assert classes.escape_vcs == (0,)
        assert classes.adaptive_vcs == tuple(range(1, vcs))
        # On a mesh the discipline is off: no dateline classes are declared.
        assert classes.escape_classes is None
    # Two escape VCs leave a 2-VC torus port no adaptive VC.
    with pytest.raises(ValueError, match="needs the 2 escape VC"):
        on_torus.vc_classes(2)
    with pytest.raises(ValueError, match="needs the 1 escape VC"):
        on_mesh.vc_classes(1)


def test_turn_model_routing_decisions(mesh):
    algorithm = TurnModelRouting(mesh, model="north-last")
    origin = mesh.node_id((1, 1))
    decision = algorithm.decide(origin, mesh.node_id((3, 3)))
    assert decision.adaptive_ports == (EAST,)
    assert decision.escape_port == EAST
    assert algorithm.vc_classes(1).adaptive_vcs == (0,)
    classes = algorithm.vc_classes(2)
    assert classes.escape_vcs == ()


def test_turn_model_with_programmed_table(mesh):
    from repro.routing.providers import north_last_provider

    # Fig. 7: the North-Last relation fits the economical-storage table,
    # entry for entry.
    table = EconomicalStorageTable(mesh, provider=north_last_provider(mesh))
    direct = TurnModelRouting(mesh, model="north-last")
    for source in range(mesh.num_nodes):
        for destination in range(mesh.num_nodes):
            assert set(direct.decide(source, destination).adaptive_ports) == set(
                table.lookup(source, destination)
            )


def test_turn_model_rejects_unknown_model(mesh):
    with pytest.raises(ValueError):
        TurnModelRouting(mesh, model="east-last")


# -- decision memos and the C sign-class table ---------------------------------------


def _flat_run(monkeypatch, routing_cls, config):
    """Run ``config`` on the flat core from an empty share, counting the
    raw ``decide`` calls of ``routing_cls`` (patched on the class: the
    flat core binds ``decide`` when it is built)."""
    from repro.core import simulator as simulator_module
    from repro.core.simulator import NetworkSimulator

    simulator_module._clear_builds()
    calls = []
    decide = routing_cls.decide

    def counted(self, current, destination):
        calls.append((current, destination))
        return decide(self, current, destination)

    monkeypatch.setattr(routing_cls, "decide", counted)
    simulator = NetworkSimulator(config)
    simulator.run()
    simulator_module._clear_builds()
    return simulator, calls


def test_sign_class_memo_bounds_raw_decides_on_a_16x16_run(monkeypatch):
    """Duato over the economical table decides once per (node, sign
    pattern): the flat core fills its [node][sign class] table with at
    most N * 3^n raw decide calls however many (node, destination) pairs
    the traffic touches, and leaves the Python pair memo empty.  The
    table is shared by later simulators of the process, so the run starts
    from an empty share."""
    config = SimulationConfig(
        mesh_dims=(16, 16), traffic="uniform", normalized_load=0.3,
        message_length=4, warmup_messages=0, measure_messages=1500, seed=5,
    )
    simulator, calls = _flat_run(monkeypatch, DuatoFullyAdaptiveRouting, config)
    routing = simulator._routing
    assert routing.decides_by_signs
    core = simulator.core
    state = core.state()
    assert 0 < len(calls) == state["decision_fills"] == state["decision_entries"] <= 256 * 9
    assert len(calls) < sum(core.headers_routed)  # decisions shared across pairs
    assert len(set(calls)) == len(calls)
    assert routing.decision_cache() == {}


def test_sign_class_memo_decisions_equal_raw_decides(mesh):
    table = EconomicalStorageTable(mesh)
    routing = DuatoFullyAdaptiveRouting(mesh, table)
    for current in range(mesh.num_nodes):
        for destination in range(mesh.num_nodes):
            assert routing.decide_cached(current, destination) == routing.decide(
                current, destination
            )
    # One memo per algorithm instance, shared by every router that asks.
    memo = routing.decision_cache()
    assert memo is routing.decision_cache()
    assert len(memo) == mesh.num_nodes ** 2


def test_dimension_order_declares_sign_class_decisions(monkeypatch):
    """A dimension-order flat run fills the C [node][sign class] table
    with at most N * 3^n raw decides and leaves the pair memo empty."""
    config = SimulationConfig.tiny(routing="dimension-order", seed=3)
    simulator, calls = _flat_run(monkeypatch, DimensionOrderRouting, config)
    routing = simulator._routing
    assert routing.decides_by_signs
    state = simulator.core.state()
    assert 0 < len(calls) == state["decision_fills"] == state["decision_entries"] <= 16 * 9
    assert routing.decision_cache() == {}


def test_non_declaring_algorithms_get_no_sign_class_memo(monkeypatch):
    """The full table and north-last leave the C table empty: the flat
    core asks ``decide_cached`` on every lookup, which decides once per
    ``(current, destination)`` pair."""
    for routing_cls, overrides in (
        (DuatoFullyAdaptiveRouting, {"table": "full"}),
        (TurnModelRouting, {"routing": "north-last"}),
    ):
        config = SimulationConfig.tiny(seed=3, **overrides)
        simulator, calls = _flat_run(monkeypatch, routing_cls, config)
        routing = simulator._routing
        assert not routing.decides_by_signs
        state = simulator.core.state()
        assert state["decision_entries"] == state["decision_lookups"] == 0
        assert 0 < len(calls) == len(set(calls)) == len(routing.decision_cache())
