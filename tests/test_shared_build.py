"""One network build per process: simulators of the same network share it.

A routing table is a pure function of the configuration, so simulators
whose built-in topology, table and routing read the same inputs share one
``(topology, table, routing)`` build, and with the routing instance its
decision memos and the flat core's ``[node][sign class]`` table.  These
tests pin that a shared build is reused, that results stay identical to a
run from an empty share and to the object core's, which fields key the
share, that plugins never share a build, and that cores with and without
escape VCs read one table alike.
"""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.core import simulator as simulator_module
from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.exec.backend import SerialBackend
from repro.routing.base import VirtualChannelClasses
from repro.routing.duato import DuatoFullyAdaptiveRouting


@pytest.fixture(autouse=True)
def empty_share():
    """Every case starts, and leaves the process, with no shared build."""
    simulator_module._clear_builds()
    yield
    simulator_module._clear_builds()


def _document(result) -> dict:
    document = json.loads(result.to_json())
    del document["config"]["core_mode"]
    return document


def _count_raw_decides(monkeypatch) -> list:
    """Every raw ``decide`` call of Duato routing from now on (patched on
    the class: a flat core binds ``decide`` when it is built)."""
    calls = []
    decide = DuatoFullyAdaptiveRouting.decide

    def counted(self, current, destination):
        calls.append((current, destination))
        return decide(self, current, destination)

    monkeypatch.setattr(DuatoFullyAdaptiveRouting, "decide", counted)
    return calls


def _build(simulator):
    return simulator.topology, simulator.table, simulator._routing


#: Networks with sign-class decisions: the dateline classes of a 4x4
#: torus and of a 3x3x3 torus.
_NETWORKS = {
    "torus4x4": dict(topology="torus", mesh_dims=(4, 4), vcs_per_port=3),
    "torus3x3x3": dict(topology="torus", mesh_dims=(3, 3, 3), vcs_per_port=3),
}


@pytest.mark.parametrize("network", sorted(_NETWORKS))
def test_a_rebuilt_network_reuses_every_decision_and_routes_alike(monkeypatch, network):
    """A, then B, then A again on one backend: the second A is a new point
    on the same network (only its cycle budget differs, which a finished
    run never reaches), makes no raw decide call, and returns what a run
    from an empty share and the object core return."""
    calls = _count_raw_decides(monkeypatch)
    a = SimulationConfig.tiny(normalized_load=0.3, seed=3, **_NETWORKS[network])
    b = SimulationConfig.tiny(mesh_dims=(3, 3), normalized_load=0.3)
    again = a.variant(drain_factor=a.drain_factor + 1.0)
    backend = SerialBackend()
    first = backend.run_configs([a])[0]
    assert calls
    backend.run_configs([b])
    before = len(calls)
    shared = backend.run_configs([again])[0]
    assert len(calls) == before
    assert backend.simulations_run == 3
    assert _document(shared)["summary"] == _document(first)["summary"]

    simulator_module._clear_builds()
    fresh = NetworkSimulator(again)
    fresh_result = fresh.run()
    state = fresh.core.state()
    assert 0 < state["decision_fills"] == state["decision_entries"] == len(calls) - before
    assert shared.to_json() == fresh_result.to_json()
    objects = NetworkSimulator(again.variant(core_mode="objects")).run()
    assert _document(shared) == _document(objects)


def test_a_later_core_reads_the_shared_table():
    """A second simulator of the same network starts with every entry the
    first one filled, and its own counts say so."""
    config = SimulationConfig.tiny(normalized_load=0.3)
    first = NetworkSimulator(config)
    first.run()
    filled = first.core.state()["decision_entries"]
    second = NetworkSimulator(config.variant(seed=config.seed + 1))
    assert second.core.state()["decision_entries"] == filled > 0
    second.run()
    state = second.core.state()
    assert state["decision_lookups"] > state["decision_fills"]
    assert state["decision_entries"] == filled + state["decision_fills"]


#: Fields no built-in topology, table or routing factory reads.
_RUN_TIME_FIELDS = {
    "seed": 9,
    "normalized_load": 0.4,
    "selector": "max-credit",
    "pipeline": "proud",
    "traffic": "transpose",
    "injection": "bernoulli",
    "message_length": 6,
    "warmup_messages": 5,
    "measure_messages": 50,
    "core_mode": "objects",
}

#: Fields that change the network the built-in factories build.
_BUILD_FIELDS = {
    "topology": dict(topology="torus"),
    "mesh_dims": dict(mesh_dims=(4, 3)),
    "table": dict(table="full"),
    "routing": dict(routing="dimension-order"),
}


def test_configs_differing_only_in_run_time_fields_share_one_build():
    base = SimulationConfig.tiny()
    build = _build(NetworkSimulator(base))
    for field, value in sorted(_RUN_TIME_FIELDS.items()):
        other = _build(NetworkSimulator(base.variant(**{field: value})))
        assert all(mine is theirs for mine, theirs in zip(other, build)), field


@pytest.mark.parametrize("field", sorted(_BUILD_FIELDS))
def test_configs_differing_in_a_build_field_get_their_own_build(field):
    base = SimulationConfig.tiny()
    routing = NetworkSimulator(base)._routing
    other = NetworkSimulator(base.variant(**_BUILD_FIELDS[field]))
    assert other._routing is not routing
    again = NetworkSimulator(base.variant(seed=7, **_BUILD_FIELDS[field]))
    assert all(mine is theirs for mine, theirs in zip(_build(again), _build(other)))


def test_a_plugin_routing_is_never_shared():
    def plugin(topology, table, config):
        return DuatoFullyAdaptiveRouting(topology, table)

    registry.ROUTING_ALGORITHMS.register("shared-build-test-duato", obj=plugin)
    try:
        assert not registry.ROUTING_ALGORITHMS.is_builtin("shared-build-test-duato")
        assert registry.ROUTING_ALGORITHMS.is_builtin("duato")
        config = SimulationConfig.tiny(routing="shared-build-test-duato")
        first, second = NetworkSimulator(config), NetworkSimulator(config)
    finally:
        registry.ROUTING_ALGORITHMS.unregister("shared-build-test-duato")
    assert first._routing is not second._routing
    assert first.topology is not second.topology
    assert first.table is not second.table


class _EscapeFromThreeVcs(DuatoFullyAdaptiveRouting):
    """Duato whose escape VC exists only with three or more VCs."""

    def vc_classes(self, vcs_per_port: int) -> VirtualChannelClasses:
        if vcs_per_port < 3:
            return VirtualChannelClasses(
                adaptive_vcs=tuple(range(vcs_per_port)), escape_vcs=()
            )
        return super().vc_classes(vcs_per_port)


def test_cores_with_and_without_escape_vcs_share_one_table():
    """One routing instance serves a core without escape VCs, then a core
    with them: the entries the first filled carry the escape port, so the
    second reads every one of them without a fill and routes like the
    object core."""
    instances = []

    def plugin(topology, table, config):
        if not instances:
            instances.append(_EscapeFromThreeVcs(topology, table))
        return instances[0]

    registry.ROUTING_ALGORITHMS.register("escape-from-three-vcs", obj=plugin)
    try:
        light = SimulationConfig.tiny(
            routing="escape-from-three-vcs", vcs_per_port=2, normalized_load=0.05,
            measure_messages=300,
        )
        without = NetworkSimulator(light)
        without.run()
        filled = without.core.state()["decision_entries"]
        contended = light.variant(
            vcs_per_port=3, buffer_depth=2, normalized_load=0.6, selector="max-credit",
            seed=11,
        )
        flat = NetworkSimulator(contended)
        assert flat._routing is without._routing
        flat_result = flat.run()
        state = flat.core.state()
        assert state["decision_fills"] == 0 < state["decision_lookups"]
        assert state["decision_entries"] == filled
        objects = NetworkSimulator(contended.variant(core_mode="objects")).run()
    finally:
        registry.ROUTING_ALGORITHMS.unregister("escape-from-three-vcs")
    assert _document(flat_result) == _document(objects)


def test_a_core_refuses_a_shared_entry_out_of_range():
    """Entries another core wrote are checked before a new core reads them."""
    config = SimulationConfig.tiny()
    routing = NetworkSimulator(config)._routing
    table = routing.flat_decision_table(0)
    table[:3] = bytes([1, 1, 0xFF])  # filled, one port, no escape
    table[3] = 200  # ... and that port is past the radix
    with pytest.raises(ValueError, match="decision_table entry out of range"):
        NetworkSimulator(config.variant(seed=2))
