"""Tests for the component registries and plugin machinery."""

import functools
import random

import pytest

from repro import registry
from repro.registry import REGISTRIES, Registry, register
from repro.core.config import SimulationConfig
from repro.core.simulator import build_table, build_topology
from repro.engine.rng import SimulationRNG
from repro.router.pipeline import PipelineTiming
from repro.scenario.spec import Study
from repro.workload import WorkloadDag, example_trace_path
from repro.selection.base import PathSelector
from repro.traffic.patterns import TrafficPattern, make_pattern
from repro.network.topology import MeshTopology


# -- generic Registry behaviour ------------------------------------------------------


def test_register_and_get_round_trip():
    reg = Registry("widget")
    sentinel = object()
    reg.register("thing", obj=sentinel)
    assert reg.get("thing") is sentinel
    assert "thing" in reg
    assert reg.names() == ("thing",)
    assert len(reg) == 1


def test_get_unknown_name_lists_sorted_alternatives():
    reg = Registry("widget")
    reg.register("zeta", obj=object())
    reg.register("alpha", obj=object())
    with pytest.raises(ValueError) as excinfo:
        reg.get("nope")
    message = str(excinfo.value)
    assert "unknown widget 'nope'" in message
    assert "alpha, zeta" in message


def test_decorator_uses_the_name_attribute():
    reg = Registry("widget")

    @reg.register()
    class Gadget:
        name = "gadget"

    assert reg.get("gadget") is Gadget


def test_duplicate_registration_rejected_unless_replace():
    reg = Registry("widget")
    first, second = object(), object()
    reg.register("thing", obj=first)
    # Re-registering the identical object is a no-op (idempotent imports).
    reg.register("thing", obj=first)
    with pytest.raises(ValueError) as excinfo:
        reg.register("thing", obj=second)
    assert "already registered" in str(excinfo.value)
    reg.register("thing", obj=second, replace=True)
    assert reg.get("thing") is second


def test_registration_without_any_name_fails():
    reg = Registry("widget")
    with pytest.raises(ValueError):
        reg.register(obj=object())


def test_describe_reports_provenance_and_summary():
    reg = Registry("widget")

    @reg.register("doc")
    def factory():
        """Builds the documented widget."""

    rows = reg.describe()
    assert rows == [
        {
            "name": "doc",
            "provenance": f"{__name__}:test_describe_reports_provenance_and_summary.<locals>.factory",
            "summary": "Builds the documented widget.",
        }
    ]


def test_unregister_removes_an_entry():
    reg = Registry("widget")
    reg.register("thing", obj=object())
    reg.unregister("thing")
    assert "thing" not in reg
    reg.unregister("thing")  # idempotent


# -- the global registries -----------------------------------------------------------


def test_builtin_registries_are_populated_lazily():
    assert "uniform" in registry.TRAFFIC_PATTERNS
    assert "duato" in registry.ROUTING_ALGORITHMS
    assert "economical" in registry.ROUTING_TABLES
    assert "lru" in registry.SELECTORS
    assert "la-proud" in registry.PIPELINES
    assert "exponential" in registry.INJECTIONS
    assert {"mesh", "torus"} <= set(registry.TOPOLOGIES.names())


def test_register_helper_rejects_unknown_kind():
    with pytest.raises(ValueError) as excinfo:
        register("flux-capacitor", "x")
    assert "unknown registry kind" in str(excinfo.value)


def test_describe_registries_covers_every_kind():
    snapshot = registry.describe_registries()
    assert set(snapshot) == set(REGISTRIES)
    assert any(entry["name"] == "uniform" for entry in snapshot["traffic"])


def test_component_provenance_is_stable_and_complete():
    config = SimulationConfig.tiny()
    provenance = registry.config_component_provenance(config)
    # core_mode is a closed two-value field, keyed by its value alone.
    assert set(provenance) == {
        "traffic", "routing", "table", "selector", "pipeline", "injection",
        "topology",
    }
    assert provenance["traffic"] == "repro.traffic.patterns:UniformPattern"
    assert provenance == registry.config_component_provenance(config)


def test_component_provenance_includes_workloads_and_skips_none():
    # Closed-loop configs gain a workload entry; open-loop configs omit
    # the None-valued field from the key surface entirely.
    open_loop = registry.config_component_provenance(SimulationConfig.tiny())
    assert "workload" not in open_loop
    closed = registry.config_component_provenance(
        SimulationConfig.tiny(workload="allreduce")
    )
    assert closed["workload"] == "repro.workload.builtin:ring_allreduce_workload"


# -- every registered entry constructs -----------------------------------------------


@functools.lru_cache(maxsize=None)
def _probe_networks():
    """A 4x4 mesh and a 4x4 torus, each with its configuration and table."""
    mesh = SimulationConfig(mesh_dims=(4, 4))
    torus = SimulationConfig(mesh_dims=(4, 4), topology="torus")
    networks = []
    for config in (mesh, torus):
        topology = build_topology(config)
        networks.append((config, topology, build_table(config, topology)))
    return tuple(networks)


def _probe_entry(kind, name, factory):
    """Build ``factory`` through its kind's signature (the factory table in
    the :mod:`repro.registry` docstring) on a 4x4 mesh; raises on failure."""
    (config, topology, table), torus = _probe_networks()
    if kind == "topology":
        factory(config)
    elif kind == "table":
        factory(topology, config)
    elif kind == "routing":
        factory(topology, table, config)
        # Every routing entry either accepts a torus (dateline
        # discipline) or refuses it with a pointed ValueError.
        torus_config, torus_topology, torus_table = torus
        try:
            factory(torus_topology, torus_table, torus_config)
        except ValueError:
            pass
    elif kind == "selector":
        factory(SimulationRNG(seed=0).stream("registry-probe"))
    elif kind == "traffic":
        factory(topology)
    elif kind == "injection":
        factory(config, 0.01)
    elif kind == "pipeline":
        assert isinstance(factory, PipelineTiming), type(factory).__name__
    elif kind in ("reporter", "analytic"):
        assert callable(factory), factory
    elif kind == "study":
        study = factory()
        assert isinstance(study, Study), type(study).__name__
    elif kind == "workload":
        workload_config = config.variant(
            workload=name, workload_trace=str(example_trace_path())
        )
        dag = factory(workload_config, topology)
        assert isinstance(dag, WorkloadDag), type(dag).__name__
    else:
        pytest.fail(f"no constructibility probe for registry kind {kind!r}")


@pytest.mark.parametrize(
    "entry",
    [f"{kind}/{name}" for kind in sorted(REGISTRIES) for name in REGISTRIES[kind].names()],
)
def test_every_registry_entry_constructs(entry):
    # A study naming an unconstructible component would otherwise fail
    # only deep inside network assembly, possibly mid-campaign.
    kind, name = entry.split("/", 1)
    _probe_entry(kind, name, REGISTRIES[kind].get(name))


def _raising_factory(*args):
    raise RuntimeError("deliberately unconstructible")


@pytest.mark.parametrize(
    "kind, factory, error",
    [
        ("selector", _raising_factory, RuntimeError),
        ("workload", _raising_factory, RuntimeError),
        ("workload", lambda config, topology: {"not": "a dag"}, AssertionError),
    ],
    ids=["raising-selector", "raising-workload", "workload-returning-a-dict"],
)
def test_registry_probe_rejects_broken_entries(kind, factory, error):
    with pytest.raises(error):
        _probe_entry(kind, "trace", factory)


# -- plugging in user components -----------------------------------------------------


class _EchoPattern(TrafficPattern):
    """Every node sends to node 0 (test pattern)."""

    name = "echo-zero"

    def destination(self, source, rng):
        return None if source == 0 else 0


@pytest.fixture
def echo_pattern_registered():
    register("traffic", obj=_EchoPattern)
    yield
    registry.TRAFFIC_PATTERNS.unregister("echo-zero")


def test_user_pattern_builds_through_make_pattern(echo_pattern_registered):
    pattern = make_pattern("echo-zero", MeshTopology((2, 2)))
    assert isinstance(pattern, _EchoPattern)
    assert pattern.destination(3, random.Random(0)) == 0
    assert "echo-zero" in registry.TRAFFIC_PATTERNS.names()


def test_user_pattern_passes_config_validation(echo_pattern_registered):
    config = SimulationConfig.tiny(traffic="echo-zero")
    assert config.traffic == "echo-zero"


def test_user_selector_plugs_into_the_simulator(echo_pattern_registered):
    @register("selector", "always-first")
    class AlwaysFirst(PathSelector):
        name = "always-first"

        def select(self, candidates):
            return candidates[0].port

    try:
        from repro.core.simulator import NetworkSimulator

        config = SimulationConfig.tiny(
            selector="always-first", measure_messages=30, warmup_messages=5
        )
        result = NetworkSimulator(config).run()
        assert result.summary.delivered > 0
    finally:
        registry.SELECTORS.unregister("always-first")


def test_load_plugin_imports_dotted_modules():
    module = registry.load_plugin("json")
    import json

    assert module is json


def test_editing_a_file_plugin_changes_its_provenance(tmp_path):
    plugin = tmp_path / "editable.py"
    body = (
        "from repro.registry import register\n"
        "from repro.traffic.patterns import TrafficPattern\n"
        "@register('traffic', 'editable-pattern', replace=True)\n"
        "class EditablePattern(TrafficPattern):\n"
        "    name = 'editable-pattern'\n"
        "    def destination(self, source, rng):\n"
        "        return None\n"
    )
    try:
        plugin.write_text(body, encoding="utf-8")
        registry.load_plugin(str(plugin))
        before = registry.TRAFFIC_PATTERNS.provenance("editable-pattern")
        # Edit the implementation: the content digest in the module name --
        # and therefore the provenance feeding the cache key -- must change.
        plugin.write_text(body + "\n# changed implementation\n", encoding="utf-8")
        registry.load_plugin(str(plugin))
        after = registry.TRAFFIC_PATTERNS.provenance("editable-pattern")
        assert before != after
    finally:
        registry.TRAFFIC_PATTERNS.unregister("editable-pattern")
        import sys as sys_module

        for name in [n for n in sys_module.modules if n.startswith("repro_plugin_editable")]:
            sys_module.modules.pop(name, None)
