"""Eager registry validation of SimulationConfig string fields."""

import pytest

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator


@pytest.mark.parametrize(
    "field, expected_alternative",
    [
        ("traffic", "uniform"),
        ("routing", "duato"),
        ("table", "economical"),
        ("selector", "static-xy"),
        ("pipeline", "la-proud"),
        ("injection", "exponential"),
    ],
)
def test_unknown_component_names_fail_at_construction(field, expected_alternative):
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig(**{field: "definitely-not-registered"})
    message = str(excinfo.value)
    # The error names the offending field, the bad value and the sorted
    # registered alternatives.
    assert f"SimulationConfig.{field}" in message
    assert "definitely-not-registered" in message
    assert expected_alternative in message


def test_variant_with_unknown_name_fails_eagerly():
    config = SimulationConfig.tiny()
    with pytest.raises(ValueError):
        config.variant(table="gigantic")


def test_from_dict_with_unknown_name_fails_eagerly():
    data = SimulationConfig.tiny().to_dict()
    data["routing"] = "chaotic"
    with pytest.raises(ValueError):
        SimulationConfig.from_dict(data)


def test_validate_is_idempotent_on_a_good_config():
    config = SimulationConfig.tiny()
    config.validate()
    config.validate()


def test_alternatives_are_sorted():
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig(selector="nope")
    message = str(excinfo.value)
    listed = message.split("registered alternatives: ")[1].split(", ")
    assert listed == sorted(listed)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("vcs_per_port", 0, "vcs_per_port must be at least 1, got 0"),
        ("buffer_depth", 0, "buffer_depth must be at least 1, got 0"),
        ("link_delay", 0, "link_delay must be at least 1, got 0"),
        ("credit_delay", 0, "credit_delay must be at least 1, got 0"),
        ("max_cycles", -1, "max_cycles must be non-negative, got -1"),
        ("drain_factor", 0.0, "drain_factor must be positive, got 0.0"),
        ("drain_factor", -1.0, "drain_factor must be positive, got -1.0"),
        ("mesh_dims", (), "mesh_dims must have at least one dimension, got ()"),
        (
            "mesh_dims", (1, 4),
            "mesh_dims must have at least 2 nodes in every dimension, got (1, 4)",
        ),
        ("message_length", 0, "message_length must be at least 1 flit, got 0"),
        ("normalized_load", -1.0, "normalized_load must be non-negative, got -1.0"),
        ("replications", 0, "replications must be at least 1, got 0"),
        ("seed_stride", 0, "seed_stride must be at least 1, got 0"),
        ("workload_iters", 0, "workload_iters must be at least 1, got 0"),
        ("workload_window", 0, "workload_window must be at least 1, got 0"),
        ("workload_layers", 0, "workload_layers must be at least 1, got 0"),
        ("workload_hidden", 0, "workload_hidden must be at least 1 flit, got 0"),
        (
            "workload_group", -1,
            "workload_group must be non-negative (0 = all nodes), got -1",
        ),
        ("workload_compute", -1, "workload_compute must be non-negative, got -1"),
    ],
)
def test_out_of_range_numbers_fail_at_construction(field, value, message):
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig.tiny(**{field: value})
    assert str(excinfo.value) == message


def test_an_unset_cycle_budget_stays_allowed():
    assert SimulationConfig.tiny(max_cycles=None).max_cycles is None
    assert SimulationConfig.tiny(max_cycles=0).max_cycles == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"vcs_per_port": 1},
            "SimulationConfig.vcs_per_port: routing='duato' needs the 1 escape "
            "VC(s) plus at least one adaptive VC per port; got vcs_per_port=1",
        ),
    ],
)
def test_duato_virtual_channel_counts_fail_at_construction_on_a_mesh(overrides, message):
    """The routing factory's VC check runs on meshes too, not only on
    wrapping topologies, so network assembly never meets these."""
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig.tiny(routing="duato", **overrides)
    assert str(excinfo.value) == message


def test_the_smallest_duato_and_single_vc_mesh_configs_stay_allowed():
    assert SimulationConfig.tiny(routing="duato", vcs_per_port=2).vcs_per_port == 2
    for routing in ("dimension-order", "north-last"):
        assert SimulationConfig.tiny(routing=routing, vcs_per_port=1).vcs_per_port == 1


#: The fewest VCs per port each built-in algorithm accepts on a mesh and
#: on a torus (None: never on that topology).
_MIN_VCS = {
    "duato": (2, 3),
    "dimension-order": (1, 2),
    "north-last": (1, None),
    "west-first": (1, None),
    "negative-first": (1, None),
}


@pytest.mark.parametrize("core_mode", ["flat", "objects"])
@pytest.mark.parametrize("topology", ["mesh", "torus"])
@pytest.mark.parametrize("routing", sorted(_MIN_VCS))
def test_config_and_build_apply_one_vc_rule(routing, topology, core_mode, monkeypatch):
    """SimulationConfig constructs exactly when NetworkSimulator builds:
    with the factory's config-time check switched off, the core refuses
    the same ``vcs_per_port`` values with the same message."""
    fields = dict(routing=routing, topology=topology, core_mode=core_mode)
    refused = {}
    for vcs in range(1, 5):
        try:
            SimulationConfig.tiny(vcs_per_port=vcs, **fields)
        except ValueError as error:
            refused[vcs] = str(error)
    least = _MIN_VCS[routing][topology == "torus"]
    assert sorted(refused) == [vcs for vcs in range(1, 5) if least is None or vcs < least]

    monkeypatch.delattr(registry.ROUTING_ALGORITHMS.get(routing), "validate_config")
    for vcs in range(1, 5):
        config = SimulationConfig.tiny(vcs_per_port=vcs, **fields)
        if vcs in refused:
            with pytest.raises(ValueError) as excinfo:
                NetworkSimulator(config)
            assert str(excinfo.value) == refused[vcs]
        else:
            NetworkSimulator(config)
