"""Eager registry validation of SimulationConfig string fields."""

import pytest

from repro.core.config import SimulationConfig


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
        (
            {"num_escape_vcs": 2, "vcs_per_port": 2},
            "SimulationConfig.vcs_per_port: routing='duato' needs the 2 escape "
            "VC(s) plus at least one adaptive VC per port; got vcs_per_port=2",
        ),
        (
            {"num_escape_vcs": 0},
            "SimulationConfig.num_escape_vcs: routing='duato' needs at least one "
            "escape VC (its deadlock-free dimension-order channel); got "
            "num_escape_vcs=0",
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
