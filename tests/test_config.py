"""Tests for the simulation configuration records."""

import pytest

from repro.core.config import PaperDefaults, SimulationConfig


def test_paper_defaults_match_table2():
    assert PaperDefaults.MESH_DIMS == (16, 16)
    assert PaperDefaults.MESSAGE_LENGTH == 20
    assert PaperDefaults.VCS_PER_PORT == 4
    assert PaperDefaults.BUFFER_PER_CHANNEL == 20
    assert PaperDefaults.LINK_DELAY == 1
    assert PaperDefaults.PROUD_LATENCY == 5
    assert PaperDefaults.LA_PROUD_LATENCY == 4
    assert PaperDefaults.WARMUP_MESSAGES == 10_000
    assert PaperDefaults.MEASURE_MESSAGES == 400_000
    assert set(PaperDefaults.TRAFFIC_PATTERNS) == {
        "uniform",
        "transpose",
        "bit-reversal",
        "shuffle",
    }


def test_paper_config_uses_paper_scale():
    config = SimulationConfig.paper()
    assert config.mesh_dims == (16, 16)
    assert config.num_nodes == 256
    assert config.message_length == 20
    assert config.warmup_messages == 10_000
    assert config.measure_messages == 400_000
    assert config.total_messages == 410_000


def test_small_and_tiny_presets_are_smaller():
    small = SimulationConfig.small()
    tiny = SimulationConfig.tiny()
    assert small.num_nodes < SimulationConfig.paper().num_nodes
    assert tiny.num_nodes < small.num_nodes
    assert tiny.total_messages < small.total_messages


def test_variant_overrides_selected_fields_only():
    base = SimulationConfig.small()
    changed = base.variant(traffic="transpose", normalized_load=0.4)
    assert changed.traffic == "transpose"
    assert changed.normalized_load == 0.4
    assert changed.mesh_dims == base.mesh_dims
    assert base.traffic == "uniform"


def test_constructor_overrides_apply_to_presets():
    config = SimulationConfig.small(selector="lru", pipeline="proud")
    assert config.selector == "lru"
    assert config.pipeline == "proud"


def test_config_is_hashable_and_frozen():
    config = SimulationConfig.tiny()
    with pytest.raises(Exception):
        config.traffic = "transpose"  # type: ignore[misc]
    assert hash(config) == hash(SimulationConfig.tiny())


def test_list_valued_sequence_fields_normalize_to_tuples():
    # JSON-sourced overrides (study specs) arrive as lists; the config
    # must still hash and compare equal to its tuple-built twin.
    config = SimulationConfig(
        mesh_dims=[3, 3, 3], topology="torus", routing="duato", link_delays=[1, 1, 2]
    )
    twin = SimulationConfig(
        mesh_dims=(3, 3, 3), topology="torus", routing="duato", link_delays=(1, 1, 2)
    )
    assert config.mesh_dims == (3, 3, 3)
    assert config.link_delays == (1, 1, 2)
    assert config == twin
    assert hash(config) == hash(twin)


def test_validation_errors():
    with pytest.raises(ValueError):
        SimulationConfig(mesh_dims=())
    with pytest.raises(ValueError):
        SimulationConfig(normalized_load=-0.1)
    with pytest.raises(ValueError):
        SimulationConfig(message_length=0)
    with pytest.raises(ValueError):
        SimulationConfig(measure_messages=0)


def test_config_to_dict_round_trip():
    config = SimulationConfig.small(traffic="transpose", normalized_load=0.35, seed=9)
    data = config.to_dict()
    assert data["mesh_dims"] == [8, 8]
    assert SimulationConfig.from_dict(data) == config


def test_config_from_dict_refuses_unknown_keys_and_defaults_missing_ones():
    rebuilt = SimulationConfig.from_dict({"mesh_dims": [4, 4], "traffic": "transpose"})
    assert rebuilt.mesh_dims == (4, 4)
    assert rebuilt.traffic == "transpose"
    assert rebuilt.seed == SimulationConfig().seed
    with pytest.raises(ValueError, match="'future_field', 'other_field'"):
        SimulationConfig.from_dict(
            {"mesh_dims": [4, 4], "other_field": 1, "future_field": "x"}
        )
    # The retired `torus` flag once selected the torus topology; dropping
    # it silently would rebuild a mesh.
    with pytest.raises(ValueError, match="'torus'"):
        SimulationConfig.from_dict(
            {"mesh_dims": [4, 4], "torus": True, "num_escape_vcs": 2}
        )


def test_the_retired_escape_vc_count_is_an_unknown_key():
    # Duato's escape VCs follow from the topology now; a stored config
    # that still names their count is refused with the unknown-key error.
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig.from_dict({"mesh_dims": [4, 4], "num_escape_vcs": 2})
    assert str(excinfo.value) == (
        "SimulationConfig.from_dict: unknown configuration key(s) 'num_escape_vcs'"
    )


def test_config_to_dict_is_json_stable():
    import json

    first = json.dumps(SimulationConfig.tiny().to_dict(), sort_keys=True)
    second = json.dumps(SimulationConfig.tiny().to_dict(), sort_keys=True)
    assert first == second
