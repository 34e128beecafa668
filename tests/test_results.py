"""Tests for result records and report formatting."""

from repro.core.config import SimulationConfig
from repro.core.results import (
    SimulationResult,
    format_rows,
    format_value,
    render_campaign_header,
)
from repro.stats.latency import LatencySummary


def make_summary(latency=55.0, saturated=False):
    return LatencySummary(
        created=100,
        delivered=100,
        measured=90,
        avg_total_latency=latency,
        avg_network_latency=latency - 3,
        std_total_latency=4.0,
        max_total_latency=latency * 2,
        avg_hops=6.0,
        throughput=0.12,
        cycles=5000,
        completion_ratio=1.0,
        saturated=saturated,
    )


def make_result(latency=55.0, saturated=False):
    return SimulationResult(
        config=SimulationConfig.tiny(),
        summary=make_summary(latency, saturated),
        zero_load_latency=30.0,
        cycles=5000,
    )


def test_result_shorthands():
    result = make_result()
    assert result.latency == 55.0
    assert not result.saturated
    assert result.latency_label() == "55.0"


def test_saturated_result_prints_sat_label():
    result = make_result(saturated=True)
    assert result.saturated
    assert result.latency_label() == "Sat."


def test_result_as_dict_contains_config_highlights():
    data = make_result().as_dict()
    assert data["traffic"] == "uniform"
    assert data["latency"] == 55.0
    assert "pipeline" in data and "selector" in data


def test_format_value_handles_types():
    assert format_value(True) == "yes"
    assert format_value(False) == "no"
    assert format_value(3.14159, precision=2) == "3.14"
    assert format_value("text") == "text"


def test_format_rows_alignment_and_content():
    rows = [
        {"traffic": "uniform", "load": 0.1, "latency": 69.2},
        {"traffic": "transpose", "load": 0.2, "latency": 87.6},
    ]
    text = format_rows(rows)
    lines = text.splitlines()
    assert lines[0].startswith("traffic")
    assert "uniform" in lines[2]
    assert "87.6" in lines[3]
    # Header, separator and one line per row.
    assert len(lines) == 4


def test_format_rows_respects_column_selection():
    rows = [{"a": 1, "b": 2}]
    text = format_rows(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


def test_format_rows_empty():
    assert format_rows([]) == "(no rows)"


def test_result_to_dict_round_trip():
    result = make_result()
    data = result.to_dict()
    assert set(data) == {
        "config",
        "summary",
        "zero_load_latency",
        "cycles",
        "effective_message_rate",
        "drain",
        "replicates",
    }
    assert SimulationResult.from_dict(data) == result


def test_result_json_round_trip_is_bit_identical():
    result = make_result(latency=61.25, saturated=True)
    loaded = SimulationResult.from_json(result.to_json())
    assert loaded == result
    assert loaded.config == result.config
    assert loaded.summary == result.summary
    assert loaded.to_json() == result.to_json()


def test_result_to_dict_is_json_compatible():
    import json

    text = json.dumps(make_result().to_dict(), sort_keys=True)
    assert '"mesh_dims": [4, 4]' in text


def test_summary_from_dict_ignores_unknown_keys():
    from repro.stats.latency import LatencySummary

    data = make_summary().as_dict()
    data["future_field"] = 123
    assert LatencySummary.from_dict(data) == make_summary()


def test_campaign_header_names_every_extent_and_the_topology():
    def base(config):
        return render_campaign_header(config).splitlines()[2].split(",")[0]

    assert base(SimulationConfig()) == "Base configuration: 8x8 mesh"
    torus = SimulationConfig(topology="torus", mesh_dims=(3, 3, 3))
    assert base(torus) == "Base configuration: 3x3x3 torus"
    assert base(SimulationConfig(mesh_dims=(8,))) == "Base configuration: 8 mesh"
