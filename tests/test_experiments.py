"""Tests for the paper's per-table/figure experiments.

Each experiment runs through its builtin Study with a deliberately tiny
configuration so the whole file stays fast.  The semantic assertions check the paper's
qualitative claims (look-ahead helps at low load, ES equals the full
table, the Figure 7 programming) rather than absolute numbers.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.scenario import run_study
from repro.scenario.builtin import (
    ROUTER_VARIANTS,
    cost_table_study,
    es_programming_study,
    lookahead_study,
    message_length_study,
    path_selection_study,
    table_storage_study,
)


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig.tiny(measure_messages=300, warmup_messages=30)


def test_router_variants_cover_the_four_organisations():
    assert set(ROUTER_VARIANTS) == {"no-la-det", "no-la-adapt", "la-det", "la-adapt"}


def test_lookahead_comparison_rows(tiny_config):
    rows = run_study(
        lookahead_study(tiny_config, traffic_patterns=("uniform",), loads=(0.15,))
    ).rows
    assert len(rows) == 1
    row = rows[0]
    assert row["traffic"] == "uniform"
    assert row["la_adapt_latency"] > 0
    # Removing look-ahead must cost latency at low load.
    assert row["no-la-adapt_pct_increase"] > 0
    assert row["no-la-det_pct_increase"] > 0
    # The LA deterministic router is nearly identical to LA adaptive at low
    # load (the paper reports a negligible difference).
    assert abs(row["la-det_pct_increase"]) < 10.0


def test_message_length_study_shows_shrinking_benefit(tiny_config):
    rows = run_study(
        message_length_study(
            tiny_config, message_lengths=(2, 16), traffic="uniform", load=0.15
        )
    ).rows
    assert [row["message_length"] for row in rows] == [2, 16]
    short, long = rows
    assert short["pct_improvement"] > long["pct_improvement"]
    assert short["pct_improvement"] > 0


def test_path_selection_study_rows(tiny_config):
    rows = run_study(
        path_selection_study(
            tiny_config,
            selectors=("static-xy", "max-credit"),
            traffic_patterns=("transpose",),
            loads=(0.3,),
        )
    ).rows
    assert len(rows) == 1
    row = rows[0]
    assert row["static-xy_latency"] > 0
    assert row["max-credit_latency"] > 0


def test_table_storage_study_economical_equals_full(tiny_config):
    rows = run_study(
        table_storage_study(
            tiny_config,
            traffic_patterns=("uniform",),
            loads=(0.2,),
            include_full_table=True,
        )
    ).rows
    row = rows[0]
    assert row["economical_latency"] == pytest.approx(row["full_table_latency"])
    assert row["meta_deterministic_latency"] > 0
    assert row["economical_label"] != ""


def test_cost_table_matches_paper_values():
    table = run_study(cost_table_study(num_nodes=256, n_dims=2)).rows
    rows = {row["scheme"]: row for row in table}
    assert rows["full-table"]["entries_per_router"] == 256
    assert rows["economical-storage"]["entries_per_router"] == 9
    assert rows["interval"]["entries_per_router"] == 5
    table_3d = run_study(cost_table_study(num_nodes=2048, n_dims=3)).rows
    t3d = {row["scheme"]: row for row in table_3d}
    assert t3d["economical-storage"]["entries_per_router"] == 27


def test_es_programming_example_matches_figure7():
    rows = run_study(es_programming_study()).rows
    assert len(rows) == 9
    by_destination = {row["destination"]: row for row in rows}
    # Destination (0,2): candidates -X and +Y, North-Last keeps only -X.
    north_west = by_destination[(0, 2)]
    assert north_west["sign_x"] == "-" and north_west["sign_y"] == "+"
    assert "+Y" in north_west["candidate_ports"]
    assert north_west["north_last_ports"] == "-X"
    # Destination (1,2): straight north keeps its +Y port.
    straight_north = by_destination[(1, 2)]
    assert straight_north["north_last_ports"] == "+Y"
    # The local entry names the local port.
    assert by_destination[(1, 1)]["candidate_ports"] == "local"
