"""Golden regression tests for the campaign suite at ``SimulationConfig.small()``.

These pin the campaign's *shape* -- experiment names, row columns and the
Markdown report structure -- so future refactors cannot silently change
the reproduced tables, and they check the headline execution-layer
guarantee: the campaign run through ``ProcessPoolBackend(workers=4)``
equals the serial run row for row, and a repeated run against a warm
``ResultCache`` performs zero new simulations.

The three campaign runs here dominate the suite's runtime (~21 small-scale
simulations each for the two cold runs); everything else reuses the
module-scoped reports.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.exec.backend import ProcessPoolBackend, SerialBackend
from repro.exec.cache import ResultCache
from repro.scenario import run_study
from repro.scenario.builtin import campaign_study

#: The three module-scoped campaign runs dominate the suite's wall clock,
#: so the whole module lives behind the ``slow`` marker (the full-matrix
#: CI job runs it; tier-1 does not).
pytestmark = pytest.mark.slow

#: Reduced scope (one pattern, one load) keeps the small-scale runs tractable.
CAMPAIGN_KWARGS = {"loads_low_high": (0.15,), "traffic_patterns": ("uniform",)}

#: Golden experiment identifiers, in paper order.
GOLDEN_NAMES = ["figure5", "table3", "figure6", "table4", "table5", "figure7"]

#: Golden section headings of the Markdown report.
GOLDEN_HEADINGS = [
    "### Figure 5 - look-ahead and adaptivity comparison",
    "### Table 3 - look-ahead benefit versus message length",
    "### Figure 6 - path-selection heuristics",
    "### Table 4 - table-storage schemes",
    "### Table 5 - storage cost summary",
    "### Figure 7 - economical-storage table programming (North-Last)",
]

#: Golden row columns per experiment (at the reduced scope above).
GOLDEN_COLUMNS = {
    "figure5": [
        "traffic", "load", "la_adapt_latency", "la_adapt_saturated",
        "no-la-det_latency", "no-la-det_saturated", "no-la-det_pct_increase",
        "no-la-adapt_latency", "no-la-adapt_saturated", "no-la-adapt_pct_increase",
        "la-det_latency", "la-det_saturated", "la-det_pct_increase",
    ],
    "table3": [
        "message_length", "lookahead_latency", "no_lookahead_latency",
        "pct_improvement", "saturated",
    ],
    "figure6": [
        "traffic", "load",
        "static-xy_latency", "static-xy_saturated",
        "min-mux_latency", "min-mux_saturated",
        "lfu_latency", "lfu_saturated",
        "lru_latency", "lru_saturated",
        "max-credit_latency", "max-credit_saturated",
    ],
    "table4": [
        "traffic", "load",
        "meta_adaptive_latency", "meta_adaptive_saturated", "meta_adaptive_label",
        "meta_deterministic_latency", "meta_deterministic_saturated",
        "meta_deterministic_label",
        "economical_latency", "economical_saturated", "economical_label",
        "full_table_latency", "full_table_saturated", "full_table_label",
    ],
    "table5": [
        "scheme", "entries_per_router", "scalability", "adaptivity",
        "topologies", "lookup_time", "commercial_examples",
    ],
    "figure7": [
        "destination", "sign_x", "sign_y", "candidate_ports", "north_last_ports",
    ],
}


def campaign_report(config, backend):
    return run_study(campaign_study(config, **CAMPAIGN_KWARGS), backend=backend)


@pytest.fixture(scope="module")
def small_config():
    return SimulationConfig.small()


@pytest.fixture(scope="module")
def serial_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("campaign-cache-serial")


@pytest.fixture(scope="module")
def serial_report(small_config, serial_cache_dir):
    backend = SerialBackend(cache=ResultCache(serial_cache_dir))
    return campaign_report(small_config, backend)


@pytest.fixture(scope="module")
def parallel_report(small_config, tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("campaign-cache-parallel"))
    with ProcessPoolBackend(workers=4, cache=cache) as backend:
        return campaign_report(small_config, backend)


def test_campaign_experiment_names_are_pinned(serial_report):
    assert [member.study.name for member in serial_report.members] == GOLDEN_NAMES


def test_campaign_row_columns_are_pinned(serial_report):
    for name, columns in GOLDEN_COLUMNS.items():
        rows = serial_report.member(name).rows
        assert rows, name
        assert list(rows[0].keys()) == columns, name


def test_campaign_row_counts_are_pinned(serial_report):
    counts = {
        name: len(serial_report.member(name).rows) for name in GOLDEN_NAMES
    }
    assert counts == {
        "figure5": 1,   # one (pattern, load) cell
        "table3": 4,    # message lengths 5, 10, 20, 50
        "figure6": 1,   # one (pattern, load) cell
        "table4": 1,    # one (pattern, load) cell
        "table5": 4,    # full, meta, interval, economical
        "figure7": 9,   # 3x3 mesh destinations
    }


def test_campaign_markdown_structure_is_pinned(serial_report):
    text = serial_report.to_markdown()
    assert text.startswith("## Reproduction campaign")
    assert "Base configuration: 8x8 mesh, 20-flit messages" in text
    cursor = 0
    for heading in GOLDEN_HEADINGS:
        position = text.find(heading)
        assert position >= cursor, f"missing or out of order: {heading}"
        cursor = position
    # Every experiment section carries a paper claim and a fenced table.
    assert text.count("*Paper claim:*") == len(GOLDEN_NAMES)
    assert text.count("```") == 2 * len(GOLDEN_NAMES)


def test_process_pool_campaign_equals_serial_campaign(serial_report, parallel_report):
    assert [m.study.name for m in parallel_report.members] == GOLDEN_NAMES
    for name in GOLDEN_NAMES:
        assert (
            parallel_report.member(name).rows == serial_report.member(name).rows
        ), name
    assert parallel_report == serial_report
    assert parallel_report.to_markdown() == serial_report.to_markdown()


def test_warm_cache_repeats_the_campaign_with_zero_simulations(
    small_config, serial_report, serial_cache_dir
):
    cache = ResultCache(serial_cache_dir)
    with ProcessPoolBackend(workers=4, cache=cache) as backend:
        warm_report = campaign_report(small_config, backend)
        assert backend.simulations_run == 0
    assert cache.misses == 0
    assert cache.hits > 0
    assert warm_report == serial_report
