"""Golden digests: every built-in study reproduces its recorded rows.

Each test runs one paper study through ``run_study`` at a reduced tiny
scale and compares the SHA-256 of ``json.dumps(rows)`` with a digest
recorded when the studies were still checked against the original
experiment runners.  Keys are not sorted before hashing, so the digest
pins column order (the Markdown tables print first-row order) as well as
every value.  All simulation-backed tests share one result cache, which
keeps the file fast and lets the last test check that identical
configurations hash to identical cache keys.
"""

import hashlib
import json

import pytest

from repro.core.config import SimulationConfig
from repro.exec.backend import SerialBackend
from repro.exec.cache import ResultCache
from repro.scenario import run_study
from repro.scenario.builtin import (
    campaign_study,
    cost_table_study,
    es_programming_study,
    lookahead_study,
    message_length_study,
    path_selection_study,
    sweep_study,
    table_storage_study,
)

TINY = SimulationConfig.tiny(measure_messages=200, warmup_messages=20)
PATTERNS = ("uniform",)
LOADS = (0.1, 0.25)

#: SHA-256 of ``json.dumps(rows)`` per study, at the arguments used below.
GOLDEN_DIGESTS = {
    "sweep": "4915fbbc6dba488823189c2c3a2031a6cca9dafe4b69ef7222c2812afeb80c18",
    "figure5": "6132607d5b0c039dcbada64087e510c124fb5b20672f790033c9411d0047e883",
    "table3": "7ca85fd14ee9ad64e5c320ecfc6259412d59e2d3b1b841b7fd992ec111a329c9",
    "figure6": "ba6e618888937f876fd1fac799ba16d4646eaddd193859d865f691d6b17ccdfb",
    "table4": "aacf510d0ef6b981b155b293f8a36c89e6267566795226cab75700728931610b",
    "table5": "eee5882a4983436c9bcf70ebd720be4da976d3d69348f6e4a2837b64eb4d96f4",
    "figure7": "42cf2e9e1633c72072e2fedd714731f7bcd5a9c571d23d60d5ef6fb3ccc47d1e",
    # SHA-256 of the suite's Markdown report.
    "campaign": "4e996a5e8e2b78f0583b0157d69ad404728c5a9a581e2c1b4de83dd8ed1cbe59",
}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


def cached_backend(cache_dir) -> SerialBackend:
    return SerialBackend(cache=ResultCache(cache_dir))


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def test_sweep_study_matches_golden_results(cache_dir):
    outcome = run_study(sweep_study(TINY, LOADS), backend=cached_backend(cache_dir))
    assert [p.config.normalized_load for p in outcome.points] == list(LOADS)
    # Every result field except the (already pinned) configuration.
    results = [
        {
            "load": point.config.normalized_load,
            **{k: v for k, v in result.to_dict().items() if k != "config"},
        }
        for point, result in zip(outcome.points, outcome.results)
    ]
    assert digest(results) == GOLDEN_DIGESTS["sweep"]


def test_figure5_study_matches_golden_rows(cache_dir):
    outcome = run_study(
        lookahead_study(TINY, traffic_patterns=PATTERNS, loads=LOADS),
        backend=cached_backend(cache_dir),
    )
    assert digest(outcome.rows) == GOLDEN_DIGESTS["figure5"]


def test_table3_study_matches_golden_rows(cache_dir):
    outcome = run_study(
        message_length_study(
            TINY, message_lengths=(2, 8), traffic="uniform", load=LOADS[0]
        ),
        backend=cached_backend(cache_dir),
    )
    assert digest(outcome.rows) == GOLDEN_DIGESTS["table3"]


def test_figure6_study_matches_golden_rows(cache_dir):
    outcome = run_study(
        path_selection_study(TINY, traffic_patterns=PATTERNS, loads=LOADS[-1:]),
        backend=cached_backend(cache_dir),
    )
    assert digest(outcome.rows) == GOLDEN_DIGESTS["figure6"]


def test_table4_study_matches_golden_rows(cache_dir):
    outcome = run_study(
        table_storage_study(
            TINY, traffic_patterns=PATTERNS, loads=LOADS, include_full_table=True
        ),
        backend=cached_backend(cache_dir),
    )
    assert digest(outcome.rows) == GOLDEN_DIGESTS["table4"]


def test_table5_study_matches_golden_rows():
    outcome = run_study(cost_table_study(num_nodes=16, n_dims=2))
    assert digest(outcome.rows) == GOLDEN_DIGESTS["table5"]


def test_figure7_study_matches_golden_rows():
    outcome = run_study(es_programming_study())
    assert digest(outcome.rows) == GOLDEN_DIGESTS["figure7"]


@pytest.mark.slow
def test_campaign_suite_markdown_matches_golden_report(cache_dir):
    outcome = run_study(
        campaign_study(TINY, loads_low_high=LOADS, traffic_patterns=PATTERNS),
        backend=cached_backend(cache_dir),
    )
    markdown = outcome.to_markdown().encode("utf-8")
    assert hashlib.sha256(markdown).hexdigest() == GOLDEN_DIGESTS["campaign"]


def test_shared_cache_served_both_paths(cache_dir):
    # Every simulation-backed test above ran against the same cache;
    # identical configurations means the second pass was served from
    # disk, which only works when they hash identically.
    backend = cached_backend(cache_dir)
    run_study(sweep_study(TINY, LOADS), backend=backend)
    assert backend.simulations_run == 0
    assert backend.cache.hits == len(LOADS)
