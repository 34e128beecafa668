"""The paper's qualitative claims, checked on an 8x8 mesh.

Each case regenerates one figure or table of the paper (Figures 5-7,
Tables 3-5) or one router-design ablation and asserts the *shape* the
paper reports: look-ahead beating PROUD, the look-ahead gain shrinking
with message length, traffic-sensitive path selection not losing to
STATIC-XY, and economical storage matching the full table with 9
entries instead of 256.

The paper's 16x16 mesh with 410,000 messages per point takes ~47 s per
point; these cases use an 8x8 mesh (a power-of-two node count, so the
bit-permutation patterns are defined) with the paper's 20-flit messages
and a 80 + 600 message window.  The full-scale campaign has its own entry
point, ``examples/paper_campaign_16x16.py``.

Every simulation goes through one module-scoped serial backend, so a
configuration two cases share is simulated once.
"""

from __future__ import annotations

import pytest

from repro.core.config import SimulationConfig
from repro.exec.backend import SerialBackend
from repro.scenario import run_study
from repro.scenario.builtin import (
    PAPER_SELECTORS,
    cost_table_study,
    es_programming_study,
    lookahead_study,
    message_length_study,
    path_selection_study,
    table_storage_study,
)

#: The 8x8 configuration every simulated paper claim runs at.
BASE = SimulationConfig(
    mesh_dims=(8, 8),
    message_length=20,
    warmup_messages=80,
    measure_messages=600,
    seed=42,
)


@pytest.fixture(scope="module")
def backend():
    return SerialBackend()


def _rows(study, backend):
    return run_study(study, backend=backend).rows


# -- Figure 5: look-ahead ----------------------------------------------------------

#: (traffic pattern, loads).  The high load sits near (but below) the
#: deterministic router's saturation point, mirroring Fig. 5(a)-(d).
FIGURE5_CASES = [
    ("uniform", (0.15, 0.45)),
    ("transpose", (0.15, 0.4)),
    ("bit-reversal", (0.15, 0.4)),
    ("shuffle", (0.15, 0.4)),
]


@pytest.mark.parametrize(
    ("traffic", "loads"), FIGURE5_CASES, ids=[case[0] for case in FIGURE5_CASES]
)
def test_figure5_removing_lookahead_costs_latency(backend, traffic, loads):
    rows = _rows(
        lookahead_study(BASE, traffic_patterns=(traffic,), loads=loads), backend
    )
    for row in rows:
        assert row["no-la-adapt_pct_increase"] > 0, row


# -- Table 3: message length -------------------------------------------------------


def test_table3_lookahead_gain_shrinks_with_message_length(backend):
    rows = _rows(
        message_length_study(
            BASE, message_lengths=(5, 10, 20, 50), traffic="uniform", load=0.2
        ),
        backend,
    )
    improvements = [row["pct_improvement"] for row in rows]
    # Shorter messages benefit more from saving one pipe stage per hop.
    assert improvements[0] > improvements[-1], improvements
    assert all(value > 0 for value in improvements), improvements


# -- Figure 6: path selection ------------------------------------------------------

FIGURE6_CASES = [
    ("uniform", (0.45,)),
    ("transpose", (0.35,)),
    ("bit-reversal", (0.35,)),
    ("shuffle", (0.35,)),
]


@pytest.mark.parametrize(
    ("traffic", "loads"), FIGURE6_CASES, ids=[case[0] for case in FIGURE6_CASES]
)
def test_figure6_adaptive_selection_does_not_lose_to_static_xy(backend, traffic, loads):
    rows = _rows(
        path_selection_study(
            BASE, selectors=PAPER_SELECTORS, traffic_patterns=(traffic,), loads=loads
        ),
        backend,
    )
    for row in rows:
        dynamic_best = min(
            row[f"{name}_latency"] for name in ("min-mux", "lfu", "lru", "max-credit")
        )
        if traffic == "uniform":
            # All heuristics stay in the same ballpark on uniform traffic.
            assert dynamic_best <= 1.5 * row["static-xy_latency"], row
        else:
            # Traffic-sensitive selection must not lose to STATIC-XY on the
            # non-uniform patterns (the paper shows it winning clearly).
            assert dynamic_best <= 1.05 * row["static-xy_latency"], row


# -- Figure 7: economical-storage programming --------------------------------------


def test_figure7_north_last_programming_of_router_1_1():
    rows = run_study(es_programming_study()).rows
    by_destination = {row["destination"]: row for row in rows}
    assert by_destination[(0, 2)]["north_last_ports"] == "-X"
    assert by_destination[(2, 2)]["north_last_ports"] == "+X"
    assert by_destination[(1, 2)]["north_last_ports"] == "+Y"


# -- Table 4: table storage --------------------------------------------------------

TABLE4_CASES = [
    ("uniform", (0.15, 0.4)),
    ("transpose", (0.15, 0.3)),
    ("bit-reversal", (0.15, 0.3)),
]


@pytest.mark.parametrize(
    ("traffic", "loads"), TABLE4_CASES, ids=[case[0] for case in TABLE4_CASES]
)
def test_table4_economical_storage_matches_the_full_table(backend, traffic, loads):
    rows = _rows(
        table_storage_study(
            BASE, traffic_patterns=(traffic,), loads=loads, include_full_table=True
        ),
        backend,
    )
    for row in rows:
        assert row["economical_latency"] == pytest.approx(row["full_table_latency"])


# -- Table 5: storage cost ---------------------------------------------------------


def test_table5_storage_cost_of_a_256_node_mesh():
    rows = run_study(cost_table_study(num_nodes=256, n_dims=2)).rows
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["full-table"]["entries_per_router"] == 256
    assert by_scheme["economical-storage"]["entries_per_router"] == 9


def test_table5_storage_cost_of_a_cray_t3d_sized_network():
    rows = run_study(cost_table_study(num_nodes=2048, n_dims=3)).rows
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["economical-storage"]["entries_per_router"] == 27


# -- Router-design ablations -------------------------------------------------------
#
# Not paper figures: they check the sensitivity of the headline results
# to the knobs the paper holds fixed, on a 6x6 mesh under transpose.

ABLATION_BASE = SimulationConfig(
    mesh_dims=(6, 6),
    message_length=20,
    warmup_messages=60,
    measure_messages=400,
    traffic="transpose",
    normalized_load=0.3,
    routing="duato",
    table="economical",
    selector="max-credit",
    seed=7,
)


def _latencies(backend, field, values):
    configs = [ABLATION_BASE.variant(**{field: value}) for value in values]
    results = backend.run_configs(configs)
    return {value: result.latency for value, result in zip(values, results)}


def test_ablation_lookahead_pipeline_is_faster_than_proud(backend):
    latencies = _latencies(backend, "pipeline", ("proud", "la-proud"))
    assert latencies["la-proud"] < latencies["proud"], latencies


def test_ablation_more_virtual_channels_do_not_slow_the_router(backend):
    latencies = _latencies(backend, "vcs_per_port", (2, 4))
    # More virtual channels add alternate paths at fixed link bandwidth;
    # they must never make the adaptive router slower by a large factor.
    assert latencies[4] <= 1.5 * latencies[2], latencies


def test_ablation_deeper_buffers_do_not_raise_latency(backend):
    latencies = _latencies(backend, "buffer_depth", (2, 10))
    # Deeper buffers absorb credit round trips.
    assert latencies[10] <= latencies[2] * 1.1, latencies
