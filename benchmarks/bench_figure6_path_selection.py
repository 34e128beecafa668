"""Figure 6: average latency of the five path-selection heuristics.

Paper shape to reproduce: on uniform traffic STATIC-XY is (marginally) the
best and all heuristics are close; on the non-uniform patterns the
traffic-sensitive heuristics (MIN-MUX, LFU, LRU, MAX-CREDIT) clearly beat
STATIC-XY at medium-to-high load.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.scenario import run_study
from repro.scenario.builtin import PAPER_SELECTORS, path_selection_study

_CASES = [
    ("uniform", (0.45,)),
    ("transpose", (0.35,)),
    ("bit-reversal", (0.35,)),
    ("shuffle", (0.35,)),
]

_COLUMNS = ["traffic", "load"] + [f"{name}_latency" for name in PAPER_SELECTORS]


@pytest.mark.parametrize(("traffic", "loads"), _CASES, ids=[case[0] for case in _CASES])
def bench_figure6_path_selection(benchmark, bench_config, report, traffic, loads):
    rows = run_once(
        benchmark,
        lambda: run_study(
            path_selection_study(
                bench_config,
                selectors=PAPER_SELECTORS,
                traffic_patterns=(traffic,),
                loads=loads,
            )
        ).rows,
    )
    benchmark.extra_info["rows"] = rows
    report(
        f"figure6_{traffic}",
        f"Figure 6 ({traffic}): average latency per path-selection heuristic",
        rows,
        columns=_COLUMNS,
    )
    for row in rows:
        dynamic_best = min(
            row[f"{name}_latency"] for name in ("min-mux", "lfu", "lru", "max-credit")
        )
        if traffic == "uniform":
            # All heuristics stay in the same ballpark on uniform traffic.
            assert dynamic_best <= 1.5 * row["static-xy_latency"]
        else:
            # Traffic-sensitive selection must not lose to STATIC-XY on the
            # non-uniform patterns (the paper shows it winning clearly).
            assert dynamic_best <= 1.05 * row["static-xy_latency"]
