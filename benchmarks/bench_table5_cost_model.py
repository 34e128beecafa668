"""Table 5: routing-table storage cost and property summary.

This benchmark is analytic (no simulation); it regenerates the comparison
table for the paper's 256-node 2-D mesh and for the Cray T3D-sized 2048
node 3-D network quoted in Section 5.2.1.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.scenario import run_study
from repro.scenario.builtin import cost_table_study

_COLUMNS = ["scheme", "entries_per_router", "scalability", "adaptivity", "topologies"]


def bench_table5_cost_model(benchmark, report):
    rows = run_once(
        benchmark, lambda: run_study(cost_table_study(num_nodes=256, n_dims=2)).rows
    )
    benchmark.extra_info["rows"] = rows
    report(
        "table5_cost_model_256",
        "Table 5: table-storage schemes for a 256-node 2-D mesh",
        rows,
        columns=_COLUMNS,
    )
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["full-table"]["entries_per_router"] == 256
    assert by_scheme["economical-storage"]["entries_per_router"] == 9


def bench_table5_cost_model_cray_t3d(benchmark, report):
    rows = run_once(
        benchmark, lambda: run_study(cost_table_study(num_nodes=2048, n_dims=3)).rows
    )
    benchmark.extra_info["rows"] = rows
    report(
        "table5_cost_model_t3d",
        "Table 5 (T3D scale): table-storage schemes for a 2048-node 3-D network",
        rows,
        columns=_COLUMNS,
    )
    by_scheme = {row["scheme"]: row for row in rows}
    assert by_scheme["economical-storage"]["entries_per_router"] == 27
