"""Table 4: adaptive-routing performance with the table-storage schemes.

Paper shape to reproduce: the economical-storage table performs exactly
like the full table; the meta-table with the maximal-adaptivity (block)
mapping congests at the cluster boundaries and saturates earlier than the
meta-table with the minimal-adaptivity (row) mapping, which itself behaves
like a deterministic dimension-order router.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.scenario import run_study
from repro.scenario.builtin import table_storage_study

_CASES = [
    ("uniform", (0.15, 0.4)),
    ("transpose", (0.15, 0.3)),
    ("bit-reversal", (0.15, 0.3)),
]

_COLUMNS = [
    "traffic",
    "load",
    "meta_adaptive_label",
    "meta_deterministic_label",
    "economical_label",
    "full_table_label",
]


@pytest.mark.parametrize(("traffic", "loads"), _CASES, ids=[case[0] for case in _CASES])
def bench_table4_table_storage(benchmark, bench_config, report, traffic, loads):
    rows = run_once(
        benchmark,
        lambda: run_study(
            table_storage_study(
                bench_config,
                traffic_patterns=(traffic,),
                loads=loads,
                include_full_table=True,
            )
        ).rows,
    )
    benchmark.extra_info["rows"] = rows
    report(
        f"table4_{traffic}",
        f"Table 4 ({traffic}): latency per table-storage scheme ('Sat.' = saturated)",
        rows,
        columns=_COLUMNS,
    )
    for row in rows:
        # Economical storage must be indistinguishable from the full table.
        assert row["economical_latency"] == pytest.approx(row["full_table_latency"])
