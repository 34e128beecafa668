"""Table 3: impact of message length on the look-ahead benefit.

Paper shape to reproduce: the relative improvement of the look-ahead
adaptive router over the no-look-ahead adaptive router shrinks
monotonically as messages get longer (18% at 5 flits down to 6.5% at 50
flits in the paper), because the per-hop pipeline saving is amortised over
more serialization cycles.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.scenario import run_study
from repro.scenario.builtin import message_length_study

_COLUMNS = [
    "message_length",
    "lookahead_latency",
    "no_lookahead_latency",
    "pct_improvement",
]


def bench_table3_message_length(benchmark, bench_config, report):
    rows = run_once(
        benchmark,
        lambda: run_study(
            message_length_study(
                bench_config,
                message_lengths=(5, 10, 20, 50),
                traffic="uniform",
                load=0.2,
            )
        ).rows,
    )
    benchmark.extra_info["rows"] = rows
    report(
        "table3_message_length",
        "Table 3: look-ahead benefit versus message length (uniform, load 0.2)",
        rows,
        columns=_COLUMNS,
    )
    improvements = [row["pct_improvement"] for row in rows]
    # Shorter messages benefit more from saving one pipe stage per hop.
    assert improvements[0] > improvements[-1]
    assert all(value > 0 for value in improvements)
