"""Figure 5: look-ahead / adaptivity comparison for the four traffic patterns.

Paper shape to reproduce: at low load the no-look-ahead routers are
~10-15% slower than the look-ahead adaptive router; on the non-uniform
patterns the deterministic routers fall far behind (or saturate) at high
load, while on uniform traffic the deterministic routers stay competitive.
The embedded table of Figure 5 (absolute LA-ADAPT latencies) corresponds
to the ``la_adapt_latency`` column.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.scenario import run_study
from repro.scenario.builtin import lookahead_study

#: (traffic pattern, loads to sample).  The high load sits near (but below)
#: the deterministic router's saturation point so the adaptive advantage is
#: visible, mirroring the load ranges of Fig. 5(a)-(d).
_CASES = [
    ("uniform", (0.15, 0.45)),
    ("transpose", (0.15, 0.4)),
    ("bit-reversal", (0.15, 0.4)),
    ("shuffle", (0.15, 0.4)),
]

_COLUMNS = [
    "traffic",
    "load",
    "la_adapt_latency",
    "no-la-det_pct_increase",
    "no-la-adapt_pct_increase",
    "la-det_pct_increase",
]


@pytest.mark.parametrize(("traffic", "loads"), _CASES, ids=[case[0] for case in _CASES])
def bench_figure5_lookahead(benchmark, bench_config, report, traffic, loads):
    rows = run_once(
        benchmark,
        lambda: run_study(
            lookahead_study(bench_config, traffic_patterns=(traffic,), loads=loads)
        ).rows,
    )
    benchmark.extra_info["rows"] = rows
    report(
        f"figure5_{traffic}",
        f"Figure 5 ({traffic}): % latency increase over the LA-ADAPT router",
        rows,
        columns=_COLUMNS,
    )
    for row in rows:
        # Removing look-ahead from the adaptive router must cost latency.
        assert row["no-la-adapt_pct_increase"] > 0
