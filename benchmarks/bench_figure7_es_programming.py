"""Figure 7: economical-storage table programming for North-Last routing.

Regenerates the per-destination table of Fig. 7(d): for the router at
(1, 1) of a 3x3 mesh, the sign pair, the fully adaptive candidate ports
and the ports North-Last routing actually programs (the +Y option is
denied whenever an X correction is still pending, to guarantee deadlock
freedom).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.scenario import run_study
from repro.scenario.builtin import es_programming_study

_COLUMNS = ["destination", "sign_x", "sign_y", "candidate_ports", "north_last_ports"]


def bench_figure7_es_programming(benchmark, report):
    rows = run_once(benchmark, lambda: run_study(es_programming_study()).rows)
    benchmark.extra_info["rows"] = rows
    report(
        "figure7_es_programming",
        "Figure 7(d): economical-storage table of router (1,1), North-Last routing",
        rows,
        columns=_COLUMNS,
    )
    by_destination = {row["destination"]: row for row in rows}
    assert by_destination[(0, 2)]["north_last_ports"] == "-X"
    assert by_destination[(2, 2)]["north_last_ports"] == "+X"
    assert by_destination[(1, 2)]["north_last_ports"] == "+Y"
