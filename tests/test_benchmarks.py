"""Smoke tests of the benchmark harnesses (marked ``bench``).

Tier-1 skips these (see ``pytest.ini``); the full-matrix CI job and
``pytest -m bench`` run them.  They execute the core, workload and
stats benchmarks at smoke scale through their library entry points
and check the invariants the committed ``BENCH_*.json`` artifacts rely
on: the report schema, the bit-identical cross-checks, and (for the
committed artifacts) that the optimised schedule did not lose.
"""

from __future__ import annotations

from pathlib import Path

import pytest

BENCHMARKS_DIR = str(Path(__file__).resolve().parent.parent / "benchmarks")

pytestmark = pytest.mark.bench


@pytest.fixture(autouse=True)
def _benchmarks_on_path(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS_DIR)


def test_core_benchmark_smoke_report():
    import bench_core

    report = bench_core.run_benchmark(smoke=True, repeats=2)
    assert report["benchmark"] == "core"
    assert report["scale"] == "smoke"
    assert report["summary"]["all_bit_identical"] is True
    assert len(report["points"]) == 2
    for point in report["points"]:
        assert set(point) >= {
            "mesh",
            "normalized_load",
            "saturation",
            "objects_seconds",
            "flat_seconds",
            "speedup",
            "bit_identical",
        }
    # No wall-clock assertion here (this test runs under coverage in the
    # full-matrix job); the speed gate lives in the dedicated CI step
    # (`bench_core.py --fail-below 0.9`).
    assert isinstance(report["summary"]["min_speedup"], float)


def test_core_benchmark_cli_writes_report_and_gates(tmp_path):
    import bench_core

    output = tmp_path / "core.json"
    code = bench_core.main(
        ["--scale", "smoke", "--repeats", "1", "--output", str(output)]
    )
    assert code == 0
    assert output.exists()
    code = bench_core.main(
        ["--scale", "smoke", "--repeats", "1", "--output", str(output),
         "--fail-below", "1000.0"]
    )
    assert code == 1


def test_committed_core_bench_covers_the_grid():
    """The committed BENCH_core.json must be a full-scale report that
    samples the 16x16 saturation point (where the flat core's acceptance
    target was >= 1.5x) and the first 32x32 saturation datapoint, with
    both schedules bit-identical.

    (Only >= 1.0 at 16x16 saturation and >= 0.9 overall are asserted so
    the suite stays independent of the speed of whatever machine last
    regenerated the machine-generated file.)"""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["scale"] == "full"
    assert report["summary"]["all_bit_identical"] is True
    sat_16 = [
        p for p in report["points"] if p["mesh"] == "16x16" and p["saturation"]
    ]
    assert sat_16, "full report must sample the 16x16 saturation point"
    sat_32 = [
        p for p in report["points"] if p["mesh"] == "32x32" and p["saturation"]
    ]
    assert sat_32, "full report must include the 32x32 saturation datapoint"
    assert report["summary"]["speedup_16x16_saturation"] >= 1.0
    assert report["summary"]["speedup_32x32_saturation"] is not None
    assert report["summary"]["min_speedup"] >= 0.9


def test_workload_benchmark_smoke_report():
    import bench_workload

    report = bench_workload.run_benchmark(smoke=True, repeats=2)
    assert report["benchmark"] == "workload"
    assert report["scale"] == "smoke"
    assert report["summary"]["all_bit_identical"] is True
    assert report["summary"]["all_drained"] is True
    assert len(report["points"]) == 2
    for point in report["points"]:
        assert set(point) >= {
            "workload",
            "mesh",
            "transfers",
            "cycles",
            "drained",
            "time_to_drain",
            "cp_utilization",
            "objects_seconds",
            "flat_seconds",
            "speedup",
            "bit_identical",
        }
        assert point["time_to_drain"] <= point["cycles"]
        assert 0.0 < point["cp_utilization"] <= 1.0
    # No wall-clock assertion here (this test runs under coverage in the
    # full-matrix job); the speed gate lives in the dedicated CI step
    # (`bench_workload.py --fail-below 0.9`).
    assert isinstance(report["summary"]["min_speedup"], float)


def test_workload_benchmark_cli_writes_report_and_gates(tmp_path):
    import bench_workload

    output = tmp_path / "workload.json"
    code = bench_workload.main(
        ["--scale", "smoke", "--repeats", "1", "--output", str(output)]
    )
    assert code == 0
    assert output.exists()
    code = bench_workload.main(
        ["--scale", "smoke", "--repeats", "1", "--output", str(output),
         "--fail-below", "1000.0"]
    )
    assert code == 1


def test_stats_benchmark_smoke_report():
    import bench_stats

    report = bench_stats.run_benchmark(smoke=True)
    assert report["benchmark"] == "stats"
    assert report["scale"] == "smoke"
    overhead = report["quantile_overhead"]
    assert set(overhead) >= {
        "samples",
        "plain_seconds",
        "streaming_seconds",
        "exact_seconds",
        "overhead_ratio",
        "p50_error_pct",
        "p99_error_pct",
    }
    # The P2 estimates must track the exact percentiles closely.
    assert overhead["p50_error_pct"] < 2.0
    assert overhead["p99_error_pct"] < 2.0
    refine = report["refine"]
    assert set(refine) >= {
        "mesh",
        "tolerance",
        "executed_loads",
        "bracket_low",
        "bracket_high",
        "knee_bracketed",
        "refine_points",
        "fixed_grid_points",
        "points_saved",
    }
    # The deterministic acceptance gates: the knee is bracketed within
    # tolerance using strictly fewer points than the equivalent fixed grid.
    assert report["summary"]["knee_bracketed"] is True
    assert report["summary"]["refine_beats_fixed_grid"] is True


def test_stats_benchmark_cli_writes_report_and_gates(tmp_path):
    import bench_stats

    output = tmp_path / "stats.json"
    code = bench_stats.main(["--scale", "smoke", "--output", str(output)])
    assert code == 0
    assert output.exists()
    # An absurd overhead gate must trip the non-zero exit.
    code = bench_stats.main(
        ["--scale", "smoke", "--output", str(output), "--max-overhead", "0.0001"]
    )
    assert code == 1


def test_committed_stats_bench_brackets_the_knee():
    """The committed BENCH_stats.json must be a full-scale report whose
    16x16 refinement bracketed the saturation knee within tolerance with
    measurably fewer simulated load points than the fixed grid at the
    same resolution, and whose streaming quantile estimates stayed
    within a percent of the exact percentiles."""
    import json

    path = Path(__file__).resolve().parent.parent / "BENCH_stats.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["scale"] == "full"
    assert report["refine"]["mesh"] == "16x16"
    assert report["summary"]["knee_bracketed"] is True
    assert report["summary"]["refine_beats_fixed_grid"] is True
    assert report["refine"]["points_saved"] >= 1
    assert report["quantile_overhead"]["p99_error_pct"] < 2.0
