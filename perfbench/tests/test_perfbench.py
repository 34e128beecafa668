"""Tests of the host-speed benchmark: schema, smoke runs, output checks.

The smoke runs use the tiny scale (``--scale tiny``), where every
workload takes well under a second per operation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import calibration, checks, run, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_benchmark_json_schema():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)


def test_workload_records_cover_every_workload():
    layer_names = {name for name, _ in tracing.LAYER_METRICS}
    assert list(RECORDS) == list(workloads.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        record = RECORDS[workload["name"]]
        assert record["why"] == workload["why"]
        assert record["loop"] in ("open", "closed") and record["rate"]
        for prediction in record["predictions"]:
            assert set(prediction["layers"]) <= layer_names
            assert set(prediction["moves"]) <= set(workloads.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.bench
def test_tiny_smoke_run(capsys, workload, trace):
    code, result, _ = _run(
        capsys, "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", trace, "--scale", "tiny",
    )
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    listed = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in listed}
    assert all(row["value"] is not None for row in result["metrics"].values())


def _perturb(monkeypatch, tmp_path, change) -> None:
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    change(expected["tiny"])
    perturbed = tmp_path / "expected.json"
    perturbed.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", perturbed)


def test_output_check_fires_on_a_perturbed_expected_value(capsys, monkeypatch, tmp_path):
    def nudge(tiny):
        tiny["open_low_16x16"][0]["latency"] += 1e-9

    _perturb(monkeypatch, tmp_path, nudge)
    code, result, lines = _run(
        capsys, "--workload", "open_low_16x16", "--seed", "1", "--seconds", "0",
        "--trace", "0", "--scale", "tiny",
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any("FAILED op 0" in line and "latency" in line for line in lines)


def test_study_output_check_fires(capsys, monkeypatch, tmp_path):
    def nudge(tiny):
        tiny["study_8x8"]["time_to_drain"][0] += 1

    _perturb(monkeypatch, tmp_path, nudge)
    code, result, _ = _run(
        capsys, "--workload", "study_8x8", "--seed", "1", "--seconds", "0",
        "--trace", "0", "--scale", "tiny",
    )
    assert code != 0 and result["correct"] is False and result["failed"] == result["attempted"]


def test_zero_load_check_fires_below_the_hop_floor():
    from repro.core.simulator import NetworkSimulator

    simulator = NetworkSimulator(workloads.open_config("open_low_16x16", "tiny", 1, 0))
    ledger = checks.Ledger(simulator.stats)
    result = simulator.run()
    assert checks.open_problems(simulator, result, ledger) == []
    # One cycle per hop is faster than any contention-free path.
    too_fast = dataclasses.replace(
        result,
        summary=dataclasses.replace(result.summary, avg_total_latency=result.summary.avg_hops),
    )
    problems = checks.open_problems(simulator, too_fast, ledger)
    assert any("zero-load" in problem for problem in problems)


def test_chunked_run_gives_the_result_of_one_run():
    from repro.core.simulator import NetworkSimulator

    config = workloads.open_config("open_sat_32x32", "tiny", 1, 0)
    whole = NetworkSimulator(config).run()
    clock = calibration.ScaledClock()
    chunked, raw, scaled = workloads._run_point(NetworkSimulator(config), clock)
    assert chunked.to_json() == whole.to_json()
    assert raw > 0 and scaled > 0 and len(clock.slowdowns) >= 2


def test_scaled_clock_divides_out_the_calibration_slowdown():
    slices = iter([2.0 * calibration.REFERENCE_S, 4.0 * calibration.REFERENCE_S])
    clock = calibration.ScaledClock(lambda: next(slices))
    clock.start()
    result, raw, scaled = clock.lap(lambda: "done")
    assert result == "done"
    # The step ran while the kernel took three times its quiet-host time.
    assert scaled == pytest.approx(raw / 3.0)
    assert clock.slowdowns == [2.0, 4.0]


def test_parallel_slicer_runs_the_kernel_in_helpers_and_stops_them():
    with calibration.ParallelSlicer(2) as slicer:
        assert slicer() > 0
        helpers = list(slicer._pool._processes.values())
    assert helpers and not any(helper.is_alive() for helper in helpers)


def test_instrument_restores_every_wrapped_name():
    import repro.core.simulator as simulator
    from repro import registry
    from repro.exec import backend
    from repro.exec.cache import ResultCache
    from repro.scenario.spec import Study
    from repro.stats import confidence

    targets = [
        (simulator, "build_table"), (simulator, "FlatNetworkCore"),
        (simulator, "StatsCollector"), (ResultCache, "get"), (ResultCache, "put"),
        (backend, "simulate_config"), (backend.ExecutionBackend, "run_configs"),
        (confidence, "merge_replicates"), (Study, "expand"),
    ]
    before = [getattr(target, name) for target, name in targets]
    with tracing.instrument(tracing.Tracer()):
        assert all(getattr(t, n) is not b for (t, n), b in zip(targets, before))
        assert "get" in vars(registry.REPORTERS)
    assert [getattr(target, name) for target, name in targets] == before
    assert "get" not in vars(registry.REPORTERS) and "get" not in vars(registry.WORKLOADS)


def test_self_time_subtracts_children_and_spans_round_trip(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    totals, calls, _ = tracer.self_times()
    outer = tracer.ends[0] - tracer.starts[0]
    inner = tracer.ends[1] - tracer.starts[1]
    assert calls == {"outer": 1, "inner": 1}
    assert totals["outer"] == pytest.approx(outer - inner)
    tracer.write(tmp_path / "spans")
    spans = tracing.load_spans(tmp_path / "spans")
    assert spans["names"] == ["outer", "inner"]
    assert spans["parent"] == [-1, 0] and spans["name_id"] == [0, 1]
    assert spans["start"] == list(tracer.starts) and spans["end"] == list(tracer.ends)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "open_low_16x16", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
