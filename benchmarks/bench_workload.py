#!/usr/bin/env python
"""Micro-benchmark: closed-loop workload runs, flat core vs. object network.

Times complete DAG-driven workload simulations under both core schedules
(the object core is the executable reference, stepped every cycle),
verifies that the schedules produce bit-identical
latency/throughput numbers *and* bit-identical drain metrics, and writes
the wall-clock report to ``BENCH_workload.json`` at the repository root
so the closed-loop performance trajectory is tracked across PRs.

The measured grid covers the three built-in generator families in their
characteristic regimes:

* **ring all-reduce** -- a long serial dependency chain of neighbour
  transfers; the network is mostly idle, so the flat core leans on its
  worklist, wake heap and fast-forward;
* **phased all-to-all** -- barrier-synchronised bursts where every group
  member sends simultaneously, the congested regime;
* **tensor-parallel LLM decode** -- compute delays interleaved with
  group all-reduces and activation hand-offs, the mixed regime the
  subsystem targets.

Usage::

    PYTHONPATH=src python benchmarks/bench_workload.py                # full grid
    PYTHONPATH=src python benchmarks/bench_workload.py --scale smoke  # CI-sized

The CI smoke run additionally gates on the speedup via ``--fail-below``:
the script exits non-zero if any sampled point's speedup falls below the
given ratio.  CI uses ``--fail-below 0.9``: a real regression lands well
below 1.0 while shared-runner timing noise stays above 0.9 on the
reported speedup, which is the *median* of the per-repetition
objects/flat ratios (each taken from one interleaved pair; see
``_time_pair``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (label, mesh, workload overrides) grids per scale.
FULL_GRID: List[Tuple[str, Tuple[int, int], Dict[str, object]]] = [
    (
        "allreduce",
        (8, 8),
        {"workload": "allreduce", "workload_iters": 4, "workload_hidden": 256},
    ),
    (
        "alltoall",
        (8, 8),
        {"workload": "alltoall", "workload_iters": 2, "workload_group": 16},
    ),
    (
        "llm-decode",
        (8, 8),
        {
            "workload": "llm-decode",
            "workload_layers": 4,
            "workload_hidden": 256,
            "workload_group": 8,
        },
    ),
    (
        "llm-decode",
        (16, 16),
        {
            "workload": "llm-decode",
            "workload_layers": 4,
            "workload_hidden": 256,
            "workload_group": 16,
        },
    ),
]
SMOKE_GRID: List[Tuple[str, Tuple[int, int], Dict[str, object]]] = [
    (
        "allreduce",
        (4, 4),
        {"workload": "allreduce", "workload_iters": 2, "workload_hidden": 64},
    ),
    (
        "llm-decode",
        (4, 4),
        {
            "workload": "llm-decode",
            "workload_layers": 2,
            "workload_hidden": 64,
            "workload_group": 4,
        },
    ),
]

MODES = ("objects", "flat")


def _point_config(mesh: Tuple[int, int], overrides: Dict[str, object]) -> SimulationConfig:
    return SimulationConfig(mesh_dims=mesh, message_length=20, seed=7, **overrides)


def _time_once(config: SimulationConfig, mode: str):
    """Wall-clock of the simulation *run* under ``mode``.

    Construction (network build, DAG expansion, critical-path analysis)
    is excluded from the timer: both cores expand the identical DAG, and
    the shared build would otherwise dilute the measured ratio.  The
    garbage collector is paused during the timed region so a collection
    landing inside one mode's run cannot skew the pair.
    """
    import gc

    simulator = NetworkSimulator(config.variant(core_mode=mode))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = simulator.run()
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, result


def _time_pair(config: SimulationConfig, repeats: int):
    """Median speedup over ``repeats`` interleaved objects/flat pairs.

    The two modes alternate within each repetition, so each repetition
    yields one objects/flat ratio taken under near-identical machine
    conditions; the median of those ratios is robust against the
    throughput drift and scheduler spikes of shared runners.  The
    per-mode minima are also reported for context.
    """
    best: Dict[str, Optional[float]] = {mode: None for mode in MODES}
    ratios = []
    results = {}
    for _ in range(repeats):
        elapsed = {}
        for mode in MODES:
            elapsed[mode], results[mode] = _time_once(config, mode)
            if best[mode] is None or elapsed[mode] < best[mode]:
                best[mode] = elapsed[mode]
        ratios.append(elapsed["objects"] / elapsed["flat"])
    ratios.sort()
    middle = len(ratios) // 2
    if len(ratios) % 2:
        median = ratios[middle]
    else:
        median = (ratios[middle - 1] + ratios[middle]) / 2.0
    return best, median, results


def _identical(objects, flat) -> bool:
    """Everything the simulation computed matches, drain metrics included
    (the configs differ in core_mode by construction, so compare the
    computed fields)."""
    return (
        objects.summary.as_dict() == flat.summary.as_dict()
        and objects.cycles == flat.cycles
        and objects.zero_load_latency == flat.zero_load_latency
        and objects.drain == flat.drain
    )


def run_benchmark(smoke: bool = False, repeats: int = 3) -> Dict[str, object]:
    """Run the closed-loop core-schedule comparison; returns the report."""
    grid = SMOKE_GRID if smoke else FULL_GRID
    points = []
    for label, mesh, overrides in grid:
        config = _point_config(mesh, overrides)
        best, median_speedup, results = _time_pair(config, repeats)
        objects_s, flat_s = best["objects"], best["flat"]
        identical = _identical(results["objects"], results["flat"])
        drain = results["flat"].drain or {}
        point = {
            "workload": label,
            "mesh": "x".join(str(k) for k in mesh),
            "transfers": drain.get("transfers", 0),
            "cycles": results["flat"].cycles,
            "drained": bool(drain.get("drained", False)),
            "time_to_drain": drain.get("time_to_drain"),
            "cp_utilization": drain.get("critical_path_utilization"),
            "objects_seconds": round(objects_s, 4),
            "flat_seconds": round(flat_s, 4),
            "speedup": round(median_speedup, 3),
            "bit_identical": identical,
        }
        points.append(point)
        print(
            f"workload={label:<10} mesh={point['mesh']:<6} "
            f"cycles={point['cycles']:<7} objects={objects_s:6.2f}s "
            f"flat={flat_s:6.2f}s speedup={point['speedup']:5.2f}x "
            f"identical={identical} drained={point['drained']}"
        )
    report = {
        "benchmark": "workload",
        "scale": "smoke" if smoke else "full",
        "message_length": 20,
        "seed": 7,
        "repeats": repeats,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "points": points,
        "summary": {
            "min_speedup": min(p["speedup"] for p in points),
            "all_bit_identical": all(p["bit_identical"] for p in points),
            "all_drained": all(p["drained"] for p in points),
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("smoke", "full"),
        default="full",
        help="smoke: CI-sized 4x4 points; full: 8x8 + 16x16 grid (default)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="timed objects/flat pairs per point; the reported speedup "
        "is the median per-pair ratio (default: 3)",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit non-zero if any point's speedup falls below RATIO "
        "(CI gates the smoke run at 0.9; see the module docstring)",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_workload.json"),
        metavar="FILE",
        help="where to write the JSON report (default: repo-root BENCH_workload.json)",
    )
    args = parser.parse_args(argv)
    smoke = args.scale == "smoke"
    repeats = args.repeats if args.repeats is not None else 3
    report = run_benchmark(smoke=smoke, repeats=repeats)
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")
    if not report["summary"]["all_bit_identical"]:
        print("ERROR: core schedules disagreed on at least one point", file=sys.stderr)
        return 1
    if not report["summary"]["all_drained"]:
        print("ERROR: at least one workload failed to drain", file=sys.stderr)
        return 1
    if args.fail_below is not None and report["summary"]["min_speedup"] < args.fail_below:
        print(
            f"ERROR: minimum speedup {report['summary']['min_speedup']}x fell "
            f"below the {args.fail_below}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
