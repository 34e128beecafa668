#!/usr/bin/env python
"""Micro-benchmark: the flat C core vs. the object network.

Times complete simulations under both core schedules (the object core is
the executable reference, stepped every cycle; the flat core lets the
kernel jump over the idle spans it forecasts), verifies that the schedules produce bit-identical latency/throughput
numbers, and writes the wall-clock report to ``BENCH_core.json`` at the
repository root so the core performance trajectory is tracked across PRs.

The measured grid is the regime map of the optimisation:

* **8x8 and 16x16 meshes** -- the test scale and the paper scale;
* **load 0.02** -- almost everything is idle; the flat core's busy-router
  worklist and fast-forward skip nearly everything, while the object
  core still visits every component every cycle;
* **load 0.1** -- light traffic, mixed regime;
* **saturation (load 0.8)** -- every router moves flits every cycle, the
  regime the flat core targets: one inlined pass over global arrays
  replaces hundreds of per-component method dispatches per cycle;
* **32x32 saturation** -- a first scaling datapoint beyond the paper
  scale, where the object core's per-component overhead compounds.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py                # full grid
    PYTHONPATH=src python benchmarks/bench_core.py --scale smoke  # CI-sized

The CI smoke run additionally gates on the speedup via ``--fail-below``:
the script exits non-zero if any sampled point's speedup falls below the
given ratio.  CI uses ``--fail-below 0.9``: a real core regression lands
well below 1.0 while shared-runner timing noise stays above 0.9 on the
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

#: Normalized load of the saturation point (past the knee of the 16x16
#: latency/load curve for uniform traffic; matches the other benchmarks).
SATURATION_LOAD = 0.8

#: (mesh, loads) grids per scale.  The 32x32 entry is saturation-only:
#: it is the scaling datapoint, and its low-load points would dominate
#: the wall-clock without adding information.
FULL_GRID: List[Tuple[Tuple[int, int], Tuple[float, ...]]] = [
    ((8, 8), (0.02, 0.1, SATURATION_LOAD)),
    ((16, 16), (0.02, 0.1, SATURATION_LOAD)),
    ((32, 32), (SATURATION_LOAD,)),
]
SMOKE_GRID: List[Tuple[Tuple[int, int], Tuple[float, ...]]] = [
    ((8, 8), (0.05, SATURATION_LOAD)),
]

MODES = ("objects", "flat")


def _base_config(mesh: Tuple[int, int], smoke: bool) -> SimulationConfig:
    if smoke:
        return SimulationConfig(
            mesh_dims=mesh,
            message_length=20,
            warmup_messages=40,
            measure_messages=150,
            seed=7,
        )
    return SimulationConfig(
        mesh_dims=mesh,
        message_length=20,
        warmup_messages=100,
        measure_messages=400,
        seed=7,
    )


def _time_once(config: SimulationConfig, mode: str):
    """Wall-clock of the simulation *run* under ``mode``.

    Network construction is excluded from the timer: the flat core is
    built straight from topology and config while the object core
    assembles a full object network, and that setup gap plus the
    identical table/topology build would otherwise blur the run-phase
    ratio -- on a 32x32 mesh construction is a large constant share of a
    short run.  The garbage collector is paused
    during the timed region so a collection landing inside one mode's
    run cannot skew the pair.
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
    """Everything the simulation computed matches (the configs differ in
    core_mode by construction, so compare the computed fields)."""
    return (
        objects.summary.as_dict() == flat.summary.as_dict()
        and objects.cycles == flat.cycles
        and objects.zero_load_latency == flat.zero_load_latency
        and objects.effective_message_rate == flat.effective_message_rate
    )


def run_benchmark(smoke: bool = False, repeats: int = 3) -> Dict[str, object]:
    """Run the core-schedule comparison; returns the JSON report."""
    grid = SMOKE_GRID if smoke else FULL_GRID
    points = []
    for mesh, loads in grid:
        base = _base_config(mesh, smoke)
        for load in loads:
            config = base.variant(normalized_load=load)
            best, median_speedup, results = _time_pair(config, repeats)
            objects_s, flat_s = best["objects"], best["flat"]
            identical = _identical(results["objects"], results["flat"])
            point = {
                "mesh": "x".join(str(k) for k in mesh),
                "normalized_load": load,
                "saturation": load >= SATURATION_LOAD,
                "cycles": results["flat"].cycles,
                "objects_seconds": round(objects_s, 4),
                "flat_seconds": round(flat_s, 4),
                "speedup": round(median_speedup, 3),
                "bit_identical": identical,
            }
            points.append(point)
            print(
                f"mesh={point['mesh']:<6} load={load:<5} "
                f"cycles={point['cycles']:<7} objects={objects_s:6.2f}s "
                f"flat={flat_s:6.2f}s speedup={point['speedup']:5.2f}x "
                f"identical={identical}"
            )
    saturation = [p for p in points if p["saturation"]]
    report = {
        "benchmark": "core",
        "scale": "smoke" if smoke else "full",
        "message_length": 20,
        "seed": 7,
        "repeats": repeats,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "points": points,
        "summary": {
            "min_speedup": min(p["speedup"] for p in points),
            "min_saturation_speedup": min(
                (p["speedup"] for p in saturation), default=None
            ),
            # The paper-scale regime the optimisation targets.
            "speedup_16x16_saturation": next(
                (p["speedup"] for p in saturation if p["mesh"] == "16x16"), None
            ),
            # The first beyond-paper-scale datapoint.
            "speedup_32x32_saturation": next(
                (p["speedup"] for p in saturation if p["mesh"] == "32x32"), None
            ),
            "all_bit_identical": all(p["bit_identical"] for p in points),
        },
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("smoke", "full"),
        default="full",
        help="smoke: CI-sized 8x8 run; full: 8x8 + 16x16 + 32x32 grid (default)",
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
        default=str(REPO_ROOT / "BENCH_core.json"),
        metavar="FILE",
        help="where to write the JSON report (default: repo-root BENCH_core.json)",
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
