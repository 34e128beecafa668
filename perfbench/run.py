"""Host-speed benchmark of the LAPSES simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload open_low_16x16 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all              # every workload in turn

``--trace 0`` times the end-to-end metrics with nothing instrumented, in
quiet-host seconds (``perfbench/calibration.py`` scales each timed step
by a calibration kernel run around it; the raw host times are recorded
too); ``--trace 1`` runs each workload once under span tracing and reports the
per-layer metrics instead (see ``perfbench/README.md``).  Every
operation is checked: against the committed outputs in
``perfbench/expected.json`` for the default seed, and against the
invariants in ``perfbench/checks.py`` for any seed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every operation was correct.

Per-run records (environment stamp, medians, tail percentiles, sample
counts, problems) and trace spans go under ``.perfbench/`` at the root
of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"
#: Committed outputs of the default seed, per scale and workload.
EXPECTED = ROOT / "perfbench" / "expected.json"

#: The model has no reference figures to be validated against.
VALIDATION = (
    "unvalidated against the paper's published numbers: the repository "
    "holds no such reference, so no accuracy error is given; outputs are "
    "checked only against this benchmark's committed results"
)


def _import_simulator() -> None:
    """Make the checkout's simulator and this package importable."""
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"repro was imported from {source}, not from this checkout")


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workers: int) -> dict:
    """The stamp recorded with every run."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "pool_workers": workers,
        "validation": VALIDATION,
    }


def tail(samples: list) -> tuple:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it, as ``(percent, value)``; ``(None, None)`` when none has."""
    ordered = sorted(samples)
    for percent in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(len(ordered) * percent / 100.0))
        if len(ordered) - rank >= 10:
            return percent, ordered[rank - 1]
    return None, None


def summarize(outcome, units: dict) -> dict:
    """Median, tail percentile and sample count of every timed metric."""
    summary = {}
    for name, unit in units.items():
        samples = outcome.samples.get(name, [])
        percent, value = tail(samples)
        summary[name] = {
            "median": statistics.median(samples) if samples else None,
            "tail_percent": percent,
            "tail": value,
            "samples": len(samples),
            "unit": unit,
        }
    return summary


def _print_block(workload: str, outcome, rows: dict, trace: bool) -> None:
    print(f"== {workload}: {outcome.attempted} ops attempted, {outcome.failed} failed")
    if outcome.slowdowns:
        print(
            f"   host slowdown over the quiet-host kernel time: median "
            f"{statistics.median(outcome.slowdowns):.3f}, {len(outcome.slowdowns)} slices"
        )
    for problem in outcome.problems:
        print(f"   FAILED {problem}")
    for name, row in rows.items():
        if trace:
            print(f"   {name:34s} {row['value']!r} {row['unit']}")
            continue
        tail_text = (
            f"p{row['tail_percent']:g} {row['tail']:.6g}"
            if row["tail_percent"] is not None
            else "no tail (fewer than 11 samples)"
        )
        print(
            f"   {name:18s} median {row['median']:.6g} {row['unit']:4s} "
            f"{tail_text}, n={row['samples']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("bench", "tiny"), default="bench",
        help="tiny shrinks every workload for smoke tests",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="simulate the default seed at every scale and rewrite perfbench/expected.json",
    )
    args = parser.parse_args(argv)

    try:
        _import_simulator()
    except ImportError as error:
        print(f"perfbench: cannot import the simulator: {error}", file=sys.stderr)
        return 2
    from perfbench import tracing, workloads

    if args.record_expected:
        record = {"seed": workloads.DEFAULT_SEED}
        for scale in workloads.SCALES:
            record[scale] = workloads.record_expected(scale, OUTPUT / "tmp")
        EXPECTED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {EXPECTED}")
        return 0

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; expected one of {workloads.WORKLOADS}")
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.scale]

    env = environment(workloads.POOL_WORKERS)
    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("environment " + json.dumps(env, sort_keys=True))
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        outcome = workloads.run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.scale, expected,
            OUTPUT / "tmp",
        )
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            rows = {
                metric: {"value": outcome.layers[metric], "unit": unit}
                for metric, unit in tracing.LAYER_METRICS
            }
            outcome.tracer.write(OUTPUT / "trace" / stem)
        else:
            rows = summarize(outcome, workloads.END_TO_END_UNITS)
        _print_block(name, outcome, rows, bool(args.trace))
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "environment": env,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.problems,
            "metrics": rows,
            "samples": outcome.samples,
            "raw_samples": outcome.raw_samples,
            "host_slowdowns": outcome.slowdowns,
        }
        (OUTPUT / "results").mkdir(parents=True, exist_ok=True)
        (OUTPUT / "results" / f"{stem}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
        correct = correct and outcome.failed == 0
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, row in rows.items():
            value = row["value"] if args.trace else row["median"]
            metrics[prefix + metric] = {"value": value, "unit": row["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
