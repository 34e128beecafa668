#!/usr/bin/env python
"""Paper-scale campaign: every experiment on the paper's 16x16 mesh.

The paper's evaluation runs on a 256-node (16x16) mesh with 20-flit
messages.  A full flit-level reproduction at that scale used to be
prohibitively slow in pure Python; the flat C core (only busy routers
and due interfaces are visited, idle spans are fast-forwarded) combined
with the parallel execution backend and the on-disk result cache makes it
a practical batch job.  This example reproduces the complete campaign --
the look-ahead comparison, message-length study, path-selection study and
table-storage study -- at paper scale.

Usage::

    # Default: 16x16, 2,000 measured messages per point, serial
    PYTHONPATH=src python examples/paper_campaign_16x16.py

    # All cores, resumable (interrupt and rerun to pick up where it left off)
    PYTHONPATH=src python examples/paper_campaign_16x16.py \
        --workers 8 --cache-dir .lapses-cache-16x16

    # The paper's full measurement window (400,000 messages -- hours!)
    PYTHONPATH=src python examples/paper_campaign_16x16.py --full --workers 8

    # Quick smoke run (a few minutes, serial)
    PYTHONPATH=src python examples/paper_campaign_16x16.py --quick
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import PaperDefaults, SimulationConfig
from repro.exec import make_backend
from repro.scenario import run_study
from repro.scenario.builtin import campaign_study


def build_config(args: argparse.Namespace) -> SimulationConfig:
    if args.full:
        return SimulationConfig.paper(seed=args.seed)
    if args.quick:
        warmup, measured = 50, 300
    else:
        warmup, measured = 200, 2_000
    return SimulationConfig.paper(
        seed=args.seed,
        warmup_messages=warmup,
        measure_messages=measured,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="simulate N points in parallel (default: serial)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persist per-point results so reruns resume")
    parser.add_argument("--seed", type=int, default=1, help="master random seed")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test window (300 measured messages per point)")
    parser.add_argument("--full", action="store_true",
                        help=f"the paper's window ({PaperDefaults.MEASURE_MESSAGES:,} "
                             "measured messages per point; expect hours)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the Markdown report to FILE")
    args = parser.parse_args(argv)
    if args.quick and args.full:
        parser.error("--quick and --full are mutually exclusive")

    base = build_config(args)
    print(f"campaign base: {base.mesh_dims[0]}x{base.mesh_dims[1]} mesh, "
          f"{base.message_length}-flit messages, "
          f"{base.measure_messages:,} measured messages per point", file=sys.stderr)

    with make_backend(workers=args.workers, cache_dir=args.cache_dir) as backend:
        study = campaign_study(
            base,
            loads_low_high=(0.15, 0.4),
            traffic_patterns=PaperDefaults.TRAFFIC_PATTERNS,
        )
        report = run_study(study, backend=backend)
        simulated = backend.simulations_run
        cache = backend.cache

    text = report.to_markdown()
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    summary = f"campaign: {simulated} simulations run"
    if cache is not None:
        summary += f", {cache.hits} served from cache ({cache.cache_dir})"
    print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
