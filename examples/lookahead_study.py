#!/usr/bin/env python
"""Look-ahead study (the paper's Figure 5 and Table 3, scaled down).

Compares the four router organisations -- deterministic and adaptive, each
with and without look-ahead routing -- under two traffic patterns, and then
shows how the look-ahead benefit depends on message length.

Usage::

    python examples/lookahead_study.py [--quick]
"""

from __future__ import annotations

import argparse

from repro import SimulationConfig, format_rows, run_study
from repro.scenario.builtin import lookahead_study, message_length_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run on a 4x4 mesh with very few messages (smoke-test mode)",
    )
    args = parser.parse_args()

    if args.quick:
        base = SimulationConfig.tiny(message_length=8)
        loads = (0.15,)
    else:
        base = SimulationConfig.small()
        loads = (0.15, 0.4)

    print("=== Figure 5 (scaled): % latency increase over the LA-ADAPT router ===")
    rows = run_study(
        lookahead_study(base, traffic_patterns=("uniform", "transpose"), loads=loads)
    ).rows
    columns = [
        "traffic", "load", "la_adapt_latency",
        "no-la-det_pct_increase", "no-la-adapt_pct_increase", "la-det_pct_increase",
    ]
    print(format_rows(rows, columns=columns))
    print()

    print("=== Table 3 (scaled): look-ahead benefit versus message length ===")
    lengths = (5, 20) if args.quick else (5, 10, 20, 50)
    rows = run_study(
        message_length_study(base, message_lengths=lengths, load=0.2)
    ).rows
    print(format_rows(rows, columns=[
        "message_length", "lookahead_latency", "no_lookahead_latency", "pct_improvement",
    ]))
    print()
    print("Reading: shorter messages gain the most from removing one pipeline "
          "stage per hop; adaptivity dominates at high load on non-uniform traffic.")


if __name__ == "__main__":
    main()
