#!/usr/bin/env python
"""Path-selection study (the paper's Figure 6, scaled down).

Simulates the look-ahead adaptive router with the five path-selection
heuristics of the paper (STATIC-XY, MIN-MUX, LFU, LRU, MAX-CREDIT) on
uniform and transpose traffic and prints the average latency of each.

Usage::

    python examples/path_selection_study.py [--quick]
"""

from __future__ import annotations

import argparse

from repro import SimulationConfig, format_rows, run_study
from repro.scenario.builtin import PAPER_SELECTORS, path_selection_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run on a 4x4 mesh with very few messages (smoke-test mode)",
    )
    args = parser.parse_args()

    if args.quick:
        base = SimulationConfig.tiny(message_length=8)
        loads = (0.3,)
    else:
        base = SimulationConfig.small()
        loads = (0.2, 0.4)

    rows = run_study(
        path_selection_study(
            base,
            selectors=PAPER_SELECTORS,
            traffic_patterns=("uniform", "transpose"),
            loads=loads,
        )
    ).rows
    columns = ["traffic", "load"] + [f"{name}_latency" for name in PAPER_SELECTORS]
    print("=== Figure 6 (scaled): average latency per path-selection heuristic ===")
    print(format_rows(rows, columns=columns))
    print()
    print("Reading: on uniform traffic the static preference is fine; on the "
          "non-uniform patterns the traffic-sensitive heuristics (LRU, LFU, "
          "MAX-CREDIT, MIN-MUX) spread messages over the alternate paths and "
          "reduce latency at medium-to-high load.")


if __name__ == "__main__":
    main()
