#!/usr/bin/env python
"""Routing-table storage study (the paper's Section 5: Tables 4, 5 and Figure 7).

Three parts:

1. the storage-cost comparison of the four table organisations (Table 5),
2. the Figure 7 example of programming a 9-entry economical-storage table
   for North-Last routing, and
3. a scaled-down version of Table 4: adaptive routing performance with the
   meta-table mappings versus the economical-storage / full table.

Usage::

    python examples/table_storage_study.py [--quick]
"""

from __future__ import annotations

import argparse

from repro import SimulationConfig, format_rows, run_study
from repro.scenario.builtin import (
    cost_table_study,
    es_programming_study,
    table_storage_study,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run on a 4x4 mesh with very few messages (smoke-test mode)",
    )
    args = parser.parse_args()

    print("=== Table 5: storage cost per router (256-node 2-D mesh) ===")
    print(format_rows(
        run_study(cost_table_study(num_nodes=256, n_dims=2)).rows,
        columns=["scheme", "entries_per_router", "scalability", "adaptivity"],
    ))
    print()

    print("=== Figure 7(d): economical-storage table of router (1,1), North-Last ===")
    print(format_rows(
        run_study(es_programming_study()).rows,
        columns=["destination", "sign_x", "sign_y", "candidate_ports", "north_last_ports"],
    ))
    print()

    if args.quick:
        base = SimulationConfig.tiny(message_length=8)
        loads = (0.2,)
        patterns = ("uniform",)
    else:
        base = SimulationConfig.small()
        loads = (0.15, 0.3)
        patterns = ("uniform", "transpose")

    print("=== Table 4 (scaled): latency per table-storage scheme ===")
    rows = run_study(
        table_storage_study(
            base, traffic_patterns=patterns, loads=loads, include_full_table=True
        )
    ).rows
    print(format_rows(rows, columns=[
        "traffic", "load",
        "meta_adaptive_label", "meta_deterministic_label",
        "economical_label", "full_table_label",
    ]))
    print()
    print("Reading: the 9-entry economical-storage table matches the full table "
          "exactly, while the meta-table mappings lose adaptivity (the block "
          "mapping congests at cluster boundaries and saturates first).")


if __name__ == "__main__":
    main()
