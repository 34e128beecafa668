#!/usr/bin/env python
"""Composing the library's pieces directly (beyond the string-based config).

This example builds a network by hand -- topology, routing table, routing
algorithm, per-router path selectors -- the way a router-architecture study
would extend the library: it programs a *custom* economical-storage table
(North-Last turn-model routing instead of fully adaptive) and runs a small
load sweep with it, comparing against Duato's fully adaptive algorithm.

Usage::

    python examples/custom_network.py
"""

from __future__ import annotations

from repro import SimulationConfig, format_rows, run_study
from repro.core.simulator import NetworkSimulator, build_topology
from repro.routing.providers import north_last_provider
from repro.scenario.builtin import sweep_study
from repro.tables.economical import EconomicalStorageTable


def sweep(config: SimulationConfig, loads) -> list:
    outcome = run_study(sweep_study(config, loads))
    return [
        {
            "routing": config.routing,
            "load": point.config.normalized_load,
            "latency": result.latency_label(),
            "hops": result.summary.avg_hops,
        }
        for point, result in zip(outcome.points, outcome.results)
    ]


def main() -> None:
    loads = (0.15, 0.3, 0.45)
    base = SimulationConfig(
        mesh_dims=(6, 6),
        message_length=12,
        warmup_messages=80,
        measure_messages=600,
        traffic="transpose",
        selector="lru",
        pipeline="la-proud",
    )

    # Turn-model (North-Last) routing: partially adaptive, needs only one
    # virtual channel class, and its relation fits the 9-entry table.
    north_last = base.variant(routing="north-last")
    # Duato's fully adaptive routing over the same 9-entry table.
    duato = base.variant(routing="duato")

    rows = sweep(north_last, loads) + sweep(duato, loads)
    print("=== North-Last (turn model) vs Duato fully adaptive, transpose traffic ===")
    print(format_rows(rows, columns=["routing", "load", "latency", "hops"]))
    print()

    # Show the programmable-table API directly: the North-Last relation
    # programmed into a sign-indexed economical-storage table.
    topology = build_topology(base)
    table = EconomicalStorageTable(topology, provider=north_last_provider(topology))
    center = topology.node_id((3, 3))
    print(f"economical-storage entries of router {topology.coordinates(center)} "
          f"programmed for North-Last routing:")
    for signs, ports in table.describe(center):
        print(f"  signs={signs!s:>10}  ports={ports}")
    print()

    simulator = NetworkSimulator(duato.variant(normalized_load=0.3))
    print(f"table used by the packaged simulator : {simulator.table.name} "
          f"({simulator.table.entries_per_router()} entries/router)")


if __name__ == "__main__":
    main()
