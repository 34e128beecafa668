"""Full-table routing: one entry per destination node.

This is the organisation used by the Cray T3D/T3E and Sun S3.mp routers
(Table 1 of the paper).  It offers complete per-destination flexibility at
a storage cost proportional to the maximum network size, which is exactly
what the economical-storage proposal attacks.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.network.topology import Topology
from repro.routing.providers import PortProvider, minimal_adaptive_provider
from repro.tables.base import RoutingTable, TableProgrammingError

__all__ = ["FullRoutingTable"]


class FullRoutingTable(RoutingTable):
    """A per-router table with one (multi-port) entry per destination node.

    Parameters
    ----------
    topology:
        Network the table is programmed for.
    provider:
        Routing relation used to program the entries.  Defaults to minimal
        fully adaptive routing, the relation used on the adaptive virtual
        channels throughout the paper's evaluation.
    """

    name = "full-table"

    def __init__(self, topology: Topology, provider: PortProvider = None) -> None:
        if provider is None:
            provider = minimal_adaptive_provider(topology)
        self._topology = topology
        self._num_nodes = topology.num_nodes
        # _entries[current][destination] -> tuple of candidate ports.
        self._entries: List[List[Tuple[int, ...]]] = []
        for current in range(self._num_nodes):
            row: List[Tuple[int, ...]] = []
            for destination in range(self._num_nodes):
                ports = tuple(provider(current, destination))
                if not ports:
                    raise TableProgrammingError(
                        f"provider returned no ports for {current}->{destination}"
                    )
                row.append(ports)
            self._entries.append(row)

    @property
    def topology(self) -> Topology:
        """Topology this table was programmed for."""
        return self._topology

    def lookup(self, current: int, destination: int) -> Tuple[int, ...]:
        return self._entries[current][destination]

    def entries_per_router(self) -> int:
        return self._num_nodes

    def num_routers(self) -> int:
        return self._num_nodes
