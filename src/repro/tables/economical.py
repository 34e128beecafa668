"""Economical-storage routing tables (Section 5.2 of the paper).

The paper's key storage proposal: for an n-dimensional mesh, the candidate
output ports of every minimal routing relation depend only on the *sign*
of the per-dimension offset between the current node and the destination.
There are three possible signs per dimension (+, -, 0), so a 3^n-entry
table -- 9 entries for a 2-D mesh, 27 for a 3-D mesh -- suffices to encode
fully adaptive minimal routing, independent of the network size.

The router indexes the table with ``(sign(d_x - i_x), sign(d_y - i_y), ...)``
computed with two small comparators per dimension; see
:meth:`EconomicalStorageTable.index_of`.

Programming is O(N * 3^n) plus O(sum_d k_d^2): the table is programmed
from the provider's *sign rule* (``provider.sign_rule``, see
:mod:`repro.routing.providers`), evaluated once per sign pattern, never
per node pair.  A provider used with an economical table must carry a
sign rule; that is what guarantees every destination of a sign class the
same entry.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.network.topology import Topology, productive_ports
from repro.routing.providers import PortProvider, minimal_adaptive_provider
from repro.tables.base import RoutingTable, TableProgrammingError

__all__ = ["EconomicalStorageTable"]

Signs = Tuple[int, ...]


def _axis_signs(topology: Topology) -> List[List[FrozenSet[int]]]:
    """Per dimension and coordinate, the signs a destination can show
    along that axis, from ``relative_signs`` between nodes on the axis."""
    axis_signs = []
    stride = 1  # node ids vary fastest along dimension 0
    for dimension, extent in enumerate(topology.dims):
        axis_signs.append([
            frozenset(
                topology.relative_signs(here * stride, there * stride)[dimension]
                for there in range(extent)
            )
            for here in range(extent)
        ])
        stride *= extent
    return axis_signs


class EconomicalStorageTable(RoutingTable):
    """A 3^n-entry, sign-indexed routing table for n-dimensional meshes.

    Each router gets its own 3^n-entry table, as in hardware, programmed
    once at construction (the paper's Fig. 7 North-Last example is this
    table built from :func:`~repro.routing.providers.north_last_provider`).

    Parameters
    ----------
    topology:
        Mesh (or torus) the table is programmed for.
    provider:
        Routing relation to program.  Defaults to minimal fully adaptive
        routing.  One entry serves *every* destination sharing a sign
        pattern, so the provider must expose its ``sign_rule`` (every
        built-in provider does); a provider without one is refused with a
        :class:`TableProgrammingError`.
    """

    name = "economical-storage"
    sign_indexed = True

    def __init__(self, topology: Topology, provider: Optional[PortProvider] = None) -> None:
        if provider is None:
            provider = minimal_adaptive_provider(topology)
        sign_rule = getattr(provider, "sign_rule", None)
        if sign_rule is None:
            raise TableProgrammingError(
                "an economical-storage table needs a provider with a sign_rule "
                "(ports as a function of the per-dimension sign pattern; build "
                f"one with repro.routing.providers.sign_rule_provider); {provider!r} "
                "has none"
            )
        self._topology = topology
        self._sign_patterns = tuple(product((-1, 0, 1), repeat=topology.n_dims))
        axis_signs = _axis_signs(topology)
        programmed: Dict[Signs, Tuple[int, ...]] = {}
        self._tables: List[Dict[Signs, Tuple[int, ...]]] = []
        for node in range(topology.num_nodes):
            # Each sign depends on one axis only and destinations take every
            # coordinate combination, so the patterns this router sees are
            # the product of its per-axis sign sets.
            reachable = set(product(*(
                axis_signs[dimension][coordinate]
                for dimension, coordinate in enumerate(topology.coordinates(node))
            )))
            table: Dict[Signs, Tuple[int, ...]] = {}
            for signs in self._sign_patterns:
                if signs not in reachable:
                    # No destination exhibits this sign pattern from this node
                    # (e.g. a corner node has no (-, -) destinations); program
                    # the geometric default, it will never be consulted.
                    table[signs] = productive_ports(signs)
                    continue
                ports = programmed.get(signs)
                if ports is None:
                    ports = tuple(sorted(sign_rule(signs)))
                    if not ports:
                        raise TableProgrammingError(
                            f"sign rule gives no port for sign pattern {signs}"
                        )
                    programmed[signs] = ports
                table[signs] = ports
            self._tables.append(table)

    # -- RoutingTable interface ---------------------------------------------

    @property
    def topology(self) -> Topology:
        """Topology this table was programmed for."""
        return self._topology

    def index_of(self, current: int, destination: int) -> Signs:
        """The sign tuple used to index the table (the paper's (s_x, s_y))."""
        return self._topology.relative_signs(current, destination)

    def lookup(self, current: int, destination: int) -> Tuple[int, ...]:
        return self._tables[current][self.index_of(current, destination)]

    def entry(self, node: int, signs: Signs) -> Tuple[int, ...]:
        """Direct access to one of the 3^n entries of a router's table."""
        return self._tables[node][tuple(signs)]

    def entries_per_router(self) -> int:
        return 3 ** self._topology.n_dims

    def num_routers(self) -> int:
        return self._topology.num_nodes

    def describe(self, node: int) -> List[Tuple[Signs, Tuple[int, ...]]]:
        """The full entry list of one router, for reports and the Fig. 7 bench."""
        return [(signs, self._tables[node][signs]) for signs in self._sign_patterns]
