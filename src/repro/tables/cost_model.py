"""Analytic storage-cost model for routing-table organisations (Table 5).

Table 5 of the paper compares full-table, m-level meta-table, interval and
economical-storage routing for a 2^N-node network along five axes: table
size, scalability, adaptivity, topology coverage and lookup time.  This
module reproduces the quantitative column (table size) exactly and encodes
the qualitative columns so the comparison table can be regenerated
programmatically (``python -m repro.cli study table5``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["TableCostModel", "TableCostSummary", "table_cost_summary"]


@dataclass(frozen=True)
class TableCostSummary:
    """One row of the Table 5 comparison."""

    scheme: str
    entries_per_router: int
    scalability: str
    adaptivity: str
    topologies: str
    lookup_time: str
    commercial_examples: str

    def as_row(self) -> Dict[str, object]:
        """Dictionary form used by report printers."""
        return {
            "scheme": self.scheme,
            "entries_per_router": self.entries_per_router,
            "scalability": self.scalability,
            "adaptivity": self.adaptivity,
            "topologies": self.topologies,
            "lookup_time": self.lookup_time,
            "commercial_examples": self.commercial_examples,
        }


class TableCostModel:
    """Storage cost of the four table organisations for a given network.

    Parameters
    ----------
    num_nodes:
        Network size (the paper uses 2^N nodes).
    n_dims:
        Mesh dimensionality (for the economical-storage 3^n size).
    num_ports:
        Router radix (for the interval-routing size).
    meta_levels:
        Number of levels in the hierarchical organisation (2 for SPIDER,
        3 for Servernet-II).
    """

    def __init__(
        self,
        num_nodes: int,
        n_dims: int = 2,
        num_ports: Optional[int] = None,
        meta_levels: int = 2,
    ) -> None:
        if num_nodes < 2:
            raise ValueError("a network needs at least 2 nodes")
        if n_dims < 1:
            raise ValueError("meshes need at least 1 dimension")
        if meta_levels < 2:
            raise ValueError("a hierarchical table needs at least 2 levels")
        self._num_nodes = num_nodes
        self._n_dims = n_dims
        self._num_ports = num_ports if num_ports is not None else 1 + 2 * n_dims
        self._meta_levels = meta_levels

    @property
    def num_nodes(self) -> int:
        """Network size the model describes."""
        return self._num_nodes

    def full_table_entries(self) -> int:
        """Full-table routing: one entry per destination node."""
        return self._num_nodes

    def meta_table_entries(self, levels: Optional[int] = None) -> int:
        """m-level meta-table: m tables of N^(1/m) entries each.

        This is the ``m * 2^(N/m)`` expression of Table 5 written for a
        general node count; fractional roots are rounded up because a table
        cannot have a fractional entry.
        """
        levels = levels if levels is not None else self._meta_levels
        per_level = math.ceil(self._num_nodes ** (1.0 / levels))
        return levels * per_level

    def interval_entries(self) -> int:
        """Interval routing: one entry per router port."""
        return self._num_ports

    def economical_storage_entries(self) -> int:
        """Economical storage: 3^n entries for an n-dimensional mesh."""
        return 3 ** self._n_dims

    def summaries(self) -> List[TableCostSummary]:
        """All four rows of the Table 5 comparison for this network."""
        return [
            TableCostSummary(
                scheme="full-table",
                entries_per_router=self.full_table_entries(),
                scalability="poor",
                adaptivity="yes",
                topologies="arbitrary",
                lookup_time="possibly high (proportional to table size)",
                commercial_examples="Cray T3D, Cray T3E, Sun S3.mp",
            ),
            TableCostSummary(
                scheme=f"{self._meta_levels}-level meta-table",
                entries_per_router=self.meta_table_entries(),
                scalability="better",
                adaptivity="yes (limited)",
                topologies="fairly arbitrary",
                lookup_time="low",
                commercial_examples="SGI SPIDER (2-level), Servernet-II (3-level)",
            ),
            TableCostSummary(
                scheme="interval",
                entries_per_router=self.interval_entries(),
                scalability="great",
                adaptivity="not direct",
                topologies="arbitrary",
                lookup_time="small",
                commercial_examples="Inmos C-104 / Transputer",
            ),
            TableCostSummary(
                scheme="economical-storage",
                entries_per_router=self.economical_storage_entries(),
                scalability="great",
                adaptivity="yes",
                topologies="meshes, tori, irregular extensions",
                lookup_time="small",
                commercial_examples="none (proposed by the paper)",
            ),
        ]


def table_cost_summary(
    num_nodes: int,
    n_dims: int = 2,
    num_ports: Optional[int] = None,
    meta_levels: int = 2,
) -> List[TableCostSummary]:
    """Convenience wrapper returning the Table 5 rows for one network size."""
    model = TableCostModel(
        num_nodes=num_nodes,
        n_dims=n_dims,
        num_ports=num_ports,
        meta_levels=meta_levels,
    )
    return model.summaries()
