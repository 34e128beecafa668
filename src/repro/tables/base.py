"""Routing-table interface.

A routing table answers, for the router of a given node, "which output
ports may a message heading to destination ``d`` take?".  Tables are
*programmed* from a routing-relation provider (see
:mod:`repro.routing.providers`) exactly as a real table-based router's
tables are written by system software at boot time: once, in the
constructor.  From then on they are only consulted (``lookup``), so every
memo of their answers stays valid for the table's lifetime.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

__all__ = ["RoutingTable", "TableProgrammingError"]


class TableProgrammingError(ValueError):
    """Raised when a table is programmed with an inconsistent relation."""


class RoutingTable(ABC):
    """Abstract routing table shared by all storage organisations."""

    #: Human-readable name used in experiment reports.
    name: str = "table"

    #: True when :meth:`lookup` depends on ``(current,
    #: topology.relative_signs(current, destination))`` alone, as in a
    #: sign-indexed economical-storage table.
    sign_indexed: bool = False

    @abstractmethod
    def lookup(self, current: int, destination: int) -> Tuple[int, ...]:
        """Candidate output ports at node ``current`` for ``destination``.

        The returned tuple is never empty; routing to the local node
        returns ``(LOCAL_PORT,)``.
        """

    @abstractmethod
    def entries_per_router(self) -> int:
        """Number of table entries stored in each router.

        This is the storage metric compared in Table 5 of the paper (each
        entry holds up to one port choice per alternative path).
        """

    def total_entries(self) -> int:
        """Total entries over the whole network (entries × routers)."""
        return self.entries_per_router() * self.num_routers()

    @abstractmethod
    def num_routers(self) -> int:
        """Number of routers this table instance covers."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries_per_router={self.entries_per_router()})"
        )
