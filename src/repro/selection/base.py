"""Path-selection interface.

A :class:`PathSelector` lives inside one router.  At virtual-channel
allocation time the router hands it the status of every candidate output
port (only ports that currently have a free, usable virtual channel are
offered) and the selector returns the port to use.  The status carries the
port's use history too: the use count and last-use cycle that both cores
keep per output port, which the usage-history heuristics (LFU, LRU) rank
by.  A built-in selector is therefore a function of the statuses it is
handed; only ``random`` consumes state (its RNG stream).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["OutputPortStatus", "PathSelector"]


@dataclass(frozen=True)
class OutputPortStatus:
    """Snapshot of one candidate output port offered to the selector.

    Attributes
    ----------
    port:
        Output-port index.
    dimension:
        Dimension the port travels along (0 for X, 1 for Y, ...); the local
        port reports -1.
    usage_count:
        Number of flits ever forwarded through the port (the LFU counter).
    last_used_cycle:
        Cycle of the most recent flit forwarded through the port, -1 if the
        port has never been used (the LRU "age" information).
    total_credits:
        Sum of available credits over the port's virtual channels, i.e. the
        amount of free buffer space at the downstream router (MAX-CREDIT).
    busy_vcs:
        Number of the port's virtual channels currently allocated to a
        message -- the degree of virtual-channel multiplexing (MIN-MUX).
    free_vcs:
        Number of candidate virtual channels currently free on this port.
    """

    port: int
    dimension: int
    usage_count: int
    last_used_cycle: int
    total_credits: int
    busy_vcs: int
    free_vcs: int


class PathSelector(ABC):
    """Per-router path-selection heuristic.

    :meth:`select` sees everything the router knows about each candidate
    port -- credits, multiplexing degree and use history -- in its
    :class:`OutputPortStatus`, so a heuristic needs no state of its own
    and no notification when a flit is forwarded.
    """

    #: Name used in experiment reports ("static-xy", "lru", ...).
    name: str = "selector"

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random(0)

    @abstractmethod
    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        """Pick one output port from the non-empty candidate list."""

    @staticmethod
    def _static_order(status: OutputPortStatus) -> tuple:
        """Tie-break key: lowest dimension first, then lowest port index.

        All heuristics resolve ties the same way the STATIC-XY policy
        would, so two heuristics only differ when their actual metric
        differs.
        """
        return (status.dimension, status.port)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
