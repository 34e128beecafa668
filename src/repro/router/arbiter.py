"""Round-robin arbiters for the crossbar's input and output stages.

A round-robin arbiter grants one of the competing requesters and then
gives that requester the lowest priority for the next arbitration, which
provides strong fairness (no requester can be starved while others are
repeatedly granted).
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

__all__ = ["RoundRobinArbiter"]

RequesterId = TypeVar("RequesterId", bound=int)


class RoundRobinArbiter:
    """A rotating-priority arbiter over a fixed set of requester slots.

    Parameters
    ----------
    num_requesters:
        Number of requester slots (e.g. the number of input ports competing
        for one output port).
    """

    __slots__ = ("_num_requesters", "_next_priority")

    def __init__(self, num_requesters: int) -> None:
        if num_requesters < 1:
            raise ValueError("an arbiter needs at least one requester slot")
        self._num_requesters = num_requesters
        self._next_priority = 0

    @property
    def num_requesters(self) -> int:
        """Number of requester slots."""
        return self._num_requesters

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        """Grant one requester from ``requests`` (slot indices), or None.

        The slot at the current priority pointer wins if it is requesting;
        otherwise the next requesting slot in cyclic order wins.  The
        pointer then moves one past the winner.
        """
        if not requests:
            return None
        requesting = set(requests)
        for offset in range(self._num_requesters):
            slot = (self._next_priority + offset) % self._num_requesters
            if slot in requesting:
                self._next_priority = (slot + 1) % self._num_requesters
                return slot
        return None

    def __repr__(self) -> str:
        return (
            f"RoundRobinArbiter(slots={self._num_requesters}, "
            f"next={self._next_priority})"
        )
