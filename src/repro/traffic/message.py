"""Messages and flits.

In a wormhole-switched network a message is broken into flow-control
digits (*flits*).  The header flit carries the routing information and
establishes the path hop by hop; body flits and the tail flit follow the
header through the reserved virtual channels; the tail flit releases the
path as it passes.

The LAPSES look-ahead technique additionally stores, in the header flit,
the candidate output ports to use at the *next* router (Section 3.2 of the
paper).  That per-hop route information is modelled by the
``lookahead_node``/``lookahead_decision`` fields of :class:`Flit`, which
look-ahead routers overwrite at every hop while non-look-ahead routers
ignore them.

Only the object core (:mod:`repro.router`, :mod:`repro.network.interface`)
moves :class:`Flit` objects.  The flat core
(:mod:`repro.network.flatcore`) moves flits as ints and keeps the same
header state per message in slot arrays; :class:`Message` is shared by
both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

__all__ = ["FlitType", "Flit", "Message"]


class FlitType(Enum):
    """Role of a flit within its message."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    #: Single-flit messages carry routing info and release the path at once.
    HEAD_TAIL = "head_tail"

    @property
    def is_head(self) -> bool:
        """True for flits that carry routing information."""
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        """True for flits that release the wormhole path behind them."""
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


_message_ids = itertools.count()


@dataclass
class Message:
    """A message offered to the network by a traffic source.

    Parameters
    ----------
    source, destination:
        Node identifiers.
    length:
        Message length in flits (the paper's default is 20 flits).
    creation_cycle:
        Cycle at which the source generated the message.  Source queueing
        time (creation to injection of the header flit) is part of the
        reported average latency, as is standard for latency/load curves.
    """

    source: int
    destination: int
    length: int
    creation_cycle: int
    message_id: int = field(default_factory=lambda: next(_message_ids))

    #: Cycle the header flit entered the injection port of the source router.
    injection_cycle: Optional[int] = None
    #: Cycle the tail flit was ejected at the destination network interface.
    ejection_cycle: Optional[int] = None
    #: Number of routers traversed by the header flit.
    hops: int = 0
    #: Position in the network-wide creation order, stamped by the
    #: statistics collector when it registers the message (None before);
    #: it decides whether the message is warm-up or measured.
    creation_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"message length must be >= 1 flit, got {self.length}")
        if self.source < 0 or self.destination < 0:
            raise ValueError("source and destination must be non-negative node ids")

    def make_flits(self) -> List["Flit"]:
        """Break the message into its flit sequence (head, bodies, tail)."""
        flits: List[Flit] = []
        if self.length == 1:
            flits.append(Flit(message=self, sequence=0, flit_type=FlitType.HEAD_TAIL))
            return flits
        flits.append(Flit(message=self, sequence=0, flit_type=FlitType.HEAD))
        for sequence in range(1, self.length - 1):
            flits.append(Flit(message=self, sequence=sequence, flit_type=FlitType.BODY))
        flits.append(
            Flit(message=self, sequence=self.length - 1, flit_type=FlitType.TAIL)
        )
        return flits

    @property
    def is_delivered(self) -> bool:
        """True once the tail flit has been ejected at the destination."""
        return self.ejection_cycle is not None

    @property
    def total_latency(self) -> int:
        """Creation-to-ejection latency (includes source queueing)."""
        if self.ejection_cycle is None:
            raise ValueError("message has not been delivered yet")
        return self.ejection_cycle - self.creation_cycle

    @property
    def network_latency(self) -> int:
        """Injection-to-ejection latency (excludes source queueing)."""
        if self.ejection_cycle is None or self.injection_cycle is None:
            raise ValueError("message has not been delivered yet")
        return self.ejection_cycle - self.injection_cycle

    def __repr__(self) -> str:
        return (
            f"Message(id={self.message_id}, {self.source}->{self.destination}, "
            f"len={self.length}, created={self.creation_cycle})"
        )


@dataclass
class Flit:
    """A flow-control digit of a message.

    Only header flits carry routing state.  ``lookahead_node`` and
    ``lookahead_decision`` hold the look-ahead payload: the routing
    decision for the *next* router along the path, computed by the current
    router concurrently with its own arbitration (Fig. 4(b) in the paper).
    Non-look-ahead routers leave them ``None`` and perform a table lookup
    on arrival instead.
    """

    message: Message
    sequence: int
    flit_type: FlitType

    #: Node the carried look-ahead decision was computed for (the next
    #: router along the path).  ``None`` when no decision is carried.
    lookahead_node: Optional[int] = None
    #: The carried :class:`~repro.routing.base.RouteDecision` for
    #: ``lookahead_node``; typed loosely to avoid a package cycle.
    lookahead_decision: Optional[object] = None

    #: Per-dimension dateline-crossing mask (header flits on tori): bit
    #: ``d`` is set once the route has traversed dimension ``d``'s
    #: dateline (wraparound) link, switching the message's escape
    #: requests in that dimension from dateline class 0 to class 1.
    #: Always 0 on meshes (their links contribute no dateline bits).
    dateline_mask: int = 0

    #: Cycle this flit was written into the current router's input buffer.
    arrival_cycle: int = 0

    #: Role flags, precomputed from ``flit_type``: the router's busy path
    #: reads them once per flit per hop, where a property chained through
    #: the :class:`FlitType` enum is measurable overhead.
    is_head: bool = field(init=False, repr=False, compare=False)
    is_tail: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_head = self.flit_type.is_head
        self.is_tail = self.flit_type.is_tail

    @property
    def destination(self) -> int:
        """Destination node of the owning message."""
        return self.message.destination

    @property
    def source(self) -> int:
        """Source node of the owning message."""
        return self.message.source

    def __repr__(self) -> str:
        return (
            f"Flit(msg={self.message.message_id}, seq={self.sequence}, "
            f"type={self.flit_type.value})"
        )
