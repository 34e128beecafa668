"""Input and output virtual-channel state.

An input virtual channel owns a flit FIFO and a small state machine:

* ``IDLE`` -- no message occupies the channel;
* ``ROUTING`` -- a header flit is traversing the routing stages of the
  pipeline (decode, table lookup, selection/arbitration eligibility);
* ``WAITING`` -- the header is ready but no suitable output virtual
  channel could be allocated yet;
* ``ACTIVE`` -- an output virtual channel has been allocated and flits of
  the message flow through the crossbar as credits permit.

An output virtual channel tracks its allocation (which input VC currently
owns it) and the credit counter for the downstream buffer it feeds.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Deque, List, Optional, Tuple

from repro.traffic.message import Flit

__all__ = ["InputVirtualChannel", "OutputPort", "OutputVirtualChannel", "VCState"]


class VCState(Enum):
    """State machine of an input virtual channel."""

    IDLE = "idle"
    ROUTING = "routing"
    WAITING = "waiting"
    ACTIVE = "active"


class InputVirtualChannel:
    """One virtual channel of a router input port."""

    __slots__ = (
        "port",
        "vc",
        "buffer",
        "capacity",
        "state",
        "ready_cycle",
        "out_port",
        "out_vc",
        "out_channel",
    )

    def __init__(self, port: int, vc: int, capacity: int) -> None:
        self.port = port
        self.vc = vc
        self.buffer: Deque[Flit] = deque()
        self.capacity = capacity
        self.state = VCState.IDLE
        #: Cycle at which the buffered header becomes eligible for
        #: selection/arbitration (set when entering ROUTING).
        self.ready_cycle = 0
        #: Allocated output port / virtual channel (valid when ACTIVE).
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None
        #: The allocated :class:`OutputVirtualChannel` object itself,
        #: cached so the switch-allocation inner loop reads the credit
        #: counter without re-indexing through the output port each cycle.
        self.out_channel: Optional["OutputVirtualChannel"] = None

    @property
    def occupancy(self) -> int:
        """Number of buffered flits."""
        return len(self.buffer)

    @property
    def has_space(self) -> bool:
        """True when another flit can be buffered."""
        return len(self.buffer) < self.capacity

    def head_flit(self) -> Optional[Flit]:
        """The flit at the head of the FIFO, if any."""
        return self.buffer[0] if self.buffer else None

    def push(self, flit: Flit) -> None:
        """Append an arriving flit; credit flow control must prevent overflow."""
        if len(self.buffer) >= self.capacity:
            raise OverflowError(
                f"input VC ({self.port},{self.vc}) overflow: credit protocol violated"
            )
        self.buffer.append(flit)

    def pop(self) -> Flit:
        """Remove and return the head flit (on a switch-allocation grant)."""
        return self.buffer.popleft()

    def release(self) -> None:
        """Return to IDLE after the tail flit has left."""
        self.state = VCState.IDLE
        self.out_port = None
        self.out_vc = None
        self.out_channel = None

    def __repr__(self) -> str:
        return (
            f"InputVC(port={self.port}, vc={self.vc}, state={self.state.value}, "
            f"occupancy={len(self.buffer)}/{self.capacity})"
        )


class OutputVirtualChannel:
    """One virtual channel of a router output port."""

    __slots__ = ("port", "vc", "credits", "owner")

    def __init__(self, port: int, vc: int, credits: int) -> None:
        self.port = port
        self.vc = vc
        #: Free buffer slots at the downstream input virtual channel.
        self.credits = credits
        #: (input port, input vc) of the message currently holding this
        #: channel, or None when free.
        self.owner: Optional[Tuple[int, int]] = None

    @property
    def is_free(self) -> bool:
        """True when no message holds this virtual channel."""
        return self.owner is None

    def allocate(self, in_port: int, in_vc: int) -> None:
        """Reserve the channel for one message."""
        if self.owner is not None:
            raise ValueError(
                f"output VC ({self.port},{self.vc}) already owned by {self.owner}"
            )
        self.owner = (in_port, in_vc)

    def release(self) -> None:
        """Free the channel after the owning message's tail passed."""
        self.owner = None

    def __repr__(self) -> str:
        return (
            f"OutputVC(port={self.port}, vc={self.vc}, credits={self.credits}, "
            f"owner={self.owner})"
        )


class OutputPort:
    """A router output port: its virtual channels plus selection metadata."""

    __slots__ = ("port", "vcs", "usage_count", "last_used_cycle", "connected")

    def __init__(self, port: int, num_vcs: int, credits_per_vc: int) -> None:
        self.port = port
        self.vcs: List[OutputVirtualChannel] = [
            OutputVirtualChannel(port, vc, credits_per_vc) for vc in range(num_vcs)
        ]
        #: Use history, updated by ``Router._forward`` and handed to the
        #: path selector in every ``OutputPortStatus``: the cumulative
        #: flits forwarded through this port (LFU metric; the router's
        #: ``flits_forwarded`` sums it) and the cycle of the most recent
        #: one (LRU metric), -1 if never.
        self.usage_count = 0
        self.last_used_cycle = -1
        #: False for mesh-edge ports with no link attached.
        self.connected = False

    def free_vcs(self, among: Tuple[int, ...]) -> List[int]:
        """Indices of free virtual channels, restricted to ``among``."""
        return [vc for vc in among if self.vcs[vc].is_free]

    def empty_vcs(self, among: Tuple[int, ...], capacity: int) -> List[int]:
        """Free virtual channels whose downstream buffer is empty.

        Atomic allocation (wrapping topologies): a header may claim a
        virtual channel only when every downstream buffer slot is
        credited back, so a channel queue never holds flits of two
        messages.  Duato's wormhole deadlock-freedom argument assumes
        exactly this -- with FIFO chaining a header can be buried behind
        a foreign blocked message inside an escape buffer, re-coupling
        the escape subnetwork to adaptive-channel cycles.
        """
        return [
            vc
            for vc in among
            if self.vcs[vc].is_free and self.vcs[vc].credits == capacity
        ]

    def busy_vc_count(self) -> int:
        """Number of allocated virtual channels (MIN-MUX metric)."""
        return sum(1 for vc in self.vcs if not vc.is_free)

    def total_credits(self) -> int:
        """Total credits over all virtual channels (MAX-CREDIT metric)."""
        return sum(vc.credits for vc in self.vcs)

    def __repr__(self) -> str:
        return (
            f"OutputPort(port={self.port}, vcs={len(self.vcs)}, "
            f"connected={self.connected}, used={self.usage_count})"
        )
