"""Per-node traffic sources and the network-wide traffic generator.

The :class:`TrafficGenerator` creates one :class:`TrafficSource` per node.
Each source draws destinations from the configured traffic pattern and
inter-arrival times from the configured injection process, and stops
producing once the network-wide message budget (warm-up plus measured
messages) has been generated -- mirroring the paper's methodology of
injecting 10,000 warm-up messages and measuring over the next 400,000.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.engine.rng import SimulationRNG
from repro.network.topology import Topology
from repro.traffic.injection import InjectionProcess
from repro.traffic.message import Message
from repro.traffic.patterns import TrafficPattern

__all__ = ["TrafficGenerator", "TrafficSource"]


class TrafficGenerator:
    """Factory and budget keeper for all per-node traffic sources.

    Parameters
    ----------
    topology:
        Network being loaded.
    pattern:
        Destination pattern shared by all sources.
    process:
        Injection process (its rate is the per-node message rate).
    message_length:
        Message length in flits.
    rng:
        Master random-number factory; each source receives its own streams.
    max_messages:
        Total messages to generate across all nodes (None = unlimited).
    """

    def __init__(
        self,
        topology: Topology,
        pattern: TrafficPattern,
        process: InjectionProcess,
        message_length: int,
        rng: SimulationRNG,
        max_messages: Optional[int] = None,
    ) -> None:
        if message_length < 1:
            raise ValueError("messages are at least one flit long")
        self._topology = topology
        self._pattern = pattern
        self._process = process
        self._message_length = message_length
        self._rng = rng
        self._max_messages = max_messages
        self._generated = 0

    @property
    def generated(self) -> int:
        """Messages generated so far across every source."""
        return self._generated

    @property
    def max_messages(self) -> Optional[int]:
        """The network-wide generation budget (None = unlimited)."""
        return self._max_messages

    @property
    def message_length(self) -> int:
        """Message length in flits."""
        return self._message_length

    @property
    def pattern(self) -> TrafficPattern:
        """The destination pattern shared by all sources."""
        return self._pattern

    @property
    def exhausted(self) -> bool:
        """True once the generation budget has been spent."""
        return self._max_messages is not None and self._generated >= self._max_messages

    def allow(self) -> bool:
        """Reserve one message from the budget; False when exhausted."""
        if self.exhausted:
            return False
        self._generated += 1
        return True

    def source_for(self, node: int) -> "TrafficSource":
        """Create the traffic source of one node."""
        return TrafficSource(
            node=node,
            generator=self,
            pattern=self._pattern,
            process=self._process,
            message_length=self._message_length,
            destination_rng=self._rng.stream(f"pattern-{node}"),
            arrival_rng=self._rng.stream(f"arrival-{node}"),
        )

    def sources(self) -> List["TrafficSource"]:
        """Create the sources for every node of the topology."""
        return [self.source_for(node) for node in range(self._topology.num_nodes)]


class TrafficSource:
    """Generates the message stream of a single node."""

    def __init__(
        self,
        node: int,
        generator: TrafficGenerator,
        pattern: TrafficPattern,
        process: InjectionProcess,
        message_length: int,
        destination_rng: random.Random,
        arrival_rng: random.Random,
    ) -> None:
        self._node = node
        self._generator = generator
        self._pattern = pattern
        self._process = process
        self._message_length = message_length
        self._destination_rng = destination_rng
        self._arrival_rng = arrival_rng
        self._next_arrival = process.next_interval(arrival_rng)

    @property
    def node(self) -> int:
        """Node this source injects at."""
        return self._node

    def next_due_cycle(self) -> Optional[int]:
        """The cycle at which the next message (or permutation fixed point)
        falls due, or ``None`` when this source will never produce again.

        An arrival at continuous time ``t`` is created by the
        :meth:`messages_due` call of cycle ``floor(t)`` (the first cycle
        with ``t < cycle + 1``).  Once the network-wide budget is
        exhausted no source creates messages any more, so the flat core
        may stop polling it; the remaining
        inter-arrival draws it skips feed nothing observable (each node's
        arrival stream is private to that node).
        """
        if self._generator.exhausted:
            return None
        if math.isinf(self._next_arrival):
            return None
        return math.floor(self._next_arrival)

    def messages_due(self, cycle: int) -> List[Message]:
        """Messages whose arrival time falls within ``cycle``.

        Arrival times are continuous; a message arriving in
        ``[cycle, cycle + 1)`` is created at ``cycle``.  Permutation fixed
        points consume their arrival slot without creating a message.
        """
        due: List[Message] = []
        while self._next_arrival < cycle + 1:
            self._next_arrival += self._process.next_interval(self._arrival_rng)
            if self._generator.exhausted:
                continue
            destination = self._pattern.destination(self._node, self._destination_rng)
            if destination is None:
                continue
            if not self._generator.allow():
                continue
            due.append(
                Message(
                    source=self._node,
                    destination=destination,
                    length=self._message_length,
                    creation_cycle=cycle,
                )
            )
        return due

    def __repr__(self) -> str:
        return f"TrafficSource(node={self._node}, pattern={self._pattern.name})"
