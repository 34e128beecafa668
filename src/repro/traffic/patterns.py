"""Synthetic traffic patterns (Section 2.2 of the paper).

The paper evaluates four patterns -- uniform, transpose, bit-reversal and
perfect shuffle -- "consistent with standard definitions for synthetic
traffic patterns used in interconnection network studies" (Fulgham &
Snyder).  Bit-complement, tornado, nearest-neighbour and hotspot patterns
are provided as well for studies beyond the paper's four patterns.

The bit-oriented permutations operate on the binary node address (which
requires a power-of-two node count); transpose swaps the X and Y
coordinates (which requires a square 2-D network).  A permutation source
whose image equals itself does not inject traffic, following common
practice for these benchmarks.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from repro.network.topology import Topology
from repro.registry import TRAFFIC_PATTERNS, register

__all__ = [
    "BitComplementPattern",
    "BitReversalPattern",
    "HotspotPattern",
    "NearestNeighborPattern",
    "PerfectShufflePattern",
    "TornadoPattern",
    "TrafficPattern",
    "TransposePattern",
    "UniformPattern",
    "make_pattern",
]


class TrafficPattern(ABC):
    """Maps a source node to a destination node for each generated message."""

    #: Report name ("uniform", "transpose", ...).
    name: str = "pattern"

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """Topology the pattern addresses."""
        return self._topology

    @abstractmethod
    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        """Destination for a message injected at ``source``.

        Returns ``None`` when the source does not inject under this pattern
        (permutation fixed points).
        """

    def _require_power_of_two(self) -> int:
        """Number of address bits; raises if the node count is not 2^k."""
        num_nodes = self._topology.num_nodes
        if num_nodes & (num_nodes - 1):
            raise ValueError(
                f"{self.name} traffic needs a power-of-two node count, got {num_nodes}"
            )
        return num_nodes.bit_length() - 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(topology={self._topology!r})"


@register("traffic")
class UniformPattern(TrafficPattern):
    """Every message picks a destination uniformly at random (excluding self)."""

    name = "uniform"

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        num_nodes = self._topology.num_nodes
        if num_nodes < 2:
            # A single-node network has no destination other than the
            # source; treat every injection slot as a fixed point instead
            # of crashing in randrange(0).
            return None
        destination = rng.randrange(num_nodes - 1)
        # Skip over the source so all other nodes are equally likely.
        if destination >= source:
            destination += 1
        return destination


@register("traffic")
class TransposePattern(TrafficPattern):
    """Matrix-transpose permutation: node (x, y) sends to node (y, x)."""

    name = "transpose"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        if topology.n_dims != 2 or topology.dims[0] != topology.dims[1]:
            raise ValueError("transpose traffic needs a square 2-D network")

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        x, y = self._topology.coordinates(source)
        destination = self._topology.node_id((y, x))
        return None if destination == source else destination


@register("traffic")
class BitReversalPattern(TrafficPattern):
    """Bit-reversal permutation of the binary node address."""

    name = "bit-reversal"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._bits = self._require_power_of_two()

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        destination = 0
        for bit in range(self._bits):
            if source & (1 << bit):
                destination |= 1 << (self._bits - 1 - bit)
        return None if destination == source else destination


@register("traffic")
class PerfectShufflePattern(TrafficPattern):
    """Perfect-shuffle permutation: rotate the address left by one bit."""

    name = "shuffle"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._bits = self._require_power_of_two()

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        mask = (1 << self._bits) - 1
        destination = ((source << 1) | (source >> (self._bits - 1))) & mask
        return None if destination == source else destination


@register("traffic")
class BitComplementPattern(TrafficPattern):
    """Bit-complement permutation: invert every address bit."""

    name = "bit-complement"

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self._bits = self._require_power_of_two()

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        mask = (1 << self._bits) - 1
        destination = (~source) & mask
        return None if destination == source else destination


@register("traffic")
class TornadoPattern(TrafficPattern):
    """Tornado traffic: move half-way around every dimension.

    On a torus the classic definition applies: every node sends to the
    node ``extent // 2`` hops further along each wrapping dimension.  A
    mesh has no wrap-around channels, so "half-way around" is undefined
    there; the ``% extent`` arithmetic previously produced wrap-around
    destinations that turned edge sources into *short* backward trips
    instead of long ones.  On meshes the offset (``extent // 2 - 1``, the
    longest hop that keeps the center-to-center spirit without crossing
    the missing wrap link) is therefore *clamped* at the mesh edge:
    sources near the high edge send shorter distances, and the far corner
    becomes a fixed point that does not inject -- mirroring how the
    permutation patterns treat their fixed points.  Raising instead (as
    the bit patterns do for non-power-of-two networks) was rejected so
    tornado sweeps stay runnable on the paper's mesh topologies.
    """

    name = "tornado"

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        coords = self._topology.coordinates(source)
        dims = self._topology.dims
        if self._topology.wraps:
            target = tuple(
                (coordinate + extent // 2) % extent if extent > 1 else coordinate
                for coordinate, extent in zip(coords, dims)
            )
        else:
            target = tuple(
                min(coordinate + extent // 2 - 1, extent - 1)
                if extent > 1
                else coordinate
                for coordinate, extent in zip(coords, dims)
            )
        destination = self._topology.node_id(target)
        return None if destination == source else destination


@register("traffic")
class NearestNeighborPattern(TrafficPattern):
    """Each node sends to its +X neighbour (wrapping at the mesh edge)."""

    name = "neighbor"

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        coords = list(self._topology.coordinates(source))
        coords[0] = (coords[0] + 1) % self._topology.dims[0]
        destination = self._topology.node_id(coords)
        return None if destination == source else destination


@register("traffic")
class HotspotPattern(TrafficPattern):
    """Uniform traffic with an extra fraction directed at one hotspot node."""

    name = "hotspot"

    def __init__(
        self, topology: Topology, hotspot: Optional[int] = None, fraction: float = 0.1
    ) -> None:
        super().__init__(topology)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"hotspot fraction must be in [0, 1], got {fraction}")
        center = tuple(extent // 2 for extent in topology.dims)
        self._hotspot = hotspot if hotspot is not None else topology.node_id(center)
        self._fraction = fraction
        self._uniform = UniformPattern(topology)

    @property
    def hotspot(self) -> int:
        """The node receiving the extra traffic."""
        return self._hotspot

    def destination(self, source: int, rng: random.Random) -> Optional[int]:
        if source != self._hotspot and rng.random() < self._fraction:
            return self._hotspot
        return self._uniform.destination(source, rng)


#: Built-in pattern names (plugins registered later do not appear here; use
#: :meth:`repro.registry.TRAFFIC_PATTERNS.names` for the live list).
PATTERN_NAMES = tuple(sorted(TRAFFIC_PATTERNS.names()))


def make_pattern(name: str, topology: Topology, **kwargs) -> TrafficPattern:
    """Instantiate a traffic pattern by its report name.

    Looks ``name`` up in :data:`repro.registry.TRAFFIC_PATTERNS`, so
    user-registered patterns are constructed exactly like the built-ins.
    """
    factory = TRAFFIC_PATTERNS.get(name)
    return factory(topology, **kwargs)
