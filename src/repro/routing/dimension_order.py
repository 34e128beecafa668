"""Deterministic dimension-order (XY) routing.

The oblivious baseline of the paper's Figure 5: a message fully corrects
its offset in dimension 0 (X) before moving in dimension 1 (Y), and so on.
Dimension-order routing is deadlock free on a mesh with a single virtual
channel, so every virtual channel may carry it.

On a torus the wraparound links close a cyclic dependency per dimension,
so the virtual channels additionally follow the dateline discipline: all
VCs become escape channels split into two dateline classes, a message
uses class 0 until its route crosses the dateline link of the dimension
it is travelling in and class 1 afterwards.  That needs at least two
virtual channels per physical channel (one per class).
"""

from __future__ import annotations

from repro.network.topology import Topology
from repro.routing.base import (
    RouteDecision,
    RoutingAlgorithm,
    VirtualChannelClasses,
    dateline_escape_classes,
)

__all__ = ["DimensionOrderRouting", "dimension_order_vc_classes"]


def dimension_order_vc_classes(vcs_per_port: int, wraps: bool) -> VirtualChannelClasses:
    """Dimension-order routing's virtual-channel rule.

    On a mesh every VC carries the same deterministic relation, so all
    are "adaptive class" channels with no reserved escapes.  On a torus
    every VC is an escape channel of the dateline subfunction, split
    into the two dateline classes, so it needs ``1 + wraps`` VCs per
    port.  Both the network cores and ``SimulationConfig`` construction
    apply it.
    """
    if not wraps:
        return VirtualChannelClasses(adaptive_vcs=tuple(range(vcs_per_port)), escape_vcs=())
    if vcs_per_port < 2:
        raise ValueError(
            "SimulationConfig: routing='dimension-order' on a wrapping "
            "topology needs >=2 escape VCs on a torus (all VCs become "
            "dateline escape channels, one class before the dateline "
            f"crossing, one after); got vcs_per_port={vcs_per_port}"
        )
    escape = tuple(range(vcs_per_port))
    return VirtualChannelClasses(
        adaptive_vcs=(),
        escape_vcs=escape,
        escape_classes=dateline_escape_classes(escape),
    )


class DimensionOrderRouting(RoutingAlgorithm):
    """Deterministic XY (dimension-order) routing over a mesh or torus.

    On a mesh every virtual channel carries the same deterministic
    relation.  On a torus the channels are declared *escape* channels
    under the dateline discipline (two classes, minimum two VCs); the
    allocator then draws from the class matching the message's dateline
    state, which is exactly the classic two-VC torus scheme.
    """

    name = "dimension-order"

    def __init__(self, topology: Topology) -> None:
        self._topology = topology

    @property
    def decides_by_signs(self) -> bool:
        # The dimension-order port is the first productive port of the
        # sign pattern.
        return True

    def vc_classes(self, vcs_per_port: int) -> VirtualChannelClasses:
        return dimension_order_vc_classes(vcs_per_port, self._topology.wraps)

    def decide(self, current: int, destination: int) -> RouteDecision:
        port = self._topology.dimension_order_port(current, destination)
        if self._topology.wraps:
            # All VCs are escape channels: the adaptive branch must not
            # offer candidates, or headers would bypass the dateline
            # class selection.
            return RouteDecision(adaptive_ports=(), escape_port=port)
        return RouteDecision(adaptive_ports=(port,), escape_port=port)
