"""Duato's fully adaptive routing (the algorithm used throughout the paper).

Duato's methodology [Duato, IEEE TPDS 1993] splits the virtual channels of
every physical channel into two classes:

* **escape channels** implementing a deadlock-free routing subfunction --
  here deterministic dimension-order (XY) routing on the mesh; and
* **adaptive channels** on which a message may follow *any* minimal
  productive port.

A message always has the escape channel of its dimension-order port as a
fallback, so no cyclic dependency can stall the network even though the
adaptive channels are unrestricted.  Only one extra virtual channel is
needed, which is why the paper picks this algorithm for a cost-effective
adaptive router.

On tori the dimension-order subfunction alone is cyclic (the wraparound
links close a ring per dimension), so the escape channels additionally
follow the classic **dateline** discipline: the escape pool is split
into two classes, a message requests class 0 until its route has crossed
the dateline link of the dimension it is escaping on (the wraparound
link, see :meth:`~repro.network.topology.Topology.dateline_bits`) and
class 1 afterwards.  Ordering escape channels by ``(dimension, class,
ring position)`` then strictly increases along every dependency chain --
dimension-order routing leaves a dimension only upward, the class bump
breaks each ring -- so the extended subfunction stays acyclic; the
channel-dependency-graph check in :mod:`repro.tables.validation`
verifies this mechanically.  Two escape virtual channels (one per
class) are therefore the minimum on a torus.

Duato's wormhole proof additionally assumes one message per channel
queue, so on wrapping topologies both cores allocate output virtual
channels *atomically*: a header may claim a channel only when its
downstream buffer is fully credited.  Without this, FIFO chaining can
bury a header inside an escape buffer behind a foreign blocked message
that re-entered the adaptive network, re-coupling the escape
subnetwork to adaptive-channel cycles closed by the wraparound links.
Meshes keep the chained allocation (and their exact flit schedules).

The adaptive candidate ports are obtained from a routing *table*
(full-table, meta-table or economical-storage); restricting the table
restricts adaptivity, which is exactly the effect studied in Section 5 of
the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.topology import Topology
from repro.routing.base import (
    RouteDecision,
    RoutingAlgorithm,
    VirtualChannelClasses,
    dateline_escape_classes,
)

if TYPE_CHECKING:  # pragma: no cover - import used for type checking only
    from repro.tables.base import RoutingTable

__all__ = ["DuatoFullyAdaptiveRouting"]


class DuatoFullyAdaptiveRouting(RoutingAlgorithm):
    """Fully adaptive minimal routing with dimension-order escape channels.

    Parameters
    ----------
    topology:
        The network the algorithm routes on.  On meshes the escape
        subfunction is plain dimension-order routing; on tori it is
        dimension-order with the dateline VC discipline, which needs two
        escape channels (one per dateline class).
    table:
        Routing table consulted for the adaptive candidate ports.
    num_escape_vcs:
        Number of virtual channels per physical channel reserved as escape
        channels (default 1, the mesh minimum; the paper's routers have 4
        VCs so 3 remain fully adaptive).
    """

    name = "duato-fully-adaptive"

    def __init__(
        self,
        topology: Topology,
        table: "RoutingTable",
        num_escape_vcs: int = 1,
    ) -> None:
        if num_escape_vcs < 1:
            raise ValueError("at least one escape virtual channel is required")
        if topology.wraps and num_escape_vcs < 2:
            raise ValueError(
                "the dateline escape discipline needs >=2 escape VCs on a "
                f"torus (one per dateline class), got num_escape_vcs="
                f"{num_escape_vcs}"
            )
        self._topology = topology
        self._table = table
        self._num_escape_vcs = num_escape_vcs

    @property
    def decides_by_signs(self) -> bool:
        # The escape port is the sign pattern's dimension-order port, so
        # the decision is per sign class whenever the table is.
        return getattr(self._table, "sign_indexed", False)

    @property
    def min_virtual_channels(self) -> int:
        # One escape channel plus at least one adaptive channel.
        return self._num_escape_vcs + 1

    def vc_classes(self, vcs_per_port: int) -> VirtualChannelClasses:
        self.validate(vcs_per_port)
        escape = tuple(range(self._num_escape_vcs))
        adaptive = tuple(range(self._num_escape_vcs, vcs_per_port))
        classes = dateline_escape_classes(escape) if self._topology.wraps else None
        return VirtualChannelClasses(
            adaptive_vcs=adaptive, escape_vcs=escape, escape_classes=classes
        )

    def decide(self, current: int, destination: int) -> RouteDecision:
        adaptive_ports = self._table.lookup(current, destination)
        escape_port = self._topology.dimension_order_port(current, destination)
        return RouteDecision(adaptive_ports=adaptive_ports, escape_port=escape_port)
