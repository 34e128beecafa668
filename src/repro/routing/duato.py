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
verifies this mechanically.  So the escape count follows from the
topology: one escape VC on a mesh, two (one per class) on a torus
(:func:`duato_vc_classes`).

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

__all__ = ["DuatoFullyAdaptiveRouting", "duato_vc_classes"]


def duato_vc_classes(vcs_per_port: int, wraps: bool) -> VirtualChannelClasses:
    """Duato's virtual-channel rule: the first ``1 + wraps`` VCs escape,
    the rest are adaptive.

    One escape VC on a mesh, one per dateline class on a torus, plus at
    least one adaptive VC, so Duato needs ``2 + wraps`` VCs per port.
    Both the network cores (through :meth:`~DuatoFullyAdaptiveRouting.
    vc_classes`) and ``SimulationConfig`` construction apply it.
    """
    escape = (0, 1) if wraps else (0,)
    if vcs_per_port < len(escape) + 1:
        raise ValueError(
            "SimulationConfig.vcs_per_port: routing='duato' needs the "
            f"{len(escape)} escape VC(s) plus at least one adaptive VC per "
            f"port; got vcs_per_port={vcs_per_port}"
        )
    return VirtualChannelClasses(
        adaptive_vcs=tuple(range(len(escape), vcs_per_port)),
        escape_vcs=escape,
        escape_classes=dateline_escape_classes(escape) if wraps else None,
    )


class DuatoFullyAdaptiveRouting(RoutingAlgorithm):
    """Fully adaptive minimal routing with dimension-order escape channels.

    Parameters
    ----------
    topology:
        The network the algorithm routes on.  On meshes the escape
        subfunction is plain dimension-order routing over one escape VC
        (the paper's 4-VC routers keep 3 fully adaptive); on tori it is
        dimension-order with the dateline VC discipline over two escape
        VCs, one per dateline class (see :func:`duato_vc_classes`).
    table:
        Routing table consulted for the adaptive candidate ports.
    """

    name = "duato-fully-adaptive"

    def __init__(self, topology: Topology, table: "RoutingTable") -> None:
        self._topology = topology
        self._table = table

    @property
    def decides_by_signs(self) -> bool:
        # The escape port is the sign pattern's dimension-order port, so
        # the decision is per sign class whenever the table is.
        return getattr(self._table, "sign_indexed", False)

    def vc_classes(self, vcs_per_port: int) -> VirtualChannelClasses:
        return duato_vc_classes(vcs_per_port, self._topology.wraps)

    def decide(self, current: int, destination: int) -> RouteDecision:
        adaptive_ports = self._table.lookup(current, destination)
        escape_port = self._topology.dimension_order_port(current, destination)
        return RouteDecision(adaptive_ports=adaptive_ports, escape_port=escape_port)
