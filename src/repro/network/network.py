"""Network assembly: routers, interfaces and links wired from a topology."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.network.interface import NetworkInterface
from repro.network.link import Link
from repro.network.topology import LOCAL_PORT, Topology, port_direction
from repro.router.config import RouterConfig
from repro.router.router import Router
from repro.routing.base import RoutingAlgorithm
from repro.selection.base import PathSelector
from repro.stats.collector import StatsCollector

__all__ = ["Network"]

#: Factory producing one path selector per router (selector state is per router).
SelectorFactory = Callable[[int], PathSelector]


class Network:
    """A complete simulatable network.

    Parameters
    ----------
    topology:
        Node/link structure to build.
    router_config:
        Microarchitecture shared by all routers.
    routing:
        Routing algorithm shared by all routers (stateless per node).
    selector_factory:
        Called once per node to create that router's path selector.
    stats:
        Statistics collector notified by every network interface.
    sources:
        Optional per-node traffic sources (``sources[node]`` may be None
        for nodes that only sink traffic).
    """

    def __init__(
        self,
        topology: Topology,
        router_config: RouterConfig,
        routing: RoutingAlgorithm,
        selector_factory: SelectorFactory,
        stats: StatsCollector,
        sources: Optional[Sequence[Optional[object]]] = None,
    ) -> None:
        self._topology = topology
        self._router_config = router_config
        self._routing = routing
        self._stats = stats

        self._routers: List[Router] = [
            Router(
                node_id=node,
                topology=topology,
                config=router_config,
                routing=routing,
                selector=selector_factory(node),
            )
            for node in range(topology.num_nodes)
        ]
        self._interfaces: List[NetworkInterface] = [
            NetworkInterface(
                node_id=node,
                router=self._routers[node],
                routing=routing,
                stats=stats,
                source=sources[node] if sources is not None else None,
            )
            for node in range(topology.num_nodes)
        ]
        self._links: List[Link] = []
        self._wire()

    def _wire(self) -> None:
        """Connect router-to-router links and the local interfaces."""
        for node, port, neighbor, neighbor_port in self._topology.links():
            self._routers[node].connect_output(port, self._routers[neighbor], neighbor_port)
            self._routers[neighbor].set_upstream(neighbor_port, self._routers[node], port)
            self._links.append(
                Link(
                    source=node,
                    source_port=port,
                    destination=neighbor,
                    destination_port=neighbor_port,
                    delay=self._router_config.link_delay_for(
                        port_direction(port)[0]
                    ),
                )
            )
        for node in range(self._topology.num_nodes):
            router = self._routers[node]
            interface = self._interfaces[node]
            router.connect_output(LOCAL_PORT, interface, LOCAL_PORT)
            router.set_upstream(LOCAL_PORT, interface, LOCAL_PORT)

    # -- accessors -----------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The topology this network was built from."""
        return self._topology

    @property
    def routers(self) -> List[Router]:
        """All routers, indexed by node id."""
        return self._routers

    @property
    def interfaces(self) -> List[NetworkInterface]:
        """All network interfaces, indexed by node id."""
        return self._interfaces

    @property
    def links(self) -> List[Link]:
        """Descriptors of every unidirectional router-to-router link."""
        return list(self._links)

    def router(self, node: int) -> Router:
        """The router of one node."""
        return self._routers[node]

    def interface(self, node: int) -> NetworkInterface:
        """The network interface of one node."""
        return self._interfaces[node]

    def components(self) -> List[object]:
        """All clocked components in kernel registration order.

        Registration order is the per-cycle phase order *and* the order in
        which interfaces draw from the shared network-wide message budget,
        so it must be deterministic: routers by node id, then interfaces
        by node id.  None of them forecasts its next event, so the kernel
        runs every one of them every cycle.
        """
        return list(self._routers) + list(self._interfaces)

    def is_idle(self) -> bool:
        """True when no flit is buffered or in flight anywhere."""
        return all(router.is_idle() for router in self._routers) and all(
            interface.is_idle() for interface in self._interfaces
        )

    def message_conservation_error(self) -> Optional[str]:
        """Why the message count does not balance, or None when it does.

        Every message the statistics collector saw created is delivered,
        in flight -- its tail flit is waiting at a source interface,
        buffered at a router or on a link -- or still queued at its
        interface.  O(buffered flits + nodes); the simulator checks it
        once per run.
        """
        created = self._stats.created
        delivered = self._stats.delivered
        components = [*self._routers, *self._interfaces]
        in_flight = sum(
            flit.is_tail for component in components for flit in component.held_flits()
        )
        queued = sum(interface.queue_length for interface in self._interfaces)
        if created == delivered + in_flight + queued:
            return None
        return (
            f"created {created} != delivered {delivered} + in flight "
            f"{in_flight} + queued at interfaces {queued}"
        )

    def __repr__(self) -> str:
        return (
            f"Network(topology={self._topology!r}, "
            f"pipeline={self._router_config.pipeline.name})"
        )
