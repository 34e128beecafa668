"""Network assembly: routers and interfaces wired from a topology."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.network.interface import NetworkInterface
from repro.network.topology import LOCAL_PORT, Topology
from repro.router.router import Router
from repro.routing.base import RoutingAlgorithm
from repro.selection.base import PathSelector
from repro.stats.collector import StatsCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import SimulationConfig

__all__ = ["Network"]

#: Factory producing one path selector per router (selector state is per router).
SelectorFactory = Callable[[int], PathSelector]


class Network:
    """A complete simulatable network: the object core.

    The kernel drives it through :meth:`run`, which steps
    :meth:`deliver` and :meth:`evaluate` every cycle: the object core has
    no forecast of idle cycles.

    Parameters
    ----------
    topology:
        Node/link structure to build.
    config:
        The simulation configuration; every router and interface reads
        its microarchitectural fields (VCs, buffer depth, pipeline,
        link and credit delays).
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
        config: "SimulationConfig",
        routing: RoutingAlgorithm,
        selector_factory: SelectorFactory,
        stats: StatsCollector,
        sources: Optional[Sequence[Optional[object]]] = None,
    ) -> None:
        self._topology = topology
        self._config = config
        self._routing = routing
        self._stats = stats

        self._routers: List[Router] = [
            Router(
                node_id=node,
                topology=topology,
                config=config,
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
        self._wire()

    def _wire(self) -> None:
        """Connect router-to-router links and the local interfaces."""
        for node, port, neighbor, neighbor_port in self._topology.links():
            self._routers[node].connect_output(port, self._routers[neighbor], neighbor_port)
            self._routers[neighbor].set_upstream(neighbor_port, self._routers[node], port)
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

    def router(self, node: int) -> Router:
        """The router of one node."""
        return self._routers[node]

    def interface(self, node: int) -> NetworkInterface:
        """The network interface of one node."""
        return self._interfaces[node]

    # -- the two phases of a cycle ----------------------------------------------
    #
    # Within each phase the routers run in node order, then the interfaces
    # in node order: the order the flat core replays.  The interfaces'
    # node order is observable -- it orders same-cycle deliveries (the
    # statistics' streaming quantiles, workload releases) and the draws
    # from the shared network-wide message budget.  The routers' order is
    # not: every link and credit delay is at least one cycle, so nothing
    # a router does reaches another router or interface in the same phase.

    def deliver(self, cycle: int) -> None:
        """Deliver this cycle's arrivals at every router, then interface."""
        for router in self._routers:
            router.deliver(cycle)
        for interface in self._interfaces:
            interface.deliver(cycle)

    def evaluate(self, cycle: int) -> None:
        """Run this cycle's decisions at every router, then interface."""
        for router in self._routers:
            router.evaluate(cycle)
        for interface in self._interfaces:
            interface.evaluate(cycle)

    def run(self, start: int, end: int, done: Callable[[], bool]) -> int:
        """Step every cycle from ``start`` until ``end`` or until ``done()``
        holds before a cycle; return the cycle it stopped at."""
        deliver = self.deliver
        evaluate = self.evaluate
        cycle = start
        while cycle < end and not done():
            deliver(cycle)
            evaluate(cycle)
            cycle += 1
        return cycle

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
            f"pipeline={self._config.pipeline})"
        )
