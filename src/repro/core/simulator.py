"""The simulation facade: build a network from a configuration and run it.

:class:`NetworkSimulator` is the main entry point of the library.  It
translates the plain-data :class:`~repro.core.config.SimulationConfig`
into topology, tables, routing, selection, traffic and statistics objects,
hands them to the core the configuration selects -- a
:class:`~repro.network.flatcore.FlatNetworkCore` (default) or an object
:class:`~repro.network.network.Network` -- drives the cycle-level kernel
and returns a :class:`~repro.core.results.SimulationResult`.
"""

from __future__ import annotations

from typing import Optional

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.engine.kernel import KERNEL_MODES, SimulationKernel
from repro.engine.rng import SimulationRNG
from repro.network.flatcore import FlatCoreParts, FlatNetworkCore, core_schedule_by_name
from repro.network.network import Network
from repro.network.topology import Topology
from repro.router.config import RouterConfig
from repro.router.pipeline import pipeline_by_name
from repro.routing.base import RoutingAlgorithm
from repro.selection.heuristics import make_selector
from repro.stats.collector import StatsCollector
from repro.stats.saturation import SaturationPolicy, is_saturated
from repro.tables.base import RoutingTable
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import InjectionProcess, message_rate_for_load
from repro.traffic.patterns import make_pattern
from repro.workload.engine import WorkloadEngine

__all__ = ["NetworkSimulator", "build_table", "build_routing", "build_topology"]


def build_topology(config: SimulationConfig) -> Topology:
    """Construct the topology described by ``config`` via the registry."""
    factory = registry.TOPOLOGIES.get(registry.topology_name(config))
    return factory(config)


def build_table(config: SimulationConfig, topology: Topology) -> RoutingTable:
    """Construct the routing table organisation described by ``config``.

    Looks ``config.table`` up in :data:`repro.registry.ROUTING_TABLES`, so
    user-registered organisations build exactly like the built-ins.
    """
    factory = registry.ROUTING_TABLES.get(config.table)
    return factory(topology, config)


def build_routing(
    config: SimulationConfig, topology: Topology, table: RoutingTable
) -> RoutingAlgorithm:
    """Construct the routing algorithm described by ``config`` via the
    :data:`repro.registry.ROUTING_ALGORITHMS` registry."""
    factory = registry.ROUTING_ALGORITHMS.get(config.routing)
    return factory(topology, table, config)


def _build_injection(config: SimulationConfig, rate: float) -> InjectionProcess:
    factory = registry.INJECTIONS.get(config.injection)
    return factory(config, rate)


class NetworkSimulator:
    """Builds and runs one simulation described by a configuration.

    Parameters
    ----------
    config:
        The plain-data description of the run.
    kernel_mode:
        Scheduling mode of the cycle kernel: ``"activity"`` (default)
        skips quiescent components and fast-forwards over idle spans;
        ``"exhaustive"`` runs every component every cycle.  Both produce
        bit-identical results (enforced by
        ``tests/test_kernel_equivalence.py``); the exhaustive schedule is
        kept as the reference implementation.

    The router busy path has the same two-implementations-one-semantics
    split, selected by ``config.switch_mode`` (``"batched"`` default,
    ``"reference"`` specification; enforced bit-identical by
    ``tests/test_router_equivalence.py``), and so does link-level flit
    transport, selected by ``config.link_mode`` (``"batched"`` arrival
    lanes default, ``"reference"`` mailbox-tuple specification; enforced
    by ``tests/test_link_equivalence.py``).  The fourth axis is the core
    schedule, selected by ``config.core_mode``: ``"flat"`` (default)
    builds the whole network as one flat struct-of-arrays component
    (:mod:`repro.network.flatcore`) and assembles no object network,
    while ``"objects"`` assembles a :class:`~repro.network.network.Network`
    and registers every router and interface with the kernel
    individually.  All four axes compose freely and are enforced
    bit-identical across the full sixteen-combination cube by
    ``tests/test_link_equivalence.py``.
    """

    def __init__(self, config: SimulationConfig, kernel_mode: str = "activity") -> None:
        if kernel_mode not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {kernel_mode!r}; expected one of {KERNEL_MODES}"
            )
        if config.replications > 1:
            raise ValueError(
                "NetworkSimulator runs a single seed; submit configurations "
                f"with replications={config.replications} through an "
                "execution backend (repro.exec.backend), which fans them "
                "into per-seed replicates and merges the results with "
                "confidence intervals"
            )
        self._config = config
        self._rng = SimulationRNG(seed=config.seed)
        self._topology = build_topology(config)
        self._table = build_table(config, self._topology)
        self._routing = build_routing(config, self._topology, self._table)
        self._router_config = RouterConfig(
            vcs_per_port=config.vcs_per_port,
            buffer_depth=config.buffer_depth,
            pipeline=pipeline_by_name(config.pipeline),
            link_delay=config.link_delay,
            link_delays=config.link_delays,
            credit_delay=config.credit_delay,
            switch_mode=config.switch_mode,
            link_mode=config.link_mode,
        )
        if config.workload is not None:
            # Closed-loop run: the workload DAG replaces the stochastic
            # generator.  Every transfer is "measured" (warmup 0), so the
            # existing all-delivered stop condition ends the run exactly
            # when the DAG drains; the traffic self-throttles, so there
            # is no offered rate and no saturation flagging.
            workload_factory = registry.WORKLOADS.get(config.workload)
            dag = workload_factory(config, self._topology)
            self._workload = WorkloadEngine(dag, self._topology.num_nodes)
            self._generator = None
            sources = self._workload.sources()
            self._stats = StatsCollector(
                warmup_messages=0,
                measure_messages=dag.num_transfers if dag.num_transfers else None,
                num_nodes=self._topology.num_nodes,
                keep_samples=config.keep_samples,
            )
            self._stats.add_delivery_callback(self._workload.on_delivered)
            self._message_rate = 0.0
            hop = self._router_config.pipeline.hop_latency(
                self._router_config.max_link_delay
            )
            self._critical_path = dag.critical_path_cycles(
                lambda step: (self._topology.distance(step.src, step.dst) + 1) * hop
                + (step.flits - 1)
            )
            self._workload_flits = dag.total_flits
        else:
            self._workload = None
            self._critical_path = 0
            self._workload_flits = 0
            message_rate = message_rate_for_load(
                self._topology, config.message_length, config.normalized_load
            )
            pattern = make_pattern(config.traffic, self._topology)
            process = _build_injection(config, message_rate)
            self._generator = TrafficGenerator(
                topology=self._topology,
                pattern=pattern,
                process=process,
                message_length=config.message_length,
                rng=self._rng,
                max_messages=config.total_messages,
            )
            sources = self._generator.sources()
            self._stats = StatsCollector(
                warmup_messages=config.warmup_messages,
                measure_messages=config.measure_messages,
                num_nodes=self._topology.num_nodes,
                keep_samples=config.keep_samples,
            )
            # The rate the injection process actually offers (Bernoulli
            # clamps super-unit rates); used for the cycle budget and the
            # result.
            self._message_rate = process.rate
        self._kernel = SimulationKernel(mode=kernel_mode)
        self._network: Optional[Network]
        self._core: Optional[FlatNetworkCore]
        if core_schedule_by_name(config.core_mode).flat:
            selectors = [
                self._make_selector(node) for node in range(self._topology.num_nodes)
            ]
            parts = FlatCoreParts(
                topology=self._topology,
                router_config=self._router_config,
                routing=self._routing,
                selectors=selectors,
                sources=sources,
            )
            self._network = None
            self._core = FlatNetworkCore(parts, self._stats)
            self._kernel.register(self._core)
        else:
            self._network = Network(
                topology=self._topology,
                router_config=self._router_config,
                routing=self._routing,
                selector_factory=self._make_selector,
                stats=self._stats,
                sources=sources,
            )
            self._core = None
            self._kernel.register_all(self._network.components())
        if self._workload is not None:
            # Released DAG steps must re-arm their home node's interface
            # in whichever core executes the network.
            if self._core is not None:
                core = self._core
                self._workload.attach_wakes(
                    [
                        (lambda cycle, node=node: core.wake_interface(node, cycle))
                        for node in range(self._topology.num_nodes)
                    ]
                )
            else:
                self._workload.attach_wakes(
                    [interface.wake_source for interface in self.network.interfaces]
                )
        if self._workload is not None:
            # Stop when the whole DAG drains (trailing compute steps may
            # finish after the last transfer is delivered).
            self._kernel.add_stop_condition(lambda cycle: self._workload.drained)
        else:
            self._kernel.add_stop_condition(
                lambda cycle: self._stats.all_measured_delivered()
            )

    def _make_selector(self, node: int):
        return make_selector(self._config.selector, self._rng.stream(f"selector-{node}"))

    # -- accessors -------------------------------------------------------------------

    @property
    def config(self) -> SimulationConfig:
        """The configuration being simulated."""
        return self._config

    @property
    def network(self) -> Network:
        """The assembled object network when ``core_mode == "objects"``
        (exposed for tests and introspection).

        Raises
        ------
        RuntimeError
            Under ``core_mode == "flat"``, which builds no object network;
            its state lives in :attr:`core`.
        """
        if self._network is None:
            raise RuntimeError(
                "core_mode='flat' builds no object network; inspect the flat "
                "core through simulator.core, or run with core_mode='objects'"
            )
        return self._network

    @property
    def core(self) -> Optional[FlatNetworkCore]:
        """The flat core when ``core_mode == "flat"``, else None (the
        object components are reachable through :attr:`network`)."""
        return self._core

    @property
    def workload(self) -> Optional[WorkloadEngine]:
        """The closed-loop workload engine when ``config.workload`` is
        set, else None (open-loop stochastic traffic)."""
        return self._workload

    @property
    def topology(self) -> Topology:
        """The topology being simulated."""
        return self._topology

    @property
    def table(self) -> RoutingTable:
        """The routing table organisation in use."""
        return self._table

    @property
    def stats(self) -> StatsCollector:
        """The statistics collector fed by the network interfaces."""
        return self._stats

    @property
    def effective_message_rate(self) -> float:
        """Per-node message rate (messages/cycle) the injection process
        actually offers -- differs from the configured load only when a
        Bernoulli process clamps a super-unit rate."""
        return self._message_rate

    # -- analytics ---------------------------------------------------------------------

    def zero_load_latency(self) -> float:
        """Analytic contention-free latency of an average message (cycles).

        The header crosses ``average distance + 1`` router pipelines (the
        +1 accounts for injection/ejection overhead at the endpoints) and
        the remaining flits add one cycle each of serialization.  With
        per-dimension ``link_delays`` the slowest link bounds the
        estimate (it is a budget heuristic, not a prediction).
        """
        hop = self._router_config.pipeline.hop_latency(
            self._router_config.max_link_delay
        )
        average_distance = self._topology.average_distance()
        return (average_distance + 1.0) * hop + (self._config.message_length - 1)

    def default_max_cycles(self) -> int:
        """Cycle budget derived from the offered load and drain factor.

        Closed-loop workload runs have no offered rate; their budget is
        derived from the DAG's contention-free critical path plus the
        total flit volume (a crude upper bound on serialization delay
        under contention), scaled by the drain factor.
        """
        if self._workload is not None:
            budget = (self._critical_path + self._workload_flits) * (
                self._config.drain_factor
            )
            budget += 20 * self.zero_load_latency() + 2_000
            return int(budget)
        total_rate = self._message_rate * self._topology.num_nodes
        if total_rate <= 0:
            return 10_000
        generation_cycles = self._config.total_messages / total_rate
        budget = generation_cycles * self._config.drain_factor
        budget += 20 * self.zero_load_latency() + 2_000
        return int(budget)

    # -- running ------------------------------------------------------------------------

    def run(self, max_cycles: Optional[int] = None) -> SimulationResult:
        """Run until every measured message is delivered or the cycle budget
        is exhausted, then summarise."""
        if max_cycles is None:
            max_cycles = (
                self._config.max_cycles
                if self._config.max_cycles is not None
                else self.default_max_cycles()
            )
        self._kernel.run(max_cycles)
        network = self._core if self._core is not None else self._network
        problem = network.message_conservation_error()
        if problem is not None:
            raise RuntimeError(
                f"{self._config.core_mode} core message conservation violated: "
                f"{problem}; config: {self._config!r}"
            )
        cycles = self._kernel.clock.now
        zero_load = self.zero_load_latency()
        if self._workload is not None:
            # Closed-loop traffic self-throttles: the saturation heuristic
            # is meaningless, and the result carries drain metrics instead.
            summary = self._stats.summary(cycles, saturated=False)
            drain = self._workload.drain_metrics(cycles, self._critical_path)
        else:
            preliminary = self._stats.summary(cycles)
            saturated = is_saturated(preliminary, zero_load, SaturationPolicy())
            summary = self._stats.summary(cycles, saturated=saturated)
            drain = None
        return SimulationResult(
            config=self._config,
            summary=summary,
            zero_load_latency=zero_load,
            cycles=cycles,
            effective_message_rate=self._message_rate,
            drain=drain,
        )

    def __repr__(self) -> str:
        return f"NetworkSimulator(config={self._config!r})"
