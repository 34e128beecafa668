"""Span tracing for the benchmark's traced run.

Every span comes from wrapping a public name of the simulator from this
file -- module globals of :mod:`repro.core.simulator`, per-instance
methods of the objects those globals build, the execution layer's cache
and batch entry points, the replicate merger, study expansion and the
reporter registry.  No file of the simulator changes: :func:`instrument`
installs the wrappers and removes them again when its context exits.

Spans are kept in memory as four parallel arrays (name id, parent span,
start, end) and written out once at the end.  A span's self time is its
duration minus the durations of its direct children; the per-layer
metrics in :func:`layer_metrics` are sums of self times plus counters
recorded at the same boundaries.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "instrument", "layer_metrics", "load_spans"]

#: Per-layer metric names and units, in report order.  Times are self
#: times in seconds; a layer that does not run on a workload reports 0.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("topology.build_s", "s"),
    ("tables.build_s", "s"),
    ("tables.entries_programmed", "count"),
    ("routing.build_s", "s"),
    ("network.build_s", "s"),
    ("flatcore.build_s", "s"),
    ("traffic.build_s", "s"),
    ("workload.dag_build_s", "s"),
    ("flatcore.deliver_s", "s"),
    ("flatcore.evaluate_s", "s"),
    ("flatcore.evaluate_us_p50", "us"),
    ("flatcore.evaluate_us_p99", "us"),
    ("flatcore.us_per_cycle", "us"),
    ("flatcore.ns_per_flit", "ns"),
    ("flatcore.flits_forwarded", "count"),
    ("flatcore.headers_routed", "count"),
    ("engine.cycles_elapsed", "count"),
    ("engine.cycles_executed", "count"),
    ("engine.fast_forward_ratio", "ratio"),
    ("engine.quiesce_s", "s"),
    ("engine.self_s", "s"),
    ("routing.decide_s", "s"),
    ("routing.decide_calls", "count"),
    ("routing.decision_cache_entries", "count"),
    ("routing.decision_hit_ratio", "ratio"),
    ("selection.select_s", "s"),
    ("selection.select_calls", "count"),
    ("traffic.messages_due_s", "s"),
    ("traffic.messages_generated", "count"),
    ("stats.record_delivered_s", "s"),
    ("stats.summary_s", "s"),
    ("stats.confidence.merge_s", "s"),
    ("workload.messages_due_s", "s"),
    ("workload.on_delivered_s", "s"),
    ("exec.run_configs_s", "s"),
    ("exec.simulations_run", "count"),
    ("exec.cache.get_s", "s"),
    ("exec.cache.put_s", "s"),
    ("exec.cache.lookups", "count"),
    ("exec.cache.hits", "count"),
    ("exec.cache.misses", "count"),
    ("exec.cache.stores", "count"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.result_bytes", "bytes"),
    ("scenario.load_s", "s"),
    ("scenario.expand_s", "s"),
    ("scenario.report_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Span name behind each self-time metric that is a plain sum.
_SELF_TIME_SPANS: Dict[str, str] = {
    "topology.build_s": "topology.build",
    "tables.build_s": "tables.build",
    "routing.build_s": "routing.build",
    "network.build_s": "network.build",
    "flatcore.build_s": "flatcore.build",
    "traffic.build_s": "traffic.build",
    "workload.dag_build_s": "workload.dag_build",
    "flatcore.deliver_s": "flatcore.deliver",
    "flatcore.evaluate_s": "flatcore.evaluate",
    "engine.quiesce_s": "engine.quiesce",
    "engine.self_s": "engine.run",
    "routing.decide_s": "routing.decide",
    "selection.select_s": "selection.select",
    "traffic.messages_due_s": "traffic.messages_due",
    "stats.record_delivered_s": "stats.record_delivered",
    "stats.summary_s": "stats.summary",
    "stats.confidence.merge_s": "stats.confidence.merge",
    "workload.messages_due_s": "workload.messages_due",
    "workload.on_delivered_s": "workload.on_delivered",
    "exec.run_configs_s": "exec.run_configs",
    "exec.cache.get_s": "exec.cache.get",
    "exec.cache.put_s": "exec.cache.put",
    "scenario.load_s": "scenario.load",
    "scenario.expand_s": "scenario.expand",
    "scenario.report_s": "scenario.report",
}


class Tracer:
    """In-memory span store plus the counters and objects the layer
    metrics read at the end of the run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self.counts: Counter = Counter()
        #: Instances built while instrumented, read after the run.
        self.cores: list = []
        self.kernels: list = []
        self.routings: list = []
        self.generators: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = len(self.ends)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def self_times(
        self, sampled: str = ""
    ) -> Tuple[Dict[str, float], Dict[str, int], List[float]]:
        """Per-name totals of self time (seconds) and span counts, plus
        the individual self times of the spans named ``sampled``."""
        count = len(self.ends)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        covered = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        totals = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        sampled_id = self._ids.get(sampled, -1)
        samples: List[float] = []
        for index in range(count):
            nid = name_ids[index]
            own = ends[index] - starts[index] - covered[index]
            totals[nid] += own
            calls[nid] += 1
            if nid == sampled_id:
                samples.append(own)
        return dict(zip(self.names, totals)), dict(zip(self.names, calls)), samples

    def write(self, path: Path) -> None:
        """Write the spans as ``<path>.json`` (header) plus ``<path>.bin``
        (the name-id, parent, start and end arrays, in that order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.ends),
            "arrays": [
                ["name_id", self.name_ids.typecode],
                ["parent", self.parents.typecode],
                ["start", self.starts.typecode],
                ["end", self.ends.typecode],
            ],
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
        with path.with_suffix(".bin").open("wb") as handle:
            for values in (self.name_ids, self.parents, self.starts, self.ends):
                values.tofile(handle)


def load_spans(path: Path) -> Dict[str, object]:
    """Read spans written by :meth:`Tracer.write` back as lists."""
    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    count = header["count"]
    columns: Dict[str, object] = {"names": header["names"]}
    with path.with_suffix(".bin").open("rb") as handle:
        for name, typecode in header["arrays"]:
            values = array(typecode)
            values.fromfile(handle, count)
            columns[name] = values.tolist()
    return columns


def percentile(samples: List[float], percent: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


_MISSING = object()


@contextmanager
def instrument(tracer: Tracer, on_stats: Callable = None) -> Iterator[Tracer]:
    """Install the span wrappers for the duration of the context.

    ``on_stats(collector)`` is called with every statistics collector a
    simulator builds while instrumented (the benchmark attaches its
    message ledger there).
    """
    import repro.core.simulator as simulator
    from repro import registry
    from repro.exec import backend as exec_backend
    from repro.exec.cache import ResultCache
    from repro.scenario.spec import Study
    from repro.stats import confidence

    wrap = tracer.wrap
    counts = tracer.counts
    patches: List[Tuple[object, str, object]] = []

    def patch(target: object, attribute: str, value: object) -> None:
        patches.append((target, attribute, vars(target).get(attribute, _MISSING)))
        setattr(target, attribute, value)

    traced_build_table = wrap("tables.build", simulator.build_table)

    def build_table(config, topology):
        table = traced_build_table(config, topology)
        counts["tables.entries_programmed"] += table.total_entries()
        return table

    traced_build_routing = wrap("routing.build", simulator.build_routing)

    def build_routing(config, topology, table):
        routing = traced_build_routing(config, topology, table)
        # The flat core binds decide_cached when it is built, so the
        # instance attribute must be in place before then.
        routing.decide_cached = wrap("routing.decide", routing.decide_cached)
        tracer.routings.append(routing)
        return routing

    traced_flat_core = wrap("flatcore.build", simulator.FlatNetworkCore)

    def flat_core(network, stats):
        core = traced_flat_core(network, stats)
        core.deliver = wrap("flatcore.deliver", core.deliver)
        core.evaluate = wrap("flatcore.evaluate", core.evaluate)
        core.next_event_cycle = wrap("engine.quiesce", core.next_event_cycle)
        tracer.cores.append(core)
        return core

    traced_generator = wrap("traffic.build", simulator.TrafficGenerator)

    def traffic_generator(*args, **kwargs):
        generator = traced_generator(*args, **kwargs)
        make_sources = wrap("traffic.build", generator.sources)

        def sources():
            made = make_sources()
            for source in made:
                source.messages_due = wrap("traffic.messages_due", source.messages_due)
            return made

        generator.sources = sources
        tracer.generators.append(generator)
        return generator

    selector_factory = simulator.make_selector

    def make_selector(name, rng):
        selector = selector_factory(name, rng)
        selector.select = wrap("selection.select", selector.select)
        return selector

    collector_class = simulator.StatsCollector

    def stats_collector(*args, **kwargs):
        stats = collector_class(*args, **kwargs)
        stats.record_delivered = wrap("stats.record_delivered", stats.record_delivered)
        stats.summary = wrap("stats.summary", stats.summary)
        if on_stats is not None:
            on_stats(stats)
        return stats

    kernel_class = simulator.SimulationKernel

    def simulation_kernel(*args, **kwargs):
        kernel = kernel_class(*args, **kwargs)
        kernel.run = wrap("engine.run", kernel.run)
        tracer.kernels.append(kernel)
        return kernel

    engine_class = simulator.WorkloadEngine

    def workload_engine(*args, **kwargs):
        engine = engine_class(*args, **kwargs)
        engine.messages_due = wrap("workload.messages_due", engine.messages_due)
        engine.on_delivered = wrap("workload.on_delivered", engine.on_delivered)
        return engine

    def traced_lookup(components, span_name: str):
        lookup = components.get

        def get(name):
            return wrap(span_name, lookup(name))

        return get

    traced_cache_get = wrap("exec.cache.get", ResultCache.get)

    def cache_get(self, config):
        result = traced_cache_get(self, config)
        counts["exec.cache.hits" if result is not None else "exec.cache.misses"] += 1
        return result

    traced_cache_put = wrap("exec.cache.put", ResultCache.put)

    def cache_put(self, config, result):
        path = traced_cache_put(self, config, result)
        counts["exec.cache.stores"] += 1
        counts["exec.result_bytes"] += path.stat().st_size
        return path

    patch(simulator, "build_topology", wrap("topology.build", simulator.build_topology))
    patch(simulator, "build_table", build_table)
    patch(simulator, "build_routing", build_routing)
    patch(simulator, "Network", wrap("network.build", simulator.Network))
    patch(simulator, "FlatNetworkCore", flat_core)
    patch(simulator, "TrafficGenerator", traffic_generator)
    patch(simulator, "make_selector", make_selector)
    patch(simulator, "StatsCollector", stats_collector)
    patch(simulator, "SimulationKernel", simulation_kernel)
    patch(simulator, "WorkloadEngine", workload_engine)
    patch(registry.WORKLOADS, "get", traced_lookup(registry.WORKLOADS, "workload.dag_build"))
    patch(registry.REPORTERS, "get", traced_lookup(registry.REPORTERS, "scenario.report"))
    patch(ResultCache, "get", cache_get)
    patch(ResultCache, "put", cache_put)
    patch(
        exec_backend.ExecutionBackend,
        "run_configs",
        wrap("exec.run_configs", exec_backend.ExecutionBackend.run_configs),
    )
    patch(exec_backend, "simulate_config", wrap("exec.simulate", exec_backend.simulate_config))
    patch(
        confidence,
        "merge_replicates",
        wrap("stats.confidence.merge", confidence.merge_replicates),
    )
    patch(Study, "expand", wrap("scenario.expand", Study.expand))
    try:
        yield tracer
    finally:
        for target, attribute, original in reversed(patches):
            if original is _MISSING:
                delattr(target, attribute)
            else:
                setattr(target, attribute, original)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced run."""
    totals, calls, evaluate_self = tracer.self_times(sampled="flatcore.evaluate")
    values: Dict[str, float] = {
        metric: totals.get(span, 0.0) for metric, span in _SELF_TIME_SPANS.items()
    }
    counts = tracer.counts
    flits = sum(sum(core.flits_forwarded) for core in tracer.cores)
    executed = calls.get("flatcore.evaluate", 0)
    elapsed = sum(kernel.clock.now for kernel in tracer.kernels)
    core_s = values["flatcore.deliver_s"] + values["flatcore.evaluate_s"]
    decide_calls = calls.get("routing.decide", 0)
    # Memo entries are the misses: no workload reprograms a table, so the
    # shared decision memo is never cleared during a run.
    entries = sum(len(routing.decision_cache()) for routing in tracer.routings)
    lookups = counts["exec.cache.hits"] + counts["exec.cache.misses"]
    values.update(
        {
            "tables.entries_programmed": counts["tables.entries_programmed"],
            "flatcore.evaluate_us_p50": percentile(evaluate_self, 50) * 1e6,
            "flatcore.evaluate_us_p99": percentile(evaluate_self, 99) * 1e6,
            "flatcore.us_per_cycle": core_s / executed * 1e6 if executed else 0.0,
            "flatcore.ns_per_flit": core_s / flits * 1e9 if flits else 0.0,
            "flatcore.flits_forwarded": flits,
            "flatcore.headers_routed": sum(sum(core.headers_routed) for core in tracer.cores),
            "engine.cycles_elapsed": elapsed,
            "engine.cycles_executed": executed,
            "engine.fast_forward_ratio": 1.0 - executed / elapsed if elapsed else 0.0,
            "routing.decide_calls": decide_calls,
            "routing.decision_cache_entries": entries,
            "routing.decision_hit_ratio": 1.0 - entries / decide_calls if decide_calls else 0.0,
            "selection.select_calls": calls.get("selection.select", 0),
            "traffic.messages_generated": sum(g.generated for g in tracer.generators),
            "exec.simulations_run": calls.get("exec.simulate", 0),
            "exec.cache.lookups": lookups,
            "exec.cache.hits": counts["exec.cache.hits"],
            "exec.cache.misses": counts["exec.cache.misses"],
            "exec.cache.stores": counts["exec.cache.stores"],
            "exec.cache.hit_ratio": counts["exec.cache.hits"] / lookups if lookups else 0.0,
            "exec.result_bytes": counts["exec.result_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return values
