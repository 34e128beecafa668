"""Network cores: the object network vs. the flat struct-of-arrays core.

The simulator's one two-implementations-one-semantics axis, selected
by :attr:`~repro.core.config.SimulationConfig.core_mode` (a closed
choice of two; the simulator branches on it directly):

``"objects"``
    The executable specification.  The simulator assembles an object
    :class:`~repro.network.network.Network`, which the kernel steps
    every cycle; all per-cycle behaviour lives in
    :class:`~repro.router.router.Router` and
    :class:`~repro.network.interface.NetworkInterface`.

``"flat"``
    The default.  The whole network is one core,
    :class:`FlatNetworkCore`, built straight from the topology, the
    simulation configuration, the routing algorithm and the per-node
    selectors and sources (:class:`FlatCoreParts`) -- no object network
    is assembled.  Its state lives in flat preallocated C arrays -- one
    global virtual-channel table indexed by ``(router, port, vc)`` with
    buffer rings, credits, routing decisions and the two-stage
    round-robin arbiter pointers -- plus four global cycle-indexed
    arrival wheels replacing the per-component mailboxes.  Flits are
    ints naming a per-message slot (see :class:`FlatNetworkCore`).  Per
    cycle it drains the wheels once, runs virtual-channel allocation,
    switch allocation and forwarding as one pass over the *busy-router
    worklist*, then the injection pass over the interfaces the *wake
    heap* reports due; ``next_event_cycle`` reads the same structures.
    The cycle loop runs in C too: ``run`` steps only the cycles that
    forecast reports work at and jumps the idle spans between them.
    The benchmark trajectory of this path lives in ``perfbench/``.

Both cores are bit-identical: the flat core replays the object
core's per-cycle phase order exactly (all routers deliver, interfaces
deliver, routers evaluate in node order, interfaces evaluate in node
order) and keeps every RNG consultation site (path selectors, traffic
sources, the shared message budget) in the same order; the cycles its
forecast lets ``run`` skip are provable no-ops.
``tests/test_link_equivalence.py`` enforces this on a fixed grid, and
``tests/test_core_fuzz.py`` on random configurations.

The C core
----------
The per-cycle work is the CPython extension ``_flatcore.c`` beside
this module; Python keeps the wiring tables' construction.

* *Routing decisions.*  When the algorithm ``decides_by_signs`` and the
  topology is exactly a :class:`~repro.network.topology.MeshTopology` or
  :class:`~repro.network.topology.TorusTopology`, the core computes each
  header's sign class from the node coordinates, by the rule of
  ``relative_signs``, and reads a ``[node][sign class]`` table of
  decoded entries (ordered adaptive ports, escape port).  The routing
  instance owns one such buffer
  (:meth:`~repro.routing.base.RoutingAlgorithm.flat_decision_table`), so
  every core built on that instance -- every simulator of a process that
  shares the build (:mod:`repro.core.simulator`), with or without escape
  VCs -- reads and fills the same entries: it is filled lazily from one
  raw ``routing.decide`` call per entry per process, never eagerly, and
  never cleared, since routing tables are programmed once, at
  construction.  An entry always carries the escape port; a core without
  escape VCs has empty escape pools and so never allocates from it.
  ``state()`` counts a core's table reads (``decision_lookups``) and the
  raw ``decide`` calls it made on a miss (``decision_fills``);
  ``decision_entries`` counts the shared table's filled entries.  Every
  other algorithm -- turn models, Duato over full, meta or interval
  tables, plugins -- is asked through ``decide_cached`` on each lookup,
  and its answer decoded the same way.
  A look-ahead decision travels in the message slot as a copy, as on the
  object core.
* *Path selection.*  A node whose selector is exactly one of
  ``_C_SELECTORS`` (static-xy, first-free, min-mux, lfu, lru,
  max-credit) has its candidates ranked in C by the arrays the core owns
  (``out_credits``, ``out_owner``, ``out_usage``, ``out_last_used``).
  Any other selector -- ``random``, plugins, subclasses -- has its
  ``select`` called back with each candidate's
  :class:`~repro.selection.base.OutputPortStatus`.

Beyond those callbacks, Python is called only where traffic lives: the
traffic sources' ``messages_due`` and ``next_due_cycle``, the statistics
collector's ``record_created`` (looked up by name on every message, so a
wrapper set on the instance later is honoured), and its delivery
callbacks, if any (closed-loop workloads).  Sources are asked for
messages only when one is due:

* *Statistics.*  The core accounts every delivery itself: a message
  slot carries the creation index ``record_created`` stamped on the
  message, its creation cycle and its injection cycle, and the tail's
  ejection updates the delivered count and, for a measured message,
  the Welford moments of the total and network latency and the hops
  and the P² p50/p99 trackers -- the double operations of
  :class:`~repro.stats.latency.RunningStats` and
  :class:`~repro.stats.latency.P2Quantile`, in the same order (the build
  turns off floating-point contraction).  The message's ``hops``,
  ``injection_cycle`` and ``ejection_cycle`` are still written.  The
  collector reads it all through the core's ``tally``
  (:meth:`~repro.stats.collector.StatsCollector.read_tally_from`), and
  ``run(start, end, None)`` stops an open loop on the core's own
  measured count.

* *Due cache.*  ``src_due[node]`` holds the source's ``next_due_cycle``,
  re-read once right after each ``messages_due`` call and lowered by
  ``wake_interface``.  An interface calls ``messages_due`` only at
  cycles ``>= src_due[node]``, and its wake forecast reads the cache.
  The cache may be early, never late: once the network-wide budget is
  spent a cached cycle goes stale, and reaching it costs one visit that
  draws from the node's private arrival stream and creates nothing (the
  ``TrafficSource.next_due_cycle`` contract).
* *Run loop.*  ``run(start, end, done)`` is the kernel's loop, with the
  stop rule :mod:`repro.engine.kernel` states.  It builds a cycle's
  Python int only on a cycle that calls back into Python, counts the
  cycles it steps in ``state()["cycles_visited"]`` and checks for
  signals every few thousand of them.

The extension is compiled on first use with the interpreter's own
compiler settings (``sysconfig``: ``CC``, the include directory and
``EXT_SUFFIX``; ``-O2 -shared -fPIC -ffp-contract=off``) into a
per-user build cache, ``$XDG_CACHE_HOME/repro`` or else
``~/.cache/repro``, under a name carrying the SHA-256 of the source, the
compiler and its flags and the ABI tag, so every checkout shares one
build.  A build is written under a temporary name and renamed into
place, so concurrent pool workers never load a partial file; then the
cache's other builds for the same ABI are deleted.  Without a working
compiler or the Python headers, building a flat core raises a
``RuntimeError`` naming the failed command; ``core_mode="objects"``
needs neither.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.network.topology import (
    LOCAL_PORT,
    MeshTopology,
    TorusTopology,
    port_direction,
)
from repro.selection.base import OutputPortStatus, PathSelector
from repro.selection.heuristics import (
    FirstFreeSelector,
    LeastFrequentlyUsedSelector,
    LeastRecentlyUsedSelector,
    MaxCreditSelector,
    MinMuxSelector,
    StaticDimensionOrderSelector,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import Topology
    from repro.core.config import SimulationConfig
    from repro.routing.base import RoutingAlgorithm

__all__ = [
    "FlatCoreParts",
    "FlatNetworkCore",
    "build_command",
    "core_extension",
    "extension_path",
]

#: The C core's source, compiled on first use (see "The C core" above).
_SOURCE = Path(__file__).with_name("_flatcore.c")

#: The path selectors the C core ranks itself, by their kind in the C
#: enum (a node of any other selector gets kind 0: call ``select`` back).
#: Only these exact classes qualify, so a subclass keeps its own
#: ``select``.
_C_SELECTORS = {
    StaticDimensionOrderSelector: 1,
    FirstFreeSelector: 2,
    MinMuxSelector: 3,
    LeastFrequentlyUsedSelector: 4,
    LeastRecentlyUsedSelector: 5,
    MaxCreditSelector: 6,
}

#: The sign rule of each topology class whose ``relative_signs`` the C
#: core reproduces (1 = mesh, 2 = torus); others keep ``decide_cached``.
_SIGN_RULES = {MeshTopology: 1, TorusTopology: 2}


def _cache_dir() -> Path:
    """Per-user build cache: ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro"


def _compiler_flags() -> List[str]:
    """The compiler and its flags: the interpreter's own ``CC`` and
    headers, ``-O2 -shared -fPIC -ffp-contract=off`` (no fused
    multiply-add, so the C statistics round exactly like Python's)."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    return [*compiler, "-O2", "-shared", "-fPIC", "-ffp-contract=off", f"-I{include}"]


def extension_path() -> Path:
    """Where the compiled core for this source, build and interpreter ABI
    lives.

    The file name carries the SHA-256 of the C source, the compiler and
    its flags, plus the interpreter's extension suffix (its ABI tag), so
    every checkout of the same source shares one build, and an edited
    source or a changed flag never loads a stale one.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    build = "\0".join([*_compiler_flags(), suffix]).encode()
    digest = hashlib.sha256(_SOURCE.read_bytes() + b"\0" + build).hexdigest()
    return _cache_dir() / f"_flatcore-{digest[:16]}{suffix}"


def build_command(target: Path) -> List[str]:
    """The compiler command that builds the core into ``target``."""
    return [*_compiler_flags(), str(_SOURCE), "-o", str(target)]


def _compile(target: Path) -> None:
    """Build the extension into ``target`` atomically: compile under a
    private temporary name, then rename, so concurrent processes (pool
    workers) never load a half-written file."""
    temporary = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    command = build_command(temporary)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(command, check=True, capture_output=True, text=True)
        os.replace(temporary, target)
        _remove_stale_builds(target)
    except (OSError, subprocess.CalledProcessError) as error:
        detail = getattr(error, "stderr", None) or str(error)
        raise RuntimeError(
            f"building the flat network core failed: {shlex.join(command)}\n"
            f"{detail.strip()}\n"
            "The default core_mode='flat' needs a C compiler and the Python "
            "headers; run with core_mode='objects' to simulate without them."
        ) from error
    finally:
        temporary.unlink(missing_ok=True)


def _remove_stale_builds(target: Path) -> None:
    """Delete the cache's other builds for this ABI: earlier sources or
    flags, which no checkout of this source loads again.  A process that
    has one loaded keeps its mapping; a checkout that still needs one
    rebuilds it."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    for stale in target.parent.glob(f"_flatcore-*{suffix}"):
        if stale != target:
            stale.unlink(missing_ok=True)


_EXTENSION = None


def core_extension():
    """The compiled ``_flatcore`` module: loaded from the build cache,
    compiled there first if this source has no build yet.

    Raises
    ------
    RuntimeError
        When the compiler is missing or fails; the message names the
        command and ``core_mode="objects"``.
    """
    global _EXTENSION
    if _EXTENSION is None:
        path = extension_path()
        if not path.exists():
            _compile(path)
        spec = importlib.util.spec_from_file_location(f"{__package__}._flatcore", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _EXTENSION = module
    return _EXTENSION


@dataclass(frozen=True)
class FlatCoreParts:
    """Everything :class:`FlatNetworkCore` is built from.

    Parameters
    ----------
    topology:
        Node/link structure; the core's wiring comes from
        :meth:`~repro.network.topology.Topology.links`.
    config:
        The simulation configuration; the core reads its
        microarchitectural fields (VCs, buffer depth, pipeline, link and
        credit delays).
    routing:
        Routing algorithm shared by every router.
    selectors:
        One path selector per node, indexed by node id.  The simulator
        creates them in ascending node order, exactly as the object
        network does, so both cores consume identical RNG streams.
    sources:
        One traffic source per node (None for nodes that only sink
        traffic).
    """

    topology: "Topology"
    config: "SimulationConfig"
    routing: "RoutingAlgorithm"
    selectors: Sequence[PathSelector]
    sources: Sequence[Optional[object]]


class FlatNetworkCore:
    """The whole network as one kernel-driven core backed by the C extension.

    Built from a :class:`FlatCoreParts` record -- topology, simulation
    configuration, routing algorithm, per-node path selectors and
    per-node traffic sources -- and the simulation's
    :class:`~repro.stats.collector.StatsCollector`.  The constructor
    computes the wiring tables once and hands them to the extension's
    ``Core``; ``run``, ``deliver``, ``evaluate``, ``next_event_cycle``
    and ``wake_interface`` are that object's methods, bound per instance
    (so a tracer can wrap them) and called by the kernel with no Python
    frame in between.  ``run`` is the kernel's loop; it calls the C
    phases directly, so the bound ``deliver``/``evaluate``/
    ``next_event_cycle`` serve single steps (``SimulationKernel.step``).

    Address spaces
    --------------
    * global input/output virtual channel: ``(node * radix + port) * vcs + vc``
    * global port: ``node * radix + port``
    * injection slot: ``node * vcs + vc``
    * message slot: an index into the per-message header arrays
      (message, destination, length, dateline mask, hops, look-ahead
      node/decision, header arrival cycle), taken when an interface
      starts injecting the message and recycled when its tail is ejected.
    * flit: the int ``message_slot << 2 | head << 1 | tail``.  Input
      buffers hold flits; flit and eject lanes hold ``(flit, channel)``
      pairs with the destination global input channel or the local
      output channel.

    Scheduling state
    ----------------
    * ``busy`` -- the node-ordered worklist of routers with ROUTING or
      ACTIVE channels.  The flit drain adds a router when it gives it
      its first member; its own evaluation drops it once it is empty.
      Only these routers are evaluated and scanned for quiescence.
    * ``ni_heap`` -- a lazy ``(wake, node)`` min-heap beside the
      per-interface wake cycles ``ni_wake``.  Every finite wake value
      has an entry, except wakes for the next interface pass: an
      injecting interface re-arms for the next cycle, and an injection
      credit re-arms a blocked one for the current cycle, so those nodes
      go to the plain list ``ni_soon`` instead.  Heap entries whose wake
      no longer matches are stale and skipped.  Due interfaces are
      evaluated once each, in ascending node order.
    * ``src_due`` -- per node, the cached ``next_due_cycle`` of its
      source (``math.inf`` = none due); see "Due cache" above.
    * ``cycles_visited`` -- the cycles ``run`` has stepped so far.

    :meth:`state` returns all of it as plain lists, keyed by these names.

    The four arrival wheels (router flits, router output credits, NI
    ejections, NI injection credits) are cycle-indexed lanes shared by
    the whole network; every push carries a strictly future arrival
    cycle bounded by the wheel size, so the lane for the current cycle
    is always exact.  Ejections are pushed in ascending node order and
    each node's local output port forwards at most one flit per cycle,
    so the eject drain accounts deliveries in the same node order as
    the object interfaces report them to the statistics collector --
    keeping even the floating-point accumulation order of the latency
    statistics identical.
    """

    def __init__(self, parts: FlatCoreParts, stats) -> None:
        topology = parts.topology
        config = parts.config
        routing = parts.routing
        self._stats = stats
        self._num_nodes = num_nodes = topology.num_nodes
        self._radix = radix = topology.radix
        self._vcs = vcs = config.vcs_per_port

        # Raises when ``vcs`` cannot keep the algorithm deadlock free here.
        vc_classes = routing.vc_classes(vcs)
        # Per-port escape pools indexed by the header's dateline class for
        # that port's dimension (Router._escape_pools).  The ejection port
        # and every mesh port offer the full escape set in both classes,
        # so the class read is a harmless constant off datelines.
        escape = vc_classes.escape_vcs
        pools = vc_classes.escape_classes or (escape, escape)
        dimensions = [0] + [port_direction(port)[0] for port in range(1, radix)]
        pipeline = config.pipeline_timing
        # Per-output-port forward delay (Router._port_delays): ejection at
        # the switch delay, each link port plus its dimension's link time.
        hop_delay = [pipeline.switch_delay] + [
            pipeline.switch_delay + config.link_delay_for(dimensions[port])
            for port in range(1, radix)
        ]

        # Wiring, per global port: the downstream input-channel base, the
        # upstream output-channel base feeding each input port (-1 = the
        # local interface or unconnected), the neighbour and the dateline
        # bits each output link sets.
        num_ports = num_nodes * radix
        dest_base = [-1] * num_ports
        up_base = [-1] * num_ports
        neighbor = [-1] * num_ports
        connected = [port % radix == LOCAL_PORT for port in range(num_ports)]
        for node, port, other, other_port in topology.links():
            pidx = node * radix + port
            dest_base[pidx] = (other * radix + other_port) * vcs
            up_base[other * radix + other_port] = pidx * vcs
            neighbor[pidx] = other
            connected[pidx] = True
        dateline_bits = [
            topology.dateline_bits(node, port) if port != LOCAL_PORT else 0
            for node in range(num_nodes)
            for port in range(radix)
        ]
        # Per channel: where a flit sent on each *output* channel goes
        # (-1 = the local ejection lane) and where a credit freed on each
        # *input* channel goes (the upstream output channel, or
        # ``-(injection slot) - 1`` when the local interface feeds it).
        go_flit_dest = []
        g_credit_dest = []
        for pidx in range(num_ports):
            dest, up = dest_base[pidx], up_base[pidx]
            node_slot = pidx // radix * vcs
            for vc in range(vcs):
                go_flit_dest.append(dest + vc if dest >= 0 else -1)
                g_credit_dest.append(up + vc if up >= 0 else -(node_slot + vc) - 1)

        # Decisions by sign class come from the routing instance's lazily
        # filled [node][sign class] table, asking the raw ``decide`` once
        # per entry; every other algorithm is asked through
        # ``decide_cached``.
        extension = core_extension()
        sign_rule = _SIGN_RULES.get(type(topology), 0) if routing.decides_by_signs else 0
        decision_table = None
        if sign_rule:
            entries = num_nodes * 3 ** topology.n_dims
            if entries > extension.MAX_DECISIONS:
                sign_rule = 0
            else:
                decision_table = routing.flat_decision_table(
                    entries * extension.DECISION_BYTES
                )

        spec = dict(
            num_nodes=num_nodes,
            radix=radix,
            vcs=vcs,
            capacity=config.buffer_depth,
            # Atomic VC allocation on wrapping topologies: the credit level
            # (a full downstream buffer) a header needs to claim an output
            # VC, 0 (disabled) on meshes (Router._atomic_credits).
            atomic_credits=config.buffer_depth if topology.wraps else 0,
            selection_offset=pipeline.selection_offset,
            lookahead=int(pipeline.lookahead),
            local_delay=pipeline.switch_delay,
            link_delay=config.link_delay,
            credit_delay=config.credit_delay,
            wheel_size=1 + max(
                pipeline.switch_delay + config.max_link_delay,
                config.link_delay,
                config.credit_delay,
            ),
            adaptive_vcs=vc_classes.adaptive_vcs,
            escape_pools=[(escape, escape)] + [pools] * (radix - 1),
            port_dimension=dimensions,
            port_hop_delay=hop_delay,
            dateline_bits=dateline_bits,
            port_neighbor=neighbor,
            out_connected=connected,
            go_flit_dest=go_flit_dest,
            g_credit_dest=g_credit_dest,
            sign_rule=sign_rule,
            mesh_dims=list(topology.dims) if sign_rule else [],
            decision_table=decision_table,
            selector_kinds=[_C_SELECTORS.get(type(selector), 0) for selector in parts.selectors],
            warmup_messages=stats.warmup_messages,
            measure_messages=-1 if stats.measure_messages is None else stats.measure_messages,
            delivery_callbacks=stats.delivery_callbacks,
        )
        self._core = core = extension.Core(
            spec,
            routing.decide if sign_rule else routing.decide_cached,
            list(parts.selectors),
            list(parts.sources),
            stats,
            OutputPortStatus,
        )
        self.run = core.run
        self.deliver = core.deliver
        self.evaluate = core.evaluate
        self.next_event_cycle = core.next_event_cycle
        self.wake_interface = core.wake_interface
        stats.read_tally_from(core.tally)

    @property
    def flits_forwarded(self) -> List[int]:
        """Flits each router's crossbar forwarded: the sum of its output
        ports' use counters (Router.flits_forwarded)."""
        return self._core.counters(False)

    @property
    def headers_routed(self) -> List[int]:
        """Headers each router allocated a VC for (Router.headers_routed)."""
        return self._core.counters(True)

    # -- introspection -----------------------------------------------------------

    def state(self) -> Dict[str, object]:
        """Every state array as plain Python lists (tests, debugging).

        Keys follow the class docstring: ``busy``, ``routing_members`` /
        ``active_members`` (per node), ``in_buf`` (flits per global
        channel), ``in_state``, ``in_ready``, ``out_credits``,
        ``out_owner``, ``slot_*``, ``ni_wake`` (``math.inf`` = idle),
        ``ni_heap``, ``ni_soon``, ``src_due``, ``cycles_visited``, the
        four ``*_lanes`` per wheel slot, ``decision_entries`` (filled
        entries of the decision table, which every core on the same
        routing instance shares), this core's ``decision_lookups`` (table
        reads) and ``decision_fills`` (raw ``decide`` calls on a miss;
        all three are 0 without a sign rule) and the wiring tables.
        O(state) per call.
        """
        return self._core.state()

    def message_conservation_error(self) -> Optional[str]:
        """Why the message count does not balance, or None when it does.

        Every message the statistics collector saw created is delivered,
        holds a live message slot, or is still queued at its interface.
        O(slots + nodes); the simulator checks it once per run.
        """
        created = self._stats.created
        delivered = self._stats.delivered
        live, queued = self._core.message_counts()
        if created == delivered + live + queued:
            return None
        return (
            f"created {created} != delivered {delivered} + live message "
            f"slots {live} + queued at interfaces {queued}"
        )

    def clear_message_slot(self, slot: int) -> None:
        """Drop a live slot's message without delivering it -- the fault
        :meth:`message_conservation_error` exists to catch (its tests)."""
        self._core.clear_slot(slot)

    def __repr__(self) -> str:
        return (
            f"FlatNetworkCore(nodes={self._num_nodes}, radix={self._radix}, "
            f"vcs={self._vcs})"
        )
