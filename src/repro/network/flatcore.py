"""Core schedules: the object network vs. the flat struct-of-arrays core.

The simulator's fourth two-implementations-one-semantics axis, selected
by :attr:`~repro.core.config.SimulationConfig.core_mode`:

``"objects"``
    The executable specification.  The simulator assembles an object
    :class:`~repro.network.network.Network` and registers its routers
    and interfaces with the kernel as individual components; all
    per-cycle behaviour lives in :class:`~repro.router.router.Router`
    and :class:`~repro.network.interface.NetworkInterface`.

``"flat"``
    The default.  The whole network is one kernel component,
    :class:`FlatNetworkCore`, built straight from the topology, the
    router configuration, the routing algorithm and the per-node
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
    The benchmark trajectory of this path lives in ``perfbench/``.

Both schedules are bit-identical: the flat core replays the object
core's per-cycle phase order exactly (all routers deliver, interfaces
deliver, routers evaluate in node order, interfaces evaluate in node
order), keeps every RNG consultation site (path selectors, traffic
sources, the shared message budget) in the same order, and reports the
same quiescence cycles to the activity kernel.
``tests/test_link_equivalence.py`` enforces this across the kernel x
switch x link x core cube, and ``tests/test_core_fuzz.py`` on random
configurations.

The C core
----------
The per-cycle work is the CPython extension ``_flatcore.c`` beside
this module; Python keeps the wiring tables' construction and is called
back only where randomness, plugins and statistics live (the routing
algorithm's ``decide_cached``, the path selectors, the traffic sources
and the statistics collector).  The extension is compiled on first use
with the interpreter's own compiler settings (``sysconfig``: ``CC``,
the include directory and ``EXT_SUFFIX``; ``-O2 -shared -fPIC``) into a
per-user build cache, ``$XDG_CACHE_HOME/repro`` or else
``~/.cache/repro``, under a name carrying the SHA-256 of the source and
the ABI tag, so every checkout shares one build; a build is written
under a temporary name and renamed into place, so concurrent pool
workers never load a partial file.  Without a working compiler or the
Python headers, building a flat core raises a ``RuntimeError`` naming
the failed command; ``core_mode="objects"`` needs neither.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.network.topology import LOCAL_PORT, port_direction
from repro.registry import CORE_MODES, register
from repro.selection.base import OutputPortStatus, PathSelector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import Topology
    from repro.router.config import RouterConfig
    from repro.routing.base import RoutingAlgorithm

__all__ = [
    "CORE_MODE_NAMES",
    "CoreSchedule",
    "FLAT",
    "FlatCoreParts",
    "FlatNetworkCore",
    "OBJECTS",
    "build_command",
    "core_extension",
    "core_schedule_by_name",
    "extension_path",
]

#: The C core's source, compiled on first use (see "The C core" above).
_SOURCE = Path(__file__).with_name("_flatcore.c")


@dataclass(frozen=True)
class CoreSchedule:
    """One named implementation of the whole-network core.

    Parameters
    ----------
    name:
        Report name ("objects" or "flat").
    flat:
        Whether the simulator should build a :class:`FlatNetworkCore`
        instead of assembling an object network and registering its
        components individually.
    """

    name: str
    flat: bool


#: The per-component object network (the executable specification).
OBJECTS = CoreSchedule(name="objects", flat=False)

#: The flat struct-of-arrays whole-network core (default).
FLAT = CoreSchedule(name="flat", flat=True)

register("core", OBJECTS.name, obj=OBJECTS, provenance=f"{__name__}:OBJECTS")
register("core", FLAT.name, obj=FLAT, provenance=f"{__name__}:FLAT")

#: Built-in schedule names.
CORE_MODE_NAMES = (OBJECTS.name, FLAT.name)


def core_schedule_by_name(name: str) -> CoreSchedule:
    """Look up a registered core schedule by its report name."""
    schedule = CORE_MODES.get(name)
    if not isinstance(schedule, CoreSchedule):
        raise ValueError(
            f"core mode {name!r} is registered but is not a CoreSchedule: "
            f"{schedule!r}"
        )
    return schedule


def _cache_dir() -> Path:
    """Per-user build cache: ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro"


def extension_path() -> Path:
    """Where the compiled core for this source and interpreter ABI lives.

    The file name carries the SHA-256 of the C source plus the
    interpreter's extension suffix (its ABI tag), so every checkout of
    the same source shares one build and an edited source never loads a
    stale one.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(_SOURCE.read_bytes() + suffix.encode()).hexdigest()
    return _cache_dir() / f"_flatcore-{digest[:16]}{suffix}"


def build_command(target: Path) -> List[str]:
    """The compiler command that builds the core into ``target``: the
    interpreter's own ``CC`` and headers, ``-O2 -shared -fPIC``."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    flags = ["-O2", "-shared", "-fPIC", f"-I{include}"]
    return [*compiler, *flags, str(_SOURCE), "-o", str(target)]


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
    router_config:
        Microarchitecture shared by every router.
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
    router_config: "RouterConfig"
    routing: "RoutingAlgorithm"
    selectors: Sequence[PathSelector]
    sources: Sequence[Optional[object]]


class FlatNetworkCore:
    """The whole network as one kernel component backed by the C core.

    Built from a :class:`FlatCoreParts` record -- topology, router
    configuration, routing algorithm, per-node path selectors and
    per-node traffic sources -- and the simulation's
    :class:`~repro.stats.collector.StatsCollector`.  The constructor
    computes the wiring tables once and hands them to the extension's
    ``Core``; ``deliver``, ``evaluate``, ``next_event_cycle`` and
    ``wake_interface`` are that object's methods, bound per instance (so
    a tracer can wrap them) and called by the kernel with no Python frame
    in between.

    Address spaces
    --------------
    * global input/output virtual channel: ``(node * radix + port) * vcs + vc``
    * global port: ``node * radix + port``
    * injection slot: ``node * vcs + vc``
    * message slot: an index into the per-message header arrays
      (message, destination, length, dateline mask, look-ahead
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

    :meth:`state` returns all of it as plain lists, keyed by these names.

    The four arrival wheels (router flits, router output credits, NI
    ejections, NI injection credits) are cycle-indexed lanes shared by
    the whole network; every push carries a strictly future arrival
    cycle bounded by the wheel size, so the lane for the current cycle
    is always exact.  Ejections are pushed in ascending node order and
    each node's local output port forwards at most one flit per cycle,
    so the eject drain reports deliveries to the statistics collector in
    the same node order as the object interfaces -- keeping even the
    floating-point accumulation order of the latency statistics
    identical.
    """

    def __init__(self, parts: FlatCoreParts, stats) -> None:
        topology = parts.topology
        config = parts.router_config
        routing = parts.routing
        routing.validate(config.vcs_per_port)
        self._stats = stats
        self._num_nodes = num_nodes = topology.num_nodes
        self._radix = radix = topology.radix
        self._vcs = vcs = config.vcs_per_port

        vc_classes = routing.vc_classes(vcs)
        # Per-port escape pools indexed by the header's dateline class for
        # that port's dimension (Router._escape_pools).  The ejection port
        # and every mesh port offer the full escape set in both classes,
        # so the class read is a harmless constant off datelines.
        escape = vc_classes.escape_vcs
        pools = vc_classes.escape_classes or (escape, escape)
        dimensions = [0] + [port_direction(port)[0] for port in range(1, radix)]
        pipeline = config.pipeline
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

        selectors = list(parts.selectors)
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
            selector_records=int(
                getattr(type(selectors[0]), "record_use", None)
                is not PathSelector.record_use
            ),
            adaptive_vcs=vc_classes.adaptive_vcs,
            escape_vcs=escape,
            escape_pools=[(escape, escape)] + [pools] * (radix - 1),
            port_dimension=dimensions,
            port_hop_delay=hop_delay,
            dateline_bits=dateline_bits,
            port_neighbor=neighbor,
            out_connected=connected,
            go_flit_dest=go_flit_dest,
            g_credit_dest=g_credit_dest,
        )
        self._core = core = core_extension().Core(
            spec,
            routing.decide_cached,
            selectors,
            list(parts.sources),
            stats,
            OutputPortStatus,
        )
        self.deliver = core.deliver
        self.evaluate = core.evaluate
        self.next_event_cycle = core.next_event_cycle
        self.wake_interface = core.wake_interface

    @property
    def flits_forwarded(self) -> List[int]:
        """Flits each router's crossbar forwarded (Router.flits_forwarded)."""
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
        ``ni_heap``, ``ni_soon``, the four ``*_lanes`` per wheel slot and
        the wiring tables.  O(state) per call.
        """
        return self._core.state()

    def is_idle(self) -> bool:
        """True when no flit is buffered, queued or in flight anywhere."""
        return self._core.is_idle()

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

    def input_state(self, node: int, port: int, vc: int) -> Tuple[int, int]:
        """(state, buffered flits) of one input VC (tests, introspection)."""
        return self._core.channel(node, port, vc)[:2]

    def output_credits(self, node: int, port: int, vc: int) -> int:
        """Current credit count of one output VC (tests, introspection)."""
        return self._core.channel(node, port, vc)[2]

    def output_owner(self, node: int, port: int, vc: int) -> int:
        """Owning global input channel of one output VC (-1 when free)."""
        return self._core.channel(node, port, vc)[3]

    def in_flight_credits(self, node: int) -> List[Tuple[int, int]]:
        """``(port, vc)`` of every credit in flight toward ``node``'s
        output VCs (conservation tests and debugging)."""
        vcs = self._vcs
        lo = node * self._radix * vcs
        hi = lo + self._radix * vcs
        return [
            divmod(go - lo, vcs)
            for lane in self._core.state()["credit_lanes"]
            for go in lane
            if lo <= go < hi
        ]

    def __repr__(self) -> str:
        return (
            f"FlatNetworkCore(nodes={self._num_nodes}, radix={self._radix}, "
            f"vcs={self._vcs})"
        )
