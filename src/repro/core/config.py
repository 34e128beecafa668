"""Simulation configuration.

:class:`SimulationConfig` is the single record describing one simulation
run: topology, router microarchitecture, routing algorithm, routing-table
organisation, path-selection heuristic, traffic and measurement windows.
It is deliberately plain data (strings and numbers) so configurations can
be copied, varied in sweeps and embedded in results; the
:class:`~repro.core.simulator.NetworkSimulator` turns it into objects.
The routers, network interfaces and both network cores read their
microarchitectural parameters (Table 2 of the paper) from it directly.

:class:`PaperDefaults` collects the constants of Table 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.registry import PIPELINES, validate_config_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.router.pipeline import PipelineTiming

__all__ = ["PaperDefaults", "SimulationConfig"]


class PaperDefaults:
    """The simulation parameters of Table 2 of the paper."""

    #: 256-node two-dimensional mesh.
    MESH_DIMS: Tuple[int, int] = (16, 16)
    #: Message length in flits.
    MESSAGE_LENGTH: int = 20
    #: Virtual channels per physical channel.
    VCS_PER_PORT: int = 4
    #: Input buffering per physical channel in flits (20 flits across 4 VCs).
    BUFFER_PER_CHANNEL: int = 20
    #: Flit buffer depth per virtual channel.
    BUFFER_DEPTH: int = BUFFER_PER_CHANNEL // VCS_PER_PORT
    #: Link traversal delay in cycles.
    LINK_DELAY: int = 1
    #: Contention-free router latency (cycles) without look-ahead.
    PROUD_LATENCY: int = 5
    #: Contention-free router latency (cycles) with look-ahead.
    LA_PROUD_LATENCY: int = 4
    #: Warm-up messages before statistics are collected.
    WARMUP_MESSAGES: int = 10_000
    #: Messages measured after warm-up.
    MEASURE_MESSAGES: int = 400_000
    #: Traffic patterns evaluated by the paper.
    TRAFFIC_PATTERNS: Tuple[str, ...] = ("uniform", "transpose", "bit-reversal", "shuffle")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulation run."""

    # -- topology -----------------------------------------------------------------
    #: Mesh/torus extent per dimension, e.g. ``(16, 16)``.
    mesh_dims: Tuple[int, ...] = (8, 8)
    #: Topology registry name: ``"mesh"``, ``"torus"`` (wraparound links
    #: in every dimension, any number of dimensions) or a plugin.
    topology: str = "mesh"
    #: Optional per-dimension link delays: entry ``d`` is the traversal
    #: time of every dimension-``d`` router link (e.g. slow TSV Z-links
    #: on a stacked 3-D torus).  ``None`` keeps the uniform
    #: ``link_delay``.  Length must match ``mesh_dims``.
    link_delays: Optional[Tuple[int, ...]] = None

    # -- router microarchitecture ----------------------------------------------------
    #: Virtual channels per physical channel.
    vcs_per_port: int = 4
    #: Flit buffer depth per virtual channel.
    buffer_depth: int = 5
    #: Router pipeline: ``"proud"`` (5-stage) or ``"la-proud"`` (4-stage).
    pipeline: str = "la-proud"
    #: Link traversal delay in cycles.
    link_delay: int = 1
    #: Credit return delay in cycles.
    credit_delay: int = 1
    #: Network core: ``"flat"`` (the whole network lowered into one
    #: flat struct-of-arrays core, the default) or
    #: ``"objects"`` (the per-component router/interface network kept as
    #: the executable specification).  Both cores are bit-identical;
    #: see :mod:`repro.network.flatcore`.
    core_mode: str = "flat"

    # -- routing -----------------------------------------------------------------------
    #: ``"duato"``, ``"dimension-order"``, ``"north-last"``, ``"west-first"`` or
    #: ``"negative-first"``.
    routing: str = "duato"
    #: Routing-table organisation: ``"full"``, ``"economical"``, ``"meta-row"``,
    #: ``"meta-block"`` or ``"interval"``.
    table: str = "economical"
    #: Path-selection heuristic: ``"static-xy"``, ``"min-mux"``, ``"lfu"``,
    #: ``"lru"``, ``"max-credit"``, ``"random"`` or ``"first-free"``.
    selector: str = "static-xy"

    # -- traffic --------------------------------------------------------------------------
    #: Traffic pattern name (see :mod:`repro.traffic.patterns`).
    traffic: str = "uniform"
    #: Normalized load (1.0 saturates the bisection under uniform traffic).
    normalized_load: float = 0.2
    #: Message length in flits.
    message_length: int = 20
    #: Injection process: ``"exponential"`` (paper) or ``"bernoulli"``.
    injection: str = "exponential"

    # -- closed-loop workload ---------------------------------------------------------
    #: Closed-loop workload name (registry kind ``"workload"``:
    #: ``"request-reply"``, ``"allreduce"``, ``"alltoall"``,
    #: ``"llm-decode"``, ``"trace"``) or None for the open-loop
    #: stochastic traffic above.  When set, the ``traffic``/
    #: ``normalized_load``/``injection``/measurement-window fields are
    #: ignored: the run injects exactly the workload DAG's transfers and
    #: ends when it drains (see :mod:`repro.workload`).
    workload: Optional[str] = None
    #: Iterations (request chains, collective repetitions) per workload.
    workload_iters: int = 4
    #: Outstanding request/reply exchanges allowed per client
    #: (``request-reply`` only).
    workload_window: int = 2
    #: Model layers (``llm-decode`` only).
    workload_layers: int = 2
    #: Hidden dimension in flits: collective transfers carry
    #: ``max(1, workload_hidden // group)`` flits each.
    workload_hidden: int = 64
    #: Collective group / tensor-parallel degree in nodes (0 = every
    #: node; ``llm-decode`` defaults 0 to ``min(4, num_nodes)``).
    workload_group: int = 0
    #: Compute delay in cycles per model-layer step (``llm-decode``).
    workload_compute: int = 4
    #: JSON DAG file replayed by the ``trace`` workload.
    workload_trace: str = ""

    # -- measurement -----------------------------------------------------------------------
    #: Messages injected before statistics collection starts.
    warmup_messages: int = 200
    #: Messages measured after warm-up.
    measure_messages: int = 2_000
    #: Hard cycle limit (None = derive one from the offered load).
    max_cycles: Optional[int] = None
    #: Extra cycles allowed for in-flight messages to drain after generation.
    drain_factor: float = 4.0
    #: Master random seed.
    seed: int = 1
    #: Seed-offset replicate runs per point.  1 (the default) is a single
    #: run; larger values fan the point into ``replications`` runs at
    #: seeds ``seed, seed + seed_stride, ...`` when submitted through an
    #: :class:`~repro.exec.backend.ExecutionBackend`, which merges them
    #: into one result with confidence intervals (see
    #: :mod:`repro.stats.confidence`).  Each replicate occupies its own
    #: cache slot, shared with plain single-seed runs at the same seed.
    replications: int = 1
    #: Seed increment between consecutive replicates.
    seed_stride: int = 1

    def __post_init__(self) -> None:
        # Normalize sequence fields to int tuples so every construction
        # path (JSON lists included) yields an equal, hashable config.
        object.__setattr__(self, "mesh_dims", tuple(int(extent) for extent in self.mesh_dims))
        if self.link_delays is not None:
            object.__setattr__(
                self, "link_delays", tuple(int(delay) for delay in self.link_delays)
            )
        if len(self.mesh_dims) < 1:
            raise ValueError(f"mesh_dims must have at least one dimension, got {self.mesh_dims}")
        if min(self.mesh_dims) < 2:
            raise ValueError(
                f"mesh_dims must have at least 2 nodes in every dimension, got {self.mesh_dims}"
            )
        if self.core_mode not in ("objects", "flat"):
            raise ValueError(
                f"SimulationConfig.core_mode: unknown core {self.core_mode!r}; "
                "expected 'objects' or 'flat'"
            )
        # Router fields.  Every link and credit delay is at least one
        # cycle, so a scheduled arrival always lies strictly in the
        # future: the invariant that lets the flat core's forecast skip
        # to its next arrival without ever missing a same-cycle event.
        for name in ("vcs_per_port", "buffer_depth", "link_delay", "credit_delay"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.link_delays is not None:
            if len(self.link_delays) != len(self.mesh_dims):
                raise ValueError(
                    "link_delays needs one entry per dimension: got "
                    f"{len(self.link_delays)} delays for "
                    f"{len(self.mesh_dims)} dimensions"
                )
            if any(delay < 1 for delay in self.link_delays):
                raise ValueError(
                    "every per-dimension link delay needs at least one "
                    f"cycle, got link_delays={self.link_delays}"
                )
        if self.normalized_load < 0:
            raise ValueError(f"normalized_load must be non-negative, got {self.normalized_load}")
        if self.message_length < 1:
            raise ValueError(f"message_length must be at least 1 flit, got {self.message_length}")
        if self.warmup_messages < 0:
            raise ValueError(
                "invalid measurement window: warmup_messages must be at least 0, "
                f"got {self.warmup_messages}"
            )
        if self.measure_messages < 1:
            raise ValueError(
                "invalid measurement window: measure_messages must be at least 1, "
                f"got {self.measure_messages}"
            )
        if self.max_cycles is not None and self.max_cycles < 0:
            raise ValueError(f"max_cycles must be non-negative, got {self.max_cycles}")
        if self.drain_factor <= 0:
            raise ValueError(f"drain_factor must be positive, got {self.drain_factor}")
        for name in ("workload_iters", "workload_window", "workload_layers", "replications"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.workload_hidden < 1:
            raise ValueError(
                f"workload_hidden must be at least 1 flit, got {self.workload_hidden}"
            )
        if self.workload_group < 0:
            raise ValueError(
                f"workload_group must be non-negative (0 = all nodes), got {self.workload_group}"
            )
        if self.workload_compute < 0:
            raise ValueError(f"workload_compute must be non-negative, got {self.workload_compute}")
        if self.seed_stride < 1:
            # A zero stride would run the same seed repeatedly and report
            # a spurious zero-width confidence interval.
            raise ValueError(f"seed_stride must be at least 1, got {self.seed_stride}")
        self.validate()

    def validate(self) -> None:
        """Check every registry-backed string field against its registry.

        Runs eagerly at construction (``__post_init__``), so a typo in
        ``topology``/``traffic``/``routing``/``table``/``selector``/
        ``pipeline``/``injection`` raises a ``ValueError`` naming the bad
        value and the sorted registered alternatives instead of failing
        deep inside network assembly.  Register plugin components (see
        :mod:`repro.registry`) *before* constructing configurations that
        name them.
        """
        validate_config_names(self)

    # -- convenience constructors -------------------------------------------------------------

    @classmethod
    def paper(cls, **overrides) -> "SimulationConfig":
        """The paper's full-scale configuration (Table 2).

        One point simulates 410,000 messages on a 16x16 mesh: 12.7-14.0 s
        on the default flat core in the baseline ``ROADMAP.md`` records,
        far longer on the object core.  Use :meth:`small` for day-to-day
        work and this configuration when absolute fidelity matters more
        than runtime.
        """
        base = cls(
            mesh_dims=PaperDefaults.MESH_DIMS,
            vcs_per_port=PaperDefaults.VCS_PER_PORT,
            buffer_depth=PaperDefaults.BUFFER_DEPTH,
            pipeline="la-proud",
            link_delay=PaperDefaults.LINK_DELAY,
            message_length=PaperDefaults.MESSAGE_LENGTH,
            warmup_messages=PaperDefaults.WARMUP_MESSAGES,
            measure_messages=PaperDefaults.MEASURE_MESSAGES,
        )
        return replace(base, **overrides)

    @classmethod
    def small(cls, **overrides) -> "SimulationConfig":
        """A scaled-down configuration preserving the paper's shape.

        8x8 mesh, 20-flit messages, 4 VCs: small enough for tests, large
        enough to show the adaptive-routing and look-ahead effects.
        """
        base = cls(
            mesh_dims=(8, 8),
            warmup_messages=150,
            measure_messages=1_200,
        )
        return replace(base, **overrides)

    @classmethod
    def tiny(cls, **overrides) -> "SimulationConfig":
        """A minimal configuration for unit tests (4x4 mesh, short messages)."""
        base = cls(
            mesh_dims=(4, 4),
            message_length=4,
            warmup_messages=20,
            measure_messages=200,
        )
        return replace(base, **overrides)

    def variant(self, **overrides) -> "SimulationConfig":
        """A copy of this configuration with selected fields replaced."""
        return replace(self, **overrides)

    def replicate_configs(self) -> Tuple["SimulationConfig", ...]:
        """The single-seed configurations this point fans out into.

        ``(self,)`` when ``replications == 1``; otherwise one copy per
        replicate at seeds ``seed + k * seed_stride`` with
        ``replications``/``seed_stride`` normalized back to 1, so each
        replicate is an ordinary single-run cache slot -- identical to
        (and shared with) a plain run at that seed.
        """
        if self.replications == 1:
            return (self,)
        return tuple(
            replace(
                self,
                seed=self.seed + index * self.seed_stride,
                replications=1,
                seed_stride=1,
            )
            for index in range(self.replications)
        )

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-compatible dictionary of every field.

        Tuples become lists, and float-typed fields are rendered as floats
        even when an int was passed (``normalized_load=1`` vs ``1.0``), so
        equal configurations always serialize -- and hash -- identically.
        """
        data: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            elif value is not None and "float" in str(spec.type):
                value = float(value)
            data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing fields fall back to their defaults.  An unknown key raises
        ``ValueError`` naming every such key: a dropped key would silently
        rebuild a different configuration (a result cache treats the raise
        as a miss and discards the entry).
        """
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(key for key in data if key not in known)
        if unknown:
            raise ValueError(
                f"SimulationConfig.from_dict: unknown configuration key(s) "
                f"{', '.join(map(repr, unknown))}"
            )
        return cls(**data)

    # -- router microarchitecture --------------------------------------------------

    @property
    def pipeline_timing(self) -> "PipelineTiming":
        """The registered :class:`~repro.router.pipeline.PipelineTiming`
        that :attr:`pipeline` names."""
        return PIPELINES.get(self.pipeline)

    def link_delay_for(self, dimension: int) -> int:
        """Traversal time of a dimension-``dimension`` router link (the
        injection link between an interface and its router always takes
        :attr:`link_delay`)."""
        if self.link_delays is not None and dimension < len(self.link_delays):
            return self.link_delays[dimension]
        return self.link_delay

    @property
    def max_link_delay(self) -> int:
        """The slowest router-link delay."""
        if self.link_delays:
            return max(self.link_delay, *self.link_delays)
        return self.link_delay

    @property
    def num_nodes(self) -> int:
        """Total node count of the configured topology."""
        total = 1
        for extent in self.mesh_dims:
            total *= extent
        return total

    @property
    def total_messages(self) -> int:
        """Warm-up plus measured messages."""
        return self.warmup_messages + self.measure_messages
