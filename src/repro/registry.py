"""Named, introspectable plugin registries for every pluggable component.

The simulator is assembled from nine kinds of interchangeable parts --
topologies, routing algorithms, routing-table organisations,
path-selection heuristics, traffic patterns, injection processes, router
pipelines, core schedules and closed-loop workloads -- plus the scenario layer's
reporters, analytic experiments and built-in studies.  Each kind has a :class:`Registry`
mapping report names (the strings stored in
:class:`~repro.core.config.SimulationConfig`) to factories, so user code
can plug in new components without touching repro internals::

    from repro.registry import register
    from repro.traffic.patterns import TrafficPattern

    @register("traffic", "diagonal")
    class DiagonalPattern(TrafficPattern):
        name = "diagonal"

        def destination(self, source, rng):
            ...

Factory signatures by kind (what the simulator calls for each entry):

=============  ==========================================================
``topology``   ``factory(config) -> Topology``
``table``      ``factory(topology, config) -> RoutingTable``
``routing``    ``factory(topology, table, config) -> RoutingAlgorithm``
``selector``   ``factory(rng) -> PathSelector``
``traffic``    ``factory(topology, **kwargs) -> TrafficPattern``
``injection``  ``factory(config, rate) -> InjectionProcess``
``pipeline``   a :class:`~repro.router.pipeline.PipelineTiming` instance
``core``       a :class:`~repro.network.flatcore.CoreSchedule` instance
``workload``   ``factory(config, topology) -> WorkloadDag``
``reporter``   ``reporter(study, points, results, **options) -> rows``
``analytic``   ``analytic(**options) -> rows``
``study``      ``builder() -> Study`` (default-parameter built-in study)
=============  ==========================================================

Built-in components register themselves when their defining module is
imported; each registry lazily imports those modules on first lookup, so
``TRAFFIC_PATTERNS.names()`` is complete without any explicit bootstrap.
Every entry records a *provenance* string (``module:qualname``) which is
folded into the result-cache key, so a result computed with a plugin
component can never be served for a same-named but different one.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
import sys
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ANALYTICS",
    "CORE_MODES",
    "INJECTIONS",
    "PIPELINES",
    "REGISTRIES",
    "REPORTERS",
    "ROUTING_ALGORITHMS",
    "ROUTING_TABLES",
    "Registry",
    "RegistryEntry",
    "SELECTORS",
    "STUDIES",
    "TOPOLOGIES",
    "TRAFFIC_PATTERNS",
    "WORKLOADS",
    "describe_registries",
    "load_plugin",
    "register",
    "validate_config_names",
]


class RegistryEntry:
    """One registered component: its name, factory and origin."""

    __slots__ = ("name", "factory", "provenance", "summary")

    def __init__(self, name: str, factory: object, provenance: str, summary: str) -> None:
        self.name = name
        self.factory = factory
        #: ``module:qualname`` of the factory -- folded into cache keys.
        self.provenance = provenance
        #: First docstring line, for introspection listings.
        self.summary = summary

    def __repr__(self) -> str:
        return f"RegistryEntry({self.name!r}, provenance={self.provenance!r})"


def _provenance_of(obj: object) -> str:
    module = getattr(obj, "__module__", None) or type(obj).__module__
    qualname = getattr(obj, "__qualname__", None) or type(obj).__qualname__
    return f"{module}:{qualname}"


def _summary_of(obj: object) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


class Registry:
    """A named mapping from report names to component factories.

    Parameters
    ----------
    kind:
        Human-readable component kind ("traffic pattern", ...), used in
        error messages.
    builtin_modules:
        Modules that register the built-in entries of this kind; imported
        lazily on the first lookup so the registry is always complete
        without import-order gymnastics.
    """

    def __init__(self, kind: str, builtin_modules: Sequence[str] = ()) -> None:
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._loaded = not self._builtin_modules
        self._entries: Dict[str, RegistryEntry] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: Optional[str] = None,
        obj: object = None,
        *,
        replace: bool = False,
        provenance: Optional[str] = None,
    ):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        ``name`` defaults to the object's ``name`` attribute.  Registering
        a *different* object under an existing name raises ``ValueError``
        unless ``replace=True``; re-registering the identical object is a
        no-op (so importing a plugin module twice is harmless).
        """
        def _do_register(target: object) -> object:
            entry_name = name if name is not None else getattr(target, "name", None)
            if not entry_name or not isinstance(entry_name, str):
                raise ValueError(
                    f"cannot register {self.kind} {target!r} without a name: pass "
                    "register(kind, name) or give the object a 'name' attribute"
                )
            existing = self._entries.get(entry_name)
            if existing is not None and not replace:
                if existing.factory is target:
                    return target
                raise ValueError(
                    f"a {self.kind} named {entry_name!r} is already registered "
                    f"({existing.provenance}); pass replace=True to override it"
                )
            self._entries[entry_name] = RegistryEntry(
                name=entry_name,
                factory=target,
                provenance=provenance if provenance is not None else _provenance_of(target),
                summary=_summary_of(target),
            )
            return target

        if obj is not None:
            return _do_register(obj)
        return _do_register

    def unregister(self, name: str) -> None:
        """Remove one entry (mainly for tests tearing down plugins)."""
        self._load()
        self._entries.pop(name, None)

    # -- lookup ---------------------------------------------------------------

    def _load(self) -> None:
        if self._loaded:
            return
        # Set the flag first: the imported modules call register() on this
        # very registry, and a partially-imported module must not retrigger
        # the loader.
        self._loaded = True
        for module in self._builtin_modules:
            importlib.import_module(module)

    def get(self, name: str) -> object:
        """The factory registered under ``name``.

        Raises ``ValueError`` naming the unknown value and the sorted list
        of registered alternatives.
        """
        self._load()
        try:
            return self._entries[name].factory
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered alternatives: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def entry(self, name: str) -> RegistryEntry:
        """The full :class:`RegistryEntry` under ``name`` (same errors as get)."""
        self._load()
        if name not in self._entries:
            self.get(name)  # raises with the standard message
        return self._entries[name]

    def provenance(self, name: str) -> Optional[str]:
        """``module:qualname`` of the entry, or None when unregistered."""
        self._load()
        entry = self._entries.get(name)
        return entry.provenance if entry is not None else None

    def names(self) -> Tuple[str, ...]:
        """Sorted tuple of every registered name."""
        self._load()
        return tuple(sorted(self._entries))

    def describe(self) -> List[Dict[str, str]]:
        """Introspection rows: name, provenance and summary per entry."""
        self._load()
        return [
            {
                "name": entry.name,
                "provenance": entry.provenance,
                "summary": entry.summary,
            }
            for _, entry in sorted(self._entries.items())
        ]

    def __contains__(self, name: object) -> bool:
        self._load()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._load()
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry(kind={self.kind!r}, entries={len(self._entries)})"


# -- the registries -----------------------------------------------------------------

TOPOLOGIES = Registry("topology", ["repro.network.topology"])
ROUTING_TABLES = Registry("routing-table organisation", ["repro.tables"])
ROUTING_ALGORITHMS = Registry("routing algorithm", ["repro.routing"])
SELECTORS = Registry("path-selection heuristic", ["repro.selection.heuristics"])
TRAFFIC_PATTERNS = Registry("traffic pattern", ["repro.traffic.patterns"])
INJECTIONS = Registry("injection process", ["repro.traffic.injection"])
PIPELINES = Registry("router pipeline", ["repro.router.pipeline"])
CORE_MODES = Registry("core schedule", ["repro.network.flatcore"])
WORKLOADS = Registry("closed-loop workload", ["repro.workload.builtin"])
REPORTERS = Registry("study reporter", ["repro.scenario.reporters"])
ANALYTICS = Registry("analytic experiment", ["repro.scenario.analytics"])
STUDIES = Registry("built-in study", ["repro.scenario.builtin"])

#: Registry lookup by short kind keyword (the first argument of :func:`register`).
REGISTRIES: Dict[str, Registry] = {
    "topology": TOPOLOGIES,
    "table": ROUTING_TABLES,
    "routing": ROUTING_ALGORITHMS,
    "selector": SELECTORS,
    "traffic": TRAFFIC_PATTERNS,
    "injection": INJECTIONS,
    "pipeline": PIPELINES,
    "core": CORE_MODES,
    "workload": WORKLOADS,
    "reporter": REPORTERS,
    "analytic": ANALYTICS,
    "study": STUDIES,
}


def register(kind: str, name: Optional[str] = None, **kwargs):
    """Register a component in the registry for ``kind``.

    Usable as a decorator (``@register("traffic", "diagonal")``) or
    directly (``register("pipeline", "proud", obj=PROUD)``); see
    :meth:`Registry.register` for the keyword arguments.
    """
    try:
        registry = REGISTRIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown registry kind {kind!r}; expected one of "
            f"{', '.join(sorted(REGISTRIES))}"
        ) from None
    return registry.register(name, **kwargs)


def describe_registries() -> Dict[str, List[Dict[str, str]]]:
    """Introspection snapshot of every registry, keyed by kind keyword."""
    return {kind: registry.describe() for kind, registry in sorted(REGISTRIES.items())}


# -- configuration validation -------------------------------------------------------

#: SimulationConfig field -> registry kind keyword, for the eager validation
#: and for folding component provenance into the result-cache key.
CONFIG_FIELD_KINDS: Dict[str, str] = {
    "traffic": "traffic",
    "routing": "routing",
    "table": "table",
    "selector": "selector",
    "pipeline": "pipeline",
    "core_mode": "core",
    "injection": "injection",
    # Optional: None selects open-loop traffic and is skipped by the
    # validation/provenance walks below.
    "workload": "workload",
}


def topology_name(config) -> str:
    """Registry name of the topology a configuration selects.

    The explicit ``topology`` field wins; an empty string falls back to
    the ``torus`` flag (``"torus"`` when set, ``"mesh"`` otherwise).
    """
    explicit = getattr(config, "topology", "")
    if explicit:
        return explicit
    return "torus" if config.torus else "mesh"


def validate_config_names(config) -> None:
    """Check every registry-backed string field of ``config``.

    Raises ``ValueError`` naming the offending field, the bad value and
    the sorted registered alternatives -- at configuration-construction
    time, instead of deep inside network assembly.  Cross-field checks
    ride along: the selected topology factory may veto the configuration
    (``validate_config`` attribute, e.g. torus3d requiring three
    dimensions), and on a wrapping topology (``wraps`` attribute) the
    routing factory's ``validate_wraparound`` runs, so a routing x
    topology x escape-VC mismatch fails here with a pointed error
    instead of a ValueError from deep inside network wiring.  Plugin
    factories without these attributes are skipped and keep their
    wiring-time behaviour.
    """
    for field, kind in CONFIG_FIELD_KINDS.items():
        registry = REGISTRIES[kind]
        value = getattr(config, field)
        if value is None:
            continue
        if value not in registry:
            raise ValueError(
                f"SimulationConfig.{field}: unknown {registry.kind} {value!r}; "
                f"registered alternatives: {', '.join(registry.names()) or '(none)'}"
            )
    name = topology_name(config)
    if name not in TOPOLOGIES:
        raise ValueError(
            f"SimulationConfig.topology: unknown topology {name!r}; "
            f"registered alternatives: {', '.join(TOPOLOGIES.names())}"
        )
    topology_factory = TOPOLOGIES.get(name)
    topology_check = getattr(topology_factory, "validate_config", None)
    if topology_check is not None:
        topology_check(config)
    if getattr(topology_factory, "wraps", False):
        routing_factory = ROUTING_ALGORITHMS.get(config.routing)
        wrap_check = getattr(routing_factory, "validate_wraparound", None)
        if wrap_check is not None:
            wrap_check(config)


def config_component_provenance(config) -> Dict[str, Optional[str]]:
    """Provenance of every registry-backed component a configuration names.

    Fed into the result-cache key so results computed with a user-registered
    component are never confused with results of a same-named builtin (or a
    different plugin).  Unregistered names map to None, which still changes
    the key relative to any registered implementation.
    """
    provenance: Dict[str, Optional[str]] = {
        field: REGISTRIES[kind].provenance(getattr(config, field))
        for field, kind in CONFIG_FIELD_KINDS.items()
        if getattr(config, field) is not None
    }
    provenance["topology"] = TOPOLOGIES.provenance(topology_name(config))
    return provenance


# -- plugin loading -----------------------------------------------------------------

def load_plugin(spec: str):
    """Import a plugin module that registers extra components.

    ``spec`` is either a dotted module path (``my_pkg.patterns``) or a
    filesystem path to a ``.py`` file.  File plugins are imported under a
    stable module name derived from the file stem plus a digest of the
    file contents, so loading the same file twice (or in a worker
    process) reuses the cached module instead of re-registering,
    different files sharing a basename stay distinct, and *editing* a
    plugin changes its components' provenance -- which invalidates
    result-cache entries computed by the old implementation.  (Dotted
    module paths get no content digest; their cached results are the
    user's responsibility after edits.)  Returns the imported module.
    """
    if spec.endswith(".py"):
        import hashlib
        from pathlib import Path

        path = Path(spec).resolve()
        # The module name embeds a digest of the file *contents*: two
        # plugin files that merely share a basename never alias each
        # other, re-loading an unchanged file reuses the cached module,
        # and editing a plugin changes the module name -- hence the
        # provenance folded into result-cache keys -- so stale cached
        # results computed by the old implementation become misses.
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:8]
        stem = re.sub(r"[^0-9A-Za-z_]", "_", path.stem)
        module_name = f"repro_plugin_{stem}_{digest}"
        if module_name in sys.modules:
            return sys.modules[module_name]
        module_spec = importlib.util.spec_from_file_location(module_name, path)
        if module_spec is None or module_spec.loader is None:
            raise ImportError(f"cannot load plugin file {spec!r}")
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[module_name] = module
        try:
            module_spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(module_name, None)
            raise
        return module
    return importlib.import_module(spec)
