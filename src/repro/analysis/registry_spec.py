"""R-checks: registry and study-spec consistency.

Two contracts over the live registries and the built-in study builders:

* **R001** -- every registered entry is constructible through its
  documented factory signature (see the table in :mod:`repro.registry`),
  probed against a small 4x4 mesh configuration.  A study naming an
  unconstructible component would otherwise fail only deep inside
  network assembly, possibly mid-campaign.
* **R002** -- every configuration key a builtin study spec can apply
  (``base``, axis ``field``, variant and scenario ``overrides``) is a
  real :class:`~repro.core.config.SimulationConfig` field, checked for
  every registered study builder.
"""

from __future__ import annotations

import importlib.util
from dataclasses import fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.base import Checker
from repro.analysis.findings import Finding
from repro.analysis.source import PythonSource

__all__ = [
    "RegistryChecker",
    "probe_registry_entries",
    "study_spec_findings",
]


def _probe_config():
    from repro.core.config import SimulationConfig

    return SimulationConfig(mesh_dims=(4, 4))


def _probe_rng():
    from repro.engine.rng import SimulationRNG

    return SimulationRNG(seed=0).stream("lint-probe")


def _probes() -> Dict[str, Callable[[object, str], None]]:
    """Per-kind constructibility probes: ``probe(factory, name)`` raises
    on failure.  Pipeline timings are type-checked against their class
    instead of called."""
    from repro.core.config import SimulationConfig
    from repro.router.pipeline import PipelineTiming
    from repro.scenario.spec import Study
    from repro.core.simulator import build_table, build_topology

    base = _probe_config()
    topology = build_topology(base)
    table = build_table(base, topology)
    # A wrapping probe instance: every routing entry must either accept a
    # torus (dateline discipline) or refuse it with a pointed ValueError.
    torus_config = SimulationConfig(mesh_dims=(4, 4), topology="torus", num_escape_vcs=2)
    torus = build_topology(torus_config)
    torus_table = build_table(torus_config, torus)

    def _expect_instance(kind_class):
        def probe(factory: object, name: str) -> None:
            if not isinstance(factory, kind_class):
                raise TypeError(
                    f"registered object is {type(factory).__name__}, "
                    f"expected a {kind_class.__name__} instance"
                )

        return probe

    def _probe_routing(factory, name):
        factory(topology, table, base)
        try:
            factory(torus, torus_table, torus_config)
        except ValueError:
            # A pointed refusal of wraparound links (turn models) is a
            # valid answer; any other failure propagates as R001.
            pass

    def _probe_study(factory, name):
        study = factory()
        if not isinstance(study, Study):
            raise TypeError(
                f"study builder returned {type(study).__name__}, expected Study"
            )

    def _expect_callable(factory, name):
        if not callable(factory):
            raise TypeError(f"registered object {factory!r} is not callable")

    def _probe_workload(factory, name):
        from repro.workload import WorkloadDag, example_trace_path

        config = SimulationConfig(
            mesh_dims=(4, 4),
            workload=name,
            workload_trace=str(example_trace_path()),
        )
        dag = factory(config, topology)
        if not isinstance(dag, WorkloadDag):
            raise TypeError(
                f"workload factory returned {type(dag).__name__}, "
                "expected WorkloadDag"
            )

    return {
        "topology": lambda factory, name: factory(base),
        "table": lambda factory, name: factory(topology, base),
        "routing": _probe_routing,
        "selector": lambda factory, name: factory(_probe_rng()),
        "traffic": lambda factory, name: factory(topology),
        "injection": lambda factory, name: factory(base, 0.01),
        "pipeline": _expect_instance(PipelineTiming),
        "reporter": _expect_callable,
        "analytic": _expect_callable,
        "study": _probe_study,
        "workload": _probe_workload,
    }


def _entry_anchor(provenance: str) -> Tuple[str, int]:
    """Best-effort (path, line) of a registry entry's defining module."""
    module = provenance.split(":", 1)[0]
    try:
        spec = importlib.util.find_spec(module)
        if spec is not None and spec.origin:
            return spec.origin, 1
    except (ImportError, ValueError):
        pass
    return "src/repro/registry.py", 1


def probe_registry_entries(
    kinds: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """R001 findings for every registered entry that fails its probe."""
    from repro.registry import REGISTRIES

    probes = _probes()
    findings: List[Finding] = []
    for kind in sorted(kinds if kinds is not None else REGISTRIES):
        probe = probes.get(kind)
        if probe is None:
            continue
        registry = REGISTRIES[kind]
        for name in registry.names():
            entry = registry.entry(name)
            try:
                probe(entry.factory, name)
            except Exception as error:
                path, line = _entry_anchor(entry.provenance)
                findings.append(
                    Finding(
                        rule="R001",
                        path=path,
                        line=line,
                        message=(
                            f"registry entry {kind}/{name!r} "
                            f"({entry.provenance}) failed its constructibility "
                            f"probe: {type(error).__name__}: {error}"
                        ),
                    )
                )
    return findings


def study_spec_findings(study, origin: str) -> List[Finding]:
    """R002 findings for every non-``SimulationConfig`` key in ``study``."""
    from repro.core.config import SimulationConfig

    valid = {spec.name for spec in fields(SimulationConfig)}
    findings: List[Finding] = []

    def _bad_key(key: str, where: str) -> None:
        findings.append(
            Finding(
                rule="R002",
                path=origin,
                line=1,
                message=(
                    f"study {study.name!r}: {where} names {key!r}, which is "
                    "not a SimulationConfig field"
                ),
            )
        )

    def _walk(node, label: str) -> None:
        for key in node.base:
            if key not in valid:
                _bad_key(key, f"{label} base")
        for axis in node.axes:
            if axis.is_variant:
                for variant in axis.variants:
                    for key in variant.overrides:
                        if key not in valid:
                            _bad_key(
                                key, f"{label} variant {variant.name!r} overrides"
                            )
            elif axis.field not in valid:
                _bad_key(axis.field, f"{label} axis field")
        for scenario in node.scenarios:
            for key in scenario.overrides:
                if key not in valid:
                    _bad_key(key, f"{label} scenario {scenario.name!r} overrides")
        for member in node.members:
            _walk(member, f"{label} member {member.name!r}")

    _walk(study, "study")
    return findings


def _all_builtin_studies() -> List[Tuple[object, str]]:
    """Every registered builtin study with its origin."""
    from repro.registry import STUDIES

    studies: List[Tuple[object, str]] = []
    for name in STUDIES.names():
        builder = STUDIES.get(name)
        try:
            study = builder()
        except Exception:
            # R001's study probe reports the construction failure.
            continue
        studies.append((study, f"<builtin study {name!r}>"))
    return studies


class RegistryChecker(Checker):
    """Project-level R-checks over the live registries and builtin studies."""

    rules = ("R001", "R002")

    def check_project(self, sources: Sequence[PythonSource]) -> List[Finding]:
        findings = probe_registry_entries()
        for study, origin in _all_builtin_studies():
            findings.extend(study_spec_findings(study, origin))
        return findings
