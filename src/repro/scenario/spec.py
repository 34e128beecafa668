"""Declarative scenario and study specifications.

A :class:`Scenario` describes **one** simulation run as plain data: a
name plus configuration overrides.  A :class:`Study` describes a **named
batch** of scenarios -- an explicit list, a sweep grid (ordered axes of
configuration values and named variants), or a suite of member studies --
together with a saturation-stop policy and an output selection (which
reporter turns results into rows, and which columns are printed).

Both round-trip losslessly to plain JSON files::

    study = Study.from_json(Path("figure5.json").read_text())
    assert Study.from_json(study.to_json()) == study

and expand deterministically into :class:`~repro.core.config.SimulationConfig`
batches (see :meth:`Study.expand`), which
:func:`~repro.scenario.runner.run_study` submits through the existing
:class:`~repro.exec.backend.ExecutionBackend`/:class:`~repro.exec.cache.ResultCache`
path.  The spec layer never simulates anything itself.

Spec dictionaries are JSON-plain: lists (not tuples) inside ``base``,
``overrides`` and ``options``; the only coercion applied when building
configurations is ``mesh_dims`` lists becoming tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import SimulationConfig

__all__ = [
    "Axis",
    "Coord",
    "Report",
    "Scenario",
    "StopPolicy",
    "Study",
    "StudyPoint",
    "Variant",
]


@dataclass(frozen=True)
class Scenario:
    """One named simulation run: configuration overrides over a base.

    A standalone scenario (no study) applies its overrides to the default
    :class:`SimulationConfig`; inside a study they apply to the study's
    ``base``.
    """

    #: Name of the run (used in reports and expansion bookkeeping).
    name: str = "scenario"
    #: JSON-plain configuration overrides.
    overrides: Dict[str, object] = field(default_factory=dict)

    def config(self, base: Optional[SimulationConfig] = None) -> SimulationConfig:
        """The :class:`SimulationConfig` this scenario describes."""
        base = base if base is not None else SimulationConfig()
        return base.variant(**self.overrides)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "overrides": dict(self.overrides)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Scenario":
        return cls(
            name=str(data.get("name", "scenario")),
            overrides=dict(data.get("overrides", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Variant:
    """One named point of a variant axis: a label plus overrides.

    Variants let an axis sweep *combinations* of fields under one report
    name (e.g. Figure 5's router organisations, which vary ``pipeline``
    and ``routing`` together).
    """

    name: str
    overrides: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "overrides": dict(self.overrides)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Variant":
        return cls(name=str(data["name"]), overrides=dict(data.get("overrides", {})))


@dataclass(frozen=True)
class Axis:
    """One sweep dimension of a study grid.

    Either a **value axis** (``field`` plus ``values``: one configuration
    field swept over scalar values) or a **variant axis** (``variants``:
    named override bundles).  Axes expand row-major in the order listed,
    the last axis varying fastest.
    """

    #: Configuration field swept by a value axis ("" for variant axes).
    field: str = ""
    #: Values of a value axis, in sweep order.
    values: Tuple[object, ...] = ()
    #: Column label used in reports (defaults to ``field``).
    label: str = ""
    #: Name of a variant axis (defaults to "variant").
    name: str = ""
    #: The named variants of a variant axis, in sweep order.
    variants: Tuple[Variant, ...] = ()

    def __post_init__(self) -> None:
        if not self.values and not self.variants:
            name = self.name or self.label or self.field
            raise ValueError(f"study axis {name!r} has no values or variants to sweep")

    @property
    def is_variant(self) -> bool:
        """Whether this is a variant axis."""
        return bool(self.variants)

    @property
    def report_label(self) -> str:
        """The label reports use for this axis."""
        if self.is_variant:
            return self.name or "variant"
        return self.label or self.field

    def __len__(self) -> int:
        return len(self.variants) if self.is_variant else len(self.values)

    def points(self) -> List[Tuple[object, Dict[str, object]]]:
        """The axis's ``(report value, overrides)`` pairs, in sweep order."""
        if self.is_variant:
            return [(variant.name, dict(variant.overrides)) for variant in self.variants]
        return [(value, {self.field: value}) for value in self.values]

    def to_dict(self) -> Dict[str, object]:
        if self.is_variant:
            data: Dict[str, object] = {
                "name": self.name or "variant",
                "variants": [variant.to_dict() for variant in self.variants],
            }
            return data
        data = {"field": self.field, "values": list(self.values)}
        if self.label:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Axis":
        if "variants" in data:
            return cls(
                name=str(data.get("name", "variant")),
                variants=tuple(Variant.from_dict(v) for v in data["variants"]),
            )
        values = data["values"]
        if not isinstance(values, list):
            # A string would sweep its characters one by one.
            name = data.get("label") or data["field"]
            raise ValueError(f"study axis {name!r}: values must be a list, got {values!r}")
        return cls(
            field=str(data["field"]),
            values=tuple(values),
            label=str(data.get("label", "")),
        )


@dataclass(frozen=True)
class StopPolicy:
    """Saturation-stop policy of a study grid.

    The stop axis is the study's **last value axis**; variant axes after
    it are simulated together per stop-axis value.  Per combination of
    the axes *before* the stop axis, the walk along the stop axis ends --
    after recording the triggering batch -- when:

    * ``mode="any"``: any scenario of the batch is saturated (the load
      sweep semantics: the saturated point itself is kept so tables can
      print "Sat." rows);
    * ``mode="reference"``: the variant named ``reference`` is saturated
      (Figure 5's semantics: the paper only plots loads up to saturation
      of the reference router); or
    * ``mode="refine"``: after evaluating the declared (coarse) stop-axis
      grid, bisect toward the saturation knee -- repeatedly simulate the
      midpoint of the tightest (unsaturated, saturated) value bracket --
      until the knee is bracketed within ``tolerance`` or ``max_points``
      stop-axis steps have been evaluated per group (0 = unbounded).
      With ``reference`` set, that variant's saturation decides each
      step, exactly as in ``mode="reference"``.
    """

    mode: str = "any"
    reference: str = ""
    #: Knee-bracket width (in stop-axis units) at which refinement stops.
    tolerance: float = 0.0
    #: Stop-axis steps evaluated per group, initial grid included
    #: (0 = no budget).
    max_points: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("any", "reference", "refine"):
            raise ValueError(
                f"unknown stop mode {self.mode!r}; expected 'any', "
                "'reference' or 'refine'"
            )
        if self.mode == "reference" and not self.reference:
            raise ValueError("stop mode 'reference' needs a reference variant name")
        if self.mode == "refine":
            if not self.tolerance > 0.0:
                raise ValueError(
                    "stop mode 'refine' needs a positive tolerance (the "
                    "knee-bracket width, in stop-axis units, at which "
                    "bisection stops)"
                )
            if self.max_points < 0:
                raise ValueError("max_points cannot be negative (0 = no budget)")
        else:
            if self.tolerance:
                raise ValueError(
                    f"tolerance only applies to stop mode 'refine', not {self.mode!r}"
                )
            if self.max_points:
                raise ValueError(
                    f"max_points only applies to stop mode 'refine', not {self.mode!r}"
                )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"mode": self.mode}
        if self.reference:
            data["reference"] = self.reference
        if self.mode == "refine":
            data["tolerance"] = self.tolerance
            if self.max_points:
                data["max_points"] = self.max_points
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StopPolicy":
        return cls(
            mode=str(data.get("mode", "any")),
            reference=str(data.get("reference", "")),
            tolerance=float(data.get("tolerance", 0.0)),
            max_points=int(data.get("max_points", 0)),
        )


@dataclass(frozen=True)
class Report:
    """Output selection of a study: reporter, its options and columns.

    ``reporter`` names an entry of the :data:`repro.registry.REPORTERS`
    registry; ``options`` are passed to it as keyword arguments;
    ``columns`` optionally restricts (and orders) the printed columns.
    """

    reporter: str = "summary"
    options: Dict[str, object] = field(default_factory=dict)
    columns: Optional[Tuple[str, ...]] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"reporter": self.reporter}
        if self.options:
            data["options"] = dict(self.options)
        if self.columns is not None:
            data["columns"] = list(self.columns)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Report":
        columns = data.get("columns")
        return cls(
            reporter=str(data.get("reporter", "summary")),
            options=dict(data.get("options", {})),
            columns=tuple(columns) if columns is not None else None,
        )


@dataclass(frozen=True)
class Coord:
    """One coordinate of an expanded grid point."""

    #: Report label of the axis ("traffic", "load", "variant", ...).
    label: str
    #: The axis value at this point (a scalar, or a variant name).
    value: object
    #: Whether the coordinate comes from a variant axis.
    is_variant: bool = False


@dataclass(frozen=True)
class StudyPoint:
    """One expanded point of a study grid: scenario, coordinates, config."""

    scenario: Scenario
    coords: Tuple[Coord, ...]
    config: SimulationConfig

    def coord(self, label: str) -> object:
        """The value of the coordinate labelled ``label``."""
        for coord in self.coords:
            if coord.label == label:
                return coord.value
        raise KeyError(f"point {self.scenario.name!r} has no coordinate {label!r}")

    @property
    def variant(self) -> Optional[str]:
        """Name of the point's (first) variant coordinate, if any."""
        for coord in self.coords:
            if coord.is_variant:
                return str(coord.value)
        return None


@dataclass(frozen=True)
class Study:
    """A named batch of scenarios: explicit list, sweep grid, analytic
    computation or suite of member studies.

    ``kind`` selects the flavour:

    * ``"grid"`` -- ``base`` (a full configuration dictionary) plus
      ``axes`` and/or explicit ``scenarios``, an optional ``stop`` policy
      and a ``report`` selection.
    * ``"analytic"`` -- no simulations: ``analytic`` names an entry of the
      :data:`repro.registry.ANALYTICS` registry called with ``options``.
    * ``"suite"`` -- ``members`` are run in order (sharing one execution
      backend) and rendered as one Markdown report.

    ``plugins`` lists modules (dotted paths or ``.py`` files) imported
    before the study expands, so spec files can name user-registered
    components.
    """

    name: str
    kind: str = "grid"
    title: str = ""
    paper_claim: str = ""
    description: str = ""
    base: Dict[str, object] = field(default_factory=dict)
    axes: Tuple[Axis, ...] = ()
    scenarios: Tuple[Scenario, ...] = ()
    stop: Optional[StopPolicy] = None
    report: Report = field(default_factory=Report)
    analytic: str = ""
    options: Dict[str, object] = field(default_factory=dict)
    members: Tuple["Study", ...] = ()
    plugins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("grid", "analytic", "suite"):
            raise ValueError(
                f"unknown study kind {self.kind!r}; expected 'grid', 'analytic' or 'suite'"
            )
        if self.kind == "analytic" and not self.analytic:
            raise ValueError("an analytic study needs an 'analytic' registry name")
        if self.kind == "suite" and not self.members:
            raise ValueError("a suite study needs at least one member")
        if self.stop is not None and self.scenarios:
            raise ValueError("a stop policy only applies to grid axes, not explicit scenarios")
        if self.stop is not None:
            value_indices = [
                i for i, axis in enumerate(self.axes) if not axis.is_variant
            ]
            if not value_indices:
                # Without a value axis there is no stop axis: the runner
                # would otherwise die deep in the walk with a bare
                # "max() arg is an empty sequence".
                raise ValueError(
                    f"study {self.name!r}: a stop policy needs at least one "
                    "value axis to walk (the grid has only variant axes)"
                )
            if self.stop.mode == "reference" or (
                self.stop.mode == "refine" and self.stop.reference
            ):
                # The walk batches the axes *after* the last value axis per
                # step, so the reference variant must live there -- catch a
                # mis-ordered spec now instead of after burning simulations.
                inner = self.axes[value_indices[-1] + 1 :]
                names = [v.name for axis in inner for v in axis.variants]
                if self.stop.reference not in names:
                    raise ValueError(
                        f"study {self.name!r}: stop reference "
                        f"{self.stop.reference!r} must name a "
                        "variant on an axis after the last value axis "
                        f"(found none among {names!r}); reorder the axes so "
                        "the variant axis comes last"
                    )
            if self.stop.mode == "refine":
                stop_axis = self.axes[value_indices[-1]]
                for value in stop_axis.values:
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ValueError(
                            f"study {self.name!r}: stop mode 'refine' bisects "
                            f"a numeric axis; axis {stop_axis.report_label!r} "
                            f"has non-numeric value {value!r}"
                        )

    # -- expansion ------------------------------------------------------------

    def base_config(self) -> SimulationConfig:
        """The study's base configuration (defaults overlaid with ``base``)."""
        return SimulationConfig().variant(**self.base)

    def expand(self) -> List[StudyPoint]:
        """Deterministic expansion into configured scenario points.

        Explicit ``scenarios`` come first (in listed order), then the
        ``axes`` grid in row-major order (last axis fastest).  The same
        study always expands to the same points in the same order -- the
        property the golden tests and the content-addressed cache rely on.
        """
        if self.kind != "grid":
            raise ValueError(f"only grid studies expand, not {self.kind!r}")
        base = self.base_config()
        points: List[StudyPoint] = []
        for scenario in self.scenarios:
            points.append(
                StudyPoint(
                    scenario=scenario,
                    coords=(Coord("scenario", scenario.name),),
                    config=scenario.config(base),
                )
            )
        grid: List[Tuple[Tuple[Coord, ...], Dict[str, object]]] = [((), {})]
        for axis in self.axes:
            label = axis.report_label
            next_grid = []
            for coords, overrides in grid:
                for value, axis_overrides in axis.points():
                    merged = dict(overrides)
                    merged.update(axis_overrides)
                    next_grid.append(
                        (coords + (Coord(label, value, axis.is_variant),), merged)
                    )
            grid = next_grid
        if self.axes:
            for coords, overrides in grid:
                name = "/".join(f"{c.label}={c.value}" for c in coords)
                points.append(
                    StudyPoint(
                        scenario=Scenario(name=name, overrides=overrides),
                        coords=coords,
                        config=base.variant(**overrides),
                    )
                )
        elif not self.scenarios:
            # A bare grid study is a single run of the base configuration.
            points.append(
                StudyPoint(scenario=Scenario(name=self.name), coords=(), config=base)
            )
        return points

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-compatible dictionary (defaults omitted)."""
        data: Dict[str, object] = {"study": self.name, "kind": self.kind}
        for key in ("title", "paper_claim", "description"):
            value = getattr(self, key)
            if value:
                data[key] = value
        if self.plugins:
            data["plugins"] = list(self.plugins)
        if self.kind == "grid":
            data["base"] = dict(self.base)
            if self.axes:
                data["axes"] = [axis.to_dict() for axis in self.axes]
            if self.scenarios:
                data["scenarios"] = [scenario.to_dict() for scenario in self.scenarios]
            if self.stop is not None:
                data["stop"] = self.stop.to_dict()
            data["report"] = self.report.to_dict()
        elif self.kind == "analytic":
            data["analytic"] = self.analytic
            if self.options:
                data["options"] = dict(self.options)
            if self.report.columns is not None:
                data["report"] = self.report.to_dict()
        else:  # suite
            data["base"] = dict(self.base)
            data["members"] = [member.to_dict() for member in self.members]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Study":
        stop = data.get("stop")
        return cls(
            name=str(data.get("study", data.get("name", "study"))),
            kind=str(data.get("kind", "grid")),
            title=str(data.get("title", "")),
            paper_claim=str(data.get("paper_claim", "")),
            description=str(data.get("description", "")),
            base=dict(data.get("base", {})),
            axes=tuple(Axis.from_dict(axis) for axis in data.get("axes", [])),
            scenarios=tuple(Scenario.from_dict(s) for s in data.get("scenarios", [])),
            stop=StopPolicy.from_dict(stop) if stop is not None else None,
            report=Report.from_dict(data.get("report", {})),
            analytic=str(data.get("analytic", "")),
            options=dict(data.get("options", {})),
            members=tuple(cls.from_dict(member) for member in data.get("members", [])),
            plugins=tuple(str(plugin) for plugin in data.get("plugins", [])),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Study":
        return cls.from_dict(json.loads(text))

    def with_title(self, title: str, paper_claim: str = "") -> "Study":
        """A copy with the report heading fields replaced (for suites)."""
        return replace(self, title=title, paper_claim=paper_claim)

    def all_plugins(self) -> Tuple[str, ...]:
        """This study's plugins plus those of every suite member, deduplicated.

        The full list a process-pool backend must import in its workers.
        """
        seen: List[str] = []
        for plugin in self.plugins:
            if plugin not in seen:
                seen.append(plugin)
        for member in self.members:
            for plugin in member.all_plugins():
                if plugin not in seen:
                    seen.append(plugin)
        return tuple(seen)
