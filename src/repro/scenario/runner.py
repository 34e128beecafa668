"""Execute declarative studies through the execution backend.

:func:`run_study` is the single entry point of the scenario layer: it
expands a :class:`~repro.scenario.spec.Study` into configuration batches,
submits them through an :class:`~repro.exec.backend.ExecutionBackend`
(serial or process pool, with optional
:class:`~repro.exec.cache.ResultCache`), applies the study's saturation
stop policy and reporter, and returns a :class:`StudyResult`.

Every simulation is seeded by its configuration alone, so the outcome is
bit-identical whichever backend runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import (
    SimulationResult,
    render_campaign_header,
    render_report_section,
)
from repro.exec.backend import ExecutionBackend, SerialBackend
from repro.registry import ANALYTICS, REPORTERS, load_plugin
from repro.scenario.spec import Axis, Coord, Scenario, StopPolicy, Study, StudyPoint

__all__ = ["StudyResult", "run_study"]


@dataclass(frozen=True)
class StudyResult:
    """Everything produced by one :func:`run_study` call."""

    #: The study that was run.
    study: Study
    #: The points actually executed, in order (truncated by stop policies).
    points: Tuple[StudyPoint, ...]
    #: Simulation results aligned with ``points`` (empty for analytic/suite).
    results: Tuple[SimulationResult, ...]
    #: Reporter output: one dictionary per report row.
    rows: List[Dict[str, object]] = field(default_factory=list)
    #: Member results, for suite studies.
    members: Tuple["StudyResult", ...] = ()

    def member(self, name: str) -> "StudyResult":
        """Look up one member result of a suite by its study name."""
        for member in self.members:
            if member.study.name == name:
                return member
        raise KeyError(f"no member study named {name!r} in {self.study.name!r}")

    def to_markdown(self) -> str:
        """Render the study as Markdown (a campaign report for suites)."""
        if self.study.kind == "suite":
            return render_campaign_header(self.study.base_config()) + "\n".join(
                member.to_markdown() for member in self.members
            )
        return render_report_section(
            self.study.title or self.study.name,
            self.study.paper_claim or "(not stated)",
            self.rows,
            columns=self.study.report.columns,
        )


def _reference_result(
    study: Study,
    batch_points: Sequence[StudyPoint],
    batch_results: Sequence[SimulationResult],
    reference: str,
) -> SimulationResult:
    for point, result in zip(batch_points, batch_results):
        if point.variant == reference:
            return result
    raise ValueError(
        f"stop policy of study {study.name!r} references variant {reference!r}, "
        "which is not part of the expanded batch"
    )


def _step_saturated(
    study: Study,
    stop: StopPolicy,
    batch: Sequence[StudyPoint],
    batch_results: Sequence[SimulationResult],
) -> bool:
    """Whether one stop-axis step counts as saturated under ``stop``.

    ``mode="reference"`` (and ``mode="refine"`` with a reference set)
    asks the reference variant; otherwise any saturated scenario in the
    batch counts.
    """
    if stop.mode == "reference" or (stop.mode == "refine" and stop.reference):
        return _reference_result(study, batch, batch_results, stop.reference).saturated
    return any(result.saturated for result in batch_results)


def _point_at(point: StudyPoint, stop_axis: Axis, value: float) -> StudyPoint:
    """A copy of ``point`` moved to ``value`` on the stop axis.

    Rebuilds the coordinate tuple, the scenario name (the same
    ``label=value`` join :meth:`Study.expand` uses) and the configuration,
    so refinement points are indistinguishable from expanded ones.
    """
    label = stop_axis.report_label
    coords = tuple(
        Coord(label, value, False) if c.label == label and not c.is_variant else c
        for c in point.coords
    )
    overrides = dict(point.scenario.overrides)
    overrides[stop_axis.field] = value
    name = "/".join(f"{c.label}={c.value}" for c in coords)
    return StudyPoint(
        scenario=Scenario(name=name, overrides=overrides),
        coords=coords,
        config=point.config.variant(**{stop_axis.field: value}),
    )


def _refine_group(
    study: Study,
    stop: StopPolicy,
    stop_axis: Axis,
    group: List[StudyPoint],
    inner_count: int,
    backend: ExecutionBackend,
    executed: List[StudyPoint],
    results: List[SimulationResult],
) -> None:
    """Bisect one group's stop axis toward the saturation knee.

    The declared stop-axis values are the coarse seed grid, evaluated as
    one ``run_configs`` wave; each bisection step simulates the midpoint
    batch of the tightest (unsaturated, saturated) value bracket until
    the bracket is within ``stop.tolerance`` or ``stop.max_points``
    stop-axis steps (seed grid included) have been evaluated.  Every wave
    goes through ``backend.run_configs`` and the executed order depends
    only on the saturation flags, so serial and pool backends produce
    byte-identical rows.
    """
    group_results = backend.run_configs([p.config for p in group])
    executed.extend(group)
    results.extend(group_results)
    steps: List[Tuple[float, List[StudyPoint], List[SimulationResult]]] = []
    for step_start in range(0, len(group), inner_count):
        batch = group[step_start : step_start + inner_count]
        batch_results = group_results[step_start : step_start + inner_count]
        value = float(batch[0].coord(stop_axis.report_label))
        steps.append((value, batch, batch_results))
    evaluated = len(steps)
    saturated_values = []
    unsaturated_values = []
    for value, batch, batch_results in steps:
        if _step_saturated(study, stop, batch, batch_results):
            saturated_values.append(value)
        else:
            unsaturated_values.append(value)
    if not saturated_values:
        return  # The knee lies above the declared grid; nothing to bisect.
    high = min(saturated_values)
    below = [value for value in unsaturated_values if value < high]
    if not below:
        return  # The knee lies below the declared grid.
    low = max(below)
    template = steps[0][1]
    while high - low > stop.tolerance and (
        stop.max_points == 0 or evaluated < stop.max_points
    ):
        mid = (low + high) / 2.0
        batch = [_point_at(point, stop_axis, mid) for point in template]
        batch_results = backend.run_configs([p.config for p in batch])
        executed.extend(batch)
        results.extend(batch_results)
        evaluated += 1
        if _step_saturated(study, stop, batch, batch_results):
            high = mid
        else:
            low = mid


def _run_grid_with_stop(
    study: Study, points: List[StudyPoint], backend: ExecutionBackend
) -> Tuple[List[StudyPoint], List[SimulationResult]]:
    """Walk the grid along the stop axis, truncating at saturation.

    The stop axis is the last value axis; the (variant) axes after it form
    the per-step batch.  ``mode="any"`` and ``mode="reference"`` walk
    steps in speculative waves of ``backend.wave_size`` (a parallel wave
    may simulate -- and cache -- a few points past saturation, but the
    returned points always truncate at the first stopping step, so the
    rows are byte-identical to the serial walk); the two modes differ
    only in which result decides a step (any scenario of the batch versus
    the reference variant).  ``mode="refine"`` evaluates the declared
    grid as one wave and then bisects toward the saturation knee (see
    :func:`_refine_group`).
    """
    stop = study.stop
    assert stop is not None
    stop_index = max(i for i, axis in enumerate(study.axes) if not axis.is_variant)
    stop_axis = study.axes[stop_index]
    inner_count = 1
    for axis in study.axes[stop_index + 1 :]:
        inner_count *= len(axis)
    steps_per_group = len(stop_axis)
    per_group = steps_per_group * inner_count

    executed: List[StudyPoint] = []
    results: List[SimulationResult] = []
    for group_start in range(0, len(points), per_group):
        group = points[group_start : group_start + per_group]
        if stop.mode == "refine":
            _refine_group(
                study, stop, stop_axis, group, inner_count, backend, executed, results
            )
            continue
        wave_points = max(1, backend.wave_size) * inner_count
        stopped = False
        for wave_start in range(0, len(group), wave_points):
            wave = group[wave_start : wave_start + wave_points]
            wave_results = backend.run_configs([p.config for p in wave])
            for step_start in range(0, len(wave), inner_count):
                batch = wave[step_start : step_start + inner_count]
                batch_results = wave_results[step_start : step_start + inner_count]
                executed.extend(batch)
                results.extend(batch_results)
                if _step_saturated(study, stop, batch, batch_results):
                    stopped = True
                    break
            if stopped:
                break
    return executed, results


def run_study(
    study: Study, backend: Optional[ExecutionBackend] = None
) -> StudyResult:
    """Run a study and return its :class:`StudyResult`.

    Grid points are submitted through ``backend`` (default: a fresh
    :class:`~repro.exec.backend.SerialBackend`); cached points are served
    from disk when the backend carries a
    :class:`~repro.exec.cache.ResultCache`.  Analytic studies run no
    simulations and need no backend.  Suite members share the one backend.
    """
    for plugin in study.plugins:
        load_plugin(plugin)
    if study.kind == "suite":
        if any(member.kind == "grid" for member in study.members):
            backend = backend if backend is not None else SerialBackend()
        members = tuple(run_study(member, backend) for member in study.members)
        return StudyResult(study=study, points=(), results=(), rows=[], members=members)
    if study.kind == "analytic":
        analytic = ANALYTICS.get(study.analytic)
        rows = analytic(**study.options)
        return StudyResult(study=study, points=(), results=(), rows=rows)
    # grid
    points = study.expand()
    backend = backend if backend is not None else SerialBackend()
    if study.stop is None:
        executed = points
        results = backend.run_configs([point.config for point in points])
    else:
        executed, results = _run_grid_with_stop(study, points, backend)
    reporter = REPORTERS.get(study.report.reporter)
    rows = reporter(study, executed, results, **study.report.options)
    return StudyResult(
        study=study,
        points=tuple(executed),
        results=tuple(results),
        rows=rows,
    )
