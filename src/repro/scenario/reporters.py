"""Built-in study reporters: turn executed points into report rows.

A *reporter* is a registered function ``reporter(study, points, results,
**options) -> List[Dict]`` that shapes the raw
:class:`~repro.core.results.SimulationResult` batch of a grid study into
the row dictionaries printed by the CLI and the Markdown reports.  The
row layouts, column order included, are pinned by digests in the golden
tests, and user code can register new reporters via
``repro.registry.register("reporter", name)``.

Rows are grouped by the study's **value-axis** coordinates in expansion
order; **variant-axis** coordinates become per-variant columns inside a
row, mirroring how the paper's tables put router organisations, selection
heuristics and table schemes side by side.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.results import SimulationResult
from repro.registry import register
from repro.scenario.spec import Study, StudyPoint

__all__ = [
    "confidence_reporter",
    "drain_reporter",
    "grouped_by_value_coords",
    "paired_improvement_reporter",
    "reference_relative_reporter",
    "replication_columns",
    "summary_reporter",
    "sweep_reporter",
    "variant_grid_reporter",
]


def replication_columns(
    result: SimulationResult, prefix: str = ""
) -> Dict[str, object]:
    """Confidence-interval columns of a replicated result (else empty).

    For a result merged from ``replications`` seed-offset runs (see
    :func:`repro.stats.confidence.merge_replicates`) returns the
    replicate count plus the latency/throughput CI half-widths, named
    ``{prefix}n`` / ``{prefix}latency_ci95`` / ``{prefix}throughput_ci95``
    (the ``95`` tracks the block's confidence level).  Single-seed
    results produce no columns, so unreplicated studies keep their
    plain row layouts byte for byte.
    """
    block = result.replicates
    if not block:
        return {}
    tag = f"ci{round(float(block.get('level', 0.95)) * 100)}"
    columns: Dict[str, object] = {f"{prefix}n": block.get("count", 0)}
    for metric in ("latency", "throughput"):
        interval = block.get(metric)
        if interval:
            columns[f"{prefix}{metric}_{tag}"] = interval["half_width"]
    return columns


def grouped_by_value_coords(
    points: Sequence[StudyPoint], results: Sequence[SimulationResult]
) -> List[Tuple[Dict[str, object], Dict[str, SimulationResult]]]:
    """Group executed points by their value-axis coordinates.

    Returns one ``(coords, by_variant)`` pair per distinct value-coordinate
    combination, in first-appearance order; ``by_variant`` maps variant
    name to result (key ``""`` when the study has no variant axis), in
    expansion order.
    """
    def hashable(value: object) -> object:
        # JSON specs deliver list-valued axis points (e.g. mesh_dims
        # sweeps); group keys need them hashable.
        if isinstance(value, list):
            return tuple(hashable(item) for item in value)
        return value

    groups: List[Tuple[Dict[str, object], Dict[str, SimulationResult]]] = []
    group_of: Dict[Tuple, Dict[str, SimulationResult]] = {}
    for point, result in zip(points, results):
        key = tuple(
            (c.label, hashable(c.value)) for c in point.coords if not c.is_variant
        )
        by_variant = group_of.get(key)
        if by_variant is None:
            by_variant = {}
            group_of[key] = by_variant
            groups.append((dict(key), by_variant))
        by_variant[point.variant or ""] = result
    return groups


@register("reporter", "summary")
def summary_reporter(
    study: Study, points: Sequence[StudyPoint], results: Sequence[SimulationResult]
) -> List[Dict[str, object]]:
    """One flat summary row per executed point (the ``run`` CLI layout)."""
    rows: List[Dict[str, object]] = []
    for result in results:
        row = result.as_dict()
        row.update(replication_columns(result))
        rows.append(row)
    return rows


@register("reporter", "sweep")
def sweep_reporter(
    study: Study, points: Sequence[StudyPoint], results: Sequence[SimulationResult]
) -> List[Dict[str, object]]:
    """One latency/load row per point (the ``sweep`` CLI layout)."""
    rows: List[Dict[str, object]] = []
    for point, result in zip(points, results):
        row: Dict[str, object] = {
            "load": point.config.normalized_load,
            "latency": result.latency_label(),
            "network_latency": result.summary.avg_network_latency,
            "throughput": result.summary.throughput,
            "saturated": result.saturated,
        }
        row.update(replication_columns(result))
        rows.append(row)
    return rows


@register("reporter", "drain")
def drain_reporter(
    study: Study, points: Sequence[StudyPoint], results: Sequence[SimulationResult]
) -> List[Dict[str, object]]:
    """One time-to-drain row per closed-loop workload point.

    Each row carries the point's axis coordinates plus the drain block
    of the result: whether the DAG drained inside the cycle budget, the
    cycle its last step completed, the analytic contention-free critical
    path and their ratio (critical-path utilization -- 1.0 means the
    network added no contention delay at all).
    """
    rows: List[Dict[str, object]] = []
    for point, result in zip(points, results):
        drain = result.drain or {}
        row: Dict[str, object] = {
            coord.label: coord.value for coord in point.coords
        }
        row["drained"] = bool(drain.get("drained", False))
        row["time_to_drain"] = drain.get("time_to_drain", result.cycles)
        row["critical_path"] = drain.get("critical_path_cycles", 0)
        row["cp_utilization"] = drain.get("critical_path_utilization", 0.0)
        row["transfers"] = drain.get("transfers", 0)
        row["avg_latency"] = result.latency
        rows.append(row)
    return rows


@register("reporter", "variant-grid")
def variant_grid_reporter(
    study: Study,
    points: Sequence[StudyPoint],
    results: Sequence[SimulationResult],
    per_variant: Sequence[str] = ("latency", "saturated"),
) -> List[Dict[str, object]]:
    """One row per value-coordinate group, one column set per variant.

    ``per_variant`` selects the columns written for each variant ``v``:
    ``latency`` (``{v}_latency``), ``saturated`` (``{v}_saturated``) and
    ``label`` (``{v}_label``, the paper's "Sat."-style rendering).
    Reproduces the Figure 6 and Table 4 row layouts.
    """
    rows: List[Dict[str, object]] = []
    for coords, by_variant in grouped_by_value_coords(points, results):
        row: Dict[str, object] = dict(coords)
        for variant, result in by_variant.items():
            if "latency" in per_variant:
                row[f"{variant}_latency"] = result.latency
            if "saturated" in per_variant:
                row[f"{variant}_saturated"] = result.saturated
            if "label" in per_variant:
                row[f"{variant}_label"] = result.latency_label()
            row.update(replication_columns(result, prefix=f"{variant}_"))
        rows.append(row)
    return rows


@register("reporter", "reference-relative")
def reference_relative_reporter(
    study: Study,
    points: Sequence[StudyPoint],
    results: Sequence[SimulationResult],
    reference: str,
) -> List[Dict[str, object]]:
    """Per-variant latencies plus percentage increase over a reference.

    Reproduces the Figure 5 row layout: the reference variant's absolute
    numbers first, then every other variant's latency, saturation flag
    and percentage latency increase over the reference (positive = slower
    than the reference, the way the paper's bars read).
    """
    prefix = reference.replace("-", "_")
    rows: List[Dict[str, object]] = []
    for coords, by_variant in grouped_by_value_coords(points, results):
        if reference not in by_variant:
            raise ValueError(
                f"reference variant {reference!r} missing from study {study.name!r}"
            )
        ref = by_variant[reference]
        row: Dict[str, object] = dict(coords)
        row[f"{prefix}_latency"] = ref.latency
        row[f"{prefix}_saturated"] = ref.saturated
        row.update(replication_columns(ref, prefix=f"{prefix}_"))
        for variant, result in by_variant.items():
            if variant == reference:
                continue
            row[f"{variant}_latency"] = result.latency
            row[f"{variant}_saturated"] = result.saturated
            row.update(replication_columns(result, prefix=f"{variant}_"))
            if ref.latency > 0:
                increase = 100.0 * (result.latency - ref.latency) / ref.latency
            else:
                increase = 0.0
            row[f"{variant}_pct_increase"] = increase
        rows.append(row)
    return rows


@register("reporter", "paired-improvement")
def paired_improvement_reporter(
    study: Study,
    points: Sequence[StudyPoint],
    results: Sequence[SimulationResult],
    improved: str,
    baseline: str,
) -> List[Dict[str, object]]:
    """Two-variant comparison with a percentage-improvement column.

    Reproduces the Table 3 row layout: the ``improved`` and ``baseline``
    variants' latencies, the relative improvement of ``improved`` over
    ``baseline`` and a combined saturation flag.
    """
    rows: List[Dict[str, object]] = []
    for coords, by_variant in grouped_by_value_coords(points, results):
        for needed in (improved, baseline):
            if needed not in by_variant:
                raise ValueError(
                    f"variant {needed!r} missing from study {study.name!r}"
                )
        better = by_variant[improved]
        base = by_variant[baseline]
        if base.latency > 0:
            improvement = 100.0 * (base.latency - better.latency) / base.latency
        else:
            improvement = 0.0
        row: Dict[str, object] = dict(coords)
        row[f"{improved}_latency"] = better.latency
        row[f"{baseline}_latency"] = base.latency
        row["pct_improvement"] = improvement
        row["saturated"] = better.saturated or base.saturated
        rows.append(row)
    return rows


@register("reporter", "confidence")
def confidence_reporter(
    study: Study, points: Sequence[StudyPoint], results: Sequence[SimulationResult]
) -> List[Dict[str, object]]:
    """One row per point with replicate counts and mean +- CI statistics.

    The statistically-rigorous sweep layout: axis coordinates, replicate
    count ``n``, mean latency with its CI half-width and across-replicate
    standard deviation, mean throughput with its half-width, the p50/p99
    latency estimates and the saturation flag.  Single-seed points print
    ``n=1`` with zero half-widths.
    """
    rows: List[Dict[str, object]] = []
    for point, result in zip(points, results):
        block = result.replicates or {}
        latency_ci = block.get("latency") or {}
        throughput_ci = block.get("throughput") or {}
        row: Dict[str, object] = {c.label: c.value for c in point.coords}
        row["n"] = block.get("count", 1)
        row["latency"] = result.latency
        row["latency_ci95"] = latency_ci.get("half_width", 0.0)
        row["latency_std"] = latency_ci.get("std", 0.0)
        row["throughput"] = result.summary.throughput
        row["throughput_ci95"] = throughput_ci.get("half_width", 0.0)
        row["p50"] = result.summary.p50_total_latency
        row["p99"] = result.summary.p99_total_latency
        row["saturated"] = result.saturated
        rows.append(row)
    return rows
