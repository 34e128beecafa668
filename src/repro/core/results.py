"""Result records and plain-text report formatting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.config import SimulationConfig
from repro.stats.latency import LatencySummary

__all__ = [
    "SimulationResult",
    "format_rows",
    "format_value",
    "render_campaign_header",
    "render_report_section",
]


@dataclass(frozen=True)
class SimulationResult:
    """Everything produced by one simulation run."""

    #: The configuration that was simulated.
    config: SimulationConfig
    #: Aggregated latency/throughput statistics.
    summary: LatencySummary
    #: Analytic contention-free latency of an average message (cycles).
    zero_load_latency: float
    #: Cycles actually simulated.
    cycles: int
    #: Per-node message rate (messages/cycle) the injection process
    #: actually offered.  Differs from the rate implied by the configured
    #: normalized load only when a Bernoulli process clamps a super-unit
    #: rate (the simulator warns when that happens).  0.0 in results
    #: recorded before this field existed.
    effective_message_rate: float = 0.0
    #: Drain metrics of a closed-loop workload run (see
    #: :meth:`repro.workload.engine.WorkloadEngine.drain_metrics`), or
    #: None for open-loop runs and results recorded before this field
    #: existed.
    drain: Optional[Dict[str, object]] = None
    #: Replication block of a merged multi-seed result (see
    #: :func:`repro.stats.confidence.merge_replicates`): replicate count,
    #: seeds, and mean +- Student-t confidence intervals of latency and
    #: throughput across the replicate means.  None for single-seed runs.
    replicates: Optional[Dict[str, object]] = None

    @property
    def saturated(self) -> bool:
        """Whether the run was flagged as saturated."""
        return self.summary.saturated

    @property
    def latency(self) -> float:
        """Shorthand for the average total latency in cycles."""
        return self.summary.avg_total_latency

    def latency_label(self, precision: int = 1) -> str:
        """The latency formatted the way the paper's tables print it
        ("Sat." for saturated points, "n/a" when the run measured nothing
        without being saturated -- an insufficient cycle budget)."""
        if self.saturated:
            return "Sat."
        if self.summary.measured == 0:
            return "n/a"
        return f"{self.latency:.{precision}f}"

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible dictionary capturing the full result."""
        return {
            "config": self.config.to_dict(),
            "summary": self.summary.as_dict(),
            "zero_load_latency": self.zero_load_latency,
            "cycles": self.cycles,
            "effective_message_rate": self.effective_message_rate,
            "drain": self.drain,
            "replicates": self.replicates,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            config=SimulationConfig.from_dict(data["config"]),
            summary=LatencySummary.from_dict(data["summary"]),
            zero_load_latency=float(data["zero_load_latency"]),
            cycles=int(data["cycles"]),
            effective_message_rate=float(data.get("effective_message_rate", 0.0)),
            drain=data.get("drain"),
            replicates=data.get("replicates"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize this result as a JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        """Deserialize a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary (config highlights plus summary) for reports."""
        return {
            "pipeline": self.config.pipeline,
            "routing": self.config.routing,
            "table": self.config.table,
            "selector": self.config.selector,
            "traffic": self.config.traffic,
            "load": self.config.normalized_load,
            "latency": self.latency,
            "network_latency": self.summary.avg_network_latency,
            "hops": self.summary.avg_hops,
            "throughput": self.summary.throughput,
            "saturated": self.saturated,
            "cycles": self.cycles,
        }


def format_value(value: object, precision: int = 1) -> str:
    """Human-friendly rendering of one table cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_rows(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 1,
) -> str:
    """Render a list of dictionaries as an aligned plain-text table.

    Used by the examples and the benchmark harness to print the
    reproduced tables/figures in a shape comparable to the paper's.
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [
        [format_value(row.get(column, ""), precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), max(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[index]) for index, column in enumerate(columns))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(line[index].ljust(widths[index]) for index in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator] + body)


def render_report_section(
    title: str,
    paper_claim: str,
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 2,
) -> str:
    """One experiment section of a study's Markdown report
    (see :meth:`repro.scenario.runner.StudyResult.to_markdown`)."""
    table = format_rows(rows, columns=columns, precision=precision)
    return (
        f"### {title}\n\n"
        f"*Paper claim:* {paper_claim}\n\n"
        f"```\n{table}\n```\n"
    )


def render_campaign_header(config: SimulationConfig) -> str:
    """The base-configuration header of a campaign/suite Markdown report."""
    return (
        "## Reproduction campaign\n\n"
        f"Base configuration: {config.mesh_dims[0]}x{config.mesh_dims[1]} mesh, "
        f"{config.message_length}-flit messages, "
        f"{config.vcs_per_port} VCs/channel, "
        f"{config.measure_messages} measured messages per point, "
        f"seed {config.seed}.\n\n"
    )
