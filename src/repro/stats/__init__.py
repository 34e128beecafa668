"""Measurement infrastructure: latency statistics, warm-up and saturation.

The paper reports average network latency versus normalized load, with
statistics collected after a warm-up period and runs terminated at network
saturation.  This subpackage provides:

* :class:`~repro.stats.collector.StatsCollector` -- per-message accounting
  with warm-up exclusion;
* :class:`~repro.stats.latency.LatencySummary` -- aggregated latency and
  throughput figures;
* :mod:`repro.stats.saturation` -- the saturation thresholds used to
  print "Sat." rows like the paper's Table 4;
* :mod:`repro.stats.confidence` -- Student-t confidence intervals and the
  per-seed replicate merge behind ``config.replications``.
"""

from repro.stats.collector import StatsCollector
from repro.stats.confidence import (
    ConfidenceInterval,
    mean_confidence_interval,
    merge_replicates,
    t_critical,
)
from repro.stats.latency import LatencySummary, P2Quantile, RunningStats
from repro.stats.saturation import is_saturated

__all__ = [
    "ConfidenceInterval",
    "LatencySummary",
    "P2Quantile",
    "RunningStats",
    "StatsCollector",
    "is_saturated",
    "mean_confidence_interval",
    "merge_replicates",
    "t_critical",
]
