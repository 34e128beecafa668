"""Saturation detection.

Like the paper ("Results are only presented for loads leading up to
network saturation"; Table 4 prints "Sat." for saturated points), a run is
declared saturated when the network cannot deliver the offered traffic:
either a substantial fraction of the measured messages never arrived
within the cycle budget, or the average latency exploded relative to the
contention-free base latency.
"""

from __future__ import annotations

import warnings

from repro.stats.latency import LatencySummary

__all__ = ["LATENCY_MULTIPLIER", "MIN_COMPLETION_RATIO", "is_saturated"]

#: A run delivering less than this fraction of its measured messages
#: within the cycle budget is saturated.
MIN_COMPLETION_RATIO = 0.95

#: A run whose average total latency exceeds this multiple of the
#: zero-load latency is saturated.
LATENCY_MULTIPLIER = 12.0


def is_saturated(summary: LatencySummary, zero_load_latency: float) -> bool:
    """Apply the two thresholds above to one run summary.

    ``zero_load_latency`` is the analytic contention-free latency of an
    average message (hop latency times average distance plus
    serialization), used to scale the latency threshold.
    """
    if summary.measured == 0:
        # Nothing made it through the measurement window.  Two very
        # different situations land here:
        #
        # * the network could not deliver the offered traffic -- messages
        #   were created but are stuck in flight (genuine saturation); or
        # * nothing was *measured* at all because the budget expired before
        #   warm-up completed (e.g. a short-budget near-zero-load run).
        #   Calling that "Sat." would invert reality, so it is reported as
        #   an insufficient measurement instead.
        if summary.created > summary.delivered:
            return True
        warnings.warn(
            "run measured zero post-warm-up messages without an undelivered "
            "backlog; the cycle budget is too short for the warm-up window "
            "and the result is insufficient rather than saturated",
            RuntimeWarning,
            stacklevel=2,
        )
        return False
    if summary.completion_ratio < MIN_COMPLETION_RATIO:
        return True
    if zero_load_latency > 0 and summary.avg_total_latency > (
        LATENCY_MULTIPLIER * zero_load_latency
    ):
        return True
    return False
