"""Latency aggregation primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass
from dataclasses import fields as dataclasses_fields
from typing import List, Tuple

__all__ = ["LatencySummary", "P2Quantile", "RunningStats"]


class P2Quantile:
    """Streaming quantile estimator (the P² algorithm of Jain & Chlamtac).

    Tracks one quantile with five markers -- O(1) memory and O(1) work per
    sample -- so p50/p99 stay available on 400,000-message runs without
    retaining samples.  The first five observations are stored and the
    estimate is exact until the markers initialize; afterwards marker
    heights move by parabolic (falling back to linear) prediction.  The
    update is pure arithmetic on the sample sequence: no randomness, no
    ambient state, so equal streams always produce equal estimates.
    """

    __slots__ = ("_fraction", "_initial", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, fraction: float) -> None:
        if not 0.0 < fraction < 1.0:
            raise ValueError(
                "a streaming quantile fraction must be strictly between 0 and 1 "
                "(track minimum/maximum directly for the extremes), got "
                f"{fraction!r}"
            )
        self._fraction = fraction
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        #: Desired marker positions and their per-sample growth rates.
        self._desired: List[float] = []
        self._rates: Tuple[float, ...] = ()

    @property
    def fraction(self) -> float:
        """The quantile being tracked."""
        return self._fraction

    @property
    def count(self) -> int:
        """Samples absorbed so far."""
        if self._heights:
            return int(self._positions[-1])
        return len(self._initial)

    def add(self, value: float) -> None:
        """Absorb one sample."""
        if not self._heights:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self._fraction
                self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
                self._rates = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)
                self._initial = []
            return
        heights = self._heights
        positions = self._positions
        # Locate the marker cell the sample falls into, stretching the
        # extreme markers when it lands outside the current range.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._rates[index]
        # Nudge the three interior markers toward their desired positions.
        for index in range(1, 4):
            drift = self._desired[index] - positions[index]
            if (drift >= 1.0 and positions[index + 1] - positions[index] > 1.0) or (
                drift <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if drift >= 1.0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        below = positions[index] - positions[index - 1]
        above = positions[index + 1] - positions[index]
        span = positions[index + 1] - positions[index - 1]
        return heights[index] + (step / span) * (
            (below + step) * (heights[index + 1] - heights[index]) / above
            + (above - step) * (heights[index] - heights[index - 1]) / below
        )

    def _linear(self, index: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        neighbor = index + int(step)
        return heights[index] + step * (heights[neighbor] - heights[index]) / (
            positions[neighbor] - positions[index]
        )

    @property
    def value(self) -> float:
        """The current quantile estimate (0.0 when no samples were seen).

        Exact (nearest-rank with a ceiling rule: rank
        ``ceil(fraction * n)``) while fewer than five samples have arrived.
        """
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        rank = math.ceil(self._fraction * len(ordered))
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]

    def __repr__(self) -> str:
        return f"P2Quantile(fraction={self._fraction}, count={self.count}, value={self.value:.2f})"


class RunningStats:
    """Streaming mean/variance/min/max accumulator (Welford's algorithm).

    Keeping only the running moments lets the collector absorb hundreds of
    thousands of samples (the paper measures 400,000 messages) without
    storing them; percentiles come from separate :class:`P2Quantile`
    estimators.
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    @classmethod
    def from_moments(
        cls,
        count: int,
        mean: float,
        m2: float,
        minimum: float = math.inf,
        maximum: float = -math.inf,
    ) -> "RunningStats":
        """Rebuild an accumulator from stored moments.

        ``m2`` is the sum of squared deviations (``variance * (count - 1)``).
        The bounds default to the empty-state sentinels, for callers that
        only know the moments; such accumulators still merge correctly.
        """
        if count < 0:
            raise ValueError("sample count cannot be negative")
        if m2 < 0:
            raise ValueError("the sum of squared deviations cannot be negative")
        stats = cls()
        if count:
            stats._count = int(count)
            stats._mean = float(mean)
            stats._m2 = float(m2)
            stats._min = float(minimum)
            stats._max = float(maximum)
        return stats

    def add(self, value: float) -> None:
        """Record one sample."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Absorb ``other``'s samples into this accumulator, in place.

        Combines the moments with the parallel-variance formula (Chan et
        al.), so merging the same sample multiset in any partition and any
        order yields the same count/mean/variance/min/max up to float
        rounding -- what lets per-seed replicate summaries pool into one
        message-level aggregate.  Returns ``self``.
        """
        if other._count == 0:
            return self
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return self
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        return self._m2 / (self._count - 1) if self._count > 1 else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return self._max if self._count else 0.0

    def moments(self) -> Tuple[int, float, float, float, float]:
        """``(count, mean, variance, minimum, maximum)``, as the properties
        read them (the bounds are the samples themselves, so int samples
        give int bounds)."""
        return (self._count, self.mean, self.variance, self.minimum, self.maximum)

    def __repr__(self) -> str:
        return f"RunningStats(count={self._count}, mean={self.mean:.2f})"


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate results of one simulation run.

    Latencies are in cycles; throughput is in flits per node per cycle.
    """

    #: Messages generated (all, including warm-up).
    created: int
    #: Messages delivered (all, including warm-up).
    delivered: int
    #: Measured (post-warm-up) messages delivered.
    measured: int
    #: Mean creation-to-ejection latency of measured messages.
    avg_total_latency: float
    #: Mean injection-to-ejection latency of measured messages.
    avg_network_latency: float
    #: Standard deviation of the total latency.
    std_total_latency: float
    #: Largest observed total latency.
    max_total_latency: float
    #: Mean hop count of measured messages.
    avg_hops: float
    #: Delivered measured flits per node per cycle over the measurement window.
    throughput: float
    #: Cycles simulated.
    cycles: int
    #: Fraction of measured messages delivered before the run ended.
    completion_ratio: float
    #: Whether the run was flagged as saturated.
    saturated: bool = False
    #: Median total latency of measured messages (exact when samples were
    #: retained, else the P² streaming estimate; 0.0 in summaries recorded
    #: before this field existed).
    p50_total_latency: float = 0.0
    #: 99th-percentile total latency (same provenance as the median).
    p99_total_latency: float = 0.0

    def as_dict(self) -> dict:
        """Dictionary form for report printers and JSON dumps."""
        return {
            "created": self.created,
            "delivered": self.delivered,
            "measured": self.measured,
            "avg_total_latency": self.avg_total_latency,
            "avg_network_latency": self.avg_network_latency,
            "std_total_latency": self.std_total_latency,
            "max_total_latency": self.max_total_latency,
            "avg_hops": self.avg_hops,
            "throughput": self.throughput,
            "cycles": self.cycles,
            "completion_ratio": self.completion_ratio,
            "saturated": self.saturated,
            "p50_total_latency": self.p50_total_latency,
            "p99_total_latency": self.p99_total_latency,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencySummary":
        """Rebuild a summary from :meth:`as_dict` output.

        Unknown keys are ignored so serialized results stay loadable when
        fields are added later; missing fields raise ``TypeError``.
        """
        known = {spec.name for spec in dataclasses_fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})
