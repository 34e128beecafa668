"""Tests for the statistical-rigor layer: merge, P² quantiles, CIs.

Covers the parallel-merge algebra of :class:`RunningStats`, the
streaming P² percentile estimator, the pure-stdlib Student-t critical
values and :func:`merge_replicates`, plus the percentile bugfixes
(validation order, explicit ceil indexing rule) as they hold for the
streaming quantiles.
"""

import math
import random

import pytest

from repro.stats.confidence import (
    CONFIDENCE_LEVEL,
    ConfidenceInterval,
    mean_confidence_interval,
    student_t_cdf,
    t_critical,
)
from repro.stats.latency import P2Quantile, RunningStats


def exact_percentile(values, fraction):
    """The ceil-rule nearest-rank percentile: the exact reference the
    streaming quantiles are held to."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


# -- percentile bugfixes ------------------------------------------------------------


def test_percentile_validates_fraction_before_the_empty_check():
    # The historical bug: an empty collector returned 0.0 for any
    # fraction, hiding out-of-range callers until samples arrived.
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        P2Quantile(1.5)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        P2Quantile(-0.1)
    assert P2Quantile(0.5).value == 0.0  # in-range on empty stays 0.0


def test_percentile_uses_the_ceil_rule_not_bankers_rounding():
    # Below five samples the P² trackers are exact nearest-rank.
    trackers = {fraction: P2Quantile(fraction) for fraction in (0.25, 0.5, 0.75, 0.99)}
    for value in (10.0, 20.0, 30.0, 40.0):
        for tracker in trackers.values():
            tracker.add(value)
    # int(round(0.5 * 4)) == 2 under banker's rounding picked 30.0 here;
    # the nearest-rank ceil rule pins the lower median.
    assert trackers[0.25].value == 10.0
    assert trackers[0.5].value == 20.0
    assert trackers[0.75].value == 30.0
    assert trackers[0.99].value == 40.0


def test_percentile_matches_reference_rule_on_random_streams():
    rng = random.Random(7)
    for trial in range(20):
        values = [rng.uniform(0, 100) for _ in range(rng.randrange(1, 5))]
        fraction = rng.uniform(0.01, 0.99)
        tracker = P2Quantile(fraction)
        for value in values:
            tracker.add(value)
        assert tracker.value == exact_percentile(values, fraction)


# -- merge algebra ------------------------------------------------------------------


def test_merge_matches_single_pass_moments():
    rng = random.Random(11)
    values = [rng.gauss(50, 12) for _ in range(500)]
    whole = RunningStats()
    left, right = RunningStats(), RunningStats()
    for index, value in enumerate(values):
        whole.add(value)
        (left if index < 137 else right).add(value)
    merged = left.merge(right)
    assert merged is left
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
    assert merged.std == pytest.approx(whole.std, rel=1e-12)
    assert merged.minimum == whole.minimum
    assert merged.maximum == whole.maximum


def test_merge_is_order_independent():
    rng = random.Random(23)
    for trial in range(10):
        chunks = []
        values = []
        for _ in range(rng.randrange(2, 6)):
            chunk = [rng.expovariate(0.02) for _ in range(rng.randrange(0, 80))]
            chunks.append(chunk)
            values.extend(chunk)
        def fold(order):
            total = RunningStats()
            for chunk_index in order:
                part = RunningStats()
                for value in chunks[chunk_index]:
                    part.add(value)
                total.merge(part)
            return total
        forward = fold(range(len(chunks)))
        backward = fold(reversed(range(len(chunks))))
        assert forward.count == backward.count == len(values)
        assert forward.mean == pytest.approx(backward.mean, rel=1e-9, abs=1e-9)
        assert forward.std == pytest.approx(backward.std, rel=1e-9, abs=1e-9)


def test_merge_with_empty_sides():
    empty = RunningStats()
    filled = RunningStats()
    for value in (1.0, 2.0, 3.0):
        filled.add(value)
    assert RunningStats().merge(filled).mean == pytest.approx(2.0)
    assert filled.merge(empty).count == 3
    assert RunningStats().merge(RunningStats()).count == 0


def test_from_moments_round_trip():
    stats = RunningStats()
    for value in (3.0, 1.0, 4.0, 1.0, 5.0):
        stats.add(value)
    rebuilt = RunningStats.from_moments(
        stats.count,
        stats.mean,
        stats.std ** 2 * (stats.count - 1),
        minimum=stats.minimum,
        maximum=stats.maximum,
    )
    assert rebuilt.count == stats.count
    assert rebuilt.mean == pytest.approx(stats.mean)
    assert rebuilt.std == pytest.approx(stats.std)
    with pytest.raises(ValueError):
        RunningStats.from_moments(-1, 0.0, 0.0)
    with pytest.raises(ValueError):
        RunningStats.from_moments(2, 0.0, -1.0)


# -- P² streaming quantiles ---------------------------------------------------------


def test_p2_validates_fraction():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_p2_is_exact_below_five_samples():
    tracker = P2Quantile(0.5)
    assert tracker.value == 0.0
    for value in (30.0, 10.0, 20.0):
        tracker.add(value)
    assert tracker.count == 3
    assert tracker.value == exact_percentile([30.0, 10.0, 20.0], 0.5)


@pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
def test_p2_tracks_random_streams(fraction):
    rng = random.Random(int(fraction * 1000))
    tracker = P2Quantile(fraction)
    values = []
    for _ in range(20_000):
        value = rng.gauss(500.0, 100.0)
        values.append(value)
        tracker.add(value)
    exact = exact_percentile(values, fraction)
    spread = max(values) - min(values)
    assert abs(tracker.value - exact) < 0.02 * spread


def test_p2_p50_and_p99_track_exact_percentiles_on_a_latency_stream():
    # A seeded exponential latency stream (mean 80 above a 20-cycle
    # floor): the five-marker trackers stay within 2% of the exact
    # percentiles.
    rng = random.Random(7)
    values = [rng.expovariate(1.0 / 80.0) + 20.0 for _ in range(50_000)]
    for fraction in (0.5, 0.99):
        tracker = P2Quantile(fraction)
        for value in values:
            tracker.add(value)
        truth = exact_percentile(values, fraction)
        assert abs(tracker.value - truth) / truth < 0.02


def test_p2_on_adversarial_streams():
    # Sorted input is the classic P² stressor; constant input must be
    # exact; a well-separated bimodal stream must land in the right mode.
    n = 5_000
    sorted_tracker = P2Quantile(0.5)
    for value in range(n):
        sorted_tracker.add(float(value))
    assert abs(sorted_tracker.value - (n / 2)) < 0.05 * n

    constant = P2Quantile(0.99)
    for _ in range(1_000):
        constant.add(42.0)
    assert constant.value == 42.0

    rng = random.Random(3)
    bimodal = P2Quantile(0.5)
    for _ in range(10_000):
        center = 0.0 if rng.random() < 0.45 else 1000.0
        bimodal.add(rng.gauss(center, 1.0))
    assert bimodal.value > 900.0  # the median sits in the upper mode


def test_quantile_method_routes_exact_or_streaming():
    # Exact nearest-rank below five samples, the P² estimate after.
    streaming = P2Quantile(0.5)
    rng = random.Random(5)
    values = [rng.uniform(0, 100) for _ in range(1_000)]
    for value in values[:4]:
        streaming.add(value)
    assert streaming.value == exact_percentile(values[:4], 0.5)
    for value in values[4:]:
        streaming.add(value)
    assert streaming.value == pytest.approx(exact_percentile(values, 0.5), abs=3.0)


def test_streaming_quantiles_use_constant_memory():
    tracker = P2Quantile(0.5)
    for value in range(100_000):
        tracker.add(float(value))
    # No sample list: the only per-quantile state is the 5 P² markers.
    assert "_samples" not in P2Quantile.__slots__
    assert tracker.value == pytest.approx(50_000, rel=0.05)


# -- Student-t critical values ------------------------------------------------------


def test_t_critical_matches_the_table():
    # Standard two-sided 95% critical values.
    for df, expected in [(1, 12.706), (2, 4.303), (4, 2.776), (9, 2.262),
                         (29, 2.045), (99, 1.984)]:
        assert t_critical(0.95, df) == pytest.approx(expected, abs=2e-3)
    # Converges on the normal quantile for large df.
    assert t_critical(0.95, 10_000) == pytest.approx(1.96, abs=2e-3)
    assert t_critical(0.99, 9) == pytest.approx(3.250, abs=2e-3)


def test_student_t_cdf_basics():
    assert student_t_cdf(0.0, 5) == pytest.approx(0.5)
    assert student_t_cdf(100.0, 5) == pytest.approx(1.0, abs=1e-6)
    assert student_t_cdf(-2.0, 7) == pytest.approx(1.0 - student_t_cdf(2.0, 7))


def test_t_critical_validates_arguments():
    with pytest.raises(ValueError):
        t_critical(1.0, 5)
    with pytest.raises(ValueError):
        t_critical(0.95, 0)


# -- confidence intervals -----------------------------------------------------------


def test_mean_confidence_interval_known_value():
    interval = mean_confidence_interval([10.0, 12.0, 11.0, 13.0, 9.0])
    assert interval.mean == pytest.approx(11.0)
    assert interval.count == 5
    assert interval.level == CONFIDENCE_LEVEL
    # t(0.95, 4) * std / sqrt(5) = 2.776 * 1.5811 / 2.2361
    assert interval.half_width == pytest.approx(1.963, abs=2e-3)
    assert interval.lower == pytest.approx(interval.mean - interval.half_width)
    assert interval.upper == pytest.approx(interval.mean + interval.half_width)
    data = interval.as_dict()
    assert data["lower"] < data["mean"] < data["upper"]


def test_mean_confidence_interval_needs_two_values():
    with pytest.raises(ValueError, match="replications"):
        mean_confidence_interval([1.0])


def test_half_widths_shrink_like_one_over_sqrt_n():
    rng = random.Random(17)
    population = [rng.gauss(100.0, 10.0) for _ in range(4096)]

    def half_width(n, trials=40):
        total = 0.0
        for trial in range(trials):
            start = (trial * n) % (len(population) - n)
            total += mean_confidence_interval(population[start : start + n]).half_width
        return total / trials

    small, large = half_width(8), half_width(128)
    ratio = small / large
    # 1/sqrt(n) scaling predicts 4x (plus a t-vs-normal factor ~1.2);
    # accept a broad band around it.
    assert 2.5 < ratio < 7.0


def test_confidence_interval_is_frozen():
    interval = ConfidenceInterval(mean=1.0, std=0.5, count=3, level=0.95, half_width=0.2)
    with pytest.raises(Exception):
        interval.mean = 2.0
