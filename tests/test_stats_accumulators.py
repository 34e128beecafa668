"""The flat core's C statistics against the Python reference accumulators.

The object core feeds every measured message through
:class:`~repro.stats.latency.RunningStats` and two
:class:`~repro.stats.latency.P2Quantile` trackers; the flat C core keeps
the same accumulators itself.  Results are only bit-identical if the C
side performs the same double operations in the same order and hands
back the same Python types: an ``int`` maximum, and p50/p99 that stay
``int`` until a P² middle marker first moves (0.0 with no samples).
``repr`` tells ``18`` from ``18.0`` and every float bit, so the checks
below compare reprs.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.network.flatcore import core_extension
from repro.stats.latency import P2Quantile, RunningStats


def _python_stats(samples):
    moments = RunningStats()
    p50, p99 = P2Quantile(0.5), P2Quantile(0.99)
    for value in samples:
        moments.add(value)
        p50.add(value)
        p99.add(value)
    return (moments.moments(), p50.value, p99.value)


def _stream(rng: random.Random, length: int) -> list:
    """Latency-like ints with ties, monotone runs and outliers."""
    samples: list = []
    while len(samples) < length:
        kind = rng.randrange(5)
        run = rng.randint(1, 40)
        start = rng.randint(5, 400)
        if kind == 0:  # ties
            samples += [start] * run
        elif kind == 1:  # rising
            samples += list(range(start, start + run))
        elif kind == 2:  # falling
            samples += list(range(start + run, start, -1))
        elif kind == 3:  # a narrow band, many repeats
            samples += [rng.randint(start, start + 3) for _ in range(run)]
        else:  # a wide spread, outliers included
            samples += [rng.randint(0, 100_000) for _ in range(run)]
    return samples[:length]


@pytest.mark.parametrize("length", range(8))
def test_short_streams_match_the_python_reference(length):
    """0-7 samples: empty, exact nearest-rank and first marker steps."""
    extension = core_extension()
    for seed in range(40):
        samples = _stream(random.Random(seed * 31 + length), length)
        assert repr(extension.latency_stats(samples)) == repr(_python_stats(samples)), samples


@pytest.mark.parametrize("seed", range(12))
def test_long_streams_match_the_python_reference(seed):
    rng = random.Random(seed)
    samples = _stream(rng, rng.randint(900, 1_100))
    assert repr(core_extension().latency_stats(samples)) == repr(_python_stats(samples))


def test_monotone_and_constant_streams_match_the_python_reference():
    extension = core_extension()
    for samples in (
        list(range(1_000)),
        list(range(1_000, 0, -1)),
        [42] * 1_000,
        [7, 7, 7, 7, 7, 8],
        [9, 1, 9, 1, 9, 1, 9],
    ):
        assert repr(extension.latency_stats(samples)) == repr(_python_stats(samples))


def test_the_python_types_survive():
    """An int maximum; p50/p99 int while exact, still int one sample past
    the markers' start (no marker moved yet), float once the middle
    marker moves -- even onto a whole number."""
    extension = core_extension()
    (count, mean, variance, minimum, maximum), p50, p99 = extension.latency_stats([18] * 3)
    assert (count, minimum, maximum, p50, p99) == (3, 18, 18, 18, 18)
    assert [type(value) for value in (minimum, maximum, p50, p99)] == [int] * 4
    assert [type(value) for value in (mean, variance)] == [float] * 2
    assert repr(extension.latency_stats([])) == "((0, 0.0, 0.0, 0.0, 0.0), 0.0, 0.0)"
    assert repr(extension.latency_stats([5] * 6)[1:]) == "(5, 5)"
    assert repr(extension.latency_stats([5] * 7)[1:]) == "(5, 5.0)"


@pytest.mark.parametrize("measured", [1, 2, 3, 4, 5])
def test_a_few_measured_messages_give_identical_results_on_both_cores(measured):
    """Up to five measured messages keep P² exact and typed ``int``."""
    config = SimulationConfig.tiny(
        warmup_messages=2, measure_messages=measured, normalized_load=0.3, seed=measured
    )
    flat = NetworkSimulator(config).run()
    objects = NetworkSimulator(config.variant(core_mode="objects")).run()
    assert flat.to_json().replace('"flat"', '"objects"') == objects.to_json()
    summary = flat.summary
    assert summary.measured == measured
    for value in (summary.max_total_latency, summary.p50_total_latency, summary.p99_total_latency):
        assert type(value) is int


def test_the_collector_is_current_after_every_lap():
    """perfbench's laps: after each ``run(step)`` the flat core's
    collector reports what the object core's reports."""
    config = SimulationConfig.tiny(normalized_load=0.4, seed=9)
    flat = NetworkSimulator(config)
    objects = NetworkSimulator(config.variant(core_mode="objects"))
    laps = [1, 7, 30, 60, 120, 240, 480]
    for lap in laps:
        with warnings.catch_warnings():
            # The summary of an unfinished lap warns that it measured nothing.
            warnings.simplefilter("ignore", RuntimeWarning)
            for simulator in (flat, objects):
                simulator.run(max_cycles=lap)
        cycles = flat._kernel.clock.now
        views = [
            (
                stats.created,
                stats.delivered,
                stats.measured_delivered,
                stats.all_measured_delivered(),
                stats.summary(cycles).as_dict(),
            )
            for stats in (flat.stats, objects.stats)
        ]
        assert repr(views[0]) == repr(views[1])
    assert flat.stats.all_measured_delivered()
