"""Tests for statistics collection, latency summaries and saturation."""

import math

import pytest

from repro.stats.collector import StatsCollector
from repro.stats.latency import LatencySummary, RunningStats
from repro.stats.saturation import LATENCY_MULTIPLIER, MIN_COMPLETION_RATIO, is_saturated
from repro.traffic.message import Message


def delivered_message(creation, injection, ejection, length=4, hops=3):
    message = Message(source=0, destination=1, length=length, creation_cycle=creation)
    message.injection_cycle = injection
    message.ejection_cycle = ejection
    message.hops = hops
    return message


# -- RunningStats -----------------------------------------------------------------


def test_running_stats_moments():
    stats = RunningStats()
    for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        stats.add(value)
    assert stats.count == 8
    assert stats.mean == pytest.approx(5.0)
    assert stats.std == pytest.approx(math.sqrt(32 / 7))
    assert stats.minimum == 2.0
    assert stats.maximum == 9.0


def test_running_stats_empty_defaults():
    stats = RunningStats()
    assert stats.mean == 0.0
    assert stats.std == 0.0
    assert stats.minimum == 0.0
    assert stats.maximum == 0.0


# -- StatsCollector ----------------------------------------------------------------


def test_warmup_messages_are_excluded():
    collector = StatsCollector(warmup_messages=2, measure_messages=2, num_nodes=4)
    messages = [delivered_message(0, 1, 10 + index) for index in range(4)]
    for message in messages:
        collector.record_created(message)
    for message in messages:
        collector.record_delivered(message, message.ejection_cycle)
    assert collector.created == 4
    assert collector.delivered == 4
    assert collector.measured_delivered == 2
    summary = collector.summary(cycles=100)
    # Only the last two messages (latencies 12 and 13) are measured.
    assert summary.avg_total_latency == pytest.approx(12.5)


def test_messages_beyond_measure_target_are_ignored():
    collector = StatsCollector(warmup_messages=0, measure_messages=2)
    messages = [delivered_message(0, 1, 5 + index) for index in range(4)]
    for message in messages:
        collector.record_created(message)
    for message in messages:
        collector.record_delivered(message, message.ejection_cycle)
    assert collector.measured_delivered == 2
    assert collector.all_measured_delivered()


def test_the_creation_index_travels_on_the_message():
    """Registering a message stamps its creation index on it, so the
    collector keeps no per-message map that could grow without bound."""
    collector = StatsCollector(warmup_messages=1, measure_messages=10)
    messages = [delivered_message(0, 1, 10 + index) for index in range(5)]
    for message in messages:
        collector.record_created(message)
    assert [message.creation_index for message in messages] == [0, 1, 2, 3, 4]
    assert not any(isinstance(value, dict) for value in vars(collector).values())
    for message in messages:
        collector.record_delivered(message, message.ejection_cycle)
    assert collector.measured_delivered == 4  # one warm-up excluded


def test_unknown_messages_do_not_crash_the_collector():
    collector = StatsCollector(warmup_messages=0, measure_messages=10)
    stray = delivered_message(0, 1, 9)
    collector.record_delivered(stray, 9)
    assert collector.delivered == 1
    assert collector.measured_delivered == 0


def test_summary_reports_latency_network_latency_and_hops():
    collector = StatsCollector(warmup_messages=0, measure_messages=3, num_nodes=2)
    messages = [
        delivered_message(0, 2, 20, hops=4),
        delivered_message(0, 4, 30, hops=6),
        delivered_message(10, 12, 40, hops=8),
    ]
    for message in messages:
        collector.record_created(message)
        collector.record_delivered(message, message.ejection_cycle)
    summary = collector.summary(cycles=50)
    assert summary.avg_total_latency == pytest.approx((20 + 30 + 30) / 3)
    assert summary.avg_network_latency == pytest.approx((18 + 26 + 28) / 3)
    assert summary.avg_hops == pytest.approx(6.0)
    assert summary.measured == 3
    assert summary.completion_ratio == pytest.approx(1.0)
    assert summary.throughput > 0


def test_completion_ratio_reflects_missing_messages():
    collector = StatsCollector(warmup_messages=0, measure_messages=4)
    message = delivered_message(0, 1, 9)
    collector.record_created(message)
    collector.record_delivered(message, 9)
    summary = collector.summary(cycles=100)
    assert summary.completion_ratio == pytest.approx(0.25)
    assert not collector.all_measured_delivered()


def test_summary_as_dict_round_trip():
    summary = StatsCollector(warmup_messages=0, measure_messages=1).summary(cycles=10)
    data = summary.as_dict()
    assert data["cycles"] == 10
    assert set(data) >= {"avg_total_latency", "throughput", "saturated"}


# -- saturation policy ---------------------------------------------------------------


def make_summary(latency=50.0, completion=1.0, measured=100, created=None, delivered=None):
    return LatencySummary(
        created=measured if created is None else created,
        delivered=measured if delivered is None else delivered,
        measured=measured,
        avg_total_latency=latency,
        avg_network_latency=latency - 2,
        std_total_latency=1.0,
        max_total_latency=latency * 2,
        avg_hops=5.0,
        throughput=0.1,
        cycles=1000,
        completion_ratio=completion,
        saturated=False,
    )


def test_low_completion_is_saturated():
    """Below 95% of the measured messages delivered is saturation."""
    assert MIN_COMPLETION_RATIO == 0.95
    assert is_saturated(make_summary(completion=0.5), zero_load_latency=40.0)
    assert is_saturated(make_summary(completion=0.949), zero_load_latency=40.0)
    assert not is_saturated(make_summary(completion=0.95), zero_load_latency=40.0)


def test_exploded_latency_is_saturated():
    """An average latency above 12x the zero-load latency is saturation."""
    assert LATENCY_MULTIPLIER == 12.0
    assert is_saturated(make_summary(latency=481.0), zero_load_latency=40.0)
    assert not is_saturated(make_summary(latency=480.0), zero_load_latency=40.0)


def test_zero_measured_with_undelivered_backlog_is_saturated():
    """Messages were created but are stuck in flight: the network could
    not deliver the offered traffic, which is genuine saturation."""
    summary = make_summary(measured=0, completion=0.0, created=50, delivered=3)
    assert is_saturated(summary, zero_load_latency=40.0)


def test_zero_measured_without_backlog_is_insufficient_not_saturated():
    """Regression: a short-budget near-zero-load run where warm-up never
    completed used to be reported as "Sat.".  Nothing is stuck -- there
    is simply no measurement -- so it must not be flagged, and a warning
    must point at the insufficient cycle budget."""
    summary = make_summary(measured=0, completion=0.0, created=8, delivered=8)
    with pytest.warns(RuntimeWarning, match="insufficient"):
        assert not is_saturated(summary, zero_load_latency=40.0)


def test_zero_measured_short_budget_run_end_to_end():
    """The full-pipeline version of the regression: a tiny cycle budget
    at near-zero load measures nothing, and the result must come back
    not-saturated with an "n/a" label instead of "Sat."."""
    import warnings as warnings_module

    from repro.core.config import SimulationConfig
    from repro.core.simulator import NetworkSimulator

    config = SimulationConfig.tiny(
        normalized_load=0.005,
        warmup_messages=50,
        measure_messages=100,
        drain_factor=0.001,  # strangle the budget so warm-up cannot finish
    )
    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore", RuntimeWarning)
        result = NetworkSimulator(config).run()
    assert result.summary.measured == 0
    assert result.summary.created == result.summary.delivered
    assert not result.summary.saturated
    assert result.latency_label() == "n/a"


def test_healthy_run_is_not_saturated():
    assert not is_saturated(make_summary(latency=60.0), zero_load_latency=40.0)

