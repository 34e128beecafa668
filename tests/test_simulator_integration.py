"""End-to-end integration tests of the full simulator.

These tests run complete (tiny) simulations and check system-level
properties: message conservation, latency calibration against the analytic
contention-free value, the look-ahead benefit, the equivalence of
full-table and economical-storage routing, reproducibility and forward
progress under load (deadlock freedom).
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator, build_routing, build_table, build_topology


def run(config):
    return NetworkSimulator(config).run()


@pytest.fixture(scope="module")
def low_load_result():
    return run(SimulationConfig.tiny(normalized_load=0.1, seed=5))


def test_all_messages_generated_and_delivered(low_load_result):
    summary = low_load_result.summary
    assert summary.created == SimulationConfig.tiny().total_messages
    assert summary.delivered == summary.created
    assert summary.measured == SimulationConfig.tiny().measure_messages
    assert summary.completion_ratio == pytest.approx(1.0)
    assert not low_load_result.saturated


def test_low_load_latency_is_close_to_zero_load_estimate(low_load_result):
    latency = low_load_result.latency
    zero_load = low_load_result.zero_load_latency
    assert zero_load < latency < 1.5 * zero_load


def test_average_hops_matches_average_distance(low_load_result):
    topology = build_topology(low_load_result.config)
    # The header is forwarded once per router it traverses, including the
    # ejection through the destination router's local port.
    expected = topology.average_distance() + 1.0
    assert low_load_result.summary.avg_hops == pytest.approx(expected, rel=0.1)


def test_lookahead_reduces_latency_at_low_load():
    base = SimulationConfig.tiny(normalized_load=0.15, seed=7, routing="duato")
    with_la = run(base.variant(pipeline="la-proud"))
    without_la = run(base.variant(pipeline="proud"))
    assert with_la.latency < without_la.latency
    # One pipeline stage per hop: the gap should be substantial for the
    # 4-flit messages of the tiny configuration (paper: 12-15% for 20 flits).
    improvement = (without_la.latency - with_la.latency) / without_la.latency
    assert improvement > 0.05


def test_full_table_and_economical_storage_are_equivalent():
    base = SimulationConfig.tiny(normalized_load=0.3, seed=11, routing="duato")
    full = run(base.variant(table="full"))
    economical = run(base.variant(table="economical"))
    # The paper's claim: ES loses no routing flexibility, so the two runs
    # make identical decisions and produce identical statistics.
    assert economical.latency == pytest.approx(full.latency)
    assert economical.summary.avg_hops == pytest.approx(full.summary.avg_hops)


def test_adaptive_routing_beats_deterministic_on_transpose_at_load():
    base = SimulationConfig(
        mesh_dims=(4, 4),
        message_length=4,
        warmup_messages=50,
        measure_messages=400,
        traffic="transpose",
        normalized_load=0.55,
        seed=3,
    )
    adaptive = run(base.variant(routing="duato"))
    deterministic = run(base.variant(routing="dimension-order"))
    assert adaptive.latency < deterministic.latency


def test_same_seed_is_reproducible_and_different_seed_differs():
    base = SimulationConfig.tiny(normalized_load=0.2)
    first = run(base.variant(seed=21))
    second = run(base.variant(seed=21))
    other = run(base.variant(seed=22))
    assert first.latency == pytest.approx(second.latency)
    assert first.summary.avg_hops == pytest.approx(second.summary.avg_hops)
    assert first.latency != pytest.approx(other.latency)


def test_forward_progress_under_heavy_load():
    # Well beyond saturation, and with a cycle budget too small to drain the
    # backlog, the network must still keep delivering messages (deadlock
    # freedom) while the run is flagged as saturated.
    config = SimulationConfig.tiny(
        normalized_load=2.0, measure_messages=1500, seed=9, max_cycles=450
    )
    result = run(config)
    assert result.summary.delivered > 200
    assert result.saturated


def test_every_selector_runs_and_delivers():
    for selector in ("static-xy", "min-mux", "lfu", "lru", "max-credit", "random", "first-free"):
        config = SimulationConfig.tiny(normalized_load=0.25, selector=selector, seed=13)
        result = run(config)
        assert result.summary.completion_ratio == pytest.approx(1.0), selector


def test_turn_model_routing_end_to_end():
    config = SimulationConfig.tiny(normalized_load=0.2, routing="north-last", seed=17)
    result = run(config)
    assert result.summary.completion_ratio == pytest.approx(1.0)


def test_interval_table_routing_end_to_end():
    config = SimulationConfig.tiny(
        normalized_load=0.15, routing="duato", table="interval", seed=19
    )
    result = run(config)
    assert result.summary.completion_ratio == pytest.approx(1.0)


def test_meta_table_configurations_run(mesh_dims=(4, 4)):
    for table in ("meta-row", "meta-block"):
        config = SimulationConfig.tiny(normalized_load=0.2, table=table, seed=23)
        result = run(config)
        assert result.summary.completion_ratio == pytest.approx(1.0), table


def test_bernoulli_injection_supported():
    config = SimulationConfig.tiny(normalized_load=0.2, injection="bernoulli", seed=29)
    result = run(config)
    assert result.summary.completion_ratio == pytest.approx(1.0)


def test_bernoulli_rate_beyond_one_warns_and_records_effective_rate():
    # One-flit messages at normalized load 8.0 ask for more than one
    # message per node per cycle -- impossible for a slotted Bernoulli
    # process.  The clamp must be loud and visible in the result, not a
    # silent distortion of the load axis.
    config = SimulationConfig.tiny(
        normalized_load=8.0,
        injection="bernoulli",
        message_length=1,
        measure_messages=100,
        warmup_messages=10,
        max_cycles=300,
        seed=31,
    )
    with pytest.warns(RuntimeWarning, match="Bernoulli limit"):
        simulator = NetworkSimulator(config)
    assert simulator.effective_message_rate == 1.0
    result = simulator.run()
    assert result.effective_message_rate == 1.0


def test_effective_rate_is_recorded_without_clamping():
    import warnings

    config = SimulationConfig.tiny(normalized_load=0.2, injection="bernoulli", seed=29)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no clamp warning expected
        simulator = NetworkSimulator(config)
    result = simulator.run()
    assert 0.0 < result.effective_message_rate < 1.0
    assert result.effective_message_rate == simulator.effective_message_rate

    exponential = NetworkSimulator(SimulationConfig.tiny(seed=29)).run()
    assert exponential.effective_message_rate > 0.0


def test_builders_reject_unknown_names():
    config = SimulationConfig.tiny()
    topology = build_topology(config)
    with pytest.raises(ValueError):
        build_table(config.variant(table="gigantic"), topology)
    with pytest.raises(ValueError):
        build_routing(config.variant(routing="chaotic"), topology, build_table(config, topology))
    with pytest.raises(ValueError):
        NetworkSimulator(config.variant(injection="bursty"))


def test_torus_with_wrap_refusing_routing_fails_at_config_construction():
    # Regression for the old late-failure path: torus=True with a routing
    # that cannot be made deadlock free on wraparound links used to pass
    # config validation and only blow up at NetworkSimulator wiring time.
    # The cross-field check must now raise at construction, with a
    # pointed routing x topology x escape-VC message.
    with pytest.raises(ValueError, match="2 escape VCs"):
        SimulationConfig.tiny(torus=True, routing="duato", num_escape_vcs=1)
    with pytest.raises(ValueError, match="turn-model"):
        SimulationConfig.tiny(torus=True, routing="north-last")
    with pytest.raises(ValueError, match="dateline"):
        SimulationConfig.tiny(torus=True, routing="dimension-order", vcs_per_port=1)
    # The safe combinations construct (and wire) cleanly.
    config = SimulationConfig.tiny(torus=True, routing="duato", num_escape_vcs=2)
    NetworkSimulator(config)
    config3d = SimulationConfig.tiny(
        mesh_dims=(3, 3, 3), topology="torus3d", num_escape_vcs=2
    )
    NetworkSimulator(config3d)


@pytest.mark.parametrize("link_mode", ["batched", "reference"])
def test_object_core_counts_every_message_mid_run(link_mode):
    """Mid-run, the object core's created messages balance: delivered,
    in flight (tail flit at an interface, in a buffer or on a link) or
    queued at their interface."""
    config = SimulationConfig.tiny(
        core_mode="objects", link_mode=link_mode, normalized_load=0.6, seed=5
    )
    simulator = NetworkSimulator(config)
    simulator.run(max_cycles=80)
    stats = simulator.stats
    assert stats.created > stats.delivered, "the check needs messages in flight"
    assert simulator.network.message_conservation_error() is None


def test_a_miscounted_message_fails_an_object_run_naming_the_config():
    from repro.traffic.message import Message

    config = SimulationConfig.tiny(core_mode="objects", normalized_load=0.3, seed=3)
    simulator = NetworkSimulator(config)
    simulator.run(max_cycles=40)
    # A creation the network never saw: the count no longer balances.
    simulator.stats.record_created(
        Message(source=0, destination=1, length=4, creation_cycle=40)
    )
    with pytest.raises(RuntimeError, match="objects core message conservation") as error:
        simulator.run(max_cycles=0)
    assert repr(config) in str(error.value)
