"""Determinism guarantees of the execution layer.

Every simulation is seeded solely by its configuration, so the same
``SimulationConfig`` must produce bit-identical results (a) across two
consecutive runs, (b) through the serial and the process-pool backends,
and (c) after a JSON round trip through the result cache.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.exec.backend import ProcessPoolBackend, SerialBackend, simulate_config
from repro.scenario import run_study
from repro.scenario.builtin import campaign_study, sweep_study


@pytest.fixture(scope="module")
def tiny_config():
    return SimulationConfig.tiny(measure_messages=200, warmup_messages=20)


@pytest.fixture(scope="module")
def serial_result(tiny_config):
    return simulate_config(tiny_config)


def test_two_consecutive_runs_are_bit_identical(tiny_config, serial_result):
    again = simulate_config(tiny_config)
    assert again == serial_result
    assert again.summary.as_dict() == serial_result.summary.as_dict()
    assert again.to_json() == serial_result.to_json()


def test_serial_and_process_pool_backends_agree(tiny_config, serial_result):
    configs = [tiny_config, tiny_config.variant(normalized_load=0.35, seed=3)]
    serial = SerialBackend().run_configs(configs)
    with ProcessPoolBackend(workers=2) as pool:
        parallel = pool.run_configs(configs)
    assert serial[0] == serial_result
    for serial_point, parallel_point in zip(serial, parallel):
        assert serial_point == parallel_point
        assert serial_point.to_json() == parallel_point.to_json()


def test_load_sweep_is_identical_through_both_backends(tiny_config):
    loads = (0.1, 0.25, 0.4)
    study = sweep_study(tiny_config, loads)
    serial = run_study(study, backend=SerialBackend())
    with ProcessPoolBackend(workers=2) as pool:
        parallel = run_study(study, backend=pool)
    assert serial.points == parallel.points
    assert serial.results == parallel.results


@pytest.mark.slow
def test_campaign_is_identical_through_both_backends(tiny_config):
    study = campaign_study(
        tiny_config, loads_low_high=(0.2,), traffic_patterns=("uniform",)
    )
    serial_report = run_study(study)
    with ProcessPoolBackend(workers=2) as pool:
        parallel_report = run_study(study, backend=pool)
    assert serial_report == parallel_report
    assert serial_report.to_markdown() == parallel_report.to_markdown()


def test_cache_round_trip_preserves_every_field(tmp_path, tiny_config, serial_result):
    from repro.exec.cache import ResultCache

    cache = ResultCache(tmp_path)
    cache.put(tiny_config, serial_result)
    loaded = cache.get(tiny_config)
    assert isinstance(loaded, SimulationResult)
    assert loaded == serial_result
    assert loaded.to_json() == serial_result.to_json()
