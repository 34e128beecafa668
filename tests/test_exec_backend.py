"""Tests for the execution backends and their sweep-wave semantics."""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from typing import List, Sequence

import pytest

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.exec.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.exec.cache import ResultCache, config_cache_key
from repro.scenario import run_study
from repro.scenario.builtin import sweep_study
from repro.selection.base import PathSelector
from repro.stats.latency import LatencySummary


def fake_result(config: SimulationConfig, saturated: bool = False) -> SimulationResult:
    summary = LatencySummary(
        created=10,
        delivered=10,
        measured=10,
        avg_total_latency=100.0 * config.normalized_load,
        avg_network_latency=90.0 * config.normalized_load,
        std_total_latency=1.0,
        max_total_latency=200.0,
        avg_hops=4.0,
        throughput=config.normalized_load,
        cycles=1000,
        completion_ratio=1.0,
        saturated=saturated,
    )
    return SimulationResult(
        config=config, summary=summary, zero_load_latency=20.0, cycles=1000
    )


class FakeBackend(ExecutionBackend):
    """Scripted backend: saturates at/above a load threshold, counts sims."""

    def __init__(self, wave_size: int = 1, saturation_load: float = 0.5, cache=None):
        super().__init__(cache=cache)
        self._wave_size = wave_size
        self.saturation_load = saturation_load
        self.executed: List[SimulationConfig] = []

    @property
    def wave_size(self) -> int:
        return self._wave_size

    def _execute(self, configs: Sequence[SimulationConfig], on_result) -> List[SimulationResult]:
        results: List[SimulationResult] = []
        for index, config in enumerate(configs):
            self.executed.append(config)
            result = fake_result(
                config, saturated=config.normalized_load >= self.saturation_load
            )
            on_result(index, result)
            results.append(result)
        return results


def test_serial_backend_runs_and_counts():
    backend = SerialBackend()
    config = SimulationConfig.tiny()
    results = backend.run_configs([config, config.variant(normalized_load=0.3)])
    assert len(results) == 2
    assert backend.simulations_run == 2
    assert results[0].config.normalized_load == config.normalized_load
    assert results[1].config.normalized_load == 0.3


def test_backend_preserves_submission_order():
    backend = FakeBackend()
    base = SimulationConfig.tiny()
    loads = [0.4, 0.1, 0.3, 0.2]
    results = backend.run_configs(
        [base.variant(normalized_load=load) for load in loads]
    )
    assert [result.config.normalized_load for result in results] == loads


def test_backend_deduplicates_identical_configs_within_a_batch():
    backend = FakeBackend()
    config = SimulationConfig.tiny()
    results = backend.run_configs([config, config, config.variant(seed=2), config])
    assert backend.simulations_run == 2
    assert results[0] == results[1] == results[3]
    assert results[2].config.seed == 2


def test_backend_does_not_resimulate_a_config_from_an_earlier_batch():
    backend = FakeBackend()
    config = SimulationConfig.tiny()
    first = backend.run_configs([config])
    again = backend.run_configs([config.variant(seed=2), config])
    assert backend.simulations_run == 2
    assert again[1] is first[0]


def test_backend_serves_cache_hits_without_simulating(tmp_path):
    cache = ResultCache(tmp_path)
    config = SimulationConfig.tiny()
    first = FakeBackend(cache=cache)
    first.run_configs([config])
    assert first.simulations_run == 1
    second = FakeBackend(cache=cache)
    results = second.run_configs([config])
    assert second.simulations_run == 0
    assert cache.hits == 1
    assert results[0].config == config


def test_mixed_batch_simulates_only_the_misses(tmp_path):
    cache = ResultCache(tmp_path)
    config = SimulationConfig.tiny()
    other = config.variant(normalized_load=0.3)
    FakeBackend(cache=cache).run_configs([config])
    backend = FakeBackend(cache=cache)
    results = backend.run_configs([config, other])
    assert backend.simulations_run == 1
    assert [r.config for r in results] == [config, other]


def test_process_pool_backend_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessPoolBackend(workers=0)


def test_wave_sizes():
    assert SerialBackend().wave_size == 1
    assert ProcessPoolBackend(workers=3).wave_size == 3


def test_make_backend_selects_by_worker_count(tmp_path):
    assert isinstance(make_backend(), SerialBackend)
    assert isinstance(make_backend(workers=1), SerialBackend)
    pool = make_backend(workers=2, cache_dir=tmp_path)
    assert isinstance(pool, ProcessPoolBackend)
    assert pool.workers == 2
    assert isinstance(pool.cache, ResultCache)


def sweep_loads(outcome) -> List[float]:
    return [point.config.normalized_load for point in outcome.points]


def test_sweep_stops_at_saturation_regardless_of_wave_size():
    base = SimulationConfig.tiny()
    loads = [0.1, 0.2, 0.3, 0.5, 0.6, 0.7]
    serial_like = FakeBackend(wave_size=1, saturation_load=0.3)
    wide = FakeBackend(wave_size=4, saturation_load=0.3)
    curve_serial = run_study(sweep_study(base, loads), backend=serial_like)
    curve_wide = run_study(sweep_study(base, loads), backend=wide)
    # Both curves end at the first saturated load (0.3), inclusive.
    assert sweep_loads(curve_serial) == [0.1, 0.2, 0.3]
    assert sweep_loads(curve_wide) == [0.1, 0.2, 0.3]
    assert curve_serial.results[-1].saturated and curve_wide.results[-1].saturated
    # Serial waves never simulate past the saturated point; a wide wave may
    # (those extra points are wasted work at most, never extra output rows).
    assert [c.normalized_load for c in serial_like.executed] == [0.1, 0.2, 0.3]
    assert [c.normalized_load for c in wide.executed] == [0.1, 0.2, 0.3, 0.5]


def test_sweep_without_saturation_stop_submits_one_batch():
    base = SimulationConfig.tiny()
    backend = FakeBackend(wave_size=2)
    curve = run_study(
        sweep_study(base, [0.1, 0.6, 0.7], stop_at_saturation=False), backend=backend
    )
    assert sweep_loads(curve) == [0.1, 0.6, 0.7]
    assert backend.simulations_run == 3


class ExplodingBackend(FakeBackend):
    """Fails while simulating the config whose seed is ``boom_seed``."""

    def __init__(self, boom_seed: int, cache=None):
        super().__init__(cache=cache)
        self.boom_seed = boom_seed

    def _execute(self, configs: Sequence[SimulationConfig], on_result):
        results: List[SimulationResult] = []
        for index, config in enumerate(configs):
            if config.seed == self.boom_seed:
                raise RuntimeError("worker died")
            result = fake_result(config)
            on_result(index, result)
            results.append(result)
        return results


def test_completed_points_are_cached_even_if_the_batch_dies(tmp_path):
    cache = ResultCache(tmp_path)
    base = SimulationConfig.tiny()
    batch = [base.variant(seed=1), base.variant(seed=2), base.variant(seed=3)]
    backend = ExplodingBackend(boom_seed=3, cache=cache)
    with pytest.raises(RuntimeError):
        backend.run_configs(batch)
    # The two points finished before the failure survived to disk...
    assert backend.simulations_run == 2
    assert len(cache) == 2
    # ...so a resumed run only simulates the point that died.
    resumed = FakeBackend(cache=cache)
    results = resumed.run_configs(batch)
    assert resumed.simulations_run == 1
    assert [r.config.seed for r in results] == [1, 2, 3]


def test_pool_caches_completed_points_when_a_worker_fails(tmp_path):
    cache = ResultCache(tmp_path)
    good = SimulationConfig.tiny(measure_messages=50, warmup_messages=5)
    # Unknown component names now fail eagerly at construction, so a
    # worker-side failure needs a config that passes name validation but
    # dies during network assembly: bit-reversal needs 2^k nodes.
    bad = good.variant(mesh_dims=(3, 3), traffic="bit-reversal")
    with ProcessPoolBackend(workers=2, cache=cache) as backend:
        with pytest.raises(RuntimeError) as excinfo:
            backend.run_configs([good, bad])
    # The error names the failing point, not the one that finished, and
    # chains the worker's own error.
    message = str(excinfo.value)
    assert config_cache_key(bad) in message
    assert config_cache_key(good) not in message
    assert f"seed {bad.seed}" in message
    assert repr(bad) in message
    assert isinstance(excinfo.value.__cause__, ValueError)
    # The point that finished was persisted despite the other one failing.
    assert cache.stores == 1
    assert SerialBackend(cache=cache).run_configs([good]) and cache.hits == 1


class _ExitInWorkerSelector(PathSelector):
    """Kills the process that builds it -- but only a pool worker."""

    name = "exit-in-worker"

    def __init__(self, rng=None) -> None:
        super().__init__(rng)
        if multiprocessing.parent_process() is not None:
            os._exit(17)

    def select(self, candidates):
        return candidates[0].port


def test_a_crashed_worker_names_every_unfinished_point():
    """A dying worker breaks the pool, so every unfinished point raises
    BrokenProcessPool; the error says the pool broke and lists them all,
    rather than blaming whichever of them completed first."""
    # Registered before the pool forks its workers, which inherit it.
    registry.SELECTORS.register(_ExitInWorkerSelector.name, obj=_ExitInWorkerSelector)
    try:
        base = SimulationConfig.tiny(measure_messages=50, warmup_messages=5)
        crashing = [
            base.variant(selector=_ExitInWorkerSelector.name, seed=seed)
            for seed in (1, 2, 3)
        ]
        with ProcessPoolBackend(workers=2) as backend:
            with pytest.raises(RuntimeError) as excinfo:
                backend.run_configs(crashing)
            # The broken pool is dropped; the next batch gets a fresh one.
            assert backend._pool is None
            assert len(backend.run_configs([base, base.variant(seed=9)])) == 2
        # Cache keys fingerprint the registered selector: compute them
        # while it is still registered.
        expected = [
            f"cache key {config_cache_key(config)}, seed {config.seed}"
            for config in crashing
        ]
    finally:
        registry.SELECTORS.unregister(_ExitInWorkerSelector.name)
    message = str(excinfo.value)
    assert "worker pool broke" in message
    for entry in expected:
        assert entry in message
    assert isinstance(excinfo.value.__cause__, BrokenProcessPool)


def test_backend_context_manager_closes_the_pool():
    with ProcessPoolBackend(workers=2) as backend:
        config = SimulationConfig.tiny(measure_messages=50, warmup_messages=5)
        results = backend.run_configs(
            [config, config.variant(normalized_load=0.25)]
        )
        assert len(results) == 2
        assert backend._pool is not None
    assert backend._pool is None


# -- replicated points --------------------------------------------------------------


def test_replicated_config_fans_out_into_seed_offset_runs():
    backend = FakeBackend()
    config = SimulationConfig.tiny(replications=3, seed_stride=10, seed=5)
    results = backend.run_configs([config])
    assert [c.seed for c in backend.executed] == [5, 15, 25]
    assert all(c.replications == 1 and c.seed_stride == 1 for c in backend.executed)
    assert len(results) == 1
    block = results[0].replicates
    assert block["count"] == 3
    assert block["seeds"] == [5, 15, 25]


def test_merged_result_carries_confidence_intervals():
    backend = FakeBackend()
    config = SimulationConfig.tiny(replications=4)
    result = backend.run_configs([config])[0]
    assert result.config == config
    block = result.replicates
    assert set(block) >= {"count", "seeds", "level", "latency", "throughput"}
    assert block["latency"]["count"] == 4
    assert block["latency"]["half_width"] >= 0.0
    # The merged headline latency is the pooled per-message mean.
    assert result.latency == pytest.approx(block["latency"]["mean"])


def test_replicates_share_cache_slots_with_plain_runs(tmp_path):
    cache = ResultCache(tmp_path)
    base = SimulationConfig.tiny(seed=1)
    # Prime the slot for seed 2 with a plain single-seed run.
    FakeBackend(cache=cache).run_configs([base.variant(seed=2)])
    backend = FakeBackend(cache=cache)
    backend.run_configs([base.variant(replications=3)])
    # Seeds 1, 2, 3: seed 2 was already cached, only 1 and 3 simulate.
    assert backend.simulations_run == 2
    assert cache.hits == 1


def test_mixed_replicated_and_plain_batch_keeps_submission_order():
    backend = FakeBackend()
    plain = SimulationConfig.tiny(normalized_load=0.1)
    replicated = SimulationConfig.tiny(normalized_load=0.2, replications=2)
    results = backend.run_configs([plain, replicated, plain.variant(seed=9)])
    assert [r.config.normalized_load for r in results] == [0.1, 0.2, 0.1]
    assert results[0].replicates is None
    assert results[1].replicates["count"] == 2
    assert results[2].replicates is None


def test_replicated_serial_and_pool_results_are_bit_identical():
    config = SimulationConfig.tiny(
        measure_messages=50, warmup_messages=5, replications=3
    )
    serial = SerialBackend().run_configs([config])[0]
    with ProcessPoolBackend(workers=2) as pool:
        pooled = pool.run_configs([config])[0]
    assert serial.to_json() == pooled.to_json()


def test_simulator_refuses_replicated_configs():
    from repro.core.simulator import NetworkSimulator

    with pytest.raises(ValueError, match="execution backend"):
        NetworkSimulator(SimulationConfig.tiny(replications=2))


def test_replicate_configs_expansion():
    config = SimulationConfig.tiny(seed=3, replications=2, seed_stride=7)
    replicates = config.replicate_configs()
    assert [c.seed for c in replicates] == [3, 10]
    single = SimulationConfig.tiny()
    assert single.replicate_configs() == (single,)
    with pytest.raises(ValueError):
        SimulationConfig.tiny(replications=0)
    with pytest.raises(ValueError):
        SimulationConfig.tiny(seed_stride=0)
