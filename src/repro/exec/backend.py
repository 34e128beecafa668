"""Execution backends: run batches of simulations serially or in parallel.

Every sweep/campaign/experiment runner submits *batches* of independent
:class:`~repro.core.config.SimulationConfig` points through an
:class:`ExecutionBackend` instead of calling the simulator inline.  The
backend consults an optional :class:`~repro.exec.cache.ResultCache` before
simulating, executes only the misses (serially or on a process pool) and
returns results in submission order, so a batch is a drop-in replacement
for the equivalent loop of ``NetworkSimulator(config).run()`` calls.

Each simulation is seeded solely by its configuration, so results are
bit-identical whichever backend runs them and however the batch is split
across workers.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache, config_cache_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.config import SimulationConfig
    from repro.core.results import SimulationResult

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "make_backend",
    "simulate_config",
]


def simulate_config(config: "SimulationConfig") -> "SimulationResult":
    """Simulate one configuration (module-level so process pools can pickle it)."""
    from repro.core.simulator import NetworkSimulator

    return NetworkSimulator(config).run()


def _import_plugins(plugins: Sequence[str]) -> None:
    """Worker-process initializer: import plugin modules before simulating.

    Worker processes import repro fresh, so components registered by user
    code in the parent are unknown there; re-importing the plugin modules
    (dotted paths or ``.py`` files) restores the registrations.
    """
    from repro.registry import load_plugin

    for plugin in plugins:
        load_plugin(plugin)


class ExecutionBackend(ABC):
    """Runs batches of independent simulation points, with optional caching."""

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        #: Simulations actually executed (cache hits are not counted).
        self.simulations_run = 0
        #: Every result this backend simulated, by configuration: a point
        #: submitted again (in a later batch or another suite member) is
        #: not simulated twice, with or without a cache.
        self._simulated: Dict["SimulationConfig", "SimulationResult"] = {}

    @property
    @abstractmethod
    def wave_size(self) -> int:
        """Points a saturation-stopped sweep should evaluate per wave.

        Serial execution uses 1 (stop exactly at the first saturated point,
        never simulating past it); parallel execution uses the worker count
        so a wave keeps every worker busy.
        """

    @abstractmethod
    def _execute(
        self,
        configs: Sequence["SimulationConfig"],
        on_result: Callable[[int, "SimulationResult"], None],
    ) -> List["SimulationResult"]:
        """Simulate every configuration; returns results in submission order.

        ``on_result(index, result)`` is invoked once per point *as it
        completes* (possibly out of submission order), so the caller can
        persist finished work even if a later point fails or the run is
        interrupted.
        """

    def run_configs(self, configs: Sequence["SimulationConfig"]) -> List["SimulationResult"]:
        """Run a batch of configurations, returning results in submission order.

        Cached points are served from disk; only misses are simulated (and
        then stored back).  A configuration this backend already simulated,
        in this batch or an earlier one, is not simulated again.  A
        configuration with ``replications > 1`` fans out into its
        seed-offset replicate configurations (each an ordinary single-seed
        cache slot) and comes back as one merged result carrying
        confidence intervals (see
        :func:`repro.stats.confidence.merge_replicates`); the replicates
        run through the same cache/dedup/parallel path as everything
        else, so serial and pool backends stay bit-identical.
        """
        configs = list(configs)
        groups = [config.replicate_configs() for config in configs]
        if any(len(group) > 1 for group in groups):
            from repro.stats.confidence import merge_replicates

            flat = [replicate for group in groups for replicate in group]
            flat_results = self._run_cached(flat)
            results: List["SimulationResult"] = []
            offset = 0
            for config, group in zip(configs, groups):
                chunk = flat_results[offset : offset + len(group)]
                offset += len(group)
                if len(group) == 1:
                    results.append(chunk[0])
                else:
                    results.append(merge_replicates(config, chunk))
            return results
        return self._run_cached(configs)

    def _run_cached(
        self, configs: List["SimulationConfig"]
    ) -> List["SimulationResult"]:
        """The cache-lookup/dedup/execute path for single-seed configurations."""
        results: List[Optional["SimulationResult"]] = [None] * len(configs)
        # Unique configurations neither the cache nor this backend has a
        # result for.  The cache is asked first, so its hit count is the
        # same whether or not this backend ran the point before.
        missing: Dict["SimulationConfig", None] = {}
        for index, config in enumerate(configs):
            if self.cache is not None:
                results[index] = self.cache.get(config)
            if results[index] is None:
                results[index] = self._simulated.get(config)
            if results[index] is None:
                missing[config] = None

        if missing:
            unique = list(missing)
            # Persist each point as soon as it completes, so an interrupted
            # batch loses only its in-flight points, never finished ones.
            def on_result(slot: int, result: "SimulationResult") -> None:
                self.simulations_run += 1
                self._simulated[unique[slot]] = result
                if self.cache is not None:
                    self.cache.put(unique[slot], result)

            self._execute(unique, on_result)
            for index, config in enumerate(configs):
                if results[index] is None:
                    results[index] = self._simulated[config]
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Release any worker resources (no-op for serial execution)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution, one simulation at a time (the historical path)."""

    @property
    def wave_size(self) -> int:
        return 1

    def _execute(
        self,
        configs: Sequence["SimulationConfig"],
        on_result: Callable[[int, "SimulationResult"], None],
    ) -> List["SimulationResult"]:
        results: List["SimulationResult"] = []
        for index, config in enumerate(configs):
            result = simulate_config(config)
            on_result(index, result)
            results.append(result)
        return results

    def __repr__(self) -> str:
        return f"SerialBackend(cache={self.cache!r})"


class ProcessPoolBackend(ExecutionBackend):
    """Execution on a pool of worker processes (``concurrent.futures``).

    The pool is created lazily on the first batch and reused until
    :meth:`close` (or context-manager exit).  Workers receive pickled
    configurations and return pickled results; because every run is seeded
    by its configuration alone, the output is bit-identical to
    :class:`SerialBackend`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        plugins: Sequence[str] = (),
    ) -> None:
        super().__init__(cache=cache)
        if workers is not None and workers < 1:
            raise ValueError("a process pool needs at least one worker")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        #: Plugin modules imported by every worker before simulating, so
        #: registry-provided components from user code work under the pool.
        self.plugins = tuple(plugins)
        self._pool = None

    @property
    def wave_size(self) -> int:
        return self.workers

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            if self.plugins:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_import_plugins,
                    initargs=(self.plugins,),
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _execute(
        self,
        configs: Sequence["SimulationConfig"],
        on_result: Callable[[int, "SimulationResult"], None],
    ) -> List["SimulationResult"]:
        if len(configs) == 1:
            # Not worth a round-trip through the pool.
            result = simulate_config(configs[0])
            on_result(0, result)
            return [result]
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        slot_of_future = {
            pool.submit(simulate_config, config): index
            for index, config in enumerate(configs)
        }
        results: List[Optional["SimulationResult"]] = [None] * len(configs)
        first_failure: Optional[Tuple[int, Exception]] = None
        broken: Optional[BrokenProcessPool] = None
        # Drain in completion order so every finished point is reported (and
        # cached) even when another worker's point fails.
        for future in as_completed(slot_of_future):
            slot = slot_of_future[future]
            try:
                result = future.result()
            except BrokenProcessPool as error:
                broken = broken or error
                continue
            except Exception as error:
                if first_failure is None:
                    first_failure = (slot, error)
                continue
            on_result(slot, result)
            results[slot] = result
        if broken is not None:
            # A dead worker breaks the whole pool: every unfinished future
            # raises BrokenProcessPool, so none of them is to blame alone.
            self.close()
            unfinished = "; ".join(
                f"cache key {config_cache_key(config)}, seed {config.seed}"
                for config, result in zip(configs, results)
                if result is None
            )
            raise RuntimeError(
                "the worker pool broke (a worker process died, e.g. crashed or "
                f"was killed) before these points finished: {unfinished}"
            ) from broken
        if first_failure is not None:
            slot, error = first_failure
            config = configs[slot]
            # A worker's error does not say which submitted point raised
            # it, so name it.
            raise RuntimeError(
                f"simulation point failed in a worker process: "
                f"{type(error).__name__}: {error} "
                f"[cache key {config_cache_key(config)}, seed {config.seed}, "
                f"config {config!r}]"
            ) from error
        return results  # type: ignore[return-value]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers}, cache={self.cache!r})"


def make_backend(
    workers: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    plugins: Sequence[str] = (),
) -> ExecutionBackend:
    """Build a backend from the CLI-level knobs.

    ``workers`` of None/0/1 selects :class:`SerialBackend`; anything larger
    selects :class:`ProcessPoolBackend`.  ``cache_dir`` (when given) attaches
    a :class:`ResultCache` rooted there.  ``plugins`` lists plugin modules
    every pool worker imports before simulating (serial execution relies on
    the caller having imported them in-process already).
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    if workers is not None and workers > 1:
        return ProcessPoolBackend(workers=workers, cache=cache, plugins=plugins)
    return SerialBackend(cache=cache)
