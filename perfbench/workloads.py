"""The benchmark's workloads: what one operation runs, times and checks.

Two open-loop workloads drive one simulation point per operation
(exponential injection at a fixed normalized load); the study workload
is a closed-loop client with one outstanding ``run_study`` at a time.
Every input is derived from the workload seed: operation ``k`` of an
open workload simulates sub-seed ``seed * 1000 + k % SUB_SEEDS``, and the
study sets its members' base seed to ``seed``.

The first operation of a run warms the process up (allocator arenas,
imports, worker start-up paths); it is checked like every other
operation but left out of the timings.

Untraced runs time every step with a :class:`calibration.ScaledClock`,
so each timing is in quiet-host seconds (see ``perfbench/calibration.py``);
an open point's ``run()`` is driven in laps of about ``LAP_S`` host
seconds, each bracketed by calibration slices.  Traced runs and the
recording of expected outputs time raw and run each point whole.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import resource
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from perfbench import calibration, checks, tracing

__all__ = [
    "DEFAULT_SEED",
    "OPEN_WORKLOADS",
    "POOL_WORKERS",
    "STUDY_WORKLOAD",
    "WORKLOADS",
    "Outcome",
    "run_workload",
]

HERE = Path(__file__).resolve().parent
STUDY_SPEC = HERE / "study_8x8.json"

DEFAULT_SEED = 1
#: Pool workers of the study workload: at most two, never more than nproc.
POOL_WORKERS = min(2, os.cpu_count() or 1)

#: Every open-loop field is spelled out, so a changed library default
#: cannot silently change the workload.
_OPEN_COMMON = dict(
    routing="duato",
    table="economical",
    pipeline="la-proud",
    traffic="uniform",
    injection="exponential",
    message_length=20,
)
OPEN_CONFIGS: Dict[str, Dict[str, dict]] = {
    "open_sat_32x32": {
        "bench": dict(
            mesh_dims=(32, 32),
            normalized_load=0.8,
            selector="max-credit",
            warmup_messages=100,
            measure_messages=1800,
        ),
        "tiny": dict(
            mesh_dims=(6, 6),
            normalized_load=0.8,
            selector="max-credit",
            message_length=4,
            warmup_messages=20,
            measure_messages=100,
        ),
    },
    "open_low_16x16": {
        "bench": dict(
            mesh_dims=(16, 16),
            normalized_load=0.02,
            selector="static-xy",
            warmup_messages=100,
            measure_messages=900,
        ),
        "tiny": dict(
            mesh_dims=(4, 4),
            normalized_load=0.02,
            selector="static-xy",
            message_length=4,
            warmup_messages=10,
            measure_messages=60,
        ),
    },
}
#: Distinct inputs an open workload cycles through within one run.
SUB_SEEDS = {"open_sat_32x32": 6, "open_low_16x16": 16}
#: Study base overrides at the tiny (test) scale.
STUDY_TINY = {"mesh_dims": [4, 4], "message_length": 4, "warmup_messages": 10, "measure_messages": 40}

OPEN_WORKLOADS = tuple(OPEN_CONFIGS)
STUDY_WORKLOAD = "study_8x8"
WORKLOADS = OPEN_WORKLOADS + (STUDY_WORKLOAD,)
SCALES = ("bench", "tiny")

#: Host seconds one lap of a chunked ``run()`` aims at.
LAP_S = 0.2
#: Timed repetitions inside one operation of the millisecond-scale steps.
WARM_REPEATS = 10
#: Back-to-back cache fetches per timed lap of an open point's warm round
#: trip; one sample is the lap's mean per fetch.
WARM_BATCH = 10
STUDY_SETUP_REPEATS = 20

#: End-to-end metric units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "flits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "study_cold_s": "s",
    "study_warm_s": "s",
    "points_per_s": "1/s",
}


@dataclasses.dataclass
class Outcome:
    """What one benchmark run of one workload produced."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: Timing samples per end-to-end metric (untraced runs), scaled to
    #: quiet-host seconds.
    samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: The same samples in raw host seconds.
    raw_samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: Calibration slices over the reference kernel time (host slowdown).
    slowdowns: List[float] = dataclasses.field(default_factory=list)
    #: Per-layer metric values (traced runs).
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: The tracer of a traced run, kept so its spans can be written out.
    tracer: Optional[tracing.Tracer] = None

    def record(self, label: str, problems: List[str]) -> None:
        """Count one operation, failed when ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def open_config(workload: str, scale: str, seed: int, op: int):
    """The configuration of operation ``op`` of an open workload."""
    from repro.core.config import SimulationConfig

    fields = dict(_OPEN_COMMON)
    fields.update(OPEN_CONFIGS[workload][scale])
    return SimulationConfig(seed=seed * 1000 + op % SUB_SEEDS[workload], **fields)


def load_seeded_study(seed: int, scale: str):
    """Load the benchmark's study spec with every member's seed set."""
    from repro.scenario import load_study

    study = load_study(STUDY_SPEC)
    overrides = {"seed": seed}
    if scale == "tiny":
        overrides.update(STUDY_TINY)
    members = tuple(
        dataclasses.replace(member, base={**member.base, **overrides})
        for member in study.members
    )
    return dataclasses.replace(study, base={**study.base, **overrides}, members=members)


class _Scratch:
    """Fresh result-cache directories under the checkout's scratch area."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=root, prefix="run-")
        self._count = 0

    def directory(self) -> Path:
        self._count += 1
        return Path(self._tmp.name) / f"cache-{self._count}"

    def cache(self):
        from repro.exec.cache import ResultCache

        return ResultCache(self.directory())

    def close(self) -> None:
        self._tmp.cleanup()


class RawClock:
    """The :class:`calibration.ScaledClock` interface without calibration:
    raw host seconds, and every ``run()`` in one piece."""

    def start(self) -> None:
        pass

    def lap(self, step):
        tick = time.perf_counter()
        result = step()
        raw = time.perf_counter() - tick
        return result, raw, raw


def _run_point(simulator, clock):
    """Run ``simulator`` to its stop; return the result and the raw and
    scaled seconds of ``run()``.

    A scaled clock drives ``run(max_cycles)`` in laps of about ``LAP_S``
    host seconds up to the same cycle budget ``run()`` applies, which
    gives the same result: the kernel resumes where the last lap stopped.
    Only the last lap's warnings are passed on; the summaries of the
    earlier laps describe an unfinished run.
    """
    if isinstance(clock, RawClock):
        return clock.lap(simulator.run)
    config = simulator.config
    budget = config.max_cycles if config.max_cycles is not None else simulator.default_max_cycles()
    raw = scaled = 0.0
    cycles = 0
    chunk = 1
    while True:
        step = min(chunk, budget - cycles)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, lap_raw, lap_scaled = clock.lap(lambda: simulator.run(step))
        raw += lap_raw
        scaled += lap_scaled
        cycles = result.cycles
        if simulator.stats.all_measured_delivered() or cycles >= budget:
            for warning in caught:
                warnings.warn_explicit(
                    warning.message, warning.category, warning.filename, warning.lineno
                )
            return result, raw, scaled
        chunk = max(1, min(chunk * 8, int(chunk * LAP_S / max(lap_raw, 1e-6))))


def _add(target: Dict[str, List[float]], timings: Mapping[str, List[float]]) -> None:
    for metric, values in timings.items():
        target.setdefault(metric, []).extend(values)


def _run_timed(outcome: Outcome, seconds: float, label, operation) -> None:
    """Run ``operation(op)`` for op = 0, 1, ... until ``seconds`` have
    passed since operation 0 -- the warm-up, whose timings are left out --
    and add every later operation's timing samples to ``outcome``."""
    window_start = None
    op = 0
    while True:
        try:
            sample = operation(op)
        except Exception as error:  # a raising point is a failed operation
            outcome.record(label(op), [f"raised {error!r}"])
        else:
            outcome.record(label(op), sample["problems"])
            if op > 0:
                _add(outcome.samples, sample["timings"])
                _add(outcome.raw_samples, sample["raw_timings"])
        op += 1
        now = time.perf_counter()
        if window_start is None:
            window_start = now
        elif now - window_start >= seconds:
            break
    outcome.samples["peak_rss_mb"] = [peak_rss_mb()]


# -- open-loop workloads -----------------------------------------------------------


def _untraced(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def _open_timings(config, result, setup_s: float, run_s: float, warm: List[float]):
    return {
        "setup_s": [setup_s],
        "sim_cycles_per_s": [result.cycles / run_s],
        "flits_per_s": [result.summary.delivered * config.message_length / run_s],
        "study_cold_s": [setup_s + run_s],
        "study_warm_s": warm,
        "points_per_s": [1.0 / (setup_s + run_s)],
    }


def _open_op(
    config,
    cache,
    expected: Optional[Mapping[str, object]],
    clock,
    tracer: Optional[tracing.Tracer] = None,
) -> Dict[str, object]:
    """Simulate one open-loop point, check it and time its cache round trip."""
    from repro.core.simulator import NetworkSimulator
    from repro.exec.backend import SerialBackend

    span = tracer.span if tracer is not None else _untraced
    gc.collect()
    clock.start()
    with span("bench.setup"):
        simulator, setup_raw, setup_s = clock.lap(lambda: NetworkSimulator(config))
    ledger = checks.Ledger(simulator.stats)
    with span("bench.run"):
        result, run_raw, run_s = _run_point(simulator, clock)
    outputs = checks.open_outputs(simulator, result)
    problems = checks.open_problems(simulator, result, ledger)
    if expected is not None:
        problems += checks.compare(expected, outputs)
    del simulator, ledger
    cache.put(config, result)
    # Free the simulator's object graph now, not in a collection that a
    # warm fetch happens to trigger.
    gc.collect()
    def fetch_batch():
        for _ in range(WARM_BATCH):
            fetched = SerialBackend(cache=cache).run_configs([config])[0]
        return fetched

    warm, warm_raw = [], []
    clock.start()
    for _ in range(WARM_REPEATS):
        fetched, raw, scaled = clock.lap(fetch_batch)
        warm.append(scaled / WARM_BATCH)
        warm_raw.append(raw / WARM_BATCH)
    if fetched.to_json() != result.to_json():
        problems.append("the cached result differs from the simulated one")
    return {
        "cold_s": setup_raw + run_raw,
        "outputs": outputs,
        "problems": problems,
        "timings": _open_timings(config, result, setup_s, run_s, warm),
        "raw_timings": _open_timings(config, result, setup_raw, run_raw, warm_raw),
    }


def _expected_open(expected, workload: str, op: int) -> Optional[Mapping[str, object]]:
    if expected is None:
        return None
    return expected[workload][op % SUB_SEEDS[workload]]


def _run_open_timed(workload, seed, seconds, scale, expected, scratch, outcome) -> None:
    cache = scratch.cache()
    clock = calibration.ScaledClock()
    _run_timed(
        outcome,
        seconds,
        lambda op: f"op {op} (seed {open_config(workload, scale, seed, op).seed})",
        lambda op: _open_op(
            open_config(workload, scale, seed, op),
            cache,
            _expected_open(expected, workload, op),
            clock,
        ),
    )
    outcome.slowdowns = clock.slowdowns


def _run_open_traced(workload, seed, scale, expected, scratch, outcome) -> None:
    config = open_config(workload, scale, seed, 0)
    expect = _expected_open(expected, workload, 0)
    clock = RawClock()
    outcome.record("warm-up op", _open_op(config, scratch.cache(), expect, clock)["problems"])
    reference = _open_op(config, scratch.cache(), expect, clock)
    outcome.record("reference op", reference["problems"])
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = _open_op(config, scratch.cache(), expect, clock, tracer)
    problems = traced["problems"] + checks.compare(reference["outputs"], traced["outputs"])
    outcome.record("traced op", problems)
    outcome.layers = tracing.layer_metrics(tracer, traced["cold_s"] / reference["cold_s"])
    outcome.tracer = tracer


# -- study workload ------------------------------------------------------------------


def _study_accounting(study_result, cache):
    """Cycles, delivered flits and results of every simulated point."""
    seen = {}
    for member in study_result.members:
        for point in member.points:
            for config in point.config.replicate_configs():
                if config not in seen:
                    seen[config] = cache.get(config)
    cycles = 0
    flits = 0
    for config, result in seen.items():
        cycles += result.cycles
        if result.drain is not None:
            flits += result.drain["total_flits"]
        else:
            flits += result.summary.delivered * config.message_length
    return cycles, flits, seen


def _study_rows(study_result) -> list:
    return [member.rows for member in study_result.members]


def _study_outputs(study_result, seen) -> Dict[str, object]:
    return {
        "rows_sha256": checks.rows_digest(_study_rows(study_result)),
        "cycles": [result.cycles for result in seen.values()],
        "time_to_drain": [
            result.drain["time_to_drain"]
            for result in seen.values()
            if result.drain is not None
        ],
    }


def _study_pass(study, backend):
    from repro.scenario import run_study

    with backend:
        start = time.perf_counter()
        result = run_study(study, backend)
        elapsed = time.perf_counter() - start
    return result, elapsed


def _study_timings(setup, cold, warm, cycles, flits, simulations):
    return {
        "setup_s": setup,
        "sim_cycles_per_s": [cycles / cold],
        "flits_per_s": [flits / cold],
        "study_cold_s": [cold],
        "study_warm_s": warm,
        "points_per_s": [simulations / cold],
    }


def _timed_pass(clock, study, backend):
    """A study pass timed by ``clock``: the result, the pass's raw seconds
    and the same scaled by the lap around it (which adds pool shutdown)."""
    (result, elapsed), raw, scaled = clock.lap(lambda: _study_pass(study, backend))
    return result, elapsed, elapsed * scaled / raw


def _study_op(
    seed, scale, scratch, expected, backend_factory, clock, pool_clock
) -> Dict[str, object]:
    """One cold pass on an empty cache plus warm passes on the filled one.

    ``clock`` times the steps this process runs; ``pool_clock`` the cold
    pass, which may run in pool workers.
    """
    from repro.exec.cache import ResultCache

    cache_dir = scratch.directory()

    def set_up():
        study = load_seeded_study(seed, scale)
        for member in study.members:
            member.expand()
        return study, backend_factory(ResultCache(cache_dir))

    setup, setup_raw = [], []
    clock.start()
    for _ in range(STUDY_SETUP_REPEATS):
        (study, backend), raw, scaled = clock.lap(set_up)
        setup.append(scaled)
        setup_raw.append(raw)
    pool_clock.start()
    result, cold_raw, cold = _timed_pass(pool_clock, study, backend)
    simulations = backend.simulations_run
    cycles, flits, seen = _study_accounting(result, backend.cache)
    problems = []
    for config, single in seen.items():
        problems += checks.study_result_problems(config, single)
    outputs = _study_outputs(result, seen)
    if expected is not None:
        problems += checks.compare(expected, outputs)
    warm, warm_raw = [], []
    clock.start()
    for _ in range(WARM_REPEATS):
        rerun, raw, scaled = _timed_pass(clock, study, backend_factory(ResultCache(cache_dir)))
        warm.append(scaled)
        warm_raw.append(raw)
        if _study_rows(rerun) != _study_rows(result):
            problems.append("warm-cache rows differ from the cold pass")
            break
    return {
        "cold_s": cold_raw,
        "rows": _study_rows(result),
        "outputs": outputs,
        "problems": problems,
        "timings": _study_timings(setup, cold, warm, cycles, flits, simulations),
        "raw_timings": _study_timings(setup_raw, cold_raw, warm_raw, cycles, flits, simulations),
    }


def _pool_backend(cache):
    from repro.exec.backend import ProcessPoolBackend

    return ProcessPoolBackend(workers=POOL_WORKERS, cache=cache)


def _serial_backend(cache):
    from repro.exec.backend import SerialBackend

    return SerialBackend(cache=cache)


def _run_study_timed(seed, seconds, scale, expected, scratch, outcome) -> None:
    expect = expected[STUDY_WORKLOAD] if expected is not None else None
    clock = calibration.ScaledClock()
    with calibration.ParallelSlicer(POOL_WORKERS) as slicer:
        pool_clock = calibration.ScaledClock(slicer)
        _run_timed(
            outcome,
            seconds,
            lambda op: f"pass {op}",
            lambda op: _study_op(seed, scale, scratch, expect, _pool_backend, clock, pool_clock),
        )
    outcome.slowdowns = clock.slowdowns + pool_clock.slowdowns


def _run_study_traced(seed, scale, expected, scratch, outcome) -> None:
    from repro.exec.cache import ResultCache

    expect = expected[STUDY_WORKLOAD] if expected is not None else None
    clock = RawClock()
    pool = _study_op(seed, scale, scratch, expect, _pool_backend, clock, clock)
    outcome.record("pool pass", pool["problems"])
    serial = _study_op(seed, scale, scratch, expect, _serial_backend, clock, clock)
    outcome.record("serial pass", serial["problems"])
    tracer = tracing.Tracer()
    ledgers: List[checks.Ledger] = []
    with tracing.instrument(tracer, on_stats=lambda stats: ledgers.append(checks.Ledger(stats))):
        with tracer.span("scenario.load"):
            study = load_seeded_study(seed, scale)
        cache_dir = scratch.directory()
        traced, cold = _study_pass(study, _serial_backend(ResultCache(cache_dir)))
        _study_pass(study, _serial_backend(ResultCache(cache_dir)))
    problems = [problem for ledger in ledgers for problem in ledger.problems()]
    if _study_rows(traced) != pool["rows"]:
        problems.append("traced serial rows differ from the pool rows")
    outcome.record("traced serial pass", problems)
    outcome.layers = tracing.layer_metrics(tracer, cold / serial["cold_s"])
    outcome.tracer = tracer


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    expected: Optional[Mapping[str, object]],
    scratch_root: Path,
) -> Outcome:
    """Run one workload for ``seconds`` (untraced) or once traced.

    ``expected`` holds the committed outputs for the default seed at this
    scale, or None when the seed has none (invariants only).
    """
    outcome = Outcome()
    scratch = _Scratch(scratch_root)
    try:
        if workload == STUDY_WORKLOAD:
            if trace:
                _run_study_traced(seed, scale, expected, scratch, outcome)
            else:
                _run_study_timed(seed, seconds, scale, expected, scratch, outcome)
        elif trace:
            _run_open_traced(workload, seed, scale, expected, scratch, outcome)
        else:
            _run_open_timed(workload, seed, seconds, scale, expected, scratch, outcome)
    finally:
        scratch.close()
    return outcome


def record_expected(scale: str, scratch_root: Path) -> Dict[str, object]:
    """Simulate the default seed's outputs for every workload at ``scale``."""
    expected: Dict[str, object] = {}
    scratch = _Scratch(scratch_root)
    try:
        for workload in WORKLOADS:
            if workload == STUDY_WORKLOAD:
                sample = _study_op(
                    DEFAULT_SEED, scale, scratch, None, _serial_backend, RawClock(), RawClock()
                )
                expected[workload] = sample["outputs"]
                continue
            cache = scratch.cache()
            expected[workload] = [
                _open_op(
                    open_config(workload, scale, DEFAULT_SEED, op), cache, None, RawClock()
                )["outputs"]
                for op in range(SUB_SEEDS[workload])
            ]
    finally:
        scratch.close()
    return expected
