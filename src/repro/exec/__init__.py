"""Batch execution layer: backends and the content-addressed result cache.

:func:`repro.scenario.run_study` submits every study's batches of
independent simulation points through an :class:`ExecutionBackend`:

* :class:`SerialBackend` -- in-process, one point at a time (the default,
  exactly the historical behaviour);
* :class:`ProcessPoolBackend` -- a ``multiprocessing`` worker pool with a
  configurable worker count.

Both can be paired with a :class:`ResultCache`, which persists every
result as JSON keyed by a stable hash of its configuration so repeated
points are served from disk instead of being re-simulated::

    from repro.exec import ProcessPoolBackend, ResultCache
    from repro.scenario import load_study, run_study

    cache = ResultCache(".lapses-cache")
    with ProcessPoolBackend(workers=4, cache=cache) as backend:
        outcome = run_study(load_study("campaign"), backend=backend)

Use the backend as a context manager (or call ``close()``) so the worker
processes are released when the batch work is done.
"""

from repro.exec.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    simulate_config,
)
from repro.exec.cache import ResultCache, config_cache_key

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ResultCache",
    "SerialBackend",
    "config_cache_key",
    "make_backend",
    "simulate_config",
]
