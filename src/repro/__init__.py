"""LAPSES reproduction: Look-Ahead, Path Selection and Economical Storage
adaptive router design (Vaidya, Sivasubramaniam & Das, HPCA 1999).

The package implements the paper's cycle-level wormhole network simulator
(PROUD / LA-PROUD pipelined routers with virtual channels and credit-based
flow control), Duato's fully adaptive routing, the proposed path-selection
heuristics (LRU, LFU, MAX-CREDIT) and the three routing-table storage
organisations (full table, meta-table, economical storage), plus the
experiment harness that regenerates every table and figure of the paper's
evaluation.

Quick start::

    from repro import NetworkSimulator, SimulationConfig

    config = SimulationConfig.small(traffic="transpose", normalized_load=0.3,
                                    selector="max-credit")
    result = NetworkSimulator(config).run()
    print(f"average latency: {result.latency:.1f} cycles")

Batches of runs are described declaratively (see :mod:`repro.scenario`)::

    from repro import Study, load_study, run_study

    outcome = run_study(load_study("figure5"))
    print(outcome.to_markdown())

and new components plug in through :mod:`repro.registry` without touching
repro internals.
"""

from repro.core.config import PaperDefaults, SimulationConfig
from repro.core.results import SimulationResult, format_rows
from repro.core.simulator import NetworkSimulator
from repro.scenario import Scenario, Study, StudyResult, load_study, run_study

__version__ = "1.1.0"

__all__ = [
    "NetworkSimulator",
    "PaperDefaults",
    "Scenario",
    "SimulationConfig",
    "SimulationResult",
    "Study",
    "StudyResult",
    "format_rows",
    "load_study",
    "run_study",
    "__version__",
]
