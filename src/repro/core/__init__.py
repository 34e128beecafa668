"""Public API: configuration, results and the simulator facade.

Typical use::

    from repro.core import SimulationConfig, NetworkSimulator

    config = SimulationConfig.small(traffic="transpose", normalized_load=0.3)
    result = NetworkSimulator(config).run()
    print(result.summary.avg_total_latency)

The paper's experiments, sweeps and campaign are declarative studies
(:mod:`repro.scenario.builtin`) run through :func:`repro.scenario.run_study`.
"""

from repro.core.config import PaperDefaults, SimulationConfig
from repro.core.results import SimulationResult, format_rows
from repro.core.simulator import NetworkSimulator

__all__ = [
    "NetworkSimulator",
    "PaperDefaults",
    "SimulationConfig",
    "SimulationResult",
    "format_rows",
]
