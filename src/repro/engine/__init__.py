"""Cycle-driven simulation engine primitives.

The LAPSES study is carried out with a cycle-level network simulator
(called PROUD in the paper).  This subpackage provides the small, generic
pieces of such a simulator that are independent of routers and networks:

* :class:`~repro.engine.clock.Clock` -- the global cycle counter shared by
  every component of a simulation.
* :class:`~repro.engine.rng.SimulationRNG` -- a seeded random-number
  facility that hands out independent, reproducible streams to the
  different stochastic components (traffic pattern, injection process,
  arbitration tie-breaking).
* :class:`~repro.engine.kernel.SimulationKernel` -- the per-cycle driver
  that advances a collection of :class:`~repro.engine.kernel.Clocked`
  components in a fixed phase order and supports stop conditions.  It
  steps every component every cycle and jumps the clock over idle spans
  only when every component forecasts its next event (the flat core).
"""

from repro.engine.clock import Clock
from repro.engine.kernel import Clocked, SimulationKernel, StopCondition
from repro.engine.rng import SimulationRNG

__all__ = [
    "Clock",
    "Clocked",
    "SimulationKernel",
    "SimulationRNG",
    "StopCondition",
]
