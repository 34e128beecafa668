"""Cycle-driven simulation engine primitives.

The LAPSES study is carried out with a cycle-level network simulator
(called PROUD in the paper).  This subpackage provides the small, generic
pieces of such a simulator that are independent of routers and networks:

* :class:`~repro.engine.clock.Clock` -- the forward-only cycle counter
  a kernel owns.
* :class:`~repro.engine.rng.SimulationRNG` -- a seeded random-number
  facility that hands out independent, reproducible streams to the
  different stochastic components (traffic pattern, injection process,
  arbitration tie-breaking).
* :class:`~repro.engine.kernel.SimulationKernel` -- the driver of one
  network core: it hands the core's own run loop the cycle budget and a
  progress predicate, and advances its clock to where the loop stopped
  (the flat core's C loop jumps the idle spans it forecasts).
"""

from repro.engine.clock import Clock
from repro.engine.kernel import SimulationKernel
from repro.engine.rng import SimulationRNG

__all__ = [
    "Clock",
    "SimulationKernel",
    "SimulationRNG",
]
