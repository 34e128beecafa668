"""The cycle-level simulation driver.

The PROUD simulator is cycle driven: every cycle, the network performs
its work for that cycle in a fixed phase order.  :class:`SimulationKernel`
owns the clock, drives exactly one network core -- the flat C core
(:class:`~repro.network.flatcore.FlatNetworkCore`) or the object
:class:`~repro.network.network.Network` -- and stops it when a progress
predicate says the run is done.

The phase order matters.  Within a cycle the core first *delivers*
state produced in earlier cycles (flits arriving over links, credits
returning), then *evaluates* its decisions for the current cycle
(routing, virtual-channel allocation, switch allocation), so no router
or interface can observe another's same-cycle decisions.  This mirrors
the two-phase (read/compute) update of hardware simulators; each core
visits its routers and then its interfaces in node order within a
phase.

The loop itself belongs to the core: ``core.run(start, end, done)``
runs the cycles from ``start`` and returns the cycle it stopped at --
``end``, or the cycle after the one in which the run came to be done.
The object network steps every cycle and asks ``done()`` before each.
The flat core runs the loop in C: it steps only the cycles its
``next_event_cycle`` forecast reports work at and jumps the idle spans
in between.  It checks the stop on entry and then only after a cycle in
which a traffic source's ``messages_due`` ran or a message was
delivered.  Both stop at the same cycle because of the ``done``
contract:

* ``done`` takes no cycle and is a monotone function of simulation
  *progress*: the workload's ``drained`` flag on a closed loop, "every
  measured message delivered" on an open loop; and
* it may change only with a delivery or inside a ``messages_due`` call
  (a workload compute step completing in its source's poll).

On an open loop the flat core is handed ``done=None``: it keeps the
measured-message count itself, with every delivery's statistics, and
stops once that count reaches the collector's ``measure_messages`` --
no Python call.  The object network is handed the collector's
``all_measured_delivered``, which reads the same count off the
collector's Python accumulators.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.clock import Clock

__all__ = ["SimulationKernel"]


class SimulationKernel:
    """Drives one network core and owns its clock.

    Parameters
    ----------
    core:
        The network core: anything with ``deliver(cycle)`` and
        ``evaluate(cycle)`` (one cycle's phases, for :meth:`step`) and
        ``run(start, end, done)`` (the loop, for :meth:`run`).
    done:
        Zero-argument progress predicate; :meth:`run` stops as soon as
        it holds (see the module docstring for its contract).  None
        hands the open-loop stop to the flat core's own count.
    """

    def __init__(self, core: object, done: Optional[Callable[[], bool]]) -> None:
        self._core = core
        self._done = done
        self._clock = Clock()

    @property
    def clock(self) -> Clock:
        """The clock owned by this kernel."""
        return self._clock

    def step(self) -> int:
        """Execute exactly one cycle and return the cycle that was executed."""
        cycle = self._clock.now
        self._core.deliver(cycle)
        self._core.evaluate(cycle)
        self._clock.tick()
        return cycle

    def run(self, max_cycles: int) -> int:
        """Run until ``done()`` holds or ``max_cycles`` cycles elapse.

        Returns the number of cycles that elapsed in this call.  Cycles
        the flat core jumps over count as elapsed, so the clock lands
        exactly where stepping every cycle would land it, and the next
        call resumes there.
        """
        if max_cycles < 0:
            raise ValueError(f"max_cycles must be non-negative, got {max_cycles}")
        start = self._clock.now
        elapsed = self._core.run(start, start + max_cycles, self._done) - start
        if elapsed:
            self._clock.tick(elapsed)
        return elapsed

    def __repr__(self) -> str:
        return f"SimulationKernel(cycle={self._clock.now}, core={type(self._core).__name__})"
