"""The per-cycle simulation driver.

The PROUD simulator is cycle driven: every cycle, the network performs
its work for that cycle in a fixed phase order.  :class:`SimulationKernel`
owns the clock, drives exactly one network core -- the flat C core
(:class:`~repro.network.flatcore.FlatNetworkCore`) or the object
:class:`~repro.network.network.Network` -- and stops it when a progress
predicate says the run is done.

The phase order matters.  Within a cycle the kernel first lets the core
*deliver* state produced in earlier cycles (flits arriving over links,
credits returning), then lets it *evaluate* its decisions for the
current cycle (routing, virtual-channel allocation, switch allocation),
so no router or interface can observe another's same-cycle decisions.
This mirrors the two-phase (read/compute) update of hardware simulators;
each core visits its routers and then its interfaces in node order
within a phase.

Fast-forward
------------
The kernel runs both phases every cycle, with one exception.  When the
core has a ``next_event_cycle(cycle)`` forecast (the flat core does, the
object network does not) and it reports a cycle after the current one
(or ``None``, idle for good), the clock jumps straight to that cycle, or
to the end of the budget.  The forecast is read from the core instance
at each :meth:`SimulationKernel.run`, so a tracer may wrap it.

A jump is bit-identical to stepping through the skipped cycles as long
as two contracts hold:

* the forecast never reports a cycle later than the core's earliest
  possible state change -- the flat core's forecast is checked against
  whole-network scans by ``tests/test_flat_schedule.py``; and
* the ``done`` predicate is a monotone function of simulation
  *progress* (for example "all measured messages delivered"); it takes
  no cycle, because it is only evaluated at the cycles the kernel
  visits.  It is checked at the visited cycle *before* any jump.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.clock import Clock

__all__ = ["SimulationKernel"]


class SimulationKernel:
    """Drives one network core cycle by cycle.

    Parameters
    ----------
    core:
        The network core: anything with ``deliver(cycle)`` and
        ``evaluate(cycle)``, and optionally ``next_event_cycle(cycle)``
        (the earliest cycle ``>= cycle`` it could have work at, or
        ``None`` when it never will).
    done:
        Zero-argument progress predicate; :meth:`run` stops as soon as
        it returns True.
    """

    def __init__(self, core: object, done: Callable[[], bool]) -> None:
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
        jumped over by a fast-forward count as elapsed, so the clock
        lands exactly where stepping every cycle would land it.
        """
        if max_cycles < 0:
            raise ValueError(f"max_cycles must be non-negative, got {max_cycles}")
        core = self._core
        deliver = core.deliver
        evaluate = core.evaluate
        forecast = getattr(core, "next_event_cycle", None)
        done = self._done
        clock = self._clock
        start = clock.now
        end = start + max_cycles
        now = start
        while now < end:
            if done():
                break
            if forecast is not None:
                upcoming = forecast(now)
                if upcoming is None or upcoming > now:
                    target = end if upcoming is None else min(upcoming, end)
                    clock.tick(target - now)
                    now = target
                    continue
            deliver(now)
            evaluate(now)
            clock.tick()
            now += 1
        return now - start

    def __repr__(self) -> str:
        return f"SimulationKernel(cycle={self._clock.now}, core={type(self._core).__name__})"
