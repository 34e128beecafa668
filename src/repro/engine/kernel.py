"""The per-cycle simulation driver.

The PROUD simulator is cycle driven: every cycle, each component performs
its work for that cycle in a fixed phase order.  :class:`SimulationKernel`
owns the global clock, the ordered list of clocked components and the stop
conditions, and exposes :meth:`SimulationKernel.run` to advance the whole
system.

The phase order matters.  Within a cycle the kernel first lets every
component *deliver* state produced in earlier cycles (flits arriving over
links, credits returning), then lets every component *evaluate* its
decisions for the current cycle (routing, virtual-channel allocation,
switch allocation), so no component can observe another component's
same-cycle decisions.  This mirrors the two-phase (read/compute) update of
hardware simulators and keeps the simulation independent of component
iteration order.

Fast-forward
------------
Every registered component runs both phases every cycle, with one
exception.  When *every* component has a ``next_event_cycle(cycle)``
hook and all of them report a cycle after the current one (or ``None``,
idle for good), the clock jumps straight to the earliest report, or to
the end of the budget.  In practice that is the flat core
(:mod:`repro.network.flatcore`), which registers alone and forecasts
from its own worklist and wake heap; the object network's routers and
interfaces have no hook, so the object core steps every cycle.

A jump is bit-identical to stepping through the skipped cycles as long
as two contracts hold:

* a hook never reports a cycle later than the component's earliest
  possible state change -- the flat core's forecast is checked against
  whole-network scans by ``tests/test_flat_schedule.py``; and
* stop conditions are monotone functions of simulation *progress* (for
  example "all measured messages delivered"), not of the raw cycle
  number, because they are only evaluated at the cycles the kernel
  visits.  Each one is checked at the visited cycle *before* any jump.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Protocol, runtime_checkable

from repro.engine.clock import Clock

__all__ = ["Clocked", "SimulationKernel", "StopCondition"]


#: A stop condition receives the current cycle and returns True to halt.
StopCondition = Callable[[int], bool]


@runtime_checkable
class Clocked(Protocol):
    """Protocol implemented by every component driven by the kernel.

    ``deliver`` consumes state that was produced in previous cycles and is
    scheduled to arrive now (e.g. flits finishing their link traversal).
    ``evaluate`` performs this cycle's decision making (e.g. arbitration)
    using only state visible after all components delivered.

    A component may also implement ``next_event_cycle(cycle)``: the
    earliest cycle (``>= cycle``) at which it could have work to do, or
    ``None`` when it never will.  The kernel only jumps when every
    component implements it (see the module docstring).
    """

    def deliver(self, cycle: int) -> None:  # pragma: no cover - protocol
        ...

    def evaluate(self, cycle: int) -> None:  # pragma: no cover - protocol
        ...


class SimulationKernel:
    """Drives a set of :class:`Clocked` components cycle by cycle.

    Parameters
    ----------
    clock:
        Global clock to use (a fresh one is created when omitted).
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock if clock is not None else Clock()
        self._components: List[Clocked] = []
        self._stop_conditions: List[StopCondition] = []

    @property
    def clock(self) -> Clock:
        """The global clock owned by this kernel."""
        return self._clock

    @property
    def components(self) -> List[Clocked]:
        """The registered components, in registration (phase) order."""
        return list(self._components)

    def register(self, component: Clocked) -> None:
        """Add a component to the per-cycle schedule."""
        self._components.append(component)

    def register_all(self, components: Iterable[Clocked]) -> None:
        """Add several components, preserving their iteration order."""
        for component in components:
            self.register(component)

    def add_stop_condition(self, condition: StopCondition) -> None:
        """Halt the run as soon as ``condition(cycle)`` returns True."""
        self._stop_conditions.append(condition)

    # -- execution ---------------------------------------------------------------

    def _run_cycle(self, cycle: int) -> None:
        """Run both phases of one cycle over every component."""
        for component in self._components:
            component.deliver(cycle)
        for component in self._components:
            component.evaluate(cycle)

    def step(self) -> int:
        """Execute exactly one cycle and return the cycle that was executed."""
        cycle = self._clock.now
        self._run_cycle(cycle)
        self._clock.tick()
        return cycle

    def _forecasts(self) -> Optional[List[Callable[[int], Optional[int]]]]:
        """Every component's ``next_event_cycle``, read from the instance,
        or None when a component lacks one (no jumps at all)."""
        forecasts = []
        for component in self._components:
            forecast = getattr(component, "next_event_cycle", None)
            if not callable(forecast):
                return None
            forecasts.append(forecast)
        return forecasts or None

    @staticmethod
    def _next_event(
        forecasts: List[Callable[[int], Optional[int]]], cycle: int
    ) -> Optional[int]:
        """The earliest forecast at or after ``cycle``; None when idle for good."""
        upcoming: Optional[int] = None
        for forecast in forecasts:
            when = forecast(cycle)
            if when is None:
                continue
            if when <= cycle:
                return cycle
            if upcoming is None or when < upcoming:
                upcoming = when
        return upcoming

    def run(self, max_cycles: int) -> int:
        """Run until a stop condition fires or ``max_cycles`` cycles elapse.

        Returns the number of cycles that elapsed in this call.  Cycles
        jumped over by a fast-forward count as elapsed, so the clock
        lands exactly where stepping every cycle would land it.
        """
        if max_cycles < 0:
            raise ValueError(f"max_cycles must be non-negative, got {max_cycles}")
        clock = self._clock
        forecasts = self._forecasts()
        start = clock.now
        end = start + max_cycles
        now = start
        while now < end:
            if self._should_stop(now):
                break
            if forecasts is not None:
                upcoming = self._next_event(forecasts, now)
                if upcoming != now:
                    target = end if upcoming is None else min(upcoming, end)
                    clock.tick(target - now)
                    now = target
                    continue
            self._run_cycle(now)
            clock.tick()
            now += 1
        return now - start

    def _should_stop(self, cycle: int) -> bool:
        for condition in self._stop_conditions:
            if condition(cycle):
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"SimulationKernel(cycle={self._clock.now}, "
            f"components={len(self._components)})"
        )
