"""Tests for the two-phase cycle-driven simulation kernel."""

import pytest

from repro.engine.clock import Clock
from repro.engine.kernel import SimulationKernel


class RecordingComponent:
    """Records the order and cycles of its deliver/evaluate calls."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def deliver(self, cycle):
        self.log.append((cycle, self.name, "deliver"))

    def evaluate(self, cycle):
        self.log.append((cycle, self.name, "evaluate"))


def test_step_runs_deliver_before_evaluate_for_all_components():
    log = []
    kernel = SimulationKernel()
    kernel.register_all([RecordingComponent("a", log), RecordingComponent("b", log)])
    kernel.step()
    assert log == [
        (0, "a", "deliver"),
        (0, "b", "deliver"),
        (0, "a", "evaluate"),
        (0, "b", "evaluate"),
    ]


def test_step_advances_clock():
    kernel = SimulationKernel()
    kernel.step()
    kernel.step()
    assert kernel.clock.now == 2


def test_run_executes_requested_cycles():
    log = []
    kernel = SimulationKernel()
    kernel.register(RecordingComponent("a", log))
    executed = kernel.run(5)
    assert executed == 5
    assert kernel.clock.now == 5
    assert len(log) == 10  # deliver + evaluate per cycle


def test_run_honours_stop_condition():
    kernel = SimulationKernel()
    kernel.add_stop_condition(lambda cycle: cycle >= 3)
    executed = kernel.run(100)
    assert executed == 3
    assert kernel.clock.now == 3


def test_run_rejects_negative_budget():
    with pytest.raises(ValueError):
        SimulationKernel().run(-1)


def test_run_with_zero_budget_does_nothing():
    kernel = SimulationKernel()
    assert kernel.run(0) == 0
    assert kernel.clock.now == 0


def test_external_clock_is_used():
    clock = Clock(start=10)
    kernel = SimulationKernel(clock=clock)
    kernel.step()
    assert clock.now == 11


def test_components_property_preserves_registration_order():
    kernel = SimulationKernel()
    first = RecordingComponent("a", [])
    second = RecordingComponent("b", [])
    kernel.register(first)
    kernel.register(second)
    assert kernel.components == [first, second]


# -- the fast-forward rule --------------------------------------------------


class ForecastingComponent(RecordingComponent):
    """Component scripted with the cycles at which it has work.

    ``next_event_cycle`` reports the next scripted cycle at or after the
    asked one, or ``None`` once the script is exhausted.
    """

    def __init__(self, name, log, events):
        super().__init__(name, log)
        self.events = sorted(events)

    def next_event_cycle(self, cycle):
        later = [event for event in self.events if event >= cycle]
        return later[0] if later else None


def _delivered_cycles(log, name=None):
    return [
        entry[0]
        for entry in log
        if entry[2] == "deliver" and (name is None or entry[1] == name)
    ]


def test_unknown_mode_is_rejected():
    """There is one schedule: the kernel takes only a clock."""
    with pytest.raises(TypeError):
        SimulationKernel(mode="activity")


def test_hooked_idle_components_jump_to_their_earliest_event():
    """With every component forecasting, the kernel runs exactly the
    cycles some component has work at, and the clock lands where
    stepping every cycle would land it."""
    log = []
    kernel = SimulationKernel()
    kernel.register_all(
        [
            ForecastingComponent("a", log, events=[0, 7]),
            ForecastingComponent("b", log, events=[3, 7, 9]),
        ]
    )
    executed = kernel.run(12)
    assert executed == 12
    assert _delivered_cycles(log, "a") == [0, 3, 7, 9]
    assert _delivered_cycles(log, "a") == _delivered_cycles(log, "b")

    stepped = SimulationKernel()
    stepped.register(ForecastingComponent("a", [], events=[0, 7]))
    for _ in range(12):
        stepped.step()
    assert kernel.clock.now == stepped.clock.now == 12


def test_one_hookless_component_disables_every_jump():
    """A single component without ``next_event_cycle`` keeps every
    component on the every-cycle schedule."""
    log = []
    kernel = SimulationKernel()
    kernel.register_all(
        [
            ForecastingComponent("hooked", log, events=[5]),
            RecordingComponent("plain", log),
        ]
    )
    assert kernel.run(8) == 8
    assert _delivered_cycles(log, "hooked") == list(range(8))
    assert _delivered_cycles(log, "plain") == list(range(8))


def test_all_none_forecasts_burn_the_budget_in_one_tick():
    """Components idle for good: nothing runs, and the whole budget
    elapses in one clock tick."""
    log = []
    ticks = []

    class CountingClock(Clock):
        __slots__ = ()

        def tick(self, cycles=1):
            ticks.append(cycles)
            return super().tick(cycles)

    kernel = SimulationKernel(clock=CountingClock())
    kernel.register_all(
        [
            ForecastingComponent("a", log, events=[]),
            ForecastingComponent("b", log, events=[]),
        ]
    )
    assert kernel.run(1000) == 1000
    assert kernel.clock.now == 1000
    assert log == []
    assert ticks == [1000]


def test_stop_conditions_are_checked_before_a_jump():
    """A stop condition is checked at the visited cycle before the
    kernel jumps from it, so the run ends where the every-cycle schedule
    ends it."""
    log = []
    kernel = SimulationKernel()
    kernel.register(ForecastingComponent("s", log, events=[0, 2, 4, 9]))
    kernel.add_stop_condition(lambda cycle: len(_delivered_cycles(log)) == 3)
    executed = kernel.run(100)
    # Cycle 4 ran the third event; the condition fires at cycle 5, the
    # first cycle visited after it, not at the jump target 9.
    assert _delivered_cycles(log) == [0, 2, 4]
    assert executed == 5
    assert kernel.clock.now == 5


def test_step_runs_every_component_whatever_it_forecasts():
    log = []
    kernel = SimulationKernel()
    kernel.register(ForecastingComponent("s", log, events=[2]))
    assert [kernel.step() for _ in range(3)] == [0, 1, 2]
    assert _delivered_cycles(log) == [0, 1, 2]


def test_forecasts_are_read_from_the_instance():
    """A forecast replaced on the instance (as a tracer wraps it) is the
    one the kernel asks."""
    log = []
    component = ForecastingComponent("s", log, events=[0, 4])
    asked = []
    original = component.next_event_cycle

    def traced(cycle):
        asked.append(cycle)
        return original(cycle)

    component.next_event_cycle = traced
    kernel = SimulationKernel()
    kernel.register(component)
    kernel.run(6)
    assert _delivered_cycles(log) == [0, 4]
    assert asked == [0, 1, 4, 5]
