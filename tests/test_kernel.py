"""Tests for the two-phase cycle-driven simulation kernel."""

import pytest

from repro.engine.clock import Clock
from repro.engine.kernel import SimulationKernel
from repro.network.network import Network
from repro.network.topology import MeshTopology
from repro.router.config import RouterConfig
from repro.routing.dimension_order import DimensionOrderRouting
from repro.selection.heuristics import StaticDimensionOrderSelector
from repro.stats.collector import StatsCollector


class RecordingCore:
    """Records the cycles of its deliver/evaluate calls."""

    def __init__(self):
        self.log = []

    def deliver(self, cycle):
        self.log.append((cycle, "deliver"))

    def evaluate(self, cycle):
        self.log.append((cycle, "evaluate"))

    def delivered_cycles(self):
        return [cycle for cycle, phase in self.log if phase == "deliver"]


class ForecastingCore(RecordingCore):
    """Core scripted with the cycles at which it has work.

    ``next_event_cycle`` reports the next scripted cycle at or after the
    asked one, or ``None`` once the script is exhausted.
    """

    def __init__(self, events):
        super().__init__()
        self.events = sorted(events)

    def next_event_cycle(self, cycle):
        later = [event for event in self.events if event >= cycle]
        return later[0] if later else None


def never():
    return False


def test_step_runs_deliver_before_evaluate_for_all_components():
    """One kernel step over the object network: every router and
    interface delivers before any of them evaluates."""
    topology = MeshTopology((2, 2))
    network = Network(
        topology=topology,
        router_config=RouterConfig(),
        routing=DimensionOrderRouting(topology),
        selector_factory=lambda node: StaticDimensionOrderSelector(),
        stats=StatsCollector(),
    )
    log = []
    for member in [*network.routers, *network.interfaces]:
        for phase in ("deliver", "evaluate"):
            original = getattr(member, phase)

            def recorded(cycle, original=original, phase=phase):
                log.append((cycle, phase))
                original(cycle)

            setattr(member, phase, recorded)
    kernel = SimulationKernel(network, never)
    assert kernel.step() == 0
    assert log == [(0, "deliver")] * 8 + [(0, "evaluate")] * 8


def test_step_advances_clock():
    kernel = SimulationKernel(RecordingCore(), never)
    kernel.step()
    kernel.step()
    assert kernel.clock.now == 2


def test_run_executes_requested_cycles():
    core = RecordingCore()
    kernel = SimulationKernel(core, never)
    executed = kernel.run(5)
    assert executed == 5
    assert kernel.clock.now == 5
    assert core.log == [(cycle, phase) for cycle in range(5) for phase in ("deliver", "evaluate")]


def test_run_honours_stop_condition():
    """``done`` takes no cycle: it reads the progress of the run."""
    core = RecordingCore()
    kernel = SimulationKernel(core, lambda: len(core.delivered_cycles()) >= 3)
    executed = kernel.run(100)
    assert executed == 3
    assert kernel.clock.now == 3


def test_run_rejects_negative_budget():
    with pytest.raises(ValueError):
        SimulationKernel(RecordingCore(), never).run(-1)


def test_run_with_zero_budget_does_nothing():
    core = RecordingCore()
    kernel = SimulationKernel(core, never)
    assert kernel.run(0) == 0
    assert kernel.clock.now == 0
    assert core.log == []


# -- the fast-forward rule --------------------------------------------------


def test_unknown_mode_is_rejected():
    """There is one schedule: the kernel takes only a core and ``done``."""
    with pytest.raises(TypeError):
        SimulationKernel(RecordingCore(), never, mode="activity")


def test_hooked_idle_components_jump_to_their_earliest_event():
    """A forecasting core runs exactly the cycles it has work at, and the
    clock lands where stepping every cycle would land it."""
    core = ForecastingCore(events=[0, 3, 7, 9])
    kernel = SimulationKernel(core, never)
    executed = kernel.run(12)
    assert executed == 12
    assert core.delivered_cycles() == [0, 3, 7, 9]

    stepped = SimulationKernel(ForecastingCore(events=[0, 3, 7, 9]), never)
    for _ in range(12):
        stepped.step()
    assert kernel.clock.now == stepped.clock.now == 12


def test_one_hookless_component_disables_every_jump():
    """A core without ``next_event_cycle`` (the object network) runs
    every cycle."""
    core = RecordingCore()
    assert SimulationKernel(core, never).run(8) == 8
    assert core.delivered_cycles() == list(range(8))


def test_all_none_forecasts_burn_the_budget_in_one_tick(monkeypatch):
    """A core idle for good: nothing runs, and the whole budget elapses
    in one clock tick."""
    ticks = []
    tick = Clock.tick

    def counting_tick(clock, cycles=1):
        ticks.append(cycles)
        return tick(clock, cycles)

    monkeypatch.setattr(Clock, "tick", counting_tick)
    core = ForecastingCore(events=[])
    kernel = SimulationKernel(core, never)
    assert kernel.run(1000) == 1000
    assert kernel.clock.now == 1000
    assert core.log == []
    assert ticks == [1000]


def test_stop_conditions_are_checked_before_a_jump():
    """``done`` is checked at the visited cycle before the kernel jumps
    from it, so the run ends where the every-cycle schedule ends it."""
    core = ForecastingCore(events=[0, 2, 4, 9])
    kernel = SimulationKernel(core, lambda: len(core.delivered_cycles()) == 3)
    executed = kernel.run(100)
    # Cycle 4 ran the third event; ``done`` holds at cycle 5, the first
    # cycle visited after it, not at the jump target 9.
    assert core.delivered_cycles() == [0, 2, 4]
    assert executed == 5
    assert kernel.clock.now == 5


def test_step_runs_every_component_whatever_it_forecasts():
    core = ForecastingCore(events=[2])
    kernel = SimulationKernel(core, never)
    assert [kernel.step() for _ in range(3)] == [0, 1, 2]
    assert core.delivered_cycles() == [0, 1, 2]


def test_forecasts_are_read_from_the_instance():
    """A forecast replaced on the instance (as a tracer wraps it) is the
    one the kernel asks."""
    core = ForecastingCore(events=[0, 4])
    asked = []
    original = core.next_event_cycle

    def traced(cycle):
        asked.append(cycle)
        return original(cycle)

    core.next_event_cycle = traced
    kernel = SimulationKernel(core, never)
    kernel.run(6)
    assert core.delivered_cycles() == [0, 4]
    assert asked == [0, 1, 4, 5]
