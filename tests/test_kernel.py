"""Tests for the simulation kernel and the cores' run loops.

The kernel hands the whole loop to its core: the object network steps
every cycle, the flat core runs it in C (``Core.run``), stepping only
the cycles its forecast reports work at.  ``Core.run`` must stop where
stepping every cycle with ``done()`` checked before each stops, leaving
the same state and the same result -- also when a closed-loop workload
drains inside a source poll, and when the run is split into laps.
"""

import json
import math
import warnings

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.engine.kernel import SimulationKernel
from repro.network.network import Network
from repro.network.topology import MeshTopology
from repro.routing.dimension_order import DimensionOrderRouting
from repro.selection.heuristics import StaticDimensionOrderSelector
from repro.stats.collector import StatsCollector


class RecordingCore:
    """Records the cycles of its deliver/evaluate calls; runs the object
    network's every-cycle loop over them."""

    run = Network.run

    def __init__(self):
        self.log = []

    def deliver(self, cycle):
        self.log.append((cycle, "deliver"))

    def evaluate(self, cycle):
        self.log.append((cycle, "evaluate"))

    def delivered_cycles(self):
        return [cycle for cycle, phase in self.log if phase == "deliver"]


def never():
    return False


def test_step_runs_deliver_before_evaluate_for_all_components():
    """One kernel step over the object network: every router and
    interface delivers before any of them evaluates."""
    topology = MeshTopology((2, 2))
    network = Network(
        topology=topology,
        config=SimulationConfig(mesh_dims=(2, 2), pipeline="proud"),
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


def test_unknown_mode_is_rejected():
    """There is one schedule: the kernel takes only a core and ``done``."""
    with pytest.raises(TypeError):
        SimulationKernel(RecordingCore(), never, mode="activity")


def test_one_hookless_component_disables_every_jump():
    """The object network's loop has no forecast: it runs every cycle."""
    core = RecordingCore()
    assert SimulationKernel(core, never).run(8) == 8
    assert core.delivered_cycles() == list(range(8))


def test_step_runs_every_component_whatever_it_forecasts():
    """``step`` runs both phases of the flat core even on a cycle its
    forecast reports idle."""
    simulator = NetworkSimulator(_OPEN)
    simulator.run()
    core = simulator.core
    kernel = simulator._kernel
    while core.next_event_cycle(kernel.clock.now) is not None:
        kernel.step()
    now = kernel.clock.now
    phases = []
    for phase in ("deliver", "evaluate"):
        original = getattr(core, phase)

        def recorded(cycle, original=original, phase=phase):
            phases.append((cycle, phase))
            original(cycle)

        setattr(core, phase, recorded)
    assert [kernel.step() for _ in range(2)] == [now, now + 1]
    assert phases == [
        (cycle, phase) for cycle in (now, now + 1) for phase in ("deliver", "evaluate")
    ]


# -- Core.run against stepping every cycle ------------------------------------

#: A near-idle open point: the run jumps most of its cycles.
_OPEN = SimulationConfig(
    mesh_dims=(4, 4), normalized_load=0.02, message_length=4,
    warmup_messages=10, measure_messages=80, seed=5,
)

#: A trace whose last step is a compute step at node 3: ``drained``
#: flips inside node 3's ``messages_due`` poll, five cycles after the
#: last transfer is delivered.
_TRACE = {
    "nodes": [
        {"kind": "transfer", "src": 0, "dst": 3, "flits": 4},
        {"kind": "transfer", "src": 5, "dst": 3, "flits": 2},
        {"kind": "compute", "node": 3, "delay": 5},
    ],
    "edges": [[0, 2], [1, 2]],
}


def _messages(messages):
    return [
        None if m is None else (m.source, m.destination, m.length, m.creation_cycle,
                                m.injection_cycle, m.ejection_cycle, m.hops)
        for m in messages
    ]


def _comparable_state(core):
    """``state()`` without the figures that legitimately differ between a
    run and single steps: the run's visit count, the raw ``decide`` calls
    (a later core finds the entries an earlier one on the shared routing
    filled), stale wake-heap entries (the forecast drops them, a step does
    not) and message identities."""
    state = core.state()
    del state["cycles_visited"]
    del state["decision_fills"]
    wakes = state["ni_wake"]
    state["ni_heap"] = sorted(
        (wake, node) for wake, node in state["ni_heap"] if wakes[node] == wake
    )
    state["slot_msg"] = _messages(state["slot_msg"])
    state["ni_queue"] = [_messages(queue) for queue in state["ni_queue"]]
    return state


def _stepped(config):
    """Step every cycle with ``done()`` checked before each; return the
    simulator, its result and the cycles whose forecast reported work."""
    simulator = NetworkSimulator(config)
    kernel = simulator._kernel
    core = simulator.core
    # An open loop hands the flat core done=None (its own count), which
    # the collector reads back.
    done = kernel._done or simulator.stats.all_measured_delivered
    forecast_busy = 0
    for _ in range(simulator.default_max_cycles()):
        if done():
            break
        now = kernel.clock.now
        forecast_busy += core.next_event_cycle(now) == now
        kernel.step()
    assert done(), "stepped run did not finish within its cycle budget"
    return simulator, simulator.run(max_cycles=0), forecast_busy


def _assert_same_run(ran, ran_result, stepped, stepped_result):
    assert ran_result.cycles == stepped_result.cycles
    assert ran._kernel.clock.now == stepped._kernel.clock.now
    assert _comparable_state(ran.core) == _comparable_state(stepped.core)
    assert ran_result.to_json() == stepped_result.to_json()


def test_core_run_matches_stepping_on_an_open_point():
    """The run lands on the stepped cycle, state and result, and visits
    exactly the cycles whose forecast reported work."""
    stepped, stepped_result, forecast_busy = _stepped(_OPEN)
    ran = NetworkSimulator(_OPEN)
    ran_result = ran.run()
    _assert_same_run(ran, ran_result, stepped, stepped_result)
    visited = ran.core.state()["cycles_visited"]
    assert visited == forecast_busy
    assert 0 < visited < ran_result.cycles


def test_core_run_stops_where_a_compute_step_drains_the_workload(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(_TRACE), encoding="utf-8")
    config = SimulationConfig(
        mesh_dims=(3, 3), workload="trace", workload_trace=str(path), seed=2,
    )
    stepped, stepped_result, _ = _stepped(config)
    ran = NetworkSimulator(config)
    ran_result = ran.run()
    _assert_same_run(ran, ran_result, stepped, stepped_result)
    drain = ran_result.drain
    assert drain["drained"]
    # The last transfer's delivery does not drain the workload; the
    # compute step's completion five cycles later does, and the run
    # stops on the cycle after it.
    assert ran_result.cycles == drain["time_to_drain"] + 1
    assert ran_result.summary.measured == 2


def test_core_run_resumes_where_each_lap_stopped():
    """perfbench's laps: ``run(1)``, ``run(7)``, ... up to the budget."""
    stepped, stepped_result, _ = _stepped(_OPEN)
    ran = NetworkSimulator(_OPEN)
    budget = ran.default_max_cycles()
    laps = [1, 7, 1, 0, 50, 3]
    with warnings.catch_warnings():
        # The summary of an unfinished lap warns that it measured nothing.
        warnings.simplefilter("ignore", RuntimeWarning)
        for lap in laps:
            result = ran.run(max_cycles=lap)
    assert result.cycles == sum(laps)
    while not ran.stats.all_measured_delivered() and result.cycles < budget:
        result = ran.run(max_cycles=min(97, budget - result.cycles))
    _assert_same_run(ran, result, stepped, stepped_result)


def test_an_idle_core_jumps_the_whole_budget():
    """A drained flat core visits no cycle: ``run`` burns the span in one
    jump and returns its end."""
    simulator = NetworkSimulator(_OPEN)
    simulator.run()
    core = simulator.core
    now = simulator._kernel.clock.now
    # Let trailing credits land and stale source wakes pass.
    while (upcoming := core.next_event_cycle(now)) is not None:
        now = core.run(now, upcoming + 1, never)
    visited = core.state()["cycles_visited"]
    assert core.run(now, now + 10**9, never) == now + 10**9
    assert core.state()["cycles_visited"] == visited
    assert math.isinf(max(core.state()["ni_wake"]))
