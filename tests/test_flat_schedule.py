"""Properties of the flat core's sparse schedule, checked after every cycle.

The flat core evaluates only the routers on its busy-router worklist and
the interfaces its wake heap reports due, derives ``next_event_cycle``
from those two structures, and moves flits as ints naming a per-message
slot.  These tests step small random simulations one kernel cycle at a
time and check, between cycles:

* the worklist ``core._busy`` is exactly the ascending list of nodes
  holding ROUTING/ACTIVE channels;
* every finite interface wake has a heap entry, or sits on the
  ascending next-pass list when it is due the next cycle;
* ``next_event_cycle`` equals a whole-network scan (the implementation
  the worklist and heap replaced, kept here as the reference);
* the live message slots are exactly the slots some buffered, queued or
  in-flight flit names;
* messages are conserved: created = delivered + live slots + queued.

A run that corrupts a slot must fail at the end of ``run()`` with an
error naming the configuration.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator


def _full_scan_next_event(core, cycle):
    """``next_event_cycle`` as a scan over every node, interface and wheel
    lane, independent of the worklist and the wake heap."""
    upcoming = None
    per_node = core._channels_per_node
    for node, active in enumerate(core._active_members):
        base = node * per_node
        for local in active:
            g = base + local
            if core._in_buf[g] and core._out_credits[core._in_out_g[g]] > 0:
                return cycle
        members = core._routing_members[node]
        if members:
            released = core._released[node]
            for local in members:
                ready = core._in_ready[base + local]
                if ready >= cycle:
                    if upcoming is None or ready < upcoming:
                        upcoming = ready
                elif released:
                    return cycle
    wake = min(core._ni_wake)
    if wake <= cycle:
        return cycle
    if wake != math.inf and (upcoming is None or wake < upcoming):
        upcoming = int(wake)
    size = core._wheel_size
    for lanes in (
        core._flit_lanes,
        core._credit_lanes,
        core._eject_lanes,
        core._ni_credit_lanes,
    ):
        for offset in range(size):
            if lanes[(cycle + offset) % size]:
                arrival = cycle + offset
                if arrival <= cycle:
                    return cycle
                if upcoming is None or arrival < upcoming:
                    upcoming = arrival
                break
    return upcoming


def _check_schedule(core, cycle):
    members = core._routing_members
    active = core._active_members
    assert core._busy == [
        node for node in range(core._num_nodes) if members[node] or active[node]
    ]
    # Every finite interface wake is on the heap, or on the next-pass
    # list when it is this cycle.
    entries = set(core._ni_heap)
    for node, wake in enumerate(core._ni_wake):
        if wake != math.inf:
            assert (wake, node) in entries or (
                wake == cycle and node in core._ni_soon
            ), (node, wake, cycle)
    assert core._ni_soon == sorted(set(core._ni_soon))
    assert core.next_event_cycle(cycle) == _full_scan_next_event(core, cycle)

    referenced = {flit >> 2 for buffer in core._in_buf for flit in buffer}
    referenced.update(
        slot for slot, left in zip(core._ni_slot, core._ni_left) if left
    )
    for lanes in (core._flit_lanes, core._eject_lanes):
        referenced.update(
            entry >> core._chan_bits >> 2 for lane in lanes for entry in lane
        )
    live = {slot for slot, message in enumerate(core._slot_msg) if message is not None}
    assert live == referenced
    assert not live & set(core._slot_free)
    assert core.message_conservation_error() is None


def _step_and_check(simulator):
    kernel = simulator._kernel
    core = simulator.core
    stop = (
        (lambda: simulator.workload.drained)
        if simulator.workload is not None
        else simulator.stats.all_measured_delivered
    )
    for _ in range(simulator.default_max_cycles()):
        if stop():
            break
        kernel.step()
        _check_schedule(core, kernel.clock.now)
    assert stop(), "run did not finish within its cycle budget"


@st.composite
def small_configs(draw):
    torus = draw(st.booleans())
    extent = st.integers(3, 4) if torus else st.integers(2, 4)
    dims = (draw(extent), draw(extent))
    routing = draw(st.sampled_from(["duato", "dimension-order"]))
    escape = 2 if torus else 1
    if routing == "duato":
        vcs = draw(st.integers(escape + 1, 4))
    else:
        vcs = draw(st.integers(2 if torus else 1, 3))
    return SimulationConfig(
        mesh_dims=dims,
        torus=torus,
        routing=routing,
        num_escape_vcs=escape,
        vcs_per_port=vcs,
        buffer_depth=draw(st.sampled_from([2, 4])),
        selector=draw(st.sampled_from(["static-xy", "random"])),
        pipeline=draw(st.sampled_from(["proud", "la-proud"])),
        # Mesh tornado sends nothing below extent 4; on tori it loads the
        # wraparound links.
        traffic=draw(st.sampled_from(["uniform", "tornado"] if torus else ["uniform"])),
        message_length=draw(st.sampled_from([1, 3, 6])),
        normalized_load=draw(st.sampled_from([0.05, 0.3, 0.7])),
        warmup_messages=5,
        measure_messages=40,
        seed=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=25, deadline=None)
@given(config=small_configs())
def test_worklist_heap_and_slots_match_a_full_scan_every_cycle(config):
    _step_and_check(NetworkSimulator(config))


def test_closed_loop_workload_keeps_the_schedule_exact():
    config = SimulationConfig(
        mesh_dims=(4, 4), workload="request-reply", workload_iters=3,
        workload_window=2, seed=7,
    )
    _step_and_check(NetworkSimulator(config))


def test_a_lost_message_slot_fails_the_run_naming_the_config():
    config = SimulationConfig(
        mesh_dims=(4, 4), normalized_load=0.3, message_length=4,
        warmup_messages=0, measure_messages=200, seed=3,
    )
    simulator = NetworkSimulator(config)
    simulator.run(max_cycles=60)
    core = simulator.core
    live = [slot for slot, message in enumerate(core._slot_msg) if message is not None]
    assert live, "the corruption needs a message in flight"
    core._slot_msg[live[0]] = None
    with pytest.raises(RuntimeError, match="message conservation") as error:
        simulator.run(max_cycles=0)
    assert repr(config) in str(error.value)
