"""Properties of the flat core's sparse schedule, checked after every cycle.

The flat core evaluates only the routers on its busy-router worklist and
the interfaces its wake heap reports due, derives ``next_event_cycle``
from those two structures, and moves flits as ints naming a per-message
slot.  That state lives in the C core; these tests read it through
``core.state()`` while stepping small random simulations one kernel
cycle at a time, and check, between cycles:

* the worklist ``busy`` is exactly the ascending list of nodes
  holding ROUTING/ACTIVE channels;
* every finite interface wake has a heap entry, or sits on the
  ascending next-pass list when it is due the next cycle;
* ``next_event_cycle`` equals a whole-network scan (the implementation
  the worklist and heap replaced, kept here as the reference);
* each source's cached due cycle ``src_due`` is never later than its
  ``next_due_cycle`` forecast, so no interface sleeps through a message;
* the live message slots are exactly the slots some buffered, queued or
  in-flight flit names;
* a header on a link that carries a look-ahead decision carries the one
  for the router the link leads to;
* messages are conserved: created = delivered + live slots + queued.

A run that corrupts a slot must fail at the end of ``run()`` with an
error naming the configuration, and a header blocked behind a tail
that releases its output VC must be retried the next cycle even when
nothing else is due then.  A source is asked for messages only from
the cycle its forecast names.
"""

from __future__ import annotations

import dataclasses
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.traffic.generator import TrafficGenerator
from repro.workload.engine import WorkloadEngine


def _full_scan_next_event(state, cycle):
    """``next_event_cycle`` as a scan over every node, interface and wheel
    lane, independent of the worklist and the wake heap."""
    upcoming = None
    per_node = state["radix"] * state["vcs"]
    in_buf = state["in_buf"]
    out_credits = state["out_credits"]
    in_out_g = state["in_out_g"]
    for node, active in enumerate(state["active_members"]):
        base = node * per_node
        for local in active:
            g = base + local
            if in_buf[g] and out_credits[in_out_g[g]] > 0:
                return cycle
        members = state["routing_members"][node]
        if members:
            released = state["released"][node]
            for local in members:
                ready = state["in_ready"][base + local]
                if ready >= cycle:
                    if upcoming is None or ready < upcoming:
                        upcoming = ready
                elif released:
                    return cycle
    wake = min(state["ni_wake"])
    if wake <= cycle:
        return cycle
    if wake != math.inf and (upcoming is None or wake < upcoming):
        upcoming = int(wake)
    size = state["wheel_size"]
    for lanes in (
        state["flit_lanes"],
        state["credit_lanes"],
        state["eject_lanes"],
        state["ni_credit_lanes"],
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


def _built_with_sources(config):
    """A simulator and the traffic sources its core was handed."""
    sources = []

    def capture(make):
        def made(self):
            sources.extend(make(self))
            return list(sources)

        return made

    with mock.patch.object(TrafficGenerator, "sources", capture(TrafficGenerator.sources)), \
            mock.patch.object(WorkloadEngine, "sources", capture(WorkloadEngine.sources)):
        simulator = NetworkSimulator(config)
    return simulator, sources


def _check_schedule(core, cycle, sources=()):
    state = core.state()
    members = state["routing_members"]
    active = state["active_members"]
    assert state["busy"] == [
        node for node in range(state["num_nodes"]) if members[node] or active[node]
    ]
    # Every finite interface wake is on the heap, or on the next-pass
    # list when it is this cycle.
    entries = set(state["ni_heap"])
    soon = state["ni_soon"]
    for node, wake in enumerate(state["ni_wake"]):
        if wake != math.inf:
            assert (wake, node) in entries or (
                wake == cycle and node in soon
            ), (node, wake, cycle)
    assert soon == sorted(set(soon))
    assert core.next_event_cycle(cycle) == _full_scan_next_event(state, cycle)
    # The due cache may be early, never late.
    for node, source in enumerate(sources):
        due = source.next_due_cycle()
        if due is not None:
            assert state["src_due"][node] <= due, (node, state["src_due"][node], due)

    # Flits are ints ``slot << 2 | head << 1 | tail``; flit and eject
    # lanes hold ``(flit, channel)`` pairs.
    referenced = {flit >> 2 for buffer in state["in_buf"] for flit in buffer}
    referenced.update(
        slot for slot, left in zip(state["ni_slot"], state["ni_left"]) if left
    )
    for lanes in (state["flit_lanes"], state["eject_lanes"]):
        referenced.update(flit >> 2 for lane in lanes for flit, _ in lane)
    live = {
        slot for slot, message in enumerate(state["slot_msg"]) if message is not None
    }
    assert live == referenced
    per_node = state["radix"] * state["vcs"]
    for lane in state["flit_lanes"]:
        for flit, channel in lane:
            if flit & 2:
                assert state["slot_la_node"][flit >> 2] in (-1, channel // per_node)
    assert not live & set(state["slot_free"])
    assert core.message_conservation_error() is None


def _step_and_check(config):
    simulator, sources = _built_with_sources(config)
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
        _check_schedule(core, kernel.clock.now, sources)
    assert stop(), "run did not finish within its cycle budget"


@st.composite
def small_configs(draw):
    torus = draw(st.booleans())
    extent = st.integers(3, 4) if torus else st.integers(2, 4)
    dims = (draw(extent), draw(extent))
    routing = draw(st.sampled_from(["duato", "dimension-order"]))
    if routing == "duato":
        vcs = draw(st.integers(3 if torus else 2, 4))
    else:
        vcs = draw(st.integers(2 if torus else 1, 3))
    return SimulationConfig(
        mesh_dims=dims,
        topology="torus" if torus else "mesh",
        routing=routing,
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
    _step_and_check(config)


def test_closed_loop_workload_keeps_the_schedule_exact():
    config = SimulationConfig(
        mesh_dims=(4, 4), workload="request-reply", workload_iters=3,
        workload_window=2, seed=7,
    )
    _step_and_check(config)


def test_sources_are_asked_for_messages_only_when_one_is_due():
    """Each source's ``messages_due`` runs only at cycles at or after its
    forecast -- or once, at a stale cached cycle, after the network-wide
    budget is spent -- so the calls number about the arrivals, not the
    cycles an interface spends injecting; results equal the object
    core's."""
    config = SimulationConfig(
        mesh_dims=(4, 4), normalized_load=0.1, message_length=8,
        warmup_messages=20, measure_messages=200, seed=11,
    )
    simulator, sources = _built_with_sources(config)
    calls = []

    def spy(source):
        poll = source.messages_due

        def messages_due(cycle):
            due = source.next_due_cycle()
            made = poll(cycle)
            calls.append((source.node, cycle, due, len(made)))
            return made

        source.messages_due = messages_due

    for source in sources:
        spy(source)
    result = simulator.run()
    reference = NetworkSimulator(config.variant(core_mode="objects")).run()
    assert result.to_json() == dataclasses.replace(reference, config=config).to_json()

    created = simulator.stats.created
    assert created == config.total_messages
    stale = [call for call in calls if call[2] is None]
    assert all(due <= cycle for _, cycle, due, _ in calls if due is not None)
    assert all(made for _, _, due, made in calls if due is not None)
    assert all(not made for *_, made in stale)
    assert len({node for node, *_ in stale}) == len(stale)
    # Every call that is not a stale visit creates at least one message.
    assert len(calls) <= created + len(stale) <= created + len(sources)


def test_a_lost_message_slot_fails_the_run_naming_the_config():
    config = SimulationConfig(
        mesh_dims=(4, 4), normalized_load=0.3, message_length=4,
        warmup_messages=0, measure_messages=200, seed=3,
    )
    simulator = NetworkSimulator(config)
    simulator.run(max_cycles=60)
    core = simulator.core
    slots = core.state()["slot_msg"]
    live = [slot for slot, message in enumerate(slots) if message is not None]
    assert live, "the corruption needs a message in flight"
    core.clear_message_slot(live[0])
    assert core.state()["slot_msg"][live[0]] is None
    with pytest.raises(RuntimeError, match="message conservation") as error:
        simulator.run(max_cycles=0)
    assert repr(config) in str(error.value)


def test_a_released_output_vc_alone_wakes_the_blocked_header(tmp_path):
    """Two single-flit transfers into node 2 meet at router 1, which has
    one VC per port: 0 -> 2 on the west input and 1 -> 2 on the local
    input, delayed by a compute step so both headers become ready the
    same cycle.  The local port wins the VC and its tail leaves that
    cycle; the west header's failed allocation can only succeed because
    that tail released the VC, and no arrival or interface wake is due
    the next cycle.  So the router's ``released`` flag alone must keep
    the core awake, and the header is allocated on the cycle the object
    core allocates it."""
    trace = {
        "nodes": [
            {"kind": "transfer", "src": 0, "dst": 2, "flits": 1},
            {"kind": "compute", "node": 1, "delay": 4},
            {"kind": "transfer", "src": 1, "dst": 2, "flits": 1},
        ],
        "edges": [[1, 2]],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace), encoding="utf-8")
    config = SimulationConfig(
        mesh_dims=(3, 2), routing="dimension-order", vcs_per_port=1,
        credit_delay=2, workload="trace", workload_trace=str(path), seed=1,
    )

    def allocation_cycles(simulator, routed, on_cycle=lambda cycle: None):
        kernel = simulator._kernel
        cycles = []
        for _ in range(simulator.default_max_cycles()):
            if simulator.workload.drained:
                break
            cycle = kernel.clock.now
            before = routed()
            kernel.run(1)
            cycles.extend([cycle] * (routed() - before))
            on_cycle(cycle)
        assert simulator.workload.drained
        return cycles

    reference = NetworkSimulator(config.variant(core_mode="objects"))
    router = reference.network.routers[1]
    expected = allocation_cycles(reference, lambda: router.headers_routed)
    assert len(expected) == 2 and expected[1] == expected[0] + 1, expected

    flat = NetworkSimulator(config)
    core = flat.core
    checked = []

    def check_the_wake(cycle):
        if cycle != expected[0]:
            return
        state = core.state()
        assert state["released"][1] and state["routing_members"][1]
        assert core.next_event_cycle(cycle + 1) == cycle + 1
        # Nothing but the flag is due next cycle.
        state["released"] = [False] * len(state["released"])
        assert _full_scan_next_event(state, cycle + 1) > cycle + 1
        checked.append(cycle)

    assert allocation_cycles(flat, lambda: core.headers_routed[1], check_the_wake) == expected
    assert checked == [expected[0]]
