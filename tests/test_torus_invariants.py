"""Runtime invariants of the dateline discipline and flow control on tori.

These step live torus simulations cycle by cycle and sweep the flat
core's state arrays (read through ``core.state()``) between cycles:

* dateline classes -- an escape virtual channel of dimension ``d`` only
  ever buffers a header whose pre-traversal dateline mask selects that
  channel's class (class 0 before the dimension's dateline, class 1
  after it);
* credit conservation -- for every router-to-router channel, downstream
  occupancy, in-flight flits, in-flight credits and the upstream credit
  counter always sum to exactly the buffer depth;
* drain -- when the run completes, every created message was delivered,
  every buffer is empty and every credit is home.
"""

from collections import Counter

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.network.topology import port_direction

TORI = {
    "torus2d-tornado": dict(
        mesh_dims=(4, 4), topology="torus", routing="duato", traffic="tornado",
        normalized_load=0.9,
    ),
    "torus3d-uniform": dict(
        mesh_dims=(3, 3, 3), topology="torus", routing="duato", traffic="uniform",
        normalized_load=0.8,
    ),
}


def _build(point):
    # warmup_messages=0 makes every message measured, so the kernel's
    # stop condition doubles as a full-delivery check.
    config = SimulationConfig(
        message_length=4, warmup_messages=0, measure_messages=60, seed=11,
        **TORI[point],
    )
    return NetworkSimulator(config)


def _sweep_dateline_classes(sim):
    """No header sits on the wrong dateline class of an escape channel."""
    state = sim.core.state()
    topology = sim.topology
    radix = topology.radix
    vcs = state["vcs"]
    for node in range(topology.num_nodes):
        for port in range(1, radix):
            dimension = port_direction(port)[0]
            class0, class1 = state["escape_pools"][port]
            # The link just traversed to reach this input port: its
            # dateline bit (if any) was set in flight, so subtract it to
            # recover the mask the header carried at allocation time.
            upstream = topology.neighbor(node, port)
            crossed = topology.dateline_bits(
                upstream, topology.reverse_port(port)
            )
            for vc in sorted(set(class0) | set(class1)):
                g = (node * radix + port) * vcs + vc
                for flit in state["in_buf"][g]:
                    # Flits are ints ``slot << 2 | head << 1 | tail``;
                    # the header's dateline mask lives in its slot.
                    if not flit & 2:
                        continue
                    before = state["slot_mask"][flit >> 2] & ~crossed
                    if (before >> dimension) & 1:
                        assert vc in class1, (node, port, vc, flit)
                    else:
                        assert vc in class0, (node, port, vc, flit)


def _sweep_credit_conservation(sim):
    """Every buffer slot is accounted for: held, in flight, or credited."""
    state = sim.core.state()
    depth = sim.config.buffer_depth
    flits_to = Counter()
    for lane in state["flit_lanes"]:
        for _flit, destination in lane:
            # Flit lane entries are ``(flit, destination channel)`` pairs.
            flits_to[destination] += 1
    credits_to = Counter(entry for lane in state["credit_lanes"] for entry in lane)
    for go, g_down in enumerate(state["go_flit_dest"]):
        if g_down < 0:
            # Ejection channels settle through the interface lanes.
            continue
        total = (
            state["out_credits"][go]
            + len(state["in_buf"][g_down])
            + flits_to[g_down]
            + credits_to[go]
        )
        assert total == depth, (go, g_down, total)


@pytest.mark.parametrize("point", sorted(TORI))
def test_dateline_class_and_credit_invariants_hold_every_cycle(point):
    sim = _build(point)
    kernel = sim._kernel
    core = sim.core
    for _ in range(sim.default_max_cycles()):
        kernel.step()
        _sweep_dateline_classes(sim)
        _sweep_credit_conservation(sim)
        if sim.stats.all_measured_delivered():
            break
    assert sim.stats.all_measured_delivered(), "torus run did not drain"
    # Let trailing credits and ejections land, then every resource must
    # be back home: conservation end to end.
    for _ in range(4 * core.state()["wheel_size"]):
        kernel.step()
        _sweep_credit_conservation(sim)
    summary = sim.stats.summary(kernel.clock.now)
    assert summary.created == summary.delivered == sim.config.total_messages
    state = core.state()
    flits, _, ejections, _ = state["pending"]
    assert flits == ejections == 0
    assert not any(state["in_state"]) and not any(state["ni_left"])
    assert all(owner == -1 for owner in state["out_owner"])
    assert all(credits == sim.config.buffer_depth for credits in state["out_credits"])
    assert all(not buffer for buffer in state["in_buf"])
