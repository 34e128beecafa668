"""Seeded randomized property tests for router invariants.

Rather than asserting exact numbers, these tests check the *laws* the
router must obey under any traffic:

* **flit conservation** -- every injected message is delivered exactly
  once (no loss, no duplication), and a drained network holds no flits;
* **credit conservation** -- after draining, every output virtual
  channel's credit count returns to the full buffer depth and no
  channel is left allocated;
* **forwarding accounting** -- the routers' crossbar counters equal the
  flit-hops actually traversed by the delivered messages;
* **arbiter fairness** -- a round-robin arbiter never starves a
  continuously requesting slot;
* **in-order delivery** -- with deterministic routing and a single
  virtual channel per port there is one FIFO path per (source,
  destination, VC), so messages of a pair must eject in creation order.

Everything is driven by seeded ``random.Random`` instances, so failures
reproduce exactly.

The same laws are re-checked against the flat C core
(``core_mode="flat"``), which re-implements the whole network's hot path
over global arrays: conservation, drained-state emptiness, forwarding
accounting and priority-pointer parity with the object core.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.router.arbiter import RoundRobinArbiter
from repro.router.channels import VCState

CORES = ("objects", "flat")


# -- randomized end-to-end runs ------------------------------------------------------


def _object_network_drained(network) -> bool:
    """No flit buffered, queued or in flight anywhere in the object
    network, and every router input channel IDLE."""
    components = [*network.routers, *network.interfaces]
    radix = network.topology.radix
    return (
        not any(True for component in components for _ in component.held_flits())
        and all(interface.queue_length == 0 for interface in network.interfaces)
        and all(
            router.input_channel(port, vc).state is VCState.IDLE
            for router in network.routers
            for port in range(radix)
            for vc in range(router.config.vcs_per_port)
        )
    )


def _flat_core_drained(state: dict) -> bool:
    """The same fact read from the flat core's ``state()``: no buffered,
    queued or injecting flit, none on a flit or eject lane, and every
    input channel IDLE (state 0)."""
    flits, _, ejections, _ = state["pending"]
    return (
        flits == ejections == 0
        and not any(state["in_buf"])
        and not any(state["in_state"])
        and not any(state["ni_left"])
        and not any(state["ni_queue"])
    )


def _random_config(seed: int) -> SimulationConfig:
    """A small, drainable configuration drawn from a seeded RNG."""
    rng = random.Random(seed)
    mesh_dims = rng.choice([(3, 3), (4, 4), (2, 5), (4, 2)])
    vcs = rng.choice([2, 3, 4])
    routing = rng.choice(["duato", "dimension-order", "west-first"])
    square = mesh_dims[0] == mesh_dims[1]
    traffic = rng.choice(
        ["uniform", "transpose", "tornado"] if square else ["uniform", "tornado"]
    )
    return SimulationConfig(
        mesh_dims=mesh_dims,
        vcs_per_port=vcs,
        buffer_depth=rng.choice([2, 3, 5]),
        routing=routing,
        traffic=traffic,
        message_length=rng.choice([1, 4, 8]),
        normalized_load=rng.choice([0.1, 0.25, 0.4]),
        injection=rng.choice(["exponential", "bernoulli"]),
        pipeline=rng.choice(["proud", "la-proud"]),
        warmup_messages=20,
        measure_messages=120,
        seed=seed,
        # These properties introspect the object components (router
        # counters, VC state); the flat-core legs opt in explicitly.
        core_mode="objects",
    )


def _run_with_delivery_log(config: SimulationConfig):
    """Run a simulation recording every delivered message object (a
    delivery callback: both cores run them on every delivery)."""
    simulator = NetworkSimulator(config)
    delivered = []
    simulator.stats.add_delivery_callback(lambda message, cycle: delivered.append(message))
    result = simulator.run()
    return simulator, result, delivered


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 41, 42])
def test_flit_and_credit_conservation(seed):
    config = _random_config(seed)
    simulator, result, delivered = _run_with_delivery_log(config)

    # Every created message was delivered exactly once (loads are modest
    # and the cycle budget generous, so the run fully drains).
    stats = simulator.stats
    assert stats.delivered == stats.created, (
        f"flit loss: created {stats.created}, delivered {stats.delivered} "
        f"(seed {seed})"
    )
    seen_ids = [message.message_id for message in delivered]
    assert len(seen_ids) == len(set(seen_ids)), "duplicated delivery"
    assert result.summary.completion_ratio == 1.0

    # The drained network holds nothing: no buffered flits, no in-flight
    # mailbox entries, every input channel back to IDLE.
    network = simulator.network
    assert _object_network_drained(network)

    # Credit conservation: every output VC of every router is free again,
    # and its credit count plus the credits still in flight toward it
    # (the kernel stops the instant the last message is delivered, which
    # can strand the final credit returns in a mailbox) equals the full
    # buffer depth -- credits are never created or destroyed.
    depth = config.buffer_depth
    for router in network.routers:
        in_flight = defaultdict(int)
        for port, vc in router.in_flight_credits():
            in_flight[(port, vc)] += 1
        for port in range(simulator.topology.radix):
            output = router.output_port(port)
            if not output.connected:
                continue
            for vc in output.vcs:
                assert vc.owner is None, (
                    f"router {router.node_id} port {port} VC {vc.vc} still "
                    f"allocated after drain (seed {seed})"
                )
                total = vc.credits + in_flight[(port, vc.vc)]
                assert total == depth, (
                    f"router {router.node_id} port {port} VC {vc.vc} credits "
                    f"{vc.credits} + in-flight {in_flight[(port, vc.vc)]} != "
                    f"{depth} after drain (seed {seed})"
                )

    # Forwarding accounting: each flit of a message crosses the crossbar
    # of every router on its path (ejection included), so the summed
    # router counters equal the summed flit-hops of the delivered set.
    flit_hops = sum(message.length * message.hops for message in delivered)
    forwarded = sum(router.flits_forwarded for router in network.routers)
    assert forwarded == flit_hops


@pytest.mark.parametrize("core_mode", CORES)
def test_in_order_delivery_per_source_destination_vc(core_mode):
    """Deterministic routing + one VC per port = one FIFO lane per
    (source, destination, VC) triple: ejection order must equal creation
    order within every pair."""
    config = SimulationConfig(
        mesh_dims=(4, 4),
        vcs_per_port=1,
        routing="dimension-order",
        traffic="uniform",
        normalized_load=0.3,
        message_length=4,
        warmup_messages=30,
        measure_messages=250,
        seed=23,
        core_mode=core_mode,
    )
    simulator, result, delivered = _run_with_delivery_log(config)
    assert simulator.stats.delivered == simulator.stats.created

    last_seen = {}
    for message in delivered:
        pair = (message.source, message.destination)
        previous = last_seen.get(pair)
        if previous is not None:
            assert previous.creation_cycle <= message.creation_cycle
            assert previous.message_id < message.message_id, (
                f"pair {pair} delivered message {message.message_id} after "
                f"{previous.message_id} despite earlier creation ({core_mode})"
            )
        last_seen[pair] = message


# -- arbiter properties --------------------------------------------------------------


def test_round_robin_never_starves_a_persistent_requester():
    """A slot that requests in every arbitration round is granted at
    least once every ``num_requesters`` grants, whatever the competing
    request pattern does."""
    rng = random.Random(99)
    num = 5
    arbiter = RoundRobinArbiter(num)
    persistent = 2
    grants_since_persistent = 0
    for _ in range(500):
        others = [slot for slot in range(num) if slot != persistent and rng.random() < 0.8]
        requests = sorted(others + [persistent])
        winner = arbiter.grant(requests)
        assert winner in requests
        if winner == persistent:
            grants_since_persistent = 0
        else:
            grants_since_persistent += 1
            assert grants_since_persistent < num, (
                "round-robin starved a continuously requesting slot"
            )


# -- flat-core properties ------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_flat_core_flit_and_credit_conservation(seed):
    """The conservation laws hold verbatim on the flat struct-of-arrays
    core: nothing lost or duplicated, the drained arrays all idle, and
    every output VC's credits (plus the in-flight returns stranded when
    the kernel stops) back at the full buffer depth."""
    config = _random_config(seed).variant(core_mode="flat")
    simulator, result, delivered = _run_with_delivery_log(config)

    stats = simulator.stats
    assert stats.delivered == stats.created, (
        f"flit loss: created {stats.created}, delivered {stats.delivered} "
        f"(seed {seed}, flat core)"
    )
    seen_ids = [message.message_id for message in delivered]
    assert len(seen_ids) == len(set(seen_ids)), "duplicated delivery"
    assert result.summary.completion_ratio == 1.0

    core = simulator.core
    assert core is not None
    assert _flat_core_drained(core.state())

    depth = config.buffer_depth
    radix = simulator.topology.radix
    vcs = config.vcs_per_port
    state = core.state()
    connected = state["out_connected"]
    # Credits in flight, per destination output channel.
    in_flight = defaultdict(int)
    for lane in state["credit_lanes"]:
        for channel in lane:
            in_flight[channel] += 1
    for node in range(config.num_nodes):
        for port in range(radix):
            if not connected[node * radix + port]:
                continue
            for vc in range(vcs):
                channel = (node * radix + port) * vcs + vc
                assert state["out_owner"][channel] == -1, (
                    f"node {node} port {port} VC {vc} still allocated "
                    f"after drain (seed {seed}, flat core)"
                )
                total = state["out_credits"][channel] + in_flight[channel]
                assert total == depth, (
                    f"node {node} port {port} VC {vc} credits do not "
                    f"conserve: {total} != {depth} (seed {seed}, flat core)"
                )

    flit_hops = sum(message.length * message.hops for message in delivered)
    assert sum(core.flits_forwarded) == flit_hops


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_flat_core_counters_match_object_core(seed):
    """The flat core's per-node crossbar/header counters equal the object
    routers' counters node for node -- not just in aggregate."""
    config = _random_config(seed)
    objects = NetworkSimulator(config.variant(core_mode="objects"))
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    objects.run()
    flat.run()
    core = flat.core
    for node, router in enumerate(objects.network.routers):
        assert core.flits_forwarded[node] == router.flits_forwarded
        assert core.headers_routed[node] == router.headers_routed


def test_flat_core_priority_pointers_match_object_core():
    """After identical runs the flat core's global priority arrays equal
    the pointers of the object routers' arbiters -- one rotating
    round-robin priority in two bookkeeping forms, so the arbiters of the
    two cores stay fair in lockstep."""
    config = _random_config(31)
    objects = NetworkSimulator(config.variant(core_mode="objects"))
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    objects.run()
    flat.run()
    state = flat.core.state()
    radix = objects.topology.radix
    for node, router in enumerate(objects.network.routers):
        base = node * radix
        assert state["in_prio"][base:base + radix] == [
            arbiter._next_priority for arbiter in router._input_arbiters
        ]
        assert state["out_prio"][base:base + radix] == [
            arbiter._next_priority for arbiter in router._output_arbiters
        ]


@pytest.mark.parametrize("seed", [41, 42])
def test_flat_core_membership_lists_empty_after_drain(seed):
    """The flat core's per-node ROUTING/ACTIVE membership lists must be
    exact: after a drained run they are empty, matching all-IDLE state."""
    config = _random_config(seed).variant(core_mode="flat")
    simulator = NetworkSimulator(config)
    simulator.run()
    state = simulator.core.state()
    assert _flat_core_drained(state)
    assert all(members == [] for members in state["routing_members"])
    assert all(members == [] for members in state["active_members"])
