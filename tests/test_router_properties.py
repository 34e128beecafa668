"""Seeded randomized property tests for router invariants.

Rather than asserting exact numbers, these tests check the *laws* the
router must obey under any traffic -- and check them against both switch
schedules, so the batched busy path cannot satisfy them by construction
quirks the reference would not share:

* **flit conservation** -- every injected message is delivered exactly
  once (no loss, no duplication), and a drained network holds no flits;
* **credit conservation** -- after draining, every output virtual
  channel's credit count returns to the full buffer depth and no
  channel is left allocated;
* **forwarding accounting** -- the routers' crossbar counters equal the
  flit-hops actually traversed by the delivered messages;
* **arbiter fairness** -- a round-robin arbiter never starves a
  continuously requesting slot, and the sorted-request fast path used by
  the batched pass is decision-for-decision equal to the general grant;
* **in-order delivery** -- with deterministic routing and a single
  virtual channel per port there is one FIFO path per (source,
  destination, VC), so messages of a pair must eject in creation order.

Everything is driven by seeded ``random.Random`` instances, so failures
reproduce exactly.

The same laws are re-checked against the flat struct-of-arrays core
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

SWITCH_MODES = ("batched", "reference")
LINK_MODES = ("batched", "reference")
CORE_MODES = ("objects", "flat")


# -- randomized end-to-end runs ------------------------------------------------------


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
    """Run a simulation recording every delivered message object."""
    simulator = NetworkSimulator(config)
    delivered = []
    original = simulator.stats.record_delivered

    def spy(message, cycle):
        delivered.append(message)
        original(message, cycle)

    simulator.stats.record_delivered = spy
    result = simulator.run()
    return simulator, result, delivered


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("switch_mode", SWITCH_MODES)
@pytest.mark.parametrize("link_mode", LINK_MODES)
def test_flit_and_credit_conservation(seed, switch_mode, link_mode):
    config = _random_config(seed).variant(switch_mode=switch_mode, link_mode=link_mode)
    simulator, result, delivered = _run_with_delivery_log(config)

    # Every created message was delivered exactly once (loads are modest
    # and the cycle budget generous, so the run fully drains).
    stats = simulator.stats
    assert stats.delivered == stats.created, (
        f"flit loss: created {stats.created}, delivered {stats.delivered} "
        f"(seed {seed}, {switch_mode})"
    )
    seen_ids = [message.message_id for message in delivered]
    assert len(seen_ids) == len(set(seen_ids)), "duplicated delivery"
    assert result.summary.completion_ratio == 1.0

    # The drained network holds nothing: no buffered flits, no in-flight
    # mailbox entries, every input channel back to IDLE.
    network = simulator.network
    assert network.is_idle()

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
                    f"allocated after drain (seed {seed}, {switch_mode})"
                )
                total = vc.credits + in_flight[(port, vc.vc)]
                assert total == depth, (
                    f"router {router.node_id} port {port} VC {vc.vc} credits "
                    f"{vc.credits} + in-flight {in_flight[(port, vc.vc)]} != "
                    f"{depth} after drain (seed {seed}, {switch_mode})"
                )

    # Forwarding accounting: each flit of a message crosses the crossbar
    # of every router on its path (ejection included), so the summed
    # router counters equal the summed flit-hops of the delivered set.
    flit_hops = sum(message.length * message.hops for message in delivered)
    forwarded = sum(router.flits_forwarded for router in network.routers)
    assert forwarded == flit_hops


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_both_modes_agree_on_microarchitectural_totals(seed):
    """Beyond the result summary, the per-router crossbar counters of the
    two schedules must match router for router."""
    config = _random_config(seed)
    reference = NetworkSimulator(config.variant(switch_mode="reference"))
    batched = NetworkSimulator(config.variant(switch_mode="batched"))
    reference.run()
    batched.run()
    for ref_router, bat_router in zip(reference.network.routers, batched.network.routers):
        assert ref_router.flits_forwarded == bat_router.flits_forwarded
        assert ref_router.headers_routed == bat_router.headers_routed


@pytest.mark.parametrize("switch_mode", SWITCH_MODES)
def test_in_order_delivery_per_source_destination_vc(switch_mode):
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
        switch_mode=switch_mode,
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
                f"{previous.message_id} despite earlier creation ({switch_mode})"
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


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_grant_sorted_equals_grant(seed):
    """The sorted-request fast path used by the batched switch pass must
    make the identical decision -- and leave the identical priority
    pointer -- as the general grant, over long random request sequences."""
    rng = random.Random(seed)
    num = rng.choice([2, 4, 5, 8])
    general = RoundRobinArbiter(num)
    fast = RoundRobinArbiter(num)
    for _ in range(400):
        requests = sorted(
            slot for slot in range(num) if rng.random() < rng.choice([0.2, 0.5, 0.9])
        )
        assert general.grant(requests) == fast.grant_sorted(requests)
        assert repr(general) == repr(fast)  # pointer state stays in lockstep


def test_grant_sorted_empty_request_list():
    arbiter = RoundRobinArbiter(4)
    assert arbiter.grant_sorted([]) is None


def test_batched_priority_pointers_match_reference_arbiters():
    """After identical runs, the batched routers' flat priority arrays
    must equal the pointer positions of the reference routers' arbiter
    objects -- the two bookkeeping forms of one rotating priority."""
    config = _random_config(31)
    reference = NetworkSimulator(config.variant(switch_mode="reference"))
    batched = NetworkSimulator(config.variant(switch_mode="batched"))
    reference.run()
    batched.run()
    for ref_router, bat_router in zip(reference.network.routers, batched.network.routers):
        ref_inputs = [arb._next_priority for arb in ref_router._input_arbiters]
        ref_outputs = [arb._next_priority for arb in ref_router._output_arbiters]
        assert bat_router._input_priorities == ref_inputs
        assert bat_router._output_priorities == ref_outputs


# -- decision-memo invalidation ------------------------------------------------------


def test_reprogramming_a_table_drops_memoized_decisions():
    """The busy path memoizes routing decisions; tables are software
    programmable, so a post-construction ``reprogram`` must clear the
    shared memo in place (routers hold references to the same dict)."""
    from repro.network.topology import MeshTopology, port_for
    from repro.routing.duato import DuatoFullyAdaptiveRouting
    from repro.tables.economical import EconomicalStorageTable

    topology = MeshTopology((3, 3))
    table = EconomicalStorageTable(topology)
    routing = DuatoFullyAdaptiveRouting(topology, table)
    cache = routing.decision_cache()
    assert cache is routing.decision_cache()  # one shared dict

    node = topology.node_id((1, 1))
    destination = topology.node_id((2, 2))
    before = routing.decide(node, destination)
    cache[(node, destination)] = before
    east, north = port_for(0, True), port_for(1, True)
    assert set(before.adaptive_ports) == {east, north}

    # Deny the +X port for (+, +) at the center node, as a North-Last
    # style programming would.
    table.reprogram(node, (1, 1), (north,))
    assert cache == {}, "reprogramming must clear the decision memo"
    after = routing.decide(node, destination)
    assert set(after.adaptive_ports) == {north}


# -- membership-array integrity ------------------------------------------------------


@pytest.mark.parametrize("seed", [41, 42])
def test_membership_arrays_empty_after_drain(seed):
    """The incremental ROUTING/ACTIVE membership arrays must be exact:
    after a drained run they are empty, matching the all-IDLE channels."""
    config = _random_config(seed)
    simulator = NetworkSimulator(config)
    simulator.run()
    assert simulator.network.is_idle()
    for router in simulator.network.routers:
        assert router._routing_members == []
        assert router._active_members == []
        assert router._occupied_channels == 0


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
    assert core.is_idle()

    depth = config.buffer_depth
    radix = simulator.topology.radix
    vcs = config.vcs_per_port
    connected = core.state()["out_connected"]
    for node in range(config.num_nodes):
        in_flight = defaultdict(int)
        for port, vc in core.in_flight_credits(node):
            in_flight[(port, vc)] += 1
        for port in range(radix):
            if not connected[node * radix + port]:
                continue
            for vc in range(vcs):
                assert core.output_owner(node, port, vc) == -1, (
                    f"node {node} port {port} VC {vc} still allocated "
                    f"after drain (seed {seed}, flat core)"
                )
                total = core.output_credits(node, port, vc) + in_flight[(port, vc)]
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
    the batched object routers' per-router arrays -- one rotating
    round-robin priority in two bookkeeping forms, so the arbiters of the
    two cores stay fair in lockstep."""
    config = _random_config(31).variant(switch_mode="batched")
    objects = NetworkSimulator(config.variant(core_mode="objects"))
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    objects.run()
    flat.run()
    state = flat.core.state()
    radix = objects.topology.radix
    for node, router in enumerate(objects.network.routers):
        base = node * radix
        assert state["in_prio"][base:base + radix] == router._input_priorities
        assert state["out_prio"][base:base + radix] == router._output_priorities


@pytest.mark.parametrize("seed", [41, 42])
def test_flat_core_membership_lists_empty_after_drain(seed):
    """The flat core's per-node ROUTING/ACTIVE membership lists must be
    exact: after a drained run they are empty, matching all-IDLE state."""
    config = _random_config(seed).variant(core_mode="flat")
    simulator = NetworkSimulator(config)
    simulator.run()
    core = simulator.core
    assert core.is_idle()
    state = core.state()
    assert all(members == [] for members in state["routing_members"])
    assert all(members == [] for members in state["active_members"])


# -- link-transport wheel integrity --------------------------------------------------


def _assert_wheel_consistent(wheel):
    """Arrival-wheel integrity: length and truthiness agree with the
    entries actually stored across lanes and the ``far`` overflow."""
    stored = sum(len(lane) for lane in wheel.slots) + len(wheel.far)
    assert len(wheel) == stored
    assert bool(wheel) == (stored > 0)


@pytest.mark.parametrize("seed", [43, 44, 45])
def test_wheels_drained_and_consistent_after_run(seed):
    """Under ``link_mode="batched"`` a drained run leaves every flit
    wheel empty and every wheel's pending counter exact.  (Credit wheels
    may hold the final in-flight credit returns -- the kernel stops the
    instant the last message is delivered -- which the counters must
    cover; ``far`` stays empty because the wired path never uses it.)"""
    config = _random_config(seed).variant(link_mode="batched")
    simulator = NetworkSimulator(config)
    simulator.run()
    assert simulator.network.is_idle()
    for router in simulator.network.routers:
        _assert_wheel_consistent(router._flit_wheel)
        _assert_wheel_consistent(router._credit_wheel)
        assert len(router._flit_wheel) == 0
        assert router._flit_wheel.far == []
        assert router._credit_wheel.far == []
        assert len(router.in_flight_credits()) == len(router._credit_wheel)
    for interface in simulator.network.interfaces:
        _assert_wheel_consistent(interface._eject_mailbox)
        _assert_wheel_consistent(interface._credit_mailbox)
        assert len(interface._eject_mailbox) == 0


@pytest.mark.parametrize("seed", [46, 47])
def test_wheel_lanes_are_slot_exact(seed):
    """The wheel drain consumes the lane ``cycle % size`` without any
    arrival comparison, which is only correct if that lane holds exactly
    the flits due this cycle.  Log every wired flit push (by wrapping the
    receiver factory before construction -- batched components bind their
    receivers and drain at init/wiring time) and assert, at the top of
    every drain, that the lane length matches the logged arrivals for
    this cycle and that no logged arrival lies in the past."""
    from collections import defaultdict

    from repro.router.router import Router

    push_log = {}
    real_make = Router.make_flit_receiver
    real_drain = Router._deliver_batched_links
    drains = [0]

    def logging_make(self, port):
        receiver = real_make(self, port)
        log = push_log.setdefault(id(self), defaultdict(int))

        def wrapped(vc, flit, arrival_cycle):
            log[arrival_cycle] += 1
            receiver(vc, flit, arrival_cycle)

        return wrapped

    def checked_drain(self, cycle):
        log = push_log.get(id(self))
        if log is not None:
            drains[0] += 1
            wheel = self._flit_wheel
            lane = wheel.slots[cycle % wheel.size]
            expected = log.pop(cycle, 0)
            assert len(lane) == expected, (
                f"lane for cycle {cycle} holds {len(lane)} flits, "
                f"{expected} were pushed for it (seed {seed})"
            )
            assert all(arrival > cycle for arrival in log), (
                f"flits pushed for a past cycle were never drained "
                f"(cycle {cycle}, pending {sorted(log)}, seed {seed})"
            )
        return real_drain(self, cycle)

    config = _random_config(seed).variant(
        link_mode="batched", traffic="uniform", normalized_load=0.6, message_length=8
    )
    try:
        Router.make_flit_receiver = logging_make
        Router._deliver_batched_links = checked_drain
        simulator = NetworkSimulator(config)
        result = simulator.run()
    finally:
        Router.make_flit_receiver = real_make
        Router._deliver_batched_links = real_drain
    assert result.summary.delivered > 0
    assert drains[0] > 0
