"""Bit-identical equivalence across the schedule cube.

The simulator has two independent two-implementations-one-semantics
axes: the kernel schedule (``exhaustive``/``activity``) and the core
(``core_mode``: the per-component object network versus the flat C
core).  Every run of a seeded randomized configuration must produce a
field-for-field identical :class:`~repro.core.results.SimulationResult`
under all four (kernel, core) combinations, with the
(exhaustive, objects) corner as the executable specification.

The flat core lowers the *whole network* -- every router and interface
-- into global flat arrays walked once per cycle, so its combinations
exercise a completely independent implementation of VC allocation,
switch arbitration, link transport and injection against the same
semantics: same arrival cycles, same FIFO order per link, same wake
cycles reported to the activity kernel.  Everything is driven by seeded
``random.Random`` instances, so failures reproduce exactly.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator

KERNEL_MODES = ("exhaustive", "activity")
CORE_MODES = ("objects", "flat")

#: All four schedule combinations; the first entry is the specification
#: corner every other combination is compared against.
SCHEDULE_CUBE = tuple(itertools.product(KERNEL_MODES, CORE_MODES))
assert SCHEDULE_CUBE[0] == ("exhaustive", "objects")


def _random_config(seed: int) -> SimulationConfig:
    """A small, drainable configuration drawn from a seeded RNG.

    Mirrors the ``test_router_properties`` scaffolding but additionally
    varies the link-transport knobs: link and credit delays (arrival
    spacing), message length down to single-flit messages (head == tail)
    and loads up to contention.
    """
    rng = random.Random(seed * 7919)
    mesh_dims = rng.choice([(3, 3), (4, 4), (2, 5), (4, 2)])
    square = mesh_dims[0] == mesh_dims[1]
    traffic = rng.choice(
        ["uniform", "transpose", "tornado"] if square else ["uniform", "tornado"]
    )
    return SimulationConfig(
        mesh_dims=mesh_dims,
        vcs_per_port=rng.choice([1, 2, 4]),
        buffer_depth=rng.choice([2, 3, 5]),
        routing=rng.choice(["duato", "dimension-order", "west-first"]),
        traffic=traffic,
        message_length=rng.choice([1, 4, 8]),
        normalized_load=rng.choice([0.15, 0.3, 0.6]),
        injection=rng.choice(["exponential", "bernoulli"]),
        pipeline=rng.choice(["proud", "la-proud"]),
        link_delay=rng.choice([1, 2]),
        credit_delay=rng.choice([1, 2]),
        warmup_messages=20,
        measure_messages=120,
        seed=seed,
    )


def _run(config: SimulationConfig, kernel: str, core: str = "objects"):
    return NetworkSimulator(config.variant(core_mode=core), kernel_mode=kernel).run()


def _assert_equivalent(actual, reference, combo) -> None:
    """Field-for-field equality of everything the simulation computed.

    The configs deliberately differ in ``core_mode`` only, so the
    comparison covers the computed fields plus the core-normalised
    config.
    """
    expected = reference.summary.as_dict()
    got = actual.summary.as_dict()
    assert set(got) == set(expected), combo
    for field, value in expected.items():
        assert got[field] == value, (
            f"LatencySummary.{field} diverged under {combo}: "
            f"{got[field]!r} != {value!r}"
        )
    assert actual.cycles == reference.cycles, combo
    assert actual.zero_load_latency == reference.zero_load_latency, combo
    assert actual.effective_message_rate == reference.effective_message_rate, combo
    assert actual.drain == reference.drain, combo
    assert (
        actual.config.variant(core_mode="objects")
        == reference.config.variant(core_mode="objects")
    ), combo


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_full_schedule_cube_is_bit_identical(seed):
    """Every (kernel, core) combination reproduces the (exhaustive,
    objects) specification corner bit for bit on a randomized
    configuration."""
    config = _random_config(seed)
    baseline = _run(config, *SCHEDULE_CUBE[0])
    for combo in SCHEDULE_CUBE[1:]:
        _assert_equivalent(_run(config, *combo), baseline, combo)


#: Contention-heavy variants: few VCs, shallow buffers and long messages
#: force credit stalls and busy links -- the regime where an ordering bug
#: in the flat core's arrival wheels diverges.
CONTENTION_GRID = [
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.9},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.6,
     "traffic": "transpose"},
    {"vcs_per_port": 2, "buffer_depth": 5, "message_length": 4, "normalized_load": 0.9,
     "injection": "bernoulli"},
]


@pytest.mark.parametrize("kernel_mode", KERNEL_MODES)
@pytest.mark.parametrize(
    "overrides",
    CONTENTION_GRID,
    ids=[
        f"vcs{o['vcs_per_port']}-buf{o['buffer_depth']}-len{o['message_length']}"
        f"-load{o['normalized_load']}"
        for o in CONTENTION_GRID
    ],
)
def test_link_axis_under_contention(overrides, kernel_mode):
    """Link transport under contention: the flat core's arrival wheels
    must deliver exactly what the object core's per-port mailboxes do."""
    config = SimulationConfig.tiny(seed=1).variant(
        measure_messages=150, warmup_messages=20, **overrides
    )
    reference = _run(config, kernel_mode, "objects")
    flat = _run(config, kernel_mode, "flat")
    _assert_equivalent(flat, reference, (kernel_mode, "flat"))


def test_single_flit_messages_cross_the_cube():
    """Head==tail flits exercise every transport transition in one entry:
    the whole cube must agree on a single-flit workload."""
    config = SimulationConfig.tiny(
        message_length=1, normalized_load=0.5, seed=11
    )
    baseline = _run(config, *SCHEDULE_CUBE[0])
    for combo in SCHEDULE_CUBE[1:]:
        _assert_equivalent(_run(config, *combo), baseline, combo)


def test_multi_cycle_link_and_credit_delays():
    """Delays above one cycle stagger arrivals across cycles: the whole
    cube must still agree."""
    config = SimulationConfig.tiny(
        link_delay=2, credit_delay=3, normalized_load=0.4, seed=13
    )
    baseline = _run(config, *SCHEDULE_CUBE[0])
    for combo in SCHEDULE_CUBE[1:]:
        _assert_equivalent(_run(config, *combo), baseline, combo)


def test_core_mode_recorded_in_result_config():
    config = SimulationConfig.tiny(normalized_load=0.1, seed=5)
    objects = _run(config, "activity", "objects")
    flat = _run(config, "activity", "flat")
    assert objects.config.core_mode == "objects"
    assert flat.config.core_mode == "flat"


def test_link_axis_identical_json_across_kernels():
    """The object core's link transport (per-port mailboxes) must give
    the same full result JSON -- config included -- across the kernel
    axis."""
    config = SimulationConfig.tiny(normalized_load=0.6, seed=17)
    activity = _run(config, "activity", "objects")
    exhaustive = _run(config, "exhaustive", "objects")
    assert activity.to_json() == exhaustive.to_json()


def test_core_axis_identical_json_across_kernels():
    """For the flat core the full result JSON -- config included -- must
    match across the kernel axis."""
    config = SimulationConfig.tiny(normalized_load=0.6, seed=17)
    activity = _run(config, "activity", "flat")
    exhaustive = _run(config, "exhaustive", "flat")
    assert activity.to_json() == exhaustive.to_json()


#: The workload axis: closed-loop workloads.  One small instance per
#: built-in generator family plus the trace replayer; each must cross
#: the whole four-combination cube bit for bit, drain metrics
#: included (the flat core fires the same delivery callbacks as the
#: object interfaces).
def _workload_overrides():
    from repro.workload import example_trace_path

    return {
        "request-reply": {"workload": "request-reply", "workload_iters": 3},
        "allreduce": {"workload": "allreduce", "workload_iters": 2,
                      "workload_hidden": 32},
        "alltoall": {"workload": "alltoall", "workload_iters": 2},
        "llm-decode": {"workload": "llm-decode", "workload_layers": 2,
                       "workload_hidden": 32, "workload_group": 4},
        "trace": {"workload": "trace",
                  "workload_trace": str(example_trace_path())},
    }


@pytest.mark.parametrize("workload", sorted(_workload_overrides()))
def test_workload_axis_crosses_the_cube(workload):
    """Every closed-loop generator reproduces the specification corner
    bit for bit -- summary, cycles and drain block -- under all four
    (kernel, core) combinations."""
    config = SimulationConfig(
        mesh_dims=(3, 3), message_length=4, seed=3,
        **_workload_overrides()[workload],
    )
    baseline = _run(config, *SCHEDULE_CUBE[0])
    assert baseline.drain is not None and baseline.drain["drained"], workload
    for combo in SCHEDULE_CUBE[1:]:
        _assert_equivalent(_run(config, *combo), baseline, combo)


#: The topology axis: wrapping points crossing the full cube.  The
#: saturation-load uniform and tornado runs on the 4x4x4 torus are the
#: acceptance workloads for the dateline escape discipline -- wrap-link
#: pressure in every dimension, in both cores, under both kernels.
TORUS_POINTS = {
    "torus2d-tornado-duato": dict(
        mesh_dims=(4, 4), torus=True, routing="duato", num_escape_vcs=2,
        traffic="tornado", normalized_load=0.9,
    ),
    "torus2d-uniform-dor": dict(
        mesh_dims=(4, 4), torus=True, routing="dimension-order",
        vcs_per_port=2, traffic="uniform", normalized_load=0.6,
    ),
    "torus3d-uniform": dict(
        mesh_dims=(4, 4, 4), topology="torus3d", routing="duato",
        num_escape_vcs=2, traffic="uniform", normalized_load=1.0,
        link_delays=(1, 1, 2),
    ),
    "torus3d-tornado": dict(
        mesh_dims=(4, 4, 4), topology="torus3d", routing="duato",
        num_escape_vcs=2, traffic="tornado", normalized_load=1.0,
    ),
}


@pytest.mark.parametrize("point", sorted(TORUS_POINTS))
def test_torus_axis_crosses_the_cube(point):
    """Every wrapping-topology point reproduces the specification corner
    bit for bit under all four (kernel, core) combinations -- the
    dateline discipline is mirrored exactly."""
    config = SimulationConfig(
        message_length=4, warmup_messages=20, measure_messages=120, seed=9,
        **TORUS_POINTS[point],
    )
    baseline = _run(config, *SCHEDULE_CUBE[0])
    # Full measured completion is the no-deadlock witness: the run stops
    # the cycle the last measured message ejects, so warmup stragglers
    # may legitimately still be in flight.
    assert baseline.summary.measured == config.measure_messages, point
    assert baseline.summary.completion_ratio == 1.0, point
    for combo in SCHEDULE_CUBE[1:]:
        _assert_equivalent(_run(config, *combo), baseline, combo)


def test_config_rejects_unknown_core_mode():
    with pytest.raises(ValueError, match="core"):
        SimulationConfig.tiny(core_mode="holographic")


# The link-schedule selector is gone: the object core's per-port
# mailboxes are the only reference, so neither configuration record
# accepts the field.
def test_config_rejects_unknown_link_mode():
    with pytest.raises(TypeError, match="link_mode"):
        SimulationConfig.tiny(link_mode="reference")


def test_router_config_rejects_unknown_link_mode():
    from repro.router.config import RouterConfig

    with pytest.raises(TypeError, match="link_mode"):
        RouterConfig(link_mode="reference")
