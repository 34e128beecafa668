"""Bit-identical equivalence of the object core and the flat C core.

The simulator has one two-implementations-one-semantics axis: the core
(``core_mode``: the per-component object network versus the flat C
core).  Every run of a seeded configuration must produce a
field-for-field identical :class:`~repro.core.results.SimulationResult`
under both, with the object core -- stepped every cycle by the kernel
-- as the executable specification.

The flat core lowers the *whole network* -- every router and interface
-- into global flat arrays walked once per cycle, and lets the kernel
jump over the idle spans it forecasts, so it exercises a completely
independent implementation of VC allocation, switch arbitration, link
transport, injection and idle skipping against the same semantics:
same arrival cycles, same FIFO order per link, same RNG draws, same
final cycle.  Everything is driven by seeded ``random.Random``
instances, so failures reproduce exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator

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


def _run(config: SimulationConfig, core: str):
    return NetworkSimulator(config.variant(core_mode=core)).run()


def _assert_equivalent(actual, reference) -> None:
    """Field-for-field equality of everything the simulation computed.

    The configs deliberately differ in ``core_mode`` only, so the
    comparison covers the computed fields plus the core-normalised
    config.
    """
    expected = reference.summary.as_dict()
    got = actual.summary.as_dict()
    assert set(got) == set(expected)
    for field, value in expected.items():
        assert got[field] == value, (
            f"LatencySummary.{field} diverged on the flat core: "
            f"{got[field]!r} != {value!r}"
        )
    assert actual.cycles == reference.cycles
    assert actual.zero_load_latency == reference.zero_load_latency
    assert actual.effective_message_rate == reference.effective_message_rate
    assert actual.drain == reference.drain
    assert actual.config.variant(core_mode="objects") == reference.config.variant(
        core_mode="objects"
    )


def _assert_cores_agree(config: SimulationConfig):
    """Run ``config`` on the object core (the specification) and the flat
    core, compare, and return the reference result."""
    reference = _run(config, "objects")
    _assert_equivalent(_run(config, "flat"), reference)
    return reference


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_full_schedule_cube_is_bit_identical(seed):
    """The flat core reproduces the object core bit for bit on a
    randomized configuration."""
    _assert_cores_agree(_random_config(seed))


#: (routing, traffic, injection, load) grid covering the adaptive and
#: deterministic routers, random and permutation patterns (including the
#: clamped mesh tornado), both injection processes, and a load close to
#: saturation where the network stays busy end to end.
GRID = [
    ("duato", "uniform", "exponential", 0.2),
    ("duato", "shuffle", "exponential", 0.15),
    ("duato", "uniform", "bernoulli", 0.3),
    ("dimension-order", "transpose", "exponential", 0.2),
    ("west-first", "tornado", "exponential", 0.25),
    ("duato", "uniform", "exponential", 0.75),
]


@pytest.mark.parametrize(
    ("routing", "traffic", "injection", "load"),
    GRID,
    ids=[f"{r}-{t}-{i}-{l}" for r, t, i, l in GRID],
)
def test_latency_summary_is_bit_identical(routing, traffic, injection, load):
    _assert_cores_agree(
        SimulationConfig.tiny(
            routing=routing,
            traffic=traffic,
            injection=injection,
            normalized_load=load,
            seed=11,
        )
    )


#: Contention-heavy variants: few VCs, shallow buffers and long messages
#: force VC-allocation failures, credit stalls and busy links -- the
#: regime where an ordering bug in the flat core's arrival wheels, or
#: an unsound forecast (a header blocked on an output VC that its own
#: router's switch stage frees later in the same cycle), diverges.  The
#: re-seeded rows replay the three hardest shapes on other traffic draws.
CONTENTION_GRID = [
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.6},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.9},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.9,
     "seed": 2},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.9,
     "seed": 3},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.6,
     "traffic": "transpose"},
    {"vcs_per_port": 2, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.6,
     "traffic": "transpose", "seed": 2},
    {"vcs_per_port": 3, "buffer_depth": 2, "message_length": 8, "normalized_load": 0.6,
     "traffic": "transpose"},
    {"vcs_per_port": 2, "buffer_depth": 5, "message_length": 4, "normalized_load": 0.9,
     "injection": "bernoulli"},
    {"vcs_per_port": 2, "buffer_depth": 5, "message_length": 4, "normalized_load": 0.9,
     "injection": "bernoulli", "seed": 2},
    {"vcs_per_port": 2, "buffer_depth": 5, "message_length": 4, "normalized_load": 0.9,
     "pipeline": "proud"},
]


def _contention_id(overrides) -> str:
    extra = [
        str(overrides[key])
        for key in ("traffic", "injection", "pipeline")
        if key in overrides
    ]
    if "seed" in overrides:
        extra.append(f"seed{overrides['seed']}")
    return "-".join(
        [
            f"vcs{overrides['vcs_per_port']}",
            f"buf{overrides['buffer_depth']}",
            f"len{overrides['message_length']}",
            f"load{overrides['normalized_load']}",
            *extra,
        ]
    )


@pytest.mark.parametrize(
    "overrides", CONTENTION_GRID, ids=[_contention_id(o) for o in CONTENTION_GRID]
)
def test_link_axis_under_contention(overrides):
    """Link transport under contention: the flat core's arrival wheels
    must deliver exactly what the object core's per-port mailboxes do."""
    _assert_cores_agree(
        SimulationConfig.tiny(seed=1).variant(
            measure_messages=150, warmup_messages=20, **overrides
        )
    )


def test_equivalence_across_selectors_with_rng_draws():
    """The 'random' selector draws from per-router RNG streams during VC
    allocation; cycles the flat core skips must not shift those draws."""
    _assert_cores_agree(
        SimulationConfig.tiny(selector="random", normalized_load=0.35, seed=3)
    )


def test_equivalence_on_proud_pipeline_without_lookahead():
    _assert_cores_agree(
        SimulationConfig.tiny(pipeline="proud", normalized_load=0.2, seed=5)
    )


def test_equivalence_when_budget_caps_the_run():
    """With a hard cycle limit the clock must land on the same cycle,
    even though the flat core fast-forwards over idle spans."""
    config = SimulationConfig.tiny(normalized_load=0.1, max_cycles=400, seed=9)
    reference = _assert_cores_agree(config)
    assert reference.cycles == 400


def test_single_flit_messages_cross_the_cube():
    """Head==tail flits exercise every transport transition in one entry:
    both cores must agree on a single-flit workload."""
    _assert_cores_agree(
        SimulationConfig.tiny(message_length=1, normalized_load=0.5, seed=11)
    )


def test_multi_cycle_link_and_credit_delays():
    """Delays above one cycle stagger arrivals across cycles: both cores
    must still agree."""
    _assert_cores_agree(
        SimulationConfig.tiny(link_delay=2, credit_delay=3, normalized_load=0.4, seed=13)
    )


@pytest.mark.slow
def test_paper_mesh_at_saturation_load():
    """The paper's 16x16 mesh at load 0.8 (~3 s on the object core): the
    only point of this file past the small meshes."""
    _assert_cores_agree(
        SimulationConfig(
            mesh_dims=(16, 16),
            message_length=20,
            normalized_load=0.8,
            warmup_messages=100,
            measure_messages=400,
            seed=7,
        )
    )


def test_core_mode_recorded_in_result_config():
    config = SimulationConfig.tiny(normalized_load=0.1, seed=5)
    objects = _run(config, "objects")
    flat = _run(config, "flat")
    assert objects.config.core_mode == "objects"
    assert flat.config.core_mode == "flat"


#: The workload axis: closed-loop workloads.  One small instance per
#: built-in generator family plus the trace replayer; both cores must
#: agree bit for bit, drain metrics included (the flat core fires the
#: same delivery callbacks as the object interfaces).
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
    """Every closed-loop generator reproduces the object core bit for
    bit on the flat core -- summary, cycles and drain block."""
    config = SimulationConfig(
        mesh_dims=(3, 3), message_length=4, seed=3,
        **_workload_overrides()[workload],
    )
    baseline = _assert_cores_agree(config)
    assert baseline.drain is not None and baseline.drain["drained"], workload


#: The topology axis: wrapping points on both cores.  The
#: saturation-load uniform and tornado runs on the 4x4x4 torus are the
#: acceptance workloads for the dateline escape discipline -- wrap-link
#: pressure in every dimension, in both cores.
TORUS_POINTS = {
    "torus2d-tornado-duato": dict(
        mesh_dims=(4, 4), topology="torus", routing="duato", traffic="tornado",
        normalized_load=0.9,
    ),
    "torus2d-uniform-dor": dict(
        mesh_dims=(4, 4), topology="torus", routing="dimension-order",
        vcs_per_port=2, traffic="uniform", normalized_load=0.6,
    ),
    "torus3d-uniform": dict(
        mesh_dims=(4, 4, 4), topology="torus", routing="duato", traffic="uniform",
        normalized_load=1.0, link_delays=(1, 1, 2),
    ),
    "torus3d-tornado": dict(
        mesh_dims=(4, 4, 4), topology="torus", routing="duato", traffic="tornado",
        normalized_load=1.0,
    ),
}


@pytest.mark.parametrize("point", sorted(TORUS_POINTS))
def test_torus_axis_crosses_the_cube(point):
    """Every wrapping-topology point reproduces the object core bit for
    bit on the flat core -- the dateline discipline is mirrored
    exactly."""
    config = SimulationConfig(
        message_length=4, warmup_messages=20, measure_messages=120, seed=9,
        **TORUS_POINTS[point],
    )
    baseline = _assert_cores_agree(config)
    # Full measured completion is the no-deadlock witness: the run stops
    # the cycle the last measured message ejects, so warmup stragglers
    # may legitimately still be in flight.
    assert baseline.summary.measured == config.measure_messages, point
    assert baseline.summary.completion_ratio == 1.0, point


def test_config_rejects_unknown_core_mode():
    with pytest.raises(ValueError, match="core"):
        SimulationConfig.tiny(core_mode="holographic")


# The link-schedule selector is gone: the object core's per-port
# mailboxes are the only reference, so the configuration does not
# accept the field.
def test_config_rejects_unknown_link_mode():
    with pytest.raises(TypeError, match="link_mode"):
        SimulationConfig.tiny(link_mode="reference")
