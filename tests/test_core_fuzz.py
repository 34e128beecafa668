"""Random configurations run on both cores must agree exactly.

Hypothesis draws small configurations across the axes the two cores
implement separately -- mesh, 2-D torus or 3x3x3 torus; Duato,
dimension-order or (on meshes) the three turn models; every routing
table the shape allows; every built-in path selector plus a max-credit
subclass that overrides ``select`` (the flat core calls it back in
Python, while it ranks the built-ins itself); PROUD or LA-PROUD,
virtual-channel count, buffer depth, uniform or per-dimension link
delays, credit delays, the open traffic patterns and a closed-loop
workload -- and runs each
twice: on the object core, stepped every cycle (the reference), and on
the flat core, which the kernel fast-forwards over idle spans (the
default fast path).  The two
:class:`~repro.core.results.SimulationResult` documents must be equal
apart from the ``core_mode`` field, and both runs pass their
message-conservation checks (``run()`` raises otherwise).

A failing example prints its configuration as a study spec, so
``python -m repro.cli study <file>.json`` replays it (a spec naming the
test-only ``max-credit-python`` selector needs it registered first).
Tier-1 runs a bounded number of examples; the ``slow`` variant runs
many more.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.scenario.spec import Study
from repro.selection.heuristics import MaxCreditSelector

#: Patterns that need a power-of-two node count.
_POWER_OF_TWO = {"bit-complement", "bit-reversal", "shuffle"}
#: Patterns defined on a 3x3x3 torus.
_CUBE_PATTERNS = ["hotspot", "neighbor", "tornado", "uniform"]
#: Turn-model routing algorithms (2-D meshes only).
_TURN_MODELS = ["negative-first", "north-last", "west-first"]


class _PythonMaxCredit(MaxCreditSelector):
    """max-credit through a ``select`` override: a subclass of a built-in,
    so the flat core calls its ``select`` back instead of ranking in C."""

    name = "max-credit-python"

    def select(self, candidates):
        return super().select(candidates)


@contextmanager
def _python_selector():
    """Register :class:`_PythonMaxCredit` for the duration of the block."""
    registry.SELECTORS.register(_PythonMaxCredit.name, obj=_PythonMaxCredit)
    try:
        yield
    finally:
        registry.SELECTORS.unregister(_PythonMaxCredit.name)


@st.composite
def configs(draw):
    shape = draw(st.sampled_from(["mesh", "torus", "cube"]))
    torus = shape != "mesh"
    closed_loop = draw(st.integers(0, 5)) == 0
    if shape == "cube":
        # A 3x3x3 torus: 27 nodes, so no power-of-two or transpose traffic.
        pattern = draw(st.sampled_from(_CUBE_PATTERNS))
        dims = (3, 3, 3)
    else:
        pattern = draw(st.sampled_from(sorted(registry.TRAFFIC_PATTERNS.names())))
        if pattern in _POWER_OF_TWO and not closed_loop:
            extents = st.sampled_from([2, 4])
        else:
            extents = st.integers(3, 4) if torus else st.integers(2, 4)
        x = draw(extents)
        y = x if pattern == "transpose" else draw(extents)
        if torus and (x < 3 or y < 3):
            # A 2-node ring duplicates its single link; tori start at 3.
            x, y = max(x, 4), max(y, 4)
        if pattern == "tornado" and not torus and max(x, y) < 4:
            # Mesh tornado below extent 4 makes every node a fixed point.
            x = 4
        dims = (x, y)
    routing = draw(
        st.sampled_from(["duato", "dimension-order"] + ([] if torus else _TURN_MODELS))
    )
    if routing in _TURN_MODELS:
        vcs = draw(st.integers(1, 3))
    elif routing == "duato":
        vcs = draw(st.integers(3 if torus else 2, 4))
    else:
        vcs = draw(st.integers(2 if torus else 1, 3))
    fields = dict(
        mesh_dims=dims,
        topology="torus" if torus else "mesh",
        link_delays=draw(
            st.none() | st.tuples(*[st.integers(1, 2) for _ in dims])
        ),
        routing=routing,
        vcs_per_port=vcs,
        buffer_depth=draw(st.integers(1, 4)),
        # The meta tables' cluster mappings are 2-D only.
        table=draw(
            st.sampled_from(
                ["economical", "full", "interval"]
                + (["meta-block", "meta-row"] if len(dims) == 2 else [])
            )
        ),
        selector=draw(
            st.sampled_from(sorted(registry.SELECTORS.names()) + [_PythonMaxCredit.name])
        ),
        pipeline=draw(st.sampled_from(["proud", "la-proud"])),
        message_length=draw(st.sampled_from([1, 2, 5])),
        link_delay=draw(st.integers(1, 2)),
        credit_delay=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10_000)),
    )
    if closed_loop:
        fields.update(workload="request-reply", workload_iters=2, workload_window=2)
    else:
        fields.update(
            traffic=pattern,
            normalized_load=draw(st.sampled_from([0.05, 0.4, 0.9])),
            warmup_messages=5,
            measure_messages=40,
        )
    with _python_selector():
        return SimulationConfig(**fields)


def spec_json(config: SimulationConfig) -> str:
    """``config`` as a one-point study spec for ``repro.cli study``."""
    return Study(name="core-fuzz-failure", base=config.to_dict()).to_json()


def _document(config: SimulationConfig, core_mode: str) -> dict:
    simulator = NetworkSimulator(config.variant(core_mode=core_mode))
    document = json.loads(simulator.run().to_json())
    del document["config"]["core_mode"]
    return document


def _check(config: SimulationConfig) -> None:
    note(f"failing config as a study spec:\n{spec_json(config)}")
    with _python_selector():
        reference = _document(config, "objects")
        fast = _document(config, "flat")
    assert fast == reference


_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)


@settings(max_examples=30, **_SETTINGS)
@given(config=configs())
def test_objects_and_flat_cores_agree_on_random_configs(config):
    _check(config)


@pytest.mark.slow
@settings(max_examples=400, **_SETTINGS)
@given(config=configs())
def test_objects_and_flat_cores_agree_on_many_random_configs(config):
    _check(config)


def test_spec_json_replays_the_config():
    config = SimulationConfig.tiny(topology="torus", routing="duato")
    study = Study.from_json(spec_json(config))
    [point] = study.expand()
    assert point.config == config
