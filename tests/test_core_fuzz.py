"""Random configurations run on both cores must agree exactly.

Hypothesis draws small configurations across the axes the two cores
implement separately -- mesh or torus, Duato or dimension-order routing,
full or economical tables, every built-in path selector, PROUD or
LA-PROUD, virtual-channel count, buffer depth, link and credit delays,
the open traffic patterns and a closed-loop workload -- and runs each
twice: on the object core under the exhaustive kernel (the reference)
and on the flat core under the activity kernel (the default fast path).  The two
:class:`~repro.core.results.SimulationResult` documents must be equal
apart from the ``core_mode`` field, and both runs pass their
message-conservation checks (``run()`` raises otherwise).

A failing example prints its configuration as a study spec, so
``python -m repro.cli study <file>.json`` replays it.  Tier-1 runs a
bounded number of examples; the ``slow`` variant runs many more.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.scenario.spec import Study

#: Patterns that need a power-of-two node count.
_POWER_OF_TWO = {"bit-complement", "bit-reversal", "shuffle"}


@st.composite
def configs(draw):
    torus = draw(st.booleans())
    pattern = draw(st.sampled_from(sorted(registry.TRAFFIC_PATTERNS.names())))
    closed_loop = draw(st.integers(0, 5)) == 0
    if pattern in _POWER_OF_TWO and not closed_loop:
        extents = st.sampled_from([2, 4])
    else:
        extents = st.integers(3, 4) if torus else st.integers(2, 4)
    x = draw(extents)
    y = x if pattern == "transpose" else draw(extents)
    if torus and (x < 3 or y < 3):
        # A 2-node ring duplicates its single link; tori start at 3.
        x, y = max(x, 4), max(y, 4)
    routing = draw(st.sampled_from(["duato", "dimension-order"]))
    escape = 2 if torus else 1
    if routing == "duato":
        vcs = draw(st.integers(escape + 1, 4))
    else:
        vcs = draw(st.integers(2 if torus else 1, 3))
    fields = dict(
        mesh_dims=(x, y),
        torus=torus,
        routing=routing,
        num_escape_vcs=escape,
        vcs_per_port=vcs,
        buffer_depth=draw(st.integers(1, 4)),
        table=draw(st.sampled_from(["full", "economical"])),
        selector=draw(st.sampled_from(sorted(registry.SELECTORS.names()))),
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
    return SimulationConfig(**fields)


def spec_json(config: SimulationConfig) -> str:
    """``config`` as a one-point study spec for ``repro.cli study``."""
    return Study(name="core-fuzz-failure", base=config.to_dict()).to_json()


def _document(config: SimulationConfig, core_mode: str, kernel_mode: str) -> dict:
    simulator = NetworkSimulator(config.variant(core_mode=core_mode), kernel_mode=kernel_mode)
    document = json.loads(simulator.run().to_json())
    del document["config"]["core_mode"]
    return document


def _check(config: SimulationConfig) -> None:
    note(f"failing config as a study spec:\n{spec_json(config)}")
    reference = _document(config, "objects", "exhaustive")
    fast = _document(config, "flat", "activity")
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
    config = SimulationConfig.tiny(torus=True, routing="duato", num_escape_vcs=2)
    study = Study.from_json(spec_json(config))
    [point] = study.expand()
    assert point.config == config
