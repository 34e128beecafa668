"""Tests for the router parameters of the simulation configuration.

The refusals of out-of-range router fields live with the other
construction-time checks in ``tests/test_config_validation.py``.
"""

import pytest

from repro.core.config import SimulationConfig
from repro.router.pipeline import LA_PROUD, PROUD


def test_defaults_match_the_paper_router():
    config = SimulationConfig()
    assert config.vcs_per_port == 4
    assert config.buffer_depth == 5
    assert config.pipeline_timing is LA_PROUD
    assert config.link_delay == 1
    assert config.credit_delay == 1


def test_with_pipeline_creates_a_modified_copy():
    base = SimulationConfig(pipeline="proud")
    lookahead = base.variant(pipeline="la-proud")
    assert lookahead.pipeline_timing is LA_PROUD
    assert base.pipeline_timing is PROUD
    assert lookahead.vcs_per_port == base.vcs_per_port


def test_link_delay_per_dimension():
    uniform = SimulationConfig(link_delay=2)
    assert [uniform.link_delay_for(d) for d in (0, 1)] == [2, 2]
    assert uniform.max_link_delay == 2
    stacked = SimulationConfig(topology="torus", mesh_dims=(4, 4, 2), link_delays=(1, 1, 3))
    assert [stacked.link_delay_for(d) for d in (0, 1, 2)] == [1, 1, 3]
    assert stacked.max_link_delay == 3


def test_validation():
    with pytest.raises(ValueError):
        SimulationConfig(vcs_per_port=0)
    with pytest.raises(ValueError):
        SimulationConfig(buffer_depth=0)
    with pytest.raises(ValueError):
        SimulationConfig(link_delay=0)
    with pytest.raises(ValueError):
        SimulationConfig(credit_delay=0)


def test_config_is_immutable():
    config = SimulationConfig()
    with pytest.raises(Exception):
        config.vcs_per_port = 8  # type: ignore[misc]
