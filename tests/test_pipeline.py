"""Tests for the PROUD / LA-PROUD pipeline timing models."""

import pytest

from repro.core.config import SimulationConfig
from repro.router.pipeline import LA_PROUD, PROUD, PipelineTiming


def test_paper_pipeline_depths():
    assert PROUD.depth == 5
    assert LA_PROUD.depth == 4
    assert not PROUD.lookahead
    assert LA_PROUD.lookahead


def test_contention_free_hop_latency_matches_table2():
    # Table 2: router latency 5 (PROUD) / 4 (LA-PROUD) plus 1 cycle of link.
    assert PROUD.hop_latency(link_delay=1) == 6
    assert LA_PROUD.hop_latency(link_delay=1) == 5


def test_selection_offset_saves_exactly_one_stage():
    assert PROUD.selection_offset - LA_PROUD.selection_offset == 1
    assert PROUD.switch_delay == LA_PROUD.switch_delay


def test_pipeline_timing_by_name():
    assert SimulationConfig(pipeline="proud").pipeline_timing is PROUD
    assert SimulationConfig(pipeline="la-proud").pipeline_timing is LA_PROUD
    with pytest.raises(ValueError, match="super-proud"):
        SimulationConfig(pipeline="super-proud")


def test_custom_pipeline_validation():
    deep = PipelineTiming(name="deep", depth=7, lookahead=False)
    assert deep.selection_offset == 5
    with pytest.raises(ValueError):
        PipelineTiming(name="too-shallow", depth=2, lookahead=False)


def test_timings_are_frozen():
    with pytest.raises(Exception):
        PROUD.depth = 9  # type: ignore[misc]
