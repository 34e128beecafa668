"""Tests for the path-selection heuristics."""

import random

import pytest

from repro.registry import SELECTORS
from repro.selection.base import OutputPortStatus
from repro.selection.heuristics import (
    FirstFreeSelector,
    LeastFrequentlyUsedSelector,
    LeastRecentlyUsedSelector,
    MaxCreditSelector,
    MinMuxSelector,
    RandomSelector,
    StaticDimensionOrderSelector,
    make_selector,
)


def status(port, dimension=None, usage=0, last_used=-1, credits=10, busy=0, free=1):
    if dimension is None:
        dimension = (port - 1) // 2
    return OutputPortStatus(
        port=port,
        dimension=dimension,
        usage_count=usage,
        last_used_cycle=last_used,
        total_credits=credits,
        busy_vcs=busy,
        free_vcs=free,
    )


EAST = status(1)
NORTH = status(3)


def test_static_xy_prefers_lower_dimension():
    selector = StaticDimensionOrderSelector()
    assert selector.select([NORTH, EAST]) == 1
    assert selector.select([NORTH]) == 3


def test_first_free_takes_the_first_candidate():
    selector = FirstFreeSelector()
    assert selector.select([NORTH, EAST]) == 3


def test_random_selector_is_reproducible_and_covers_candidates():
    selector = RandomSelector(random.Random(3))
    picks = {selector.select([EAST, NORTH]) for _ in range(100)}
    assert picks == {1, 3}


def test_min_mux_prefers_least_multiplexed_channel():
    selector = MinMuxSelector()
    busy_east = status(1, busy=3)
    quiet_north = status(3, busy=1)
    assert selector.select([busy_east, quiet_north]) == 3
    # Ties fall back to the static order (X first).
    assert selector.select([status(1, busy=2), status(3, busy=2)]) == 1


def test_lfu_uses_recorded_usage_counts():
    selector = LeastFrequentlyUsedSelector()
    assert selector.select([status(1, usage=5), status(3, usage=1)]) == 3
    # After the North port accumulates more use, East wins again.
    assert selector.select([status(1, usage=5), status(3, usage=11)]) == 1


def test_lfu_breaks_ties_statically():
    selector = LeastFrequentlyUsedSelector()
    assert selector.select([NORTH, EAST]) == 1


def test_lru_prefers_the_port_used_farthest_in_the_past():
    selector = LeastRecentlyUsedSelector()
    assert selector.select([status(1, last_used=100), status(3, last_used=50)]) == 3
    assert selector.select([status(1, last_used=100), status(3, last_used=200)]) == 1


def test_lru_never_used_ports_win():
    selector = LeastRecentlyUsedSelector()
    assert selector.select([status(1, last_used=5), NORTH]) == 3


def test_max_credit_prefers_most_downstream_space():
    selector = MaxCreditSelector()
    starved_east = status(1, credits=2)
    roomy_north = status(3, credits=15)
    assert selector.select([starved_east, roomy_north]) == 3
    assert selector.select([status(1, credits=7), status(3, credits=7)]) == 1


def test_selectors_return_a_candidate_port():
    candidates = [status(1), status(3), status(4)]
    for name in SELECTORS.names():
        selector = make_selector(name, random.Random(0))
        assert selector.select(candidates) in {1, 3, 4}


def test_make_selector_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_selector("best-effort")


def test_selector_names_cover_the_paper_heuristics():
    for name in ("static-xy", "min-mux", "lfu", "lru", "max-credit"):
        assert name in SELECTORS.names()


def _status_sets(rng, count):
    """``count`` random candidate lists of two to four distinct ports."""
    sets = []
    for _ in range(count):
        ports = rng.sample(range(1, 7), rng.randint(2, 4))
        sets.append([
            status(
                port,
                usage=rng.randrange(50),
                last_used=rng.randrange(-1, 200),
                credits=rng.randrange(20),
                busy=rng.randrange(4),
                free=rng.randint(1, 4),
            )
            for port in ports
        ])
    return sets


@pytest.mark.parametrize(
    "name", [name for name in SELECTORS.names() if name != "random"]
)
def test_builtin_selectors_keep_no_history(name):
    """A deterministic built-in selector is a pure function of the statuses
    it is handed (the use history arrives in them): an instance that has
    already answered many selections picks what a fresh one picks."""
    rng = random.Random(7)
    warmup, probes = _status_sets(rng, 200), _status_sets(rng, 50)
    used = make_selector(name, random.Random(0))
    for candidates in warmup:
        used.select(candidates)
    for candidates in probes:
        fresh = make_selector(name, random.Random(0))
        assert used.select(candidates) == fresh.select(candidates)
