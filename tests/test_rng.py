"""Tests for the reproducible random-number streams."""

from repro.engine.rng import SimulationRNG


def test_same_seed_same_stream():
    a = SimulationRNG(seed=7).stream("traffic")
    b = SimulationRNG(seed=7).stream("traffic")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_different_streams():
    rng = SimulationRNG(seed=7)
    a = rng.stream("traffic")
    b = rng.stream("arbitration")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_different_seeds_give_different_streams():
    a = SimulationRNG(seed=1).stream("traffic")
    b = SimulationRNG(seed=2).stream("traffic")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_stream_is_cached_per_name():
    rng = SimulationRNG(seed=3)
    assert rng.stream("x") is rng.stream("x")


def test_request_order_does_not_change_stream_contents():
    first = SimulationRNG(seed=5)
    second = SimulationRNG(seed=5)
    # Request in different orders; the named streams must still match.
    first_a = first.stream("a")
    first.stream("b")
    second.stream("b")
    second_a = second.stream("a")
    assert [first_a.random() for _ in range(5)] == [second_a.random() for _ in range(5)]


def test_seed_property_round_trips():
    assert SimulationRNG(seed=123).seed == 123
