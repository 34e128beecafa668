"""Tests for the simulation clock."""

import pytest

from repro.engine.clock import Clock


def test_clock_starts_at_zero():
    assert Clock().now == 0


def test_tick_advances_by_one_by_default():
    clock = Clock()
    assert clock.tick() == 1
    assert clock.now == 1


def test_tick_advances_by_many():
    clock = Clock()
    clock.tick(10)
    assert clock.now == 10


def test_tick_rejects_zero_and_negative():
    clock = Clock()
    with pytest.raises(ValueError):
        clock.tick(0)
    with pytest.raises(ValueError):
        clock.tick(-5)


def test_repr_mentions_current_cycle():
    clock = Clock()
    clock.tick(3)
    assert "3" in repr(clock)
