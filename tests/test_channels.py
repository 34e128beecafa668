"""Tests for input/output virtual-channel state."""

import pytest

from repro.router.channels import (
    InputVirtualChannel,
    OutputPort,
    OutputVirtualChannel,
    VCState,
)
from repro.traffic.message import Message


def make_flits(length=3):
    return Message(source=0, destination=1, length=length, creation_cycle=0).make_flits()


def test_input_vc_starts_idle_and_empty():
    channel = InputVirtualChannel(port=1, vc=0, capacity=4)
    assert channel.state is VCState.IDLE
    assert channel.occupancy == 0
    assert channel.head_flit() is None
    assert channel.has_space


def test_input_vc_fifo_order():
    channel = InputVirtualChannel(port=1, vc=0, capacity=4)
    flits = make_flits()
    for flit in flits:
        channel.push(flit)
    assert channel.head_flit() is flits[0]
    assert [channel.pop() for _ in range(3)] == flits


def test_input_vc_overflow_raises():
    channel = InputVirtualChannel(port=1, vc=0, capacity=2)
    flits = make_flits(3)
    channel.push(flits[0])
    channel.push(flits[1])
    assert not channel.has_space
    with pytest.raises(OverflowError):
        channel.push(flits[2])


def test_input_vc_release_resets_allocation():
    channel = InputVirtualChannel(port=1, vc=0, capacity=2)
    channel.state = VCState.ACTIVE
    channel.out_port = 3
    channel.out_vc = 1
    channel.release()
    assert channel.state is VCState.IDLE
    assert channel.out_port is None
    assert channel.out_vc is None


def test_output_vc_allocation_lifecycle():
    channel = OutputVirtualChannel(port=2, vc=1, credits=5)
    assert channel.is_free
    channel.allocate(in_port=0, in_vc=3)
    assert not channel.is_free
    assert channel.owner == (0, 3)
    with pytest.raises(ValueError):
        channel.allocate(in_port=1, in_vc=0)
    channel.release()
    assert channel.is_free


def test_output_port_free_vcs_restricted_to_class():
    port = OutputPort(port=1, num_vcs=4, credits_per_vc=5)
    port.vcs[1].allocate(0, 0)
    assert port.free_vcs((1, 2, 3)) == [2, 3]
    assert port.free_vcs((0,)) == [0]
    assert port.busy_vc_count() == 1


def test_output_port_credit_and_usage_tracking():
    port = OutputPort(port=1, num_vcs=2, credits_per_vc=5)
    assert port.total_credits() == 10
    port.vcs[0].credits -= 3
    assert port.total_credits() == 7
    # The use history starts empty; the router's crossbar advances it
    # (tests/test_router_unit.py::test_flit_and_header_counters).
    assert port.usage_count == 0
    assert port.last_used_cycle == -1


def test_output_port_starts_disconnected():
    port = OutputPort(port=4, num_vcs=2, credits_per_vc=3)
    assert not port.connected
