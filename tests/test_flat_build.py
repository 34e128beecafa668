"""The flat core is built straight from topology and config.

Under ``core_mode="flat"`` the simulator assembles no object network: no
:class:`~repro.router.router.Router` or
:class:`~repro.network.interface.NetworkInterface` is constructed, and
:attr:`NetworkSimulator.network` says so instead of returning a
half-built object.  The per-node path selectors are created by the
simulator for the flat core and by the object network for the object
core, so every registered selector -- including the ones that draw
random numbers or keep usage history -- is pinned objects-vs-flat on a
contended configuration.
"""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.network.interface import NetworkInterface
from repro.router.router import Router


def _count_inits(monkeypatch, cls) -> list:
    """Record one entry per ``cls.__init__`` call for the test's duration."""
    calls: list = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        calls.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls


@pytest.mark.parametrize("core_mode, built", [("flat", 0), ("objects", 16)])
def test_only_the_object_core_builds_routers_and_interfaces(
    monkeypatch, core_mode, built
):
    routers = _count_inits(monkeypatch, Router)
    interfaces = _count_inits(monkeypatch, NetworkInterface)
    simulator = NetworkSimulator(SimulationConfig.tiny(core_mode=core_mode))
    assert simulator.topology.num_nodes == 16
    assert len(routers) == built
    assert len(interfaces) == built


def test_flat_simulator_has_no_object_network():
    simulator = NetworkSimulator(SimulationConfig.tiny(core_mode="flat"))
    assert simulator.core is not None
    with pytest.raises(RuntimeError) as excinfo:
        simulator.network
    message = str(excinfo.value)
    assert "core_mode='flat' builds no object network" in message
    assert "simulator.core" in message


def _result_without_core_mode(config: SimulationConfig) -> dict:
    document = json.loads(NetworkSimulator(config).run().to_json())
    del document["config"]["core_mode"]
    return document


@pytest.mark.parametrize("pipeline", ["proud", "la-proud"])
@pytest.mark.parametrize("selector", sorted(registry.SELECTORS.names()))
def test_every_selector_is_bit_identical_across_cores(selector, pipeline):
    """Few VCs, shallow buffers and fully adaptive routing past the knee:
    headers routinely see two or more free ports, so the selector --
    its RNG draws and usage history included -- decides real routes."""
    config = SimulationConfig.tiny(
        selector=selector,
        pipeline=pipeline,
        routing="duato",
        vcs_per_port=2,
        buffer_depth=2,
        normalized_load=0.5,
        measure_messages=150,
        seed=11,
    )
    objects = _result_without_core_mode(config.variant(core_mode="objects"))
    flat = _result_without_core_mode(config.variant(core_mode="flat"))
    assert objects["summary"]["measured"] > 0
    assert flat == objects
