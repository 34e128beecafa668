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


# -- the C core's build cache ------------------------------------------------------


def test_a_missing_compiler_names_the_command_and_the_objects_core(
    monkeypatch, tmp_path
):
    import sysconfig

    from repro.network import flatcore

    config_var = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig,
        "get_config_var",
        lambda name: "no-such-cc -pthread" if name == "CC" else config_var(name),
    )
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(flatcore, "_EXTENSION", None)
    with pytest.raises(RuntimeError) as excinfo:
        flatcore.core_extension()
    message = str(excinfo.value)
    assert "no-such-cc -pthread -O2 -shared -fPIC" in message
    assert "core_mode='objects'" in message
    # Nothing half-built is left behind for the next process to load.
    assert list((tmp_path / "repro").iterdir()) == []
    # The object core needs no compiler.
    result = NetworkSimulator(SimulationConfig.tiny(core_mode="objects")).run()
    assert result.summary.delivered > 0


def test_the_build_is_cached_per_source_and_abi(monkeypatch, tmp_path):
    import subprocess
    import sysconfig

    from repro.network import flatcore

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = flatcore.extension_path()
    assert path.parent == tmp_path / "repro"
    assert path.name.startswith("_flatcore-")
    assert path.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    monkeypatch.setattr(flatcore, "_EXTENSION", None)
    assert flatcore.core_extension().Core is not None
    assert [entry.name for entry in path.parent.iterdir()] == [path.name]

    def no_compiler(*args, **kwargs):
        raise AssertionError("a cached build must load without compiling")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setattr(flatcore, "_EXTENSION", None)
    assert flatcore.core_extension().Core is not None
    # Another source (or interpreter ABI) gets another file name.
    monkeypatch.setattr(
        sysconfig,
        "get_config_var",
        lambda name: ".other-abi.so" if name == "EXT_SUFFIX" else None,
    )
    assert flatcore.extension_path() != path


class _OffCandidateSelector:
    """Answers a port no candidate offers."""

    name = "off-candidate"

    def __init__(self, rng=None) -> None:
        pass

    def select(self, candidates):
        return 99

    def record_use(self, port, cycle):
        pass


@pytest.mark.parametrize("core_mode", ["objects", "flat"])
def test_a_selector_choosing_outside_the_candidates_fails_loudly(core_mode):
    registry.SELECTORS.register(_OffCandidateSelector.name, obj=_OffCandidateSelector)
    try:
        config = SimulationConfig.tiny(
            selector=_OffCandidateSelector.name, core_mode=core_mode, normalized_load=0.5
        )
        with pytest.raises(AssertionError, match="chose port 99 outside the candidate set"):
            NetworkSimulator(config).run()
    finally:
        registry.SELECTORS.unregister(_OffCandidateSelector.name)
