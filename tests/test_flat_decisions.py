"""Routing decisions and path selection inside the flat C core.

Algorithms that decide by sign class (Duato over the economical table,
dimension order) on a mesh or torus are served from a lazily filled
``[node][sign class]`` table, which is never cleared because a routing
table is programmed once, at construction.  The table lives on the
routing instance, which later simulators of the process share, so the
counting tests here start from an empty share.  Every other
algorithm is asked through ``decide_cached``; a look-ahead decision then
travels in the message slot as a decoded copy, as the object core's
``flit.lookahead_decision`` does.  The six deterministic built-in
selectors rank their candidates in C when a node's selector is exactly
that class; any other selector -- a subclass overriding ``select``, or
``random`` -- is called back in Python.  Every case here runs both cores
and demands identical results.
"""

from __future__ import annotations

import json

import pytest

from repro import registry
from repro.core import simulator as simulator_module
from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.selection.heuristics import MaxCreditSelector, RandomSelector

#: The built-ins the flat core ranks itself.
C_SELECTORS = ["first-free", "lfu", "lru", "max-credit", "min-mux", "static-xy"]


def _document(result) -> dict:
    document = json.loads(result.to_json())
    del document["config"]["core_mode"]
    return document


def _contended(**overrides) -> SimulationConfig:
    """A 4x4 Duato point past the knee: headers often see two free ports."""
    fields = dict(
        routing="duato",
        table="economical",
        vcs_per_port=2,
        buffer_depth=2,
        normalized_load=0.5,
        measure_messages=300,
        seed=11,
        selector="max-credit",
    )
    fields.update(overrides)
    return SimulationConfig.tiny(**fields)


def test_lookahead_decisions_without_a_table_entry_match_the_object_core():
    """Duato over the full table has no sign rule: every decision, the
    look-ahead ones carried in message slots included, comes from
    ``decide_cached`` and leaves the C table empty."""
    simulator_module._clear_builds()
    config = _contended(pipeline="la-proud", table="full")
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    flat_result = _document(flat.run())
    state = flat.core.state()
    assert state["decision_entries"] == state["decision_fills"] == 0
    assert flat._routing.decision_cache()
    objects_result = _document(NetworkSimulator(config.variant(core_mode="objects")).run())
    assert flat_result == objects_result


@pytest.mark.parametrize(
    "topology, mesh_dims", [("torus", (4, 4)), ("torus", (3, 3, 3)), ("mesh", (3, 4))]
)
def test_c_sign_classes_match_relative_signs(topology, mesh_dims):
    """Even torus extents have tied offsets (they go positive); one table
    entry per (node, sign class) means every filled entry was one raw
    decide call, and both cores route alike.  The flat run starts from an
    empty share; the object run after it shares the routing, so the pair
    memo is checked before it."""
    simulator_module._clear_builds()
    config = SimulationConfig.tiny(
        topology=topology,
        mesh_dims=mesh_dims,
        vcs_per_port=3,
        traffic="uniform",
        normalized_load=0.4,
    )
    flat = NetworkSimulator(config.variant(core_mode="flat"))
    flat_result = _document(flat.run())
    state = flat.core.state()
    assert 0 < state["decision_fills"] == state["decision_entries"]
    assert state["decision_entries"] <= config.num_nodes * 3 ** len(mesh_dims)
    assert flat._routing.decision_cache() == {}
    objects_result = _document(NetworkSimulator(config.variant(core_mode="objects")).run())
    assert flat_result == objects_result


# -- selector dispatch -----------------------------------------------------------------


def _selector_calls(monkeypatch, cls, config):
    """Python ``select`` calls of ``cls`` on each core for ``config``, and
    the two results."""
    calls = []
    select = cls.select

    def counted(self, candidates):
        calls.append(len(candidates))
        return select(self, candidates)

    monkeypatch.setattr(cls, "select", counted)
    counts, documents = {}, {}
    for core_mode in ("objects", "flat"):
        calls.clear()
        documents[core_mode] = _document(
            NetworkSimulator(config.variant(core_mode=core_mode)).run()
        )
        counts[core_mode] = len(calls)
    return counts, documents


@pytest.mark.parametrize("name", C_SELECTORS)
def test_exact_builtin_selectors_rank_in_c(monkeypatch, name):
    cls = registry.SELECTORS.get(name)
    counts, documents = _selector_calls(monkeypatch, cls, _contended(selector=name))
    assert counts["objects"] > 0
    assert counts["flat"] == 0
    assert documents["flat"] == documents["objects"]


class _OverridingMaxCredit(MaxCreditSelector):
    """A subclass overriding ``select``: the flat core must call it."""

    name = "overriding-max-credit"

    def select(self, candidates):
        return super().select(candidates)


@pytest.mark.parametrize("cls", [_OverridingMaxCredit, RandomSelector])
def test_other_selectors_are_called_back(monkeypatch, cls):
    plugin = cls.name not in registry.SELECTORS.names()
    if plugin:
        registry.SELECTORS.register(cls.name, obj=cls)
    try:
        counts, documents = _selector_calls(monkeypatch, cls, _contended(selector=cls.name))
    finally:
        if plugin:
            registry.SELECTORS.unregister(cls.name)
    assert counts["flat"] == counts["objects"] > 0
    assert documents["flat"] == documents["objects"]
