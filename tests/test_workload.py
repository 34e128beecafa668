"""Closed-loop workload subsystem: DAG semantics, generators, drain runs.

Covers the program model (:mod:`repro.workload.dag`), the dependency
engine (:mod:`repro.workload.engine`), the built-in generator factories,
trace replay, the simulator integration (drain metrics, stop condition,
streaming-memory discipline) and the spec-validation error surface
(unknown workload names and malformed trace JSON must raise clear
``ValueError``\\ s, not deep tracebacks).
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import NetworkSimulator
from repro.registry import WORKLOADS, validate_config_names
from repro.workload import (
    COMPUTE,
    TRANSFER,
    WorkloadDag,
    WorkloadEngine,
    WorkloadNode,
    example_trace_path,
)


def _transfer(src, dst, flits=1, phase=0):
    return WorkloadNode(kind=TRANSFER, src=src, dst=dst, flits=flits, phase=phase)


def _compute(node, delay, phase=0):
    return WorkloadNode(kind=COMPUTE, src=node, dst=node, delay=delay, phase=phase)


# -- program model ----------------------------------------------------------------


def test_transfer_node_validation():
    with pytest.raises(ValueError, match="at least one flit"):
        _transfer(0, 1, flits=0)
    with pytest.raises(ValueError, match="itself"):
        _transfer(2, 2)
    with pytest.raises(ValueError, match="delay"):
        WorkloadNode(kind=TRANSFER, src=0, dst=1, flits=1, delay=3)
    with pytest.raises(ValueError, match="kind"):
        WorkloadNode(kind="teleport", src=0, dst=1)


def test_compute_node_validation():
    with pytest.raises(ValueError, match="delay"):
        _compute(0, delay=-1)
    with pytest.raises(ValueError, match="flits"):
        WorkloadNode(kind=COMPUTE, src=0, dst=0, flits=2)


def test_dag_rejects_cycles():
    nodes = (_transfer(0, 1), _transfer(1, 0))
    with pytest.raises(ValueError, match="cycle"):
        WorkloadDag(nodes, edges=((0, 1), (1, 0)))


def test_dag_rejects_bad_edges():
    nodes = (_transfer(0, 1), _transfer(1, 2))
    with pytest.raises(ValueError, match="points outside"):
        WorkloadDag(nodes, edges=((0, 5),))
    with pytest.raises(ValueError, match="self-loop"):
        WorkloadDag(nodes, edges=((1, 1),))


def test_dag_properties_and_range_check():
    dag = WorkloadDag(
        (_transfer(0, 1, flits=3), _compute(1, delay=2, phase=1),
         _transfer(1, 2, flits=2, phase=1)),
        edges=((0, 1), (1, 2)),
    )
    assert len(dag) == 3
    assert dag.num_transfers == 2
    assert dag.total_flits == 5
    assert dag.phase_count == 2
    assert dag.phase_node_counts() == [1, 2]
    dag.check_nodes_in_range(3)
    with pytest.raises(ValueError, match="node #2"):
        dag.check_nodes_in_range(2)


def test_critical_path_is_longest_chain():
    # transfer(cost 10) -> compute(5) -> transfer(cost 7), plus a
    # parallel transfer(cost 4): the chain dominates, with +1 release
    # latency per edge.
    dag = WorkloadDag(
        (_transfer(0, 1), _compute(1, delay=5), _transfer(1, 2), _transfer(2, 3)),
        edges=((0, 1), (1, 2)),
    )
    costs = {0: 10, 2: 7, 3: 4}

    def cost(step):
        for idx, node in enumerate(dag.nodes):
            if node is step:
                return costs.get(idx, 0)
        raise AssertionError

    assert dag.critical_path_cycles(cost) == 10 + 1 + 5 + 1 + 7


# -- trace parsing ----------------------------------------------------------------


def test_trace_round_trip():
    dag = WorkloadDag.from_trace_json(
        example_trace_path().read_text(encoding="utf-8")
    )
    assert dag.num_transfers == 4
    assert dag.phase_count == 2


def test_trace_rejects_invalid_json():
    with pytest.raises(ValueError, match="not valid JSON"):
        WorkloadDag.from_trace_json("{broken")


def test_trace_rejects_malformed_nodes():
    with pytest.raises(ValueError, match="node #0"):
        WorkloadDag.from_trace_dict(
            {"nodes": [{"kind": "transfer", "src": 0}], "edges": []}
        )
    with pytest.raises(ValueError, match="node #1"):
        WorkloadDag.from_trace_dict(
            {
                "nodes": [
                    {"kind": "transfer", "src": 0, "dst": 1, "flits": 1},
                    {"kind": "compute", "node": 1, "delay": "soon"},
                ],
                "edges": [],
            }
        )
    with pytest.raises(ValueError, match="nodes"):
        WorkloadDag.from_trace_dict({"edges": []})


# -- engine semantics --------------------------------------------------------------


def test_engine_releases_roots_and_successors():
    dag = WorkloadDag(
        (_transfer(0, 1), _transfer(1, 2, phase=1)), edges=((0, 1),)
    )
    engine = WorkloadEngine(dag, num_nodes=4)
    assert engine.next_due_cycle(0) == 0
    assert engine.next_due_cycle(1) is None
    [message] = engine.messages_due(0, 0)
    assert (message.source, message.destination) == (0, 1)
    assert engine.messages_due(0, 0) == []
    # Delivery at cycle 9 releases the successor strictly in the future.
    engine.on_delivered(message, 9)
    assert engine.next_due_cycle(1) == 10
    assert not engine.drained
    [reply] = engine.messages_due(1, 10)
    engine.on_delivered(reply, 20)
    assert engine.drained
    metrics = engine.drain_metrics(25, critical_path_cycles=15)
    assert metrics["drained"] is True
    assert metrics["time_to_drain"] == 20
    assert metrics["phase_cycles"] == [9, 20]
    assert metrics["critical_path_utilization"] == 15 / 20


def test_engine_compute_steps_complete_without_messages():
    dag = WorkloadDag(
        (_compute(2, delay=5), _transfer(2, 0, phase=1)), edges=((0, 1),)
    )
    engine = WorkloadEngine(dag, num_nodes=4)
    assert engine.next_due_cycle(2) == 5
    assert engine.messages_due(2, 4) == []
    # The compute step finishes when polled at its due cycle; its
    # successor transfer becomes due the next cycle.
    assert engine.messages_due(2, 5) == []
    assert engine.next_due_cycle(2) == 6
    [message] = engine.messages_due(2, 6)
    assert message.destination == 0


def test_engine_rejects_out_of_range_homes():
    dag = WorkloadDag((_transfer(0, 7),), edges=())
    with pytest.raises(ValueError, match="node #0"):
        WorkloadEngine(dag, num_nodes=4)


# -- generator factories -----------------------------------------------------------


def _topology(mesh=(4, 4), **overrides):
    from repro.core.simulator import build_topology

    return build_topology(SimulationConfig(mesh_dims=mesh, **overrides))


def test_request_reply_windowing():
    config = SimulationConfig(
        mesh_dims=(4, 4), workload="request-reply",
        workload_iters=5, workload_window=2,
    )
    dag = WORKLOADS.get("request-reply")(config, _topology())
    # 8 client/server pairs, 5 iterations, request + reply each.
    assert len(dag) == 8 * 5 * 2
    # Iteration 2's request depends on iteration 0's reply (window 2):
    # every non-root request has exactly one blocking window edge plus
    # none for the first `window` iterations.
    roots = sum(1 for idx in range(len(dag)) if dag.indegree[idx] == 0)
    assert roots == 8 * 2  # first `window` requests per pair


def test_allreduce_transfer_count():
    config = SimulationConfig(
        mesh_dims=(4, 4), workload="allreduce",
        workload_iters=3, workload_hidden=64,
    )
    dag = WORKLOADS.get("allreduce")(config, _topology())
    # Ring all-reduce over g nodes: 2*(g-1) rounds of g sends each, per
    # iteration (reduce-scatter then all-gather).
    assert dag.num_transfers == 3 * 2 * (16 - 1) * 16
    assert dag.num_transfers == len(dag)  # transfers only, no barriers


def test_alltoall_barriers_order_phases():
    config = SimulationConfig(
        mesh_dims=(2, 2), workload="alltoall", workload_iters=1
    )
    dag = WORKLOADS.get("alltoall")(config, _topology(mesh=(2, 2)))
    # 4 nodes, 3 offsets: 4 sends per offset plus a barrier per offset.
    assert dag.num_transfers == 4 * 3
    assert dag.phase_count == 3
    result = NetworkSimulator(
        SimulationConfig(mesh_dims=(2, 2), workload="alltoall", workload_iters=1)
    ).run()
    phases = result.drain["phase_cycles"]
    assert phases == sorted(phases)


def test_llm_decode_group_validation():
    config = SimulationConfig(
        mesh_dims=(2, 2), workload="llm-decode", workload_group=9
    )
    with pytest.raises(ValueError, match="group"):
        WORKLOADS.get("llm-decode")(config, _topology(mesh=(2, 2)))


def test_trace_workload_requires_path():
    config = SimulationConfig(mesh_dims=(4, 4), workload="trace")
    with pytest.raises(ValueError, match="workload_trace"):
        WORKLOADS.get("trace")(config, _topology())


def test_trace_workload_rejects_unreadable_path():
    config = SimulationConfig(
        mesh_dims=(4, 4), workload="trace",
        workload_trace="/nonexistent/trace.json",
    )
    with pytest.raises(ValueError, match="cannot read workload trace"):
        WORKLOADS.get("trace")(config, _topology())


def test_trace_workload_rejects_nodes_beyond_mesh(tmp_path):
    trace = tmp_path / "big.json"
    trace.write_text(json.dumps({
        "nodes": [{"kind": "transfer", "src": 0, "dst": 11, "flits": 1}],
        "edges": [],
    }), encoding="utf-8")
    config = SimulationConfig(
        mesh_dims=(2, 2), workload="trace", workload_trace=str(trace)
    )
    with pytest.raises(ValueError, match="beyond the 4-node topology"):
        WORKLOADS.get("trace")(config, _topology(mesh=(2, 2)))


# -- spec validation error surface -------------------------------------------------


def test_unknown_workload_name_is_a_clear_value_error():
    with pytest.raises(ValueError, match="unknown closed-loop workload"):
        SimulationConfig(mesh_dims=(4, 4), workload="does-not-exist")


def test_validate_config_names_covers_workloads():
    config = SimulationConfig(mesh_dims=(4, 4), workload="allreduce")
    validate_config_names(config)  # does not raise
    # Open-loop configs leave the workload field None; the walk skips it.
    validate_config_names(SimulationConfig(mesh_dims=(4, 4)))


def test_workload_parameter_validation():
    with pytest.raises(ValueError, match="workload_iters"):
        SimulationConfig(mesh_dims=(4, 4), workload_iters=0)
    with pytest.raises(ValueError, match="workload_window"):
        SimulationConfig(mesh_dims=(4, 4), workload_window=0)
    with pytest.raises(ValueError, match="workload_layers"):
        SimulationConfig(mesh_dims=(4, 4), workload_layers=0)
    with pytest.raises(ValueError, match="workload_hidden"):
        SimulationConfig(mesh_dims=(4, 4), workload_hidden=0)
    with pytest.raises(ValueError, match="workload_group"):
        SimulationConfig(mesh_dims=(4, 4), workload_group=-1)
    with pytest.raises(ValueError, match="workload_compute"):
        SimulationConfig(mesh_dims=(4, 4), workload_compute=-1)


def test_study_with_unknown_workload_fails_cleanly():
    from repro.scenario.runner import run_study
    from repro.scenario.spec import Report, Study

    study = Study(
        name="bad-workload",
        title="bad",
        base=SimulationConfig(mesh_dims=(2, 2)).to_dict(),
        report=Report(reporter="drain"),
    )
    base = dict(study.base)
    base["workload"] = "does-not-exist"
    bad = Study(name="bad-workload", title="bad", base=base,
                report=Report(reporter="drain"))
    with pytest.raises(ValueError, match="unknown closed-loop workload"):
        run_study(bad)


# -- simulator integration ---------------------------------------------------------


def _run_workload(core_mode="flat", **overrides):
    overrides.setdefault("mesh_dims", (4, 4))
    config = SimulationConfig(core_mode=core_mode, seed=2, **overrides)
    simulator = NetworkSimulator(config)
    return simulator, simulator.run()


@pytest.mark.parametrize("core_mode", ["objects", "flat"])
def test_drain_metrics_end_to_end(core_mode):
    simulator, result = _run_workload(
        core_mode=core_mode, workload="allreduce",
        workload_iters=2, workload_hidden=32,
    )
    drain = result.drain
    assert drain is not None
    assert drain["drained"] is True
    assert drain["time_to_drain"] <= result.cycles
    assert drain["critical_path_cycles"] > 0
    assert 0.0 < drain["critical_path_utilization"] <= 1.0
    assert drain["transfers"] == result.summary.measured
    assert all(cycle is not None for cycle in drain["phase_cycles"])
    assert result.effective_message_rate == 0.0
    assert not result.saturated


def test_workload_runs_are_deterministic():
    _, first = _run_workload(workload="llm-decode", workload_layers=2,
                             workload_hidden=32)
    _, second = _run_workload(workload="llm-decode", workload_layers=2,
                              workload_hidden=32)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("core_mode", ["objects", "flat"])
def test_streaming_memory_discipline(core_mode):
    """After a drained run neither the engine nor the collector retains
    per-message state: in-flight map empty, and the collector holds no
    map at all (the creation index travels on the message)."""
    simulator, result = _run_workload(
        core_mode=core_mode, workload="request-reply", workload_iters=3
    )
    assert result.drain["drained"]
    engine = simulator.workload
    assert engine is not None
    assert engine._inflight == {}
    assert not any(isinstance(value, dict) for value in vars(simulator.stats).values())


def test_drain_block_survives_result_round_trip():
    _, result = _run_workload(workload="alltoall", workload_iters=1)
    from repro.core.results import SimulationResult

    rebuilt = SimulationResult.from_json(result.to_json())
    assert rebuilt.drain == result.drain
    assert rebuilt.to_json() == result.to_json()


def test_open_loop_results_have_no_drain_block():
    result = NetworkSimulator(SimulationConfig.tiny(seed=1)).run()
    assert result.drain is None


def test_trace_workload_end_to_end():
    _, result = _run_workload(
        workload="trace", workload_trace=str(example_trace_path()),
        mesh_dims=(2, 2),
    )
    assert result.drain["drained"]
    assert result.drain["transfers"] == 4
