"""run_study(): execution semantics, stop policies, backends and caching."""

from typing import List, Sequence

import pytest

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult
from repro.exec.backend import ExecutionBackend, ProcessPoolBackend, SerialBackend
from repro.exec.cache import ResultCache
from repro.scenario import Axis, Report, Scenario, StopPolicy, Study, Variant, run_study
from repro.scenario.builtin import (
    cost_table_study,
    es_programming_study,
    refine_sweep_study,
    single_run_study,
    sweep_study,
)
from repro.stats.latency import LatencySummary

TINY = SimulationConfig.tiny(measure_messages=150, warmup_messages=20)


def scripted_result(config: SimulationConfig, saturated: bool) -> SimulationResult:
    summary = LatencySummary(
        created=10,
        delivered=10,
        measured=10,
        avg_total_latency=100.0 * config.normalized_load,
        avg_network_latency=90.0 * config.normalized_load,
        std_total_latency=1.0,
        max_total_latency=200.0,
        avg_hops=4.0,
        throughput=config.normalized_load,
        cycles=1000,
        completion_ratio=1.0,
        saturated=saturated,
    )
    return SimulationResult(
        config=config, summary=summary, zero_load_latency=20.0, cycles=1000
    )


class ScriptedBackend(ExecutionBackend):
    """Fabricates results instantly; saturates at/above a load threshold."""

    def __init__(self, wave_size: int = 1, saturation_load: float = 0.5, cache=None):
        super().__init__(cache=cache)
        self._wave_size = wave_size
        self.saturation_load = saturation_load
        self.executed: List[SimulationConfig] = []

    @property
    def wave_size(self) -> int:
        return self._wave_size

    def _execute(self, configs: Sequence[SimulationConfig], on_result):
        results = []
        for index, config in enumerate(configs):
            self.executed.append(config)
            result = scripted_result(
                config, saturated=config.normalized_load >= self.saturation_load
            )
            on_result(index, result)
            results.append(result)
        return results


# -- real simulations through the study path ---------------------------------------


def test_single_run_study_produces_one_summary_row():
    outcome = run_study(single_run_study(TINY))
    assert len(outcome.points) == 1
    assert len(outcome.rows) == 1
    assert outcome.rows[0]["traffic"] == "uniform"
    assert outcome.rows[0]["latency"] > 0


def test_analytic_studies_need_no_backend():
    outcome = run_study(cost_table_study(num_nodes=16, n_dims=2))
    assert outcome.points == ()
    assert any("economical" in str(row.values()) for row in outcome.rows)
    figure7 = run_study(es_programming_study())
    assert len(figure7.rows) == 9


def test_results_are_backend_independent_and_cached(tmp_path):
    study = sweep_study(TINY, loads=(0.05, 0.15), stop_at_saturation=False)
    serial = run_study(study, backend=SerialBackend())
    cache = ResultCache(tmp_path)
    with ProcessPoolBackend(workers=2, cache=cache) as backend:
        pooled = run_study(study, backend=backend)
        assert backend.simulations_run == 2
    assert pooled.results == serial.results
    # Second run is served entirely from the cache.
    cached_backend = SerialBackend(cache=ResultCache(tmp_path))
    rerun = run_study(study, backend=cached_backend)
    assert cached_backend.simulations_run == 0
    assert rerun.results == serial.results


def test_explicit_scenarios_run_through_the_batch_path():
    study = Study(
        name="listed",
        base=TINY.to_dict(),
        scenarios=(
            Scenario(name="slow", overrides={"normalized_load": 0.05}),
            Scenario(name="fast", overrides={"normalized_load": 0.2}),
        ),
        report=Report(reporter="summary"),
    )
    outcome = run_study(study)
    assert [row["load"] for row in outcome.rows] == [0.05, 0.2]


def test_suite_members_share_one_backend(tmp_path):
    member = sweep_study(TINY, loads=(0.05,), stop_at_saturation=False)
    suite = Study(
        name="mini-suite",
        kind="suite",
        base=TINY.to_dict(),
        members=(
            member,
            cost_table_study(num_nodes=16, n_dims=2),
        ),
    )
    backend = SerialBackend(cache=ResultCache(tmp_path))
    outcome = run_study(suite, backend=backend)
    assert backend.simulations_run == 1
    assert outcome.member("sweep").rows
    assert outcome.member("table5").rows
    with pytest.raises(KeyError):
        outcome.member("nope")
    markdown = outcome.to_markdown()
    assert markdown.startswith("## Reproduction campaign")


# -- stop-policy semantics (scripted backend, no real simulations) -----------------


def test_sweep_stops_at_first_saturated_load():
    study = sweep_study(TINY, loads=(0.1, 0.6, 0.2, 0.3))
    backend = ScriptedBackend(saturation_load=0.5)
    outcome = run_study(study, backend=backend)
    # The saturated point is kept, later loads are never simulated.
    assert [p.config.normalized_load for p in outcome.points] == [0.1, 0.6]
    assert [c.normalized_load for c in backend.executed] == [0.1, 0.6]
    assert outcome.results[-1].saturated
    assert outcome.rows[-1]["latency"] == "Sat."


def test_sweep_wave_may_simulate_past_saturation_but_rows_truncate():
    study = sweep_study(TINY, loads=(0.1, 0.6, 0.2, 0.3))
    backend = ScriptedBackend(wave_size=4, saturation_load=0.5)
    outcome = run_study(study, backend=backend)
    # The whole wave was simulated (and would be cached)...
    assert len(backend.executed) == 4
    # ...but the reported curve still truncates at the saturated load.
    assert [p.config.normalized_load for p in outcome.points] == [0.1, 0.6]


def _reference_stop_study(loads) -> Study:
    return Study(
        name="ref-stop",
        base=TINY.to_dict(),
        axes=(
            Axis(field="traffic", values=("uniform", "transpose")),
            Axis(field="normalized_load", values=tuple(loads), label="load"),
            Axis(
                name="router",
                variants=(
                    Variant(name="det", overrides={"routing": "dimension-order"}),
                    Variant(name="ref", overrides={"routing": "duato"}),
                ),
            ),
        ),
        stop=StopPolicy(mode="reference", reference="ref"),
        report=Report(reporter="reference-relative", options={"reference": "ref"}),
    )


def test_reference_stop_breaks_per_outer_group():
    study = _reference_stop_study(loads=(0.1, 0.6, 0.2))
    backend = ScriptedBackend(saturation_load=0.5)
    outcome = run_study(study, backend=backend)
    per_traffic = {}
    for point in outcome.points:
        per_traffic.setdefault(point.coord("traffic"), []).append(
            (point.coord("load"), point.variant)
        )
    # Each traffic pattern walks its own loads, records the saturating
    # batch, and never simulates the load after it.
    expected = [(0.1, "det"), (0.1, "ref"), (0.6, "det"), (0.6, "ref")]
    assert per_traffic == {"uniform": expected, "transpose": expected}
    # Rows exist for both loads of both patterns.
    assert [(row["traffic"], row["load"]) for row in outcome.rows] == [
        ("uniform", 0.1), ("uniform", 0.6),
        ("transpose", 0.1), ("transpose", 0.6),
    ]


def test_reference_stop_requires_the_reference_variant():
    # Caught at spec construction, before any simulation is burned.
    with pytest.raises(ValueError) as excinfo:
        Study(
            name="missing-ref",
            base=TINY.to_dict(),
            axes=(
                Axis(field="normalized_load", values=(0.1,), label="load"),
                Axis(name="router", variants=(Variant(name="only", overrides={}),)),
            ),
            stop=StopPolicy(mode="reference", reference="ghost"),
            report=Report(reporter="summary"),
        )
    assert "ghost" in str(excinfo.value)


def test_reference_stop_rejects_misordered_axes():
    # The variant axis must come after the stop (last value) axis.
    with pytest.raises(ValueError) as excinfo:
        Study(
            name="misordered",
            base=TINY.to_dict(),
            axes=(
                Axis(
                    name="router",
                    variants=(Variant(name="ref", overrides={}),),
                ),
                Axis(field="normalized_load", values=(0.1,), label="load"),
            ),
            stop=StopPolicy(mode="reference", reference="ref"),
            report=Report(reporter="summary"),
        )
    assert "reorder the axes" in str(excinfo.value)


def test_any_stop_with_variant_axis_keeps_whole_batches():
    study = Study(
        name="batched",
        base=TINY.to_dict(),
        axes=(
            Axis(field="normalized_load", values=(0.1, 0.6, 0.2), label="load"),
            Axis(
                name="seed",
                variants=(
                    Variant(name="s1", overrides={"seed": 1}),
                    Variant(name="s2", overrides={"seed": 2}),
                ),
            ),
        ),
        stop=StopPolicy(mode="any"),
        report=Report(reporter="variant-grid"),
    )
    outcome = run_study(study, backend=ScriptedBackend(saturation_load=0.5))
    # Both variants of the saturated load are recorded; load 0.2 is not.
    assert [(p.coord("load"), p.variant) for p in outcome.points] == [
        (0.1, "s1"), (0.1, "s2"), (0.6, "s1"), (0.6, "s2"),
    ]


# -- refine mode: knee-seeking bisection -------------------------------------------


def _refine_study(loads, tolerance=0.1, max_points=0, reporter="confidence"):
    return Study(
        name="refine",
        base=TINY.to_dict(),
        axes=(Axis(field="normalized_load", values=tuple(loads), label="load"),),
        stop=StopPolicy(mode="refine", tolerance=tolerance, max_points=max_points),
        report=Report(reporter=reporter),
    )


def test_refine_bisects_toward_the_saturation_knee():
    # Saturation at 0.5: the bracket walks (0.1, 0.9) -> (0.1, 0.5)
    # -> (0.3, 0.5) -> (0.4, 0.5), which is within tolerance 0.1.
    backend = ScriptedBackend(saturation_load=0.5)
    outcome = run_study(_refine_study(loads=(0.1, 0.9)), backend=backend)
    assert [c.normalized_load for c in backend.executed] == [0.1, 0.9, 0.5, 0.3, 0.4]
    assert [p.config.normalized_load for p in outcome.points] == [
        0.1, 0.9, 0.5, 0.3, 0.4,
    ]
    # The knee is bracketed: the largest unsaturated and smallest
    # saturated executed loads are within tolerance.
    unsat = max(p for p, r in zip([0.1, 0.9, 0.5, 0.3, 0.4], outcome.results)
                if not r.saturated)
    sat = min(p for p, r in zip([0.1, 0.9, 0.5, 0.3, 0.4], outcome.results)
              if r.saturated)
    assert sat - unsat <= 0.1


def test_refine_brackets_a_simulated_knee_in_fewer_points_than_a_fixed_grid():
    # Transpose under dimension-order routing has a pronounced knee
    # inside (0.1, 0.9); the window is long enough for the backlog past
    # it to trip the saturation detector.
    base = SimulationConfig(
        mesh_dims=(8, 8),
        traffic="transpose",
        routing="dimension-order",
        message_length=20,
        warmup_messages=150,
        measure_messages=1_200,
        seed=7,
    )
    tolerance = 0.1
    outcome = run_study(
        refine_sweep_study(base, loads=(0.1, 0.9), tolerance=tolerance, max_points=0)
    )
    executed = [
        (point.config.normalized_load, result.saturated)
        for point, result in zip(outcome.points, outcome.results)
    ]
    high = min(load for load, saturated in executed if saturated)
    low = max(load for load, saturated in executed if not saturated and load < high)
    assert high - low <= tolerance + 1e-12, executed
    # A fixed grid locating the knee as closely steps the whole span.
    fixed_grid_points = round((0.9 - 0.1) / tolerance) + 1
    assert len(executed) < fixed_grid_points, executed


def test_refine_respects_the_point_budget():
    backend = ScriptedBackend(saturation_load=0.5)
    outcome = run_study(
        _refine_study(loads=(0.1, 0.9), tolerance=0.001, max_points=3),
        backend=backend,
    )
    # 2 seed-grid points + 1 bisection = the budget of 3.
    assert len(outcome.points) == 3
    assert [c.normalized_load for c in backend.executed] == [0.1, 0.9, 0.5]


def test_refine_without_a_saturated_point_returns_the_grid():
    backend = ScriptedBackend(saturation_load=5.0)
    outcome = run_study(_refine_study(loads=(0.1, 0.3)), backend=backend)
    assert [p.config.normalized_load for p in outcome.points] == [0.1, 0.3]


def test_refine_with_everything_saturated_returns_the_grid():
    backend = ScriptedBackend(saturation_load=0.0)
    outcome = run_study(_refine_study(loads=(0.1, 0.3)), backend=backend)
    assert [p.config.normalized_load for p in outcome.points] == [0.1, 0.3]


def test_refine_rows_are_identical_across_wave_sizes():
    serial_like = ScriptedBackend(wave_size=1, saturation_load=0.5)
    wide = ScriptedBackend(wave_size=8, saturation_load=0.5)
    serial_rows = run_study(_refine_study(loads=(0.1, 0.9)), backend=serial_like).rows
    wide_rows = run_study(_refine_study(loads=(0.1, 0.9)), backend=wide).rows
    assert serial_rows == wide_rows


def test_refine_with_variant_axis_and_reference():
    # The reference variant alone decides saturation for each bisected load.
    study = Study(
        name="refine-ref",
        base=TINY.to_dict(),
        axes=(
            Axis(field="normalized_load", values=(0.1, 0.9), label="load"),
            Axis(
                name="router",
                variants=(
                    Variant(name="det", overrides={"routing": "dimension-order"}),
                    Variant(name="ref", overrides={"routing": "duato"}),
                ),
            ),
        ),
        stop=StopPolicy(mode="refine", reference="ref", tolerance=0.25),
        report=Report(reporter="variant-grid"),
    )
    backend = ScriptedBackend(saturation_load=0.5)
    outcome = run_study(study, backend=backend)
    # Each bisected load carries the whole variant batch.
    assert [(p.coord("load"), p.variant) for p in outcome.points] == [
        (0.1, "det"), (0.1, "ref"), (0.9, "det"), (0.9, "ref"),
        (0.5, "det"), (0.5, "ref"), (0.3, "det"), (0.3, "ref"),
    ]


def test_refined_points_look_like_expanded_ones():
    backend = ScriptedBackend(saturation_load=0.5)
    outcome = run_study(_refine_study(loads=(0.1, 0.9)), backend=backend)
    midpoint = outcome.points[2]
    assert midpoint.coord("load") == 0.5
    assert midpoint.scenario.name == "load=0.5"
    assert midpoint.config.normalized_load == 0.5


def test_reference_stop_uses_speculative_waves():
    study = _reference_stop_study(loads=(0.1, 0.6, 0.2))
    serial_like = ScriptedBackend(wave_size=1, saturation_load=0.5)
    wide = ScriptedBackend(wave_size=4, saturation_load=0.5)
    serial_outcome = run_study(study, backend=serial_like)
    wide_outcome = run_study(study, backend=wide)
    # The wide backend simulates whole waves (possibly past saturation)...
    assert len(wide.executed) > 0
    # ...in fewer run_configs round-trips than the serial walk, while the
    # reported rows stay byte-identical.
    assert serial_outcome.rows == wide_outcome.rows
    assert [p.scenario.name for p in serial_outcome.points] == [
        p.scenario.name for p in wide_outcome.points
    ]


def test_stop_policy_with_only_variant_axes_names_the_study():
    with pytest.raises(ValueError) as excinfo:
        Study(
            name="variants-only",
            base=TINY.to_dict(),
            axes=(
                Axis(name="router", variants=(Variant(name="a", overrides={}),)),
            ),
            stop=StopPolicy(mode="any"),
            report=Report(reporter="summary"),
        )
    message = str(excinfo.value)
    assert "variants-only" in message
    assert "value axis" in message
