"""Scenario/Study specs: JSON round-trip and deterministic expansion."""

import json

import pytest

from repro.core.config import SimulationConfig
from repro.registry import STUDIES
from repro.scenario import Axis, Report, Scenario, StopPolicy, Study, Variant, load_study
from repro.scenario.builtin import (
    campaign_study,
    lookahead_study,
    spec_path,
    sweep_study,
)


def sample_study():
    return Study(
        name="sample",
        title="A sample study",
        base=SimulationConfig.tiny().to_dict(),
        axes=(
            Axis(field="traffic", values=("uniform", "transpose")),
            Axis(field="normalized_load", values=(0.1, 0.2), label="load"),
            Axis(
                name="router",
                variants=(
                    Variant(name="a", overrides={"pipeline": "proud"}),
                    Variant(name="b", overrides={"pipeline": "la-proud"}),
                ),
            ),
        ),
        stop=StopPolicy(mode="reference", reference="b"),
        report=Report(reporter="reference-relative", options={"reference": "b"}),
    )


# -- JSON round-trip ---------------------------------------------------------------


def test_scenario_json_round_trip():
    scenario = Scenario(name="one", overrides={"traffic": "transpose", "seed": 7})
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_study_json_round_trip_is_exact():
    study = sample_study()
    assert Study.from_json(study.to_json()) == study


def test_every_builtin_study_round_trips():
    for name in STUDIES.names():
        study = STUDIES.get(name)()
        assert Study.from_json(study.to_json()) == study, name


def test_shipped_spec_files_match_the_registered_builders():
    # The JSON files next to repro/scenario/builtin are the serialized
    # default-parameter builders; this keeps them from rotting.  Their
    # bases hold only overrides of SimulationConfig(), so adding a
    # defaulted configuration field leaves every file unchanged.
    defaults = SimulationConfig().to_dict()
    for name in STUDIES.names():
        built = STUDIES.get(name)()
        shipped = Study.from_json(spec_path(name).read_text(encoding="utf-8"))
        assert shipped == built, name
        for study in (shipped,) + shipped.members:
            for key, value in study.base.items():
                assert value != defaults[key], (name, study.name, key)


def test_spec_files_are_plain_json():
    data = json.loads(spec_path("figure5").read_text(encoding="utf-8"))
    assert data["study"] == "figure5"
    assert data["kind"] == "grid"
    assert data["stop"] == {"mode": "reference", "reference": "la-adapt"}


def test_load_study_reads_files_and_builtin_names(tmp_path):
    study = sample_study()
    path = tmp_path / "sample.json"
    path.write_text(study.to_json(), encoding="utf-8")
    assert load_study(path) == study
    assert load_study("figure5") == STUDIES.get("figure5")()
    with pytest.raises(ValueError) as excinfo:
        load_study("no-such-study")
    assert "figure5" in str(excinfo.value)


# -- expansion ---------------------------------------------------------------------


def test_expansion_is_row_major_and_deterministic():
    study = sample_study()
    points = study.expand()
    names = [point.scenario.name for point in points]
    assert names == [
        "traffic=uniform/load=0.1/router=a",
        "traffic=uniform/load=0.1/router=b",
        "traffic=uniform/load=0.2/router=a",
        "traffic=uniform/load=0.2/router=b",
        "traffic=transpose/load=0.1/router=a",
        "traffic=transpose/load=0.1/router=b",
        "traffic=transpose/load=0.2/router=a",
        "traffic=transpose/load=0.2/router=b",
    ]
    assert names == [point.scenario.name for point in study.expand()]
    first = points[0]
    assert first.config.traffic == "uniform"
    assert first.config.normalized_load == 0.1
    assert first.config.pipeline == "proud"
    assert first.coord("load") == 0.1
    assert first.variant == "a"


def test_expansion_after_json_round_trip_matches():
    study = sample_study()
    reloaded = Study.from_json(study.to_json())
    assert [p.config for p in reloaded.expand()] == [p.config for p in study.expand()]


def test_bare_grid_study_expands_to_the_base_config():
    study = Study(name="solo", base=SimulationConfig.tiny().to_dict())
    points = study.expand()
    assert len(points) == 1
    assert points[0].config == SimulationConfig.tiny()


def test_explicit_scenarios_expand_in_order():
    study = Study(
        name="listed",
        base=SimulationConfig.tiny().to_dict(),
        scenarios=(
            Scenario(name="hot", overrides={"traffic": "hotspot"}),
            Scenario(name="cold", overrides={"normalized_load": 0.05}),
        ),
    )
    points = study.expand()
    assert [p.scenario.name for p in points] == ["hot", "cold"]
    assert points[0].config.traffic == "hotspot"
    assert points[1].config.normalized_load == 0.05


def test_mesh_dims_overrides_are_canonicalized_to_tuples():
    study = Study(
        name="dims",
        base=SimulationConfig.tiny().to_dict(),
        scenarios=(Scenario(name="big", overrides={"mesh_dims": [8, 8]}),),
    )
    config = study.expand()[0].config
    assert config.mesh_dims == (8, 8)
    assert hash(config) == hash(config.variant())


def test_expansion_validates_component_names_eagerly():
    study = Study(
        name="broken",
        base=SimulationConfig.tiny().to_dict(),
        axes=(Axis(field="traffic", values=("uniform", "not-a-pattern")),),
    )
    with pytest.raises(ValueError) as excinfo:
        study.expand()
    assert "not-a-pattern" in str(excinfo.value)


# -- spec validation ---------------------------------------------------------------


def test_unknown_study_kind_rejected():
    with pytest.raises(ValueError):
        Study(name="x", kind="mystery")


def test_analytic_study_needs_a_name():
    with pytest.raises(ValueError):
        Study(name="x", kind="analytic")


def test_suite_needs_members():
    with pytest.raises(ValueError):
        Study(name="x", kind="suite")


def test_stop_policy_validation():
    with pytest.raises(ValueError):
        StopPolicy(mode="sometimes")
    with pytest.raises(ValueError):
        StopPolicy(mode="reference")
    with pytest.raises(ValueError):
        # A stop policy needs a value axis to walk.
        Study(name="x", base={}, stop=StopPolicy(mode="any"))


def test_campaign_suite_contains_the_six_experiments():
    suite = campaign_study(SimulationConfig.tiny())
    assert [member.name for member in suite.members] == [
        "figure5", "table3", "figure6", "table4", "table5", "figure7",
    ]


def test_lookahead_study_appends_missing_reference():
    study = lookahead_study(SimulationConfig.tiny(), variants=("no-la-det",))
    variant_axis = study.axes[-1]
    assert [v.name for v in variant_axis.variants] == ["no-la-det", "la-adapt"]


def test_sweep_study_without_stop_runs_every_load():
    study = sweep_study(SimulationConfig.tiny(), loads=(0.1, 0.2), stop_at_saturation=False)
    assert study.stop is None
    assert len(study.expand()) == 2


def test_all_plugins_collects_suite_members_deduplicated():
    member_a = Study(name="a", base={}, plugins=("p1.py", "shared.py"))
    member_b = Study(name="b", base={}, plugins=("shared.py", "mod.dotted"))
    suite = Study(name="s", kind="suite", members=(member_a, member_b),
                  plugins=("top.py",))
    assert suite.all_plugins() == ("top.py", "p1.py", "shared.py", "mod.dotted")


def test_refine_stop_policy_round_trips():
    study = Study(
        name="refine-rt",
        base={},
        axes=(Axis(field="normalized_load", values=(0.1, 0.9), label="load"),),
        stop=StopPolicy(mode="refine", tolerance=0.05, max_points=12),
        report=Report(reporter="sweep"),
    )
    loaded = Study.from_json(study.to_json())
    assert loaded == study
    assert loaded.stop.tolerance == 0.05
    assert loaded.stop.max_points == 12


def test_refine_stop_policy_validation():
    with pytest.raises(ValueError):
        StopPolicy(mode="refine")  # needs a positive tolerance
    with pytest.raises(ValueError):
        StopPolicy(mode="refine", tolerance=-0.1)
    with pytest.raises(ValueError):
        StopPolicy(mode="refine", tolerance=0.1, max_points=-1)
    # Non-refine modes reject refine-only knobs.
    with pytest.raises(ValueError):
        StopPolicy(mode="any", tolerance=0.1)
    with pytest.raises(ValueError):
        StopPolicy(mode="any", max_points=5)


def test_refine_needs_a_numeric_stop_axis():
    with pytest.raises(ValueError) as excinfo:
        Study(
            name="refine-strings",
            base={},
            axes=(Axis(field="traffic", values=("uniform", "transpose")),),
            stop=StopPolicy(mode="refine", tolerance=0.1),
            report=Report(reporter="summary"),
        )
    assert "refine-strings" in str(excinfo.value)
