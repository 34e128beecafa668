"""Contract-level tests of the house-style linter.

Two things live here because they exercise the *live* tree rather than
fixtures:

* the R-checks against the real registries and builtin study specs,
  plus deliberately broken temporary entries;
* the tier-1 guarantee that the repository itself lints clean through
  the same entry points CI uses, with no suppressions beyond the
  documented ones.

The hash-seed regression at the bottom pins the property the D-checks
exist to protect: simulation results are bit-identical across
``PYTHONHASHSEED`` values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.registry_spec import (
    probe_registry_entries,
    study_spec_findings,
)
from repro.analysis.runner import main, run_lint
from repro.analysis.source import discover_sources
from repro.registry import REGISTRIES
from repro.scenario.spec import Study

SRC_REPRO = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_REPRO.parent.parent


# -- R-checks ------------------------------------------------------------------------


def test_every_builtin_registry_entry_is_constructible():
    assert probe_registry_entries() == []


def test_r001_fires_on_a_broken_registry_entry():
    registry = REGISTRIES["selector"]

    def broken_selector(rng):
        raise RuntimeError("fixture: deliberately unconstructible")

    registry.register("lint-broken-fixture", obj=broken_selector)
    try:
        findings = probe_registry_entries(kinds=["selector"])
        assert [f.rule for f in findings] == ["R001"]
        message = findings[0].message
        assert "lint-broken-fixture" in message
        assert "deliberately unconstructible" in message
    finally:
        registry.unregister("lint-broken-fixture")
    assert probe_registry_entries(kinds=["selector"]) == []


def test_workload_probe_passes_for_builtin_generators():
    assert probe_registry_entries(kinds=["workload"]) == []


def test_r001_fires_on_a_broken_workload_factory():
    registry = REGISTRIES["workload"]

    def broken_workload(config, topology):
        raise RuntimeError("fixture: workload deliberately unconstructible")

    registry.register("lint-broken-workload", obj=broken_workload)
    try:
        findings = probe_registry_entries(kinds=["workload"])
        assert [f.rule for f in findings] == ["R001"]
        message = findings[0].message
        assert "lint-broken-workload" in message
        assert "deliberately unconstructible" in message
    finally:
        registry.unregister("lint-broken-workload")
    assert probe_registry_entries(kinds=["workload"]) == []


def test_r001_fires_on_a_workload_factory_returning_the_wrong_type():
    registry = REGISTRIES["workload"]

    def wrong_type_workload(config, topology):
        return {"not": "a dag"}

    registry.register("lint-wrong-type-workload", obj=wrong_type_workload)
    try:
        findings = probe_registry_entries(kinds=["workload"])
        assert [f.rule for f in findings] == ["R001"]
        assert "expected WorkloadDag" in findings[0].message
    finally:
        registry.unregister("lint-wrong-type-workload")


def test_r002_fires_on_unknown_study_spec_fields():
    study = Study.from_dict(
        {
            "study": "fixture",
            "base": {"normalized_load": 0.2, "bogus_knob": 1},
            "axes": [
                {"field": "mystery_field", "values": [1, 2]},
                {
                    "name": "shape",
                    "variants": [
                        {"name": "bad", "overrides": {"phantom": True}},
                    ],
                },
            ],
            "scenarios": [],
        }
    )
    findings = study_spec_findings(study, "<fixture>")
    named = {f.message.split("names ")[1].split(",")[0] for f in findings}
    assert {f.rule for f in findings} == {"R002"}
    assert named == {"'bogus_knob'", "'mystery_field'", "'phantom'"}


def test_r002_accepts_real_config_fields():
    study = Study.from_dict(
        {
            "study": "fixture",
            "base": {"normalized_load": 0.2, "mesh_dims": [4, 4]},
            "axes": [{"field": "vcs_per_port", "values": [2, 4]}],
            "scenarios": [{"name": "hot", "overrides": {"traffic": "hotspot"}}],
        }
    )
    assert study_spec_findings(study, "<fixture>") == []


# -- the repository itself is lint-clean ---------------------------------------------


def test_repository_lints_clean():
    report = run_lint([SRC_REPRO])
    assert report.findings == [], "\n" + report.format_text()
    assert report.exit_code == 0
    assert report.files_checked > 50


def test_only_documented_suppressions_exist():
    """Every ``# repro: allow=`` in the tree is an explicit, reviewed
    exception; add new ones here alongside their justification.  There
    are none."""
    documented = set()
    found = {
        (source.module, frozenset(source.suppressed_rules()))
        for source in discover_sources([SRC_REPRO])
        if source.suppressed_rules()
    }
    assert found == documented


def test_module_entry_point_reports_clean(capsys):
    assert main([str(SRC_REPRO)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("clean: 0 findings")


def test_list_rules_covers_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D001", "D002", "D003", "D004", "W001", "R001", "R002"):
        assert rule_id in out


def test_json_report_artifact(tmp_path, capsys):
    artifact = tmp_path / "lint-report.json"
    code = main(
        [str(SRC_REPRO), "--format", "json", "--output", str(artifact)]
    )
    assert code == 0
    data = json.loads(artifact.read_text(encoding="utf-8"))
    assert data["format"] == 2
    assert data["exit_code"] == 0
    assert data["findings"] == []
    assert data["counts"] == {"D": 0, "W": 0, "R": 0}
    assert json.loads(capsys.readouterr().out) == data


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent")]) == 64
    assert "does not exist" in capsys.readouterr().err


def test_cli_lint_subcommand_is_wired():
    from repro.cli import main as cli_main

    assert cli_main(["lint", "--list-rules"]) == 0


# -- the property the D-checks protect -----------------------------------------------


def test_simulation_results_are_identical_across_hash_seeds():
    """Bit-identical result JSON under different PYTHONHASHSEED values:
    the regression a missed set-iteration (D001) would break."""
    script = (
        "import sys\n"
        "from repro.core.config import SimulationConfig\n"
        "from repro.exec.backend import simulate_config\n"
        "config = SimulationConfig.tiny(\n"
        "    measure_messages=120, warmup_messages=20, seed=11\n"
        ")\n"
        "sys.stdout.write(simulate_config(config).to_json())\n"
    )
    outputs = []
    for hash_seed in ("0", "31337"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_REPRO.parent)
        env["PYTHONHASHSEED"] = hash_seed
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])  # non-empty, well-formed result
