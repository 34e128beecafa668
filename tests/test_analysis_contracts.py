"""Contract-level tests of the house-style linter.

These exercise the *live* tree rather than fixtures: the tier-1
guarantee that the repository itself lints clean through the same entry
points CI uses, with no suppressions beyond the documented ones.

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
from repro.analysis.runner import REPORT_FORMAT, main, run_lint
from repro.analysis.source import discover_sources

SRC_REPRO = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_REPRO.parent.parent


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
    for rule_id in ("D001", "D002", "D003", "D004"):
        assert rule_id in out
    assert "exit bit" not in out


def test_json_report_artifact(tmp_path, capsys):
    artifact = tmp_path / "lint-report.json"
    code = main(
        [str(SRC_REPRO), "--format", "json", "--output", str(artifact)]
    )
    assert code == 0
    data = json.loads(artifact.read_text(encoding="utf-8"))
    assert data["format"] == REPORT_FORMAT == 3
    assert data["exit_code"] == 0
    assert data["findings"] == []
    assert json.loads(capsys.readouterr().out) == data


def test_a_determinism_finding_exits_one(capsys):
    fixture = REPO_ROOT / "tests" / "fixtures" / "analysis" / "d_random_bad.py"
    assert main([str(fixture)]) == 1
    assert "D002" in capsys.readouterr().out


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
