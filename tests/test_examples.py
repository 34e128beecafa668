"""Tests that the example scripts are importable and runnable.

Every example is imported as a module, so a syntax error or a stale
import cannot slip through unnoticed (examples run only under their
``__main__`` guard).  The three study scripts are also executed in their
``--quick`` smoke-test mode as subprocesses (they exercise the public API
end to end).
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from repro.registry import REGISTRIES

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
SRC_DIR = REPO_ROOT / "src"

ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
QUICK_EXAMPLES = [
    "lookahead_study.py",
    "path_selection_study.py",
    "table_storage_study.py",
]


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_examples_directory_has_at_least_three_scenarios():
    assert len(ALL_EXAMPLES) >= 4
    assert (EXAMPLES_DIR / "quickstart.py").exists()


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda path: path.name)
def test_every_example_compiles(path, monkeypatch):
    registered = {kind: set(registry.names()) for kind, registry in REGISTRIES.items()}
    name = f"_import_check_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    try:
        spec.loader.exec_module(module)
    finally:
        # Plugin examples register components on import; forget them so
        # later tests load them through ``load_plugin`` as usual.
        for kind, registry in REGISTRIES.items():
            for added in set(registry.names()) - registered[kind]:
                registry.unregister(added)


@pytest.mark.slow
@pytest.mark.parametrize("name", QUICK_EXAMPLES)
def test_study_examples_run_in_quick_mode(name):
    completed = run_example(name, "--quick")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "example produced no output"


@pytest.mark.slow
def test_lookahead_study_output_mentions_the_router_variants():
    completed = run_example("lookahead_study.py", "--quick")
    assert completed.returncode == 0, completed.stderr
    assert "la_adapt_latency" in completed.stdout
    assert "pct_improvement" in completed.stdout


@pytest.mark.slow
def test_table_storage_study_prints_cost_and_programming_tables():
    completed = run_example("table_storage_study.py", "--quick")
    assert completed.returncode == 0, completed.stderr
    assert "economical-storage" in completed.stdout
    assert "north_last_ports" in completed.stdout


def test_custom_network_prints_each_load_at_two_decimals():
    """The sweep's loads 0.15/0.3/0.45 keep their second decimal in the
    printed table (one decimal would show 0.1/0.3/0.5)."""
    completed = run_example("custom_network.py")
    assert completed.returncode == 0, completed.stderr
    rows = [line.split() for line in completed.stdout.splitlines()]
    labels = [
        (row[0], row[1]) for row in rows if row and row[0] in ("north-last", "duato")
    ]
    assert labels == [
        (routing, load)
        for routing in ("north-last", "duato")
        for load in ("0.15", "0.30", "0.45")
    ]
