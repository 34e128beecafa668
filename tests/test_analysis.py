"""Self-tests of the house-style linter (:mod:`repro.analysis`).

Every rule is exercised against the fixture snippets under
``tests/fixtures/analysis``: the *bad* variant must fire and the *good*
(fixed) variant must stay silent, so the linter itself cannot silently
rot.  The suppression syntax, report formats and exit codes are pinned
here too; the repo-wide clean run and the CLI contract tests live in
``test_analysis_contracts.py``.
"""

from pathlib import Path

import pytest

from repro.analysis.determinism import DeterminismChecker, SIM_MODULE_PREFIXES
from repro.analysis.findings import RULES, Finding
from repro.analysis.runner import REPORT_FORMAT, LintReport, run_lint
from repro.analysis.source import PythonSource, discover_sources, parse_suppressions

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"

#: Module override landing a fixture inside the simulation scope.
SIM_FIXTURE_MODULE = "repro.router._analysis_fixture"


def load(name: str, module: str = SIM_FIXTURE_MODULE) -> PythonSource:
    return PythonSource.from_path(FIXTURES / name, module=module)


def lint_source(checker: DeterminismChecker, source: PythonSource):
    """check_source plus the runner's suppression filter."""
    return [
        finding
        for finding in checker.check_source(source)
        if not source.is_suppressed(finding.rule, finding.line)
    ]


# -- rule table ----------------------------------------------------------------------


def test_rule_table_is_complete_and_stable():
    assert set(RULES) == {"D001", "D002", "D003", "D004"}
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.name and rule.rationale


# -- D-checks ------------------------------------------------------------------------


def test_d001_fires_on_every_unordered_set_iteration():
    findings = lint_source(DeterminismChecker(), load("d_unordered_bad.py"))
    assert {f.rule for f in findings} == {"D001"}
    # The for loop, the list() call and the comprehension over the union.
    assert len(findings) == 3
    for finding in findings:
        assert "sorted" in finding.message


def test_d001_is_silent_once_sorted_imposes_the_order():
    assert lint_source(DeterminismChecker(), load("d_unordered_good.py")) == []


def test_d001_scope_is_the_simulation_packages_only():
    outside = load("d_unordered_bad.py", module="repro.cli")
    assert lint_source(DeterminismChecker(), outside) == []


def test_d002_d003_fire_on_ambient_and_unseedable_random():
    findings = lint_source(DeterminismChecker(), load("d_random_bad.py"))
    rules = sorted(f.rule for f in findings)
    # shuffle + randrange ambient, Random() + SystemRandom() unseedable.
    assert rules == ["D002", "D002", "D003", "D003"]


def test_d002_applies_even_outside_the_simulation_scope():
    outside = load("d_random_bad.py", module="repro.cli")
    assert {f.rule for f in lint_source(DeterminismChecker(), outside)} == {
        "D002",
        "D003",
    }


def test_the_rng_module_itself_is_exempt():
    inside = load("d_random_bad.py", module="repro.engine.rng")
    assert lint_source(DeterminismChecker(), inside) == []


def test_d_random_good_fixture_is_clean():
    assert lint_source(DeterminismChecker(), load("d_random_good.py")) == []


def test_d004_fires_on_wallclock_and_id():
    findings = lint_source(DeterminismChecker(), load("d_wallclock_bad.py"))
    assert [f.rule for f in findings] == ["D004", "D004"]
    messages = " ".join(f.message for f in findings)
    assert "time.time()" in messages and "id()" in messages


def test_d004_good_fixture_is_clean():
    assert lint_source(DeterminismChecker(), load("d_wallclock_good.py")) == []


def test_sim_scope_covers_the_order_sensitive_packages():
    for prefix in ("repro.router", "repro.network", "repro.engine",
                   "repro.tables", "repro.stats"):
        assert prefix in SIM_MODULE_PREFIXES


# -- suppressions --------------------------------------------------------------------


def test_parse_suppressions_maps_lines_to_rule_sets():
    text = (
        "x = 1\n"
        "# repro: allow=D001 -- reason\n"
        "y = 2  # repro: allow=D002,D004\n"
    )
    allowed = parse_suppressions(text)
    assert allowed == {2: frozenset({"D001"}), 3: frozenset({"D002", "D004"})}


def test_suppressions_silence_only_the_named_rules():
    source = load("suppressed.py")
    raw = DeterminismChecker().check_source(source)
    assert [f.rule for f in raw] == ["D001", "D001", "D001"]
    filtered = lint_source(DeterminismChecker(), source)
    # Preceding-line and trailing allow=D001 comments silence the first
    # two loops; the allow=D004 comment names the wrong rule and the
    # third loop still fires.
    assert len(filtered) == 1
    assert source.is_suppressed("D001", raw[0].line)
    assert not source.is_suppressed("D001", filtered[0].line)
    assert source.suppressed_rules() == {"D001", "D004"}


def test_run_lint_applies_suppressions_per_file(tmp_path):
    target = tmp_path / "snippet.py"
    target.write_text(
        "import random\n"
        "a = random.random()\n"
        "b = random.random()  # repro: allow=D002\n",
        encoding="utf-8",
    )
    report = run_lint([target])
    assert [(f.rule, f.line) for f in report.findings] == [("D002", 2)]
    assert report.files_checked == 1
    assert report.exit_code == 1


# -- report shape and exit codes -----------------------------------------------------


def test_any_finding_exits_one():
    def finding(rule):
        return Finding(rule=rule, path="x.py", line=1, message="m")

    assert LintReport(findings=[]).exit_code == 0
    assert LintReport(findings=[finding("D001")]).exit_code == 1
    assert LintReport(findings=[finding("D001"), finding("D004")]).exit_code == 1


def test_report_dict_schema_and_text_rendering():
    finding = Finding(rule="D001", path="src/x.py", line=12, col=4, message="boom")
    report = LintReport(findings=[finding], files_checked=3)
    data = report.to_dict()
    assert data["format"] == REPORT_FORMAT
    assert data["files_checked"] == 3
    assert data["exit_code"] == 1
    assert data["findings"] == [finding.to_dict()]
    assert set(data) == {"format", "files_checked", "exit_code", "findings"}
    assert set(finding.to_dict()) == {"rule", "path", "line", "col", "message"}
    assert finding.format() == "src/x.py:12:4: D001 boom"
    text = report.format_text()
    assert "src/x.py:12:4: D001 boom" in text
    assert "1 finding(s) across 3 file(s)" in text
    assert "clean" in LintReport(files_checked=2).format_text()


def test_findings_sort_by_location_then_rule():
    findings = [
        Finding(rule="D004", path="b.py", line=1, message="m"),
        Finding(rule="D001", path="a.py", line=9, message="m"),
        Finding(rule="D001", path="a.py", line=2, message="m"),
    ]
    findings.sort(key=Finding.sort_key)
    assert [(f.path, f.line) for f in findings] == [
        ("a.py", 2),
        ("a.py", 9),
        ("b.py", 1),
    ]


# -- source discovery ----------------------------------------------------------------


def test_discover_sources_skips_pycache_and_dedups(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "junk.py").write_text("this is not python (", encoding="utf-8")
    sources = discover_sources([tmp_path, tmp_path / "pkg" / "mod.py"])
    names = [source.path.name for source in sources]
    assert names == ["__init__.py", "mod.py"]  # junk skipped, mod deduped


def test_discover_sources_raises_on_missing_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_sources([tmp_path / "nope"])


def test_discover_sources_raises_on_syntax_errors(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    with pytest.raises(SyntaxError):
        discover_sources([bad])


def test_module_names_are_inferred_from_the_package_layout():
    import repro.engine.clock as clock

    source = PythonSource.from_path(Path(clock.__file__))
    assert source.module == "repro.engine.clock"
