"""Lint orchestration: discovery, checker dispatch, reports, exit codes.

:func:`run_lint` is the library entry point; :func:`main` the CLI one
(shared by ``python -m repro.analysis`` and ``repro.cli lint``).  The
exit code is the OR of the failing families' bits
(:data:`~repro.analysis.findings.FAMILY_EXIT_BITS`): ``0`` clean, bit 0
determinism, bit 2 wake contract, bit 3 registry/spec (bit 1 belonged
to the retired cache-key family and stays unused).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.determinism import DeterminismChecker
from repro.analysis.findings import FAMILIES, FAMILY_EXIT_BITS, RULES, Finding
from repro.analysis.registry_spec import RegistryChecker
from repro.analysis.source import discover_sources
from repro.analysis.wake import WakeChecker

__all__ = ["LintReport", "add_lint_arguments", "main", "run_lint", "run_from_args"]

#: JSON report schema version (bump on breaking shape changes).
#: Version 2: ``counts`` lost the retired ``C`` family.
REPORT_FORMAT = 2


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """OR of the failing families' exit bits (0 = clean)."""
        code = 0
        for finding in self.findings:
            code |= FAMILY_EXIT_BITS[finding.family]
        return code

    def counts(self) -> dict:
        """Findings per family, in report order."""
        counts = {family: 0 for family in FAMILIES}
        for finding in self.findings:
            counts[finding.family] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "files_checked": self.files_checked,
            "counts": self.counts(),
            "exit_code": self.exit_code,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines = [finding.format() for finding in self.findings]
        counts = self.counts()
        per_family = " ".join(f"{family}:{counts[family]}" for family in FAMILIES)
        lines.append(
            f"{len(self.findings)} finding(s) ({per_family}) "
            f"across {self.files_checked} file(s)"
            if self.findings
            else f"clean: 0 findings across {self.files_checked} file(s)"
        )
        return "\n".join(lines)


def default_checkers():
    """The three checker families at their committed configuration."""
    return (DeterminismChecker(), WakeChecker(), RegistryChecker())


def run_lint(paths: Sequence[Path], checkers=None) -> LintReport:
    """Lint every Python file under ``paths`` with ``checkers`` (default:
    all three families), honouring inline suppressions, and return the
    sorted report."""
    if checkers is None:
        checkers = default_checkers()
    sources = discover_sources(paths)
    findings: List[Finding] = []
    for source in sources:
        for checker in checkers:
            for finding in checker.check_source(source):
                if not source.is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
    for checker in checkers:
        findings.extend(checker.check_project(sources))
    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, files_checked=len(sources))


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options (shared with ``repro.cli lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="lint_format",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also write the JSON report to FILE (independent of --format)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id with its rationale and exit",
    )


def _default_paths() -> List[Path]:
    """Lint the package this linter is installed in."""
    return [Path(__file__).resolve().parents[1]]


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for rule_id in sorted(RULES):
            rule = RULES[rule_id]
            bit = FAMILY_EXIT_BITS[rule.family]
            print(f"{rule.id}  {rule.name}  [exit bit {bit}]")
            print(f"      {rule.rationale}")
        return 0
    paths = [Path(p) for p in args.paths] or _default_paths()
    try:
        report = run_lint(paths)
    except FileNotFoundError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 64
    except SyntaxError as error:
        print(f"lint: cannot parse {error.filename}: {error}", file=sys.stderr)
        return 64
    if args.output:
        Path(args.output).write_text(report.to_json(), encoding="utf-8")
    output = (
        report.to_json() if args.lint_format == "json" else report.format_text() + "\n"
    )
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:  # a consumer like `head` closed the pipe
        pass
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "House-style linter: determinism (D), wake contract (W) and "
            "registry/spec consistency (R) checks"
        ),
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
