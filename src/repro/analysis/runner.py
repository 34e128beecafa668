"""Lint orchestration: discovery, checking, reports, exit codes.

:func:`run_lint` is the library entry point; :func:`main` the CLI one
(shared by ``python -m repro.analysis`` and ``repro.cli lint``).  The
exit code is ``0`` clean, ``1`` on any finding and ``64`` on a usage
error (a missing path or a file that does not parse).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.determinism import DeterminismChecker
from repro.analysis.findings import RULES, Finding
from repro.analysis.source import discover_sources

__all__ = ["LintReport", "add_lint_arguments", "main", "run_lint", "run_from_args"]

#: JSON report schema version (bump on breaking shape changes).
#: Version 3: no ``counts`` block and no per-finding ``family``.
REPORT_FORMAT = 3


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        """1 when there is any finding, 0 when clean."""
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "files_checked": self.files_checked,
            "exit_code": self.exit_code,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines = [finding.format() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) across {self.files_checked} file(s)"
            if self.findings
            else f"clean: 0 findings across {self.files_checked} file(s)"
        )
        return "\n".join(lines)


def run_lint(paths: Sequence[Path]) -> LintReport:
    """Lint every Python file under ``paths``, honouring inline
    suppressions, and return the sorted report."""
    checker = DeterminismChecker()
    sources = discover_sources(paths)
    findings: List[Finding] = [
        finding
        for source in sources
        for finding in checker.check_source(source)
        if not source.is_suppressed(finding.rule, finding.line)
    ]
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
            print(f"{rule.id}  {rule.name}")
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
            "House-style linter: determinism checks (D001-D004) of "
            "simulation code"
        ),
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
