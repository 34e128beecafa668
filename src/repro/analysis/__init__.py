"""Static determinism checks of the repro house style.

Simulation results must be a pure function of the configuration (the
seed included): the fast path (the flat C core) stays bit-identical to
its reference (the object core), and a campaign is reproducible, only
while simulation code draws no order from the hash seed, no value from
an ambient or OS-seeded generator and no decision from the wall clock.
Tests see only the code paths they execute; this linter sees every
line, so it enforces those conventions *statically* with the ``D``
rules of :mod:`repro.analysis.determinism` (``D001``-``D004``, listed
in :data:`~repro.analysis.findings.RULES`).

Run it with ``python -m repro.analysis src/repro`` or ``repro.cli
lint``; suppress a finding inline with ``# repro: allow=<RULE>``
(documented in :mod:`repro.analysis.source`).  The exit code is 0 when
clean, 1 on any finding and 64 on a usage error.
"""

from repro.analysis.findings import RULES, Finding, Rule
from repro.analysis.runner import LintReport, main, run_lint
from repro.analysis.source import PythonSource, discover_sources

__all__ = [
    "Finding",
    "LintReport",
    "PythonSource",
    "RULES",
    "Rule",
    "discover_sources",
    "main",
    "run_lint",
]
