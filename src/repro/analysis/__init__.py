"""Static analysis of the repro house style.

The repo's fast path (the flat C core) stays bit-identical to its
reference (the object core) only while a handful of conventions hold:
seeded RNG streams only, no unordered iteration in simulation code,
a pending counter or wake beside every growth of state that is read
through a summary, and registry entries and study specs that construct.  This package enforces those
conventions *statically*, before an expensive campaign can diverge:

=========  =========================================================
family     checks
=========  =========================================================
``D``      determinism: set iteration, ambient ``random``, unseeded
           RNGs, wall-clock/`id()` ordering
           (:mod:`repro.analysis.determinism`)
``W``      wake-contract pairing at declared mutation sites
           (:mod:`repro.analysis.wake`)
``R``      registry constructibility, study-spec fields, the core
           schedule pair (:mod:`repro.analysis.registry_spec`)
=========  =========================================================

Run it with ``python -m repro.analysis src/repro`` or ``repro.cli
lint``; suppress a finding inline with ``# repro: allow=<RULE>``
(documented in :mod:`repro.analysis.source`).  The exit code is the OR
of the failing families' bits (D=1, W=4, R=8; bit 2 belonged to the
retired cache-key family and stays unused).
"""

from repro.analysis.findings import FAMILIES, FAMILY_EXIT_BITS, RULES, Finding, Rule
from repro.analysis.runner import LintReport, main, run_lint
from repro.analysis.source import PythonSource, discover_sources
from repro.analysis.wake import WAKE_CONTRACTS

__all__ = [
    "FAMILIES",
    "FAMILY_EXIT_BITS",
    "Finding",
    "LintReport",
    "PythonSource",
    "RULES",
    "Rule",
    "WAKE_CONTRACTS",
    "discover_sources",
    "main",
    "run_lint",
]
