"""Rule metadata and finding records of the house-style linter.

Every rule has a stable identifier ``D<NNN>`` (the determinism checks of
:mod:`repro.analysis.determinism`).  Identifiers are part of the public
contract: suppressions (``# repro: allow=D001``) and the JSON report use
them, so renaming or renumbering a rule is a breaking change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding", "RULES", "Rule"]


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, short name and rationale."""

    id: str
    name: str
    rationale: str


#: Every rule the linter can emit, keyed by id.
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "D001",
            "unordered-set-iteration",
            "Iterating a set in simulation code draws an order from the "
            "process's hash seed; wrap the iterable in sorted(...) to pin "
            "it.  (Plain dict iteration is insertion-ordered in Python "
            "and is not flagged.)",
        ),
        Rule(
            "D002",
            "ambient-random-call",
            "Module-level random.* functions share one ambient generator "
            "whose state depends on call order across the whole process; "
            "draw from a named repro.engine.rng.SimulationRNG stream "
            "instead.",
        ),
        Rule(
            "D003",
            "unseeded-rng-construction",
            "random.Random() without a seed initialises from the OS "
            "entropy pool; every generator must derive from the "
            "configuration seed (SimulationRNG or random.Random(seed)).",
        ),
        Rule(
            "D004",
            "wallclock-or-identity-ordering",
            "time.* reads and id(...) values vary between runs and "
            "interpreters; simulation decisions must depend only on the "
            "simulated clock and stable identifiers.",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a file and line."""

    rule: str
    path: str
    line: int
    message: str
    col: int = 0

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """One-line human-readable rendering (path:line:col: ID message)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-report row."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
