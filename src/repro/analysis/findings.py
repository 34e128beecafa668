"""Rule metadata and finding records of the house-style linter.

Every rule has a stable identifier ``<FAMILY><NNN>`` whose first letter
names its checker family:

``D``
    Determinism: unordered iteration, ambient randomness and wall-clock
    reads in simulation code (:mod:`repro.analysis.determinism`).
``W``
    Wake contract: schedule-relevant state mutations paired with their
    pending counter or wake (:mod:`repro.analysis.wake`).
``R``
    Registry/spec consistency: constructible registry entries, valid
    study-spec fields, complete schedule mode pairs
    (:mod:`repro.analysis.registry_spec`).

Identifiers are part of the public contract: suppressions
(``# repro: allow=D001``), exit codes and the JSON report all use them,
so renaming or renumbering a rule is a breaking change.  The retired
``C`` family (cache-key drift) leaves its exit bit unused: the
result-cache key hashes every configuration field and the component
provenance, so it follows the configuration by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "FAMILIES",
    "FAMILY_EXIT_BITS",
    "Finding",
    "RULES",
    "Rule",
]

#: Checker families in report order.
FAMILIES: Tuple[str, ...] = ("D", "W", "R")

#: Exit-code bit of each family: the linter's exit status is the OR of
#: the bits of every family with at least one finding (0 = clean), so a
#: caller can tell *which* contracts failed from the code alone.  Bit 2
#: belonged to the retired ``C`` family and stays unused.
FAMILY_EXIT_BITS: Dict[str, int] = {"D": 1, "W": 4, "R": 8}


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable id, short name and rationale."""

    id: str
    name: str
    rationale: str

    @property
    def family(self) -> str:
        """Family letter (the id's first character)."""
        return self.id[0]


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
        Rule(
            "W001",
            "unpaired-quiescence-mutation",
            "A declared schedule-relevant container grew without its "
            "pending-counter update (or wake) in the same method: the "
            "schedule could skip the new work.  See "
            "repro.analysis.wake.WAKE_CONTRACTS.",
        ),
        Rule(
            "R001",
            "unconstructible-registry-entry",
            "A registered component could not be constructed through its "
            "documented factory signature; studies naming it would fail "
            "deep inside network assembly.",
        ),
        Rule(
            "R002",
            "unknown-study-spec-field",
            "A study spec override names a key that is not a "
            "SimulationConfig field; the spec would raise only when it is "
            "expanded and run.",
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

    @property
    def family(self) -> str:
        """Family letter of the finding's rule."""
        return self.rule[0]

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """One-line human-readable rendering (path:line:col: ID message)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-report row."""
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
