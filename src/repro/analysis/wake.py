"""W-checks: schedule-relevant mutations paired with their bookkeeping.

Some Python state is read through a summary rather than scanned: the
object router's ``deliver`` skips its per-port mailboxes while their
pending counters read zero, and the flat core only visits an interface
whose wake cycle is due, so a released workload step must lower that
wake.  Anything that *adds* work to such state must therefore update
its summary in the same method, or the work is silently skipped.
:data:`WAKE_CONTRACTS` declares, per module, which attributes hold that
state and which guard identifiers count as its pairing. The checker then
verifies every growth site (``append``, ``extend``, ``add``, ``insert``,
``bisect.insort``, ``heapq.heappush``) of a declared attribute --
reached directly (``self._attr...``) or through local aliases
(``mailboxes = self._attr``, ``box = mailboxes[0]``) -- appears in a
top-level method that also mentions at least one complete guard group.

The pairing is deliberately *lexical* (identifier presence in the same
method, closures included): it cannot prove the guard dominates the
mutation, but it catches the realistic regression -- a new fast path
that grows a mailbox or queue and forgets its bookkeeping
entirely -- with no false positives on the current tree.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.base import Checker, identifier_names, walk_units
from repro.analysis.findings import Finding
from repro.analysis.source import PythonSource

__all__ = ["WAKE_CONTRACTS", "WakeChecker"]

#: Mutation method names that grow a container.
_GROW_METHODS = {"append", "appendleft", "extend", "extendleft", "add", "insert"}

#: Free functions that grow their first argument.
_GROW_FUNCS = {"insort", "insort_left", "insort_right", "heappush"}

#: Guard groups: ``attr -> ((id, ...), ...)``.  A mutation site is paired
#: when at least one group has *all* its identifiers present in the
#: enclosing top-level method; each group spells one accepted idiom
#: (wake-callback guard, pending counter, ...).
GuardGroups = Tuple[Tuple[str, ...], ...]

#: The declared schedule-relevant state, per module.
WAKE_CONTRACTS: Dict[str, Dict[str, GuardGroups]] = {
    "repro.router.router": {
        # Per-port tuple deques, paired with the pending counters
        # deliver reads before scanning them.
        "_flit_mailboxes": (("_pending_flits",),),
        "_credit_mailboxes": (("_pending_credits",),),
    },
    # The flat core's wheels, wake heap and worklist live in C
    # (repro/network/_flatcore.c), out of this checker's reach;
    # tests/test_flat_schedule.py checks them against full scans instead.
    "repro.workload.engine": {
        # Released DAG steps land in per-node pending lists the sources'
        # next_due_cycle forecasts read; every insort must re-arm the
        # home node's interface in the flat core through the attached
        # wake callback.
        "_pending": (("_wake_home",),),
    },
}


class WakeChecker(Checker):
    """Per-file W-checks over :data:`WAKE_CONTRACTS` (or an injected
    table, used by the fixture self-tests)."""

    rules = ("W001",)

    def __init__(
        self, contracts: Optional[Mapping[str, Dict[str, GuardGroups]]] = None
    ) -> None:
        self._contracts = contracts if contracts is not None else WAKE_CONTRACTS

    def check_source(self, source: PythonSource) -> List[Finding]:
        table = self._contracts.get(source.module)
        if not table:
            return []
        path = str(source.path)
        findings: List[Finding] = []
        for unit in walk_units(source.tree):
            names = identifier_names(unit)
            aliases = _alias_roots(unit, table)
            for site_line, site_col, attr in _mutation_sites(unit, table, aliases):
                if _guards_satisfied(table[attr], names):
                    continue
                groups = " or ".join(
                    "{" + ", ".join(group) + "}" for group in table[attr]
                )
                findings.append(
                    Finding(
                        rule="W001",
                        path=path,
                        line=site_line,
                        col=site_col,
                        message=(
                            f"{source.module}: growth of schedule-relevant "
                            f"{attr!r} in {unit.name}() without its wake "
                            f"pairing; expected all of one group: {groups}"
                        ),
                    )
                )
        return findings


def _guards_satisfied(groups: GuardGroups, names: Set[str]) -> bool:
    return any(all(guard in names for guard in group) for group in groups)


def _alias_roots(
    unit: ast.AST, table: Mapping[str, GuardGroups]
) -> Dict[str, Set[str]]:
    """Local name -> watched attributes it (transitively) aliases.

    Follows plain assignments whose right-hand side is a
    *reference-preserving* chain over watched state (``mailboxes =
    self._flit_mailboxes``, ``mailbox = mailboxes[port]``), iterated to
    a fixpoint so chains of any depth resolve.  Expressions that build
    new objects (comprehensions, calls, operators) never alias -- a copy
    of a mailbox's contents is not the mailbox.  Only simple-name targets are tracked.
    """
    aliases: Dict[str, Set[str]] = {}
    assignments = [
        node for node in ast.walk(unit) if isinstance(node, ast.Assign)
    ]
    changed = True
    while changed:
        changed = False
        for node in assignments:
            roots = _watched_roots(node.value, table, aliases)
            if not roots:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    known = aliases.setdefault(target.id, set())
                    if not roots <= known:
                        known |= roots
                        changed = True
    return aliases


def _watched_roots(
    node: ast.AST,
    table: Mapping[str, GuardGroups],
    aliases: Mapping[str, Set[str]],
) -> Set[str]:
    """Watched attributes ``node`` is a live reference into.

    Peels subscript and attribute chains down to their base: a watched
    attribute name anywhere on the chain (``self._flit_mailboxes[port]``)
    or an aliased local at its base both resolve to the watched root.
    Anything else (a call, a comprehension, a literal) resolves to
    nothing, so freshly built objects are never confused with the
    watched container they were derived from.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        if node.attr in table:
            return {node.attr}
        return _watched_roots(node.value, table, aliases)
    if isinstance(node, ast.Name) and node.id in aliases:
        return set(aliases[node.id])
    return set()


def _mutation_sites(
    unit: ast.AST,
    table: Mapping[str, GuardGroups],
    aliases: Mapping[str, Set[str]],
):
    """``(line, col, attr)`` for every growth of watched state in ``unit``."""
    sites: List[Tuple[int, int, str]] = []
    for node in ast.walk(unit):
        roots: Set[str] = set()
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _GROW_METHODS:
                roots = _watched_roots(func.value, table, aliases)
            else:
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name in _GROW_FUNCS and node.args:
                    roots = _watched_roots(node.args[0], table, aliases)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            roots = _watched_roots(node.target, table, aliases)
        for attr in sorted(roots):
            sites.append((node.lineno, node.col_offset, attr))
    return sites
