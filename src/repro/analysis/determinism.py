"""D-checks: determinism of simulation code.

Simulation results must be a pure function of the configuration (the
seed included).  Three things silently break that:

* iterating a ``set`` (order follows the per-process hash seed) -- D001;
* the ambient ``random`` module (one process-global generator whose
  state depends on unrelated call order) -- D002 -- or constructing an
  OS-seeded generator -- D003;
* wall-clock reads and ``id()`` values -- D004.

The checks are scoped to the simulation packages
(:data:`SIM_MODULE_PREFIXES`); :mod:`repro.engine.rng` is the one module
allowed to touch ``random`` construction, because it is where every
seeded stream comes from.  Plain ``dict`` iteration is deliberately not
flagged: Python dicts iterate in insertion order, which simulation code
is allowed to rely on (insertion order is itself deterministic).

The set detection is syntactic and local to one file: literals, set
comprehensions, ``set(...)``/``frozenset(...)`` calls, set-operator
expressions over those, and names assigned from any of them.  Passing a
set through ``sorted(...)`` is the blessed fix -- ``sorted`` imposes the
missing order, so it never counts as unordered iteration.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.source import PythonSource

__all__ = ["DeterminismChecker", "RNG_MODULE", "SIM_MODULE_PREFIXES"]

#: Packages whose code is simulation-order sensitive (D001/D004 scope):
#: the simulation core plus everything that builds deterministic
#: structures it consumes (routing tables) or aggregates its outputs
#: (statistics, whose float sums are order-sensitive).
SIM_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.network",
    "repro.router",
    "repro.engine",
    "repro.traffic",
    "repro.selection",
    "repro.routing",
    "repro.tables",
    "repro.stats",
)

#: The one module allowed to construct/consume raw ``random`` machinery.
RNG_MODULE = "repro.engine.rng"

#: Set-returning methods of set objects (closed under the inference).
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}

#: Set-valued binary operators.
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Builtins that iterate their argument in its own order.
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "iter", "enumerate"}


def _in_module(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


class DeterminismChecker:
    """Per-file D-checks (see the module docstring)."""

    def check_source(self, source: PythonSource) -> List[Finding]:
        module = source.module
        if module == RNG_MODULE or module.startswith(RNG_MODULE + "."):
            return []
        in_sim = _in_module(module, SIM_MODULE_PREFIXES)
        path = str(source.path)
        findings: List[Finding] = []

        random_aliases, time_aliases, from_random, from_time = _import_bindings(
            source.tree
        )

        for node in ast.walk(source.tree):
            if in_sim:
                findings.extend(_check_wallclock(node, time_aliases, from_time, path))
            findings.extend(
                _check_random(node, random_aliases, from_random, path)
            )
        if in_sim:
            # The set inference is scoped per function: a name that holds
            # a set in one method and a tuple parameter in another must
            # not cross-contaminate.
            for nodes in _scopes(source.tree):
                set_names = _set_typed_names(nodes)
                for node in nodes:
                    findings.extend(_check_iteration(node, set_names, path))
        return findings


def _import_bindings(tree: ast.AST):
    """Names bound to the ``random``/``time`` modules and their members."""
    random_aliases: Set[str] = set()
    time_aliases: Set[str] = set()
    from_random: Dict[str, str] = {}
    from_time: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
                elif alias.name == "time":
                    time_aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                for alias in node.names:
                    from_random[alias.asname or alias.name] = alias.name
            elif node.module == "time":
                for alias in node.names:
                    from_time[alias.asname or alias.name] = alias.name
    return random_aliases, time_aliases, from_random, from_time


def walk_units(tree: ast.AST) -> Iterable[ast.AST]:
    """The analysis units of a module: every top-level function.

    A unit is a module-level ``def`` or a direct method of a module-level
    class; functions nested inside a unit (closures, prebound receivers)
    belong to their enclosing unit, because a closure sees the names of
    the function that builds it.
    """
    assert isinstance(tree, ast.Module)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item


def _scopes(tree: ast.AST) -> List[List[ast.AST]]:
    """Node lists of each analysis scope of a module.

    One scope per top-level function (nested defs included -- closures
    see their enclosing names) plus one for everything outside the
    functions, so the set inference never leaks a binding from one
    method into an unrelated one.
    """
    units = list(walk_units(tree))
    unit_ids = {id(unit) for unit in units}
    scopes = [list(ast.walk(unit)) for unit in units]

    rest: List[ast.AST] = []
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        rest.append(node)
        for child in ast.iter_child_nodes(node):
            if id(child) not in unit_ids:
                stack.append(child)
    scopes.append(rest)
    return scopes


def _set_typed_names(nodes: List[ast.AST]) -> Set[str]:
    """Simple names assigned a set-valued expression within one scope.

    Two passes reach the common ``a = set(...); b = a | other`` chains;
    the inference is deliberately conservative (assignment-based only,
    no flow sensitivity) so a name is flagged only when some binding of
    it in this scope is provably a set.
    """
    names: Set[str] = set()
    for _ in range(2):
        before = len(names)
        for node in nodes:
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                value = node.value
            if value is None or not _is_setish(value, names):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        if len(names) == before:
            break
    return names


def _is_setish(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_setish(node.left, set_names) or _is_setish(node.right, set_names)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_setish(func.value, set_names)
        ):
            return True
    return False


def _check_iteration(
    node: ast.AST, set_names: Set[str], path: str
) -> List[Finding]:
    """D001 at every order-sensitive iteration of a set-valued expression."""
    iterated: List[ast.expr] = []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iterated.append(node.iter)
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        iterated.extend(generator.iter for generator in node.generators)
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_BUILTINS
            and node.args
        ):
            iterated.append(node.args[0])
    findings = []
    for expr in iterated:
        if _is_setish(expr, set_names):
            findings.append(
                Finding(
                    rule="D001",
                    path=path,
                    line=expr.lineno,
                    col=expr.col_offset,
                    message=(
                        "iteration over a set draws its order from the hash "
                        "seed; wrap the iterable in sorted(...)"
                    ),
                )
            )
    return findings


def _check_random(
    node: ast.AST, aliases: Set[str], from_random: Dict[str, str], path: str
) -> List[Finding]:
    """D002/D003 at ambient-random calls and unseeded constructions."""
    if not isinstance(node, ast.Call):
        return []
    func = node.func
    member = None
    if isinstance(func, ast.Attribute) and (
        isinstance(func.value, ast.Name) and func.value.id in aliases
    ):
        member = func.attr
    elif isinstance(func, ast.Name) and func.id in from_random:
        member = from_random[func.id]
    if member is None:
        return []
    if member == "Random":
        if node.args or node.keywords:
            return []  # seeded construction is the house style
        message = (
            "random.Random() without a seed initialises from OS entropy; "
            "derive the generator from the configuration seed "
            "(repro.engine.rng.SimulationRNG or random.Random(seed))"
        )
        rule = "D003"
    elif member == "SystemRandom":
        message = (
            "random.SystemRandom draws from the OS entropy pool and can "
            "never be seeded; use a stream of repro.engine.rng.SimulationRNG"
        )
        rule = "D003"
    else:
        message = (
            f"random.{member}() uses the process-global ambient generator; "
            "draw from a named repro.engine.rng.SimulationRNG stream instead"
        )
        rule = "D002"
    return [
        Finding(
            rule=rule,
            path=path,
            line=node.lineno,
            col=node.col_offset,
            message=message,
        )
    ]


def _check_wallclock(
    node: ast.AST, time_aliases: Set[str], from_time: Dict[str, str], path: str
) -> List[Finding]:
    """D004 at wall-clock reads and id() calls in simulation code."""
    if not isinstance(node, ast.Call):
        return []
    func = node.func
    what = None
    if isinstance(func, ast.Attribute) and (
        isinstance(func.value, ast.Name) and func.value.id in time_aliases
    ):
        what = f"time.{func.attr}()"
    elif isinstance(func, ast.Name) and func.id in from_time:
        what = f"time.{from_time[func.id]}()"
    elif isinstance(func, ast.Name) and func.id == "id" and len(node.args) == 1:
        what = "id()"
    if what is None:
        return []
    return [
        Finding(
            rule="D004",
            path=path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"{what} varies between runs; simulation decisions must "
                "depend only on the simulated clock and stable identifiers"
            ),
        )
    ]
