"""Checker interface and shared AST helpers.

A checker implements one (or both) of two hooks:

``check_source(source)``
    Per-file pass over one :class:`~repro.analysis.source.PythonSource`;
    findings it returns are subject to that file's inline suppressions.

``check_project(sources)``
    One whole-project pass (registry probes, study specs);
    its findings are not suppressible from source comments -- they
    describe cross-file state, not a line of code.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.source import PythonSource

__all__ = ["Checker", "identifier_names", "walk_units"]


class Checker:
    """Base class: both hooks default to no findings."""

    #: Rule ids this checker can emit (introspection/docs).
    rules: Tuple[str, ...] = ()

    def check_source(self, source: PythonSource) -> List[Finding]:
        return []

    def check_project(self, sources: Sequence[PythonSource]) -> List[Finding]:
        return []


def identifier_names(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr appearing under ``node``.

    The wake checker's notion of "lexically paired": a guard identifier
    merely has to appear somewhere in the same top-level method.
    """
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def walk_units(tree: ast.AST) -> Iterable[ast.AST]:
    """The analysis units of a module: every top-level function.

    A unit is a module-level ``def`` or a direct method of a module-level
    class; functions nested inside a unit (closures, prebound receivers)
    belong to their enclosing unit, because the receiver built by a
    factory method shares that method's guard context.
    """
    assert isinstance(tree, ast.Module)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item
