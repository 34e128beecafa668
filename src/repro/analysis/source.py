"""Source loading for the linter: parsing, module names, suppressions.

A :class:`PythonSource` bundles everything the checker needs:
the file's path, its inferred dotted module name (how the scoped rules
decide whether a file is simulation code), the parsed AST and the inline
suppressions.

Suppression syntax
------------------
A comment of the form ::

    # repro: allow=D001
    # repro: allow=D001,D004 -- optional justification

disables the named rules for the line it sits on *and* the following
line (so it can trail the flagged statement or sit on its own line just
above it).  Unknown rule ids in a suppression are ignored; they never
widen the silence.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

__all__ = ["PythonSource", "discover_sources", "parse_suppressions"]

#: Directories never scanned (bytecode caches, VCS internals, hidden dirs).
_SKIPPED_DIR_NAMES = {"__pycache__", ".git", ".hg", ".svn"}

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow=([A-Z0-9, ]+)")


def parse_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """Line -> suppressed rule ids, from ``# repro: allow=...`` comments."""
    allowed: Dict[int, FrozenSet[str]] = {}
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if match is None:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if ids:
            line = token.start[0]
            allowed[line] = allowed.get(line, frozenset()) | ids
    return allowed


class PythonSource:
    """One parsed Python file plus the metadata the checker consumes."""

    __slots__ = ("path", "module", "text", "tree", "_allowed")

    def __init__(self, path: Path, text: str, module: str) -> None:
        self.path = path
        self.text = text
        self.module = module
        self.tree = ast.parse(text, filename=str(path))
        self._allowed = parse_suppressions(text)

    @classmethod
    def from_path(cls, path: Path, module: Optional[str] = None) -> "PythonSource":
        """Load and parse ``path``; the module name is inferred from the
        package layout (walking up through ``__init__.py`` parents)
        unless given explicitly (fixtures use the override to land in a
        scoped module without living there)."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if module is None:
            module = _infer_module(path)
        return cls(path=path, text=text, module=module)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is allowed at ``line`` (same or preceding line)."""
        for candidate in (line, line - 1):
            ids = self._allowed.get(candidate)
            if ids and rule in ids:
                return True
        return False

    def suppressed_rules(self) -> Set[str]:
        """Every rule id named by a suppression in this file."""
        rules: Set[str] = set()
        for ids in self._allowed.values():
            rules |= ids
        return rules

    def __repr__(self) -> str:
        return f"PythonSource({str(self.path)!r}, module={self.module!r})"


def _infer_module(path: Path) -> str:
    """Dotted module name from the package layout around ``path``."""
    path = path.resolve()
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def discover_sources(paths: Iterable[Path]) -> List[PythonSource]:
    """Load every ``.py`` file under ``paths``, sorted by path.

    Directories are walked recursively, skipping ``__pycache__`` (and
    other generated/VCS directories) so stray build artifacts can never
    contribute findings.  A path that does not exist raises
    ``FileNotFoundError``; a file that does not parse raises
    ``SyntaxError`` -- both are hard errors, not findings.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if _SKIPPED_DIR_NAMES.intersection(candidate.parts):
                    continue
                files.append(candidate)
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    seen: Set[Path] = set()
    sources: List[PythonSource] = []
    for path in files:
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        sources.append(PythonSource.from_path(path))
    return sources
