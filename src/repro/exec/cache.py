"""Content-addressed, on-disk cache of simulation results.

A :class:`ResultCache` persists every :class:`~repro.core.results.SimulationResult`
as one JSON file named by a stable hash of its configuration, so repeated
campaign/sweep points are skipped entirely.  The key is a SHA-256 digest of
the canonical (sorted-key) JSON rendering of ``SimulationConfig.to_dict()``
-- deliberately independent of Python's randomized ``hash()`` so the same
configuration maps to the same file in every process and on every machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.config import SimulationConfig
    from repro.core.results import SimulationResult

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "config_cache_key",
]

#: Bumped only when the stored-JSON schema or the simulator's numeric
#: behaviour changes within a release; folded into the key so stale
#: entries become misses instead of silently serving old results.
#: Configuration changes need no bump: the key hashes every field of
#: ``SimulationConfig.to_dict()`` and the component provenance, so adding,
#: removing or re-defaulting a field moves every affected key by itself.
#: The reason for each past bump is recorded in CHANGES.md.
CACHE_FORMAT_VERSION = 11


def config_cache_key(config: "SimulationConfig") -> str:
    """Stable content hash of one configuration.

    Two equal configurations always produce the same key, across processes
    and interpreter invocations (``PYTHONHASHSEED`` has no influence).  The
    package version, cache format version and the provenance of every
    registry-backed component the configuration names are folded into the
    hash, so entries computed by a different release of the simulator --
    or by a differently-implemented plugin component -- are never served
    as current.
    """
    import repro
    from repro.registry import config_component_provenance

    payload = json.dumps(
        {
            "format": CACHE_FORMAT_VERSION,
            "version": repro.__version__,
            "config": config.to_dict(),
            "components": config_component_provenance(config),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Persist simulation results as JSON keyed by the configuration hash.

    Lookups that fail for *any* reason -- missing file, truncated or
    corrupted JSON, a schema mismatch, or a stored configuration that does
    not equal the requested one -- count as misses, and the offending file
    is removed so the slot can be rewritten.  Writes are atomic (temp file
    plus ``os.replace``) so a crashed run never leaves a half-written entry.
    """

    def __init__(self, cache_dir: os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Successful lookups served from disk.
        self.hits = 0
        #: Lookups that found nothing usable.
        self.misses = 0
        #: Results written (one per :meth:`put`).
        self.stores = 0

    def path_for(self, config: "SimulationConfig") -> Path:
        """The file backing ``config``'s cache slot."""
        return self.cache_dir / f"{config_cache_key(config)}.json"

    def get(self, config: "SimulationConfig") -> Optional["SimulationResult"]:
        """The cached result for ``config``, or None on a miss."""
        from repro.core.results import SimulationResult

        path = self.path_for(config)
        try:
            text = path.read_text(encoding="utf-8")
            result = SimulationResult.from_json(text)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted or stale entry: discard it and treat as a miss.
            self._discard(path)
            self.misses += 1
            return None
        if result.config != config:
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, config: "SimulationConfig", result: "SimulationResult") -> Path:
        """Persist ``result`` under ``config``'s key; returns the file path.

        The temp file gets a unique name so concurrent runs sharing one
        cache directory never clobber each other's half-written entries,
        and it is removed again if the write fails.
        """
        path = self.path_for(config)
        payload = result.to_json(indent=2)
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            self._discard(Path(tmp_name))
            raise
        self.stores += 1
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.cache_dir)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
