"""Reproducible random-number streams for simulation components.

A network simulation has several independent sources of randomness: the
traffic pattern (destination selection), the injection process
(inter-arrival times), arbitration tie-breaking inside routers and the
random path-selection heuristic.  Seeding them from a single master seed,
through named sub-streams, makes every experiment reproducible while
keeping the streams statistically independent of one another.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict

__all__ = ["SimulationRNG"]


class SimulationRNG:
    """A factory of named, independently seeded ``random.Random`` streams.

    Parameters
    ----------
    seed:
        Master seed.  Two :class:`SimulationRNG` objects created with the
        same seed hand out identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it if needed.

        The stream's seed is derived deterministically from the master seed
        and the name, so the order in which streams are requested does not
        affect their contents.
        """
        if name not in self._streams:
            # zlib.crc32 is stable across processes, unlike the built-in
            # ``hash`` of strings which is randomized per interpreter run.
            derived = zlib.crc32(f"{self._seed}:{name}".encode("utf-8"))
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    def __repr__(self) -> str:
        return f"SimulationRNG(seed={self._seed}, streams={sorted(self._streams)})"
