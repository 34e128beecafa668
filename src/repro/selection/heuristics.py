"""Concrete path-selection heuristics.

Static policies
---------------
* :class:`StaticDimensionOrderSelector` (STATIC-XY) -- prefer the lowest
  dimension (X before Y), the policy of [Duato et al. 1997] used as the
  baseline in the paper.
* :class:`RandomSelector` -- uniform random choice (Chaos-router style).
* :class:`FirstFreeSelector` -- first candidate with a free virtual
  channel (Servernet-II style).

Traffic-sensitive policies
--------------------------
* :class:`MinMuxSelector` (MIN-MUX) -- fewest currently multiplexed
  virtual channels on the physical channel [Duato 1993].
* :class:`LeastFrequentlyUsedSelector` (LFU) -- lowest cumulative usage
  count (proposed by the paper).
* :class:`LeastRecentlyUsedSelector` (LRU) -- least recently used port
  (proposed by the paper).
* :class:`MaxCreditSelector` (MAX-CREDIT) -- most flow-control credits,
  i.e. most free buffer space downstream (proposed by the paper).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.registry import SELECTORS, register
from repro.selection.base import OutputPortStatus, PathSelector

__all__ = [
    "FirstFreeSelector",
    "LeastFrequentlyUsedSelector",
    "LeastRecentlyUsedSelector",
    "MaxCreditSelector",
    "MinMuxSelector",
    "RandomSelector",
    "StaticDimensionOrderSelector",
    "make_selector",
]


@register("selector")
class StaticDimensionOrderSelector(PathSelector):
    """STATIC-XY: always prefer the lowest dimension (X first)."""

    name = "static-xy"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return min(candidates, key=self._static_order).port


@register("selector")
class RandomSelector(PathSelector):
    """Uniform random selection among the candidates."""

    name = "random"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return self._rng.choice(list(candidates)).port


@register("selector")
class FirstFreeSelector(PathSelector):
    """First candidate offered (candidates are already known to be free)."""

    name = "first-free"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return candidates[0].port


@register("selector")
class MinMuxSelector(PathSelector):
    """MIN-MUX: pick the physical channel with the fewest busy virtual channels."""

    name = "min-mux"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return min(
            candidates, key=lambda s: (s.busy_vcs,) + self._static_order(s)
        ).port


@register("selector")
class LeastFrequentlyUsedSelector(PathSelector):
    """LFU: pick the port with the lowest cumulative usage count.

    The count is the per-output-port hardware counter the paper
    describes, kept by the router and read from ``usage_count``.
    """

    name = "lfu"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return min(
            candidates,
            key=lambda s: (s.usage_count,) + self._static_order(s),
        ).port


@register("selector")
class LeastRecentlyUsedSelector(PathSelector):
    """LRU: pick the port that was used farthest in the past (a never
    used port reports ``last_used_cycle`` -1 and so wins first)."""

    name = "lru"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return min(
            candidates,
            key=lambda s: (s.last_used_cycle,) + self._static_order(s),
        ).port


@register("selector")
class MaxCreditSelector(PathSelector):
    """MAX-CREDIT: pick the port with the most flow-control credits.

    A large credit count means plenty of free buffer space at the
    downstream router, which indicates low congestion on that path.
    """

    name = "max-credit"

    def select(self, candidates: Sequence[OutputPortStatus]) -> int:
        return min(
            candidates,
            key=lambda s: (-s.total_credits,) + self._static_order(s),
        ).port


def make_selector(name: str, rng: Optional[random.Random] = None) -> PathSelector:
    """Instantiate a path selector by its report name.

    Looks ``name`` up in :data:`repro.registry.SELECTORS`, so
    user-registered heuristics are constructed exactly like the built-ins.
    Every router gets its own instance, so a stateful plugin heuristic
    (or ``random``'s RNG stream) stays per router.
    """
    factory = SELECTORS.get(name)
    return factory(rng)
