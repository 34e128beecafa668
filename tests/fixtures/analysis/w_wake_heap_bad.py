"""Fixture: W001 fires when a watched heap grows without its wake.

Linted with an injected contract table declaring ``_ni_heap`` paired
with ``_ni_wake``; ``rearm`` pushes through a local alias with
``heappush`` and never records the wake cycle the entry stands for.
"""

from heapq import heappush


class Wakes:
    def __init__(self, nodes):
        self._ni_wake = [0] * nodes
        self._ni_heap = [(0, node) for node in range(nodes)]

    def rearm(self, node, cycle):
        heap = self._ni_heap
        heappush(heap, (cycle, node))
