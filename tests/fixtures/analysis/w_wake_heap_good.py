"""Fixture: a heap push paired with its wake cycle satisfies the
contract, and pops are not growth."""

import heapq


class Wakes:
    def __init__(self, nodes):
        self._ni_wake = [0] * nodes
        self._ni_heap = [(0, node) for node in range(nodes)]

    def rearm(self, node, cycle):
        if cycle < self._ni_wake[node]:
            self._ni_wake[node] = cycle
            heapq.heappush(self._ni_heap, (cycle, node))

    def drop_stale(self):
        heap = self._ni_heap
        while heap:
            heapq.heappop(heap)
