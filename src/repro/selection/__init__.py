"""Path-selection heuristics (Section 4 of the paper).

When the routing algorithm offers several candidate output ports, the
router must pick exactly one.  The paper proposes three traffic-sensitive
heuristics (LRU, LFU, MAX-CREDIT) and compares them with the static
dimension-order preference (STATIC-XY) and the minimum-multiplexing-degree
heuristic of Duato (MIN-MUX).  RANDOM and FIRST-FREE are included as the
other static policies mentioned in Section 4.1.

Each router instantiates its own heuristic object via
:func:`make_selector`; the use-history counters the LFU and LRU heuristics
rank by are kept by the router per output port, like the hardware
counters, and reach the heuristic in its :class:`OutputPortStatus`.
"""

from repro.selection.base import OutputPortStatus, PathSelector
from repro.selection.heuristics import (
    FirstFreeSelector,
    LeastFrequentlyUsedSelector,
    LeastRecentlyUsedSelector,
    MaxCreditSelector,
    MinMuxSelector,
    RandomSelector,
    StaticDimensionOrderSelector,
    make_selector,
)

__all__ = [
    "FirstFreeSelector",
    "LeastFrequentlyUsedSelector",
    "LeastRecentlyUsedSelector",
    "MaxCreditSelector",
    "MinMuxSelector",
    "OutputPortStatus",
    "PathSelector",
    "RandomSelector",
    "StaticDimensionOrderSelector",
    "make_selector",
]
