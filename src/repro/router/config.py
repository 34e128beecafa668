"""Router configuration record.

Collects the microarchitectural parameters of Table 2 of the paper in one
validated dataclass shared by the router, the network assembly and the
top-level simulation configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.router.pipeline import PROUD, PipelineTiming

__all__ = ["RouterConfig"]


@dataclass(frozen=True)
class RouterConfig:
    """Microarchitectural parameters of every router in the network.

    Parameters
    ----------
    vcs_per_port:
        Virtual channels per physical channel (the paper uses 4).
    buffer_depth:
        Flit buffer depth of each input virtual channel.  The paper quotes
        a 20-flit input buffer per physical channel, i.e. 5 flits per
        virtual channel with 4 VCs, which is the default here.
    pipeline:
        PROUD (5-stage) or LA-PROUD (4-stage) timing, see
        :mod:`repro.router.pipeline`.
    link_delay:
        Cycles to traverse a link between two routers (1 in the paper).
    link_delays:
        Optional per-dimension link delays overriding ``link_delay`` for
        router-to-router links: entry ``d`` is the traversal time of
        every dimension-``d`` link (e.g. slow TSV Z-links on a stacked
        3-D torus).  ``None`` keeps the uniform ``link_delay``; the
        injection link between a network interface and its router always
        uses ``link_delay``.
    credit_delay:
        Cycles for a credit to travel back to the upstream router.
    """

    vcs_per_port: int = 4
    buffer_depth: int = 5
    pipeline: PipelineTiming = field(default_factory=lambda: PROUD)
    link_delay: int = 1
    link_delays: Optional[Tuple[int, ...]] = None
    credit_delay: int = 1

    def __post_init__(self) -> None:
        # Every link and credit delay is at least one cycle, so a
        # scheduled arrival always lies strictly in the future: the
        # invariant that lets the flat core's forecast skip to its next
        # arrival without ever missing a same-cycle event.
        if self.vcs_per_port < 1:
            raise ValueError("at least one virtual channel per port is required")
        if self.buffer_depth < 1:
            raise ValueError("virtual-channel buffers need at least one flit slot")
        if self.link_delay < 1:
            raise ValueError("links need at least one cycle of delay")
        if self.link_delays is not None and any(d < 1 for d in self.link_delays):
            raise ValueError(
                "every per-dimension link delay needs at least one cycle, "
                f"got link_delays={self.link_delays}"
            )
        if self.credit_delay < 1:
            raise ValueError("credit return needs at least one cycle of delay")

    def link_delay_for(self, dimension: int) -> int:
        """Traversal time of a dimension-``dimension`` router link."""
        if self.link_delays is not None and dimension < len(self.link_delays):
            return self.link_delays[dimension]
        return self.link_delay

    @property
    def max_link_delay(self) -> int:
        """The slowest router-link delay."""
        if self.link_delays:
            return max(self.link_delay, *self.link_delays)
        return self.link_delay

    def with_pipeline(self, pipeline: PipelineTiming) -> "RouterConfig":
        """A copy of this configuration with a different pipeline."""
        return replace(self, pipeline=pipeline)
