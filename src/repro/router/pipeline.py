"""PROUD and LA-PROUD pipeline timing models (Figures 1 and 2 of the paper).

The PROUD pipeline has five stages on the header path::

    sync/demux/buffer/decode -> table lookup -> selection+arbitration
        -> crossbar routing/buffering -> VC mux/sync

LA-PROUD removes the serial dependence between table lookup and
selection/arbitration by performing the lookup *for the next router*
concurrently with this router's arbitration, giving a four-stage header
path.  Middle and tail flits bypass the lookup and arbitration stages in
both designs.

Only two derived quantities matter to the flit-level simulation:

* ``selection_offset`` -- cycles between a header flit being written into
  the input buffer and the cycle in which it may be granted
  selection/arbitration (the stages preceding the crossbar); and
* ``switch_delay`` -- cycles from the grant to the flit being driven onto
  the outgoing link (crossbar traversal plus VC multiplexing).

With a one-cycle link, a header therefore spends ``depth + link_delay``
cycles per hop when the network is idle: 6 cycles for PROUD, 5 for
LA-PROUD, matching Table 2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry import register

__all__ = ["LA_PROUD", "PROUD", "PipelineTiming"]


@dataclass(frozen=True)
class PipelineTiming:
    """Timing parameters of one pipelined router organisation.

    Parameters
    ----------
    name:
        Report name ("proud" or "la-proud").
    depth:
        Number of pipeline stages seen by a header flit under no
        contention (the paper's contention-free router latency in cycles).
    lookahead:
        Whether the router performs look-ahead routing, i.e. computes the
        routing decision for the *next* router and carries it in the
        header flit.
    """

    name: str
    depth: int
    lookahead: bool

    def __post_init__(self) -> None:
        if self.depth < 3:
            raise ValueError(
                "a pipelined router needs at least buffer, switch and output "
                f"stages; got depth={self.depth}"
            )

    @property
    def selection_offset(self) -> int:
        """Cycles from buffer write to selection/arbitration eligibility."""
        return self.depth - 2

    @property
    def switch_delay(self) -> int:
        """Cycles from the switch-allocation grant to the flit leaving the
        router (crossbar traversal plus VC multiplexing)."""
        return 2

    def hop_latency(self, link_delay: int) -> int:
        """Contention-free per-hop header latency including the link."""
        return self.depth + link_delay


#: The paper's five-stage pipeline without look-ahead.
PROUD = PipelineTiming(name="proud", depth=5, lookahead=False)

#: The paper's four-stage pipeline with look-ahead routing.
LA_PROUD = PipelineTiming(name="la-proud", depth=4, lookahead=True)

register("pipeline", PROUD.name, obj=PROUD,
         provenance=f"{__name__}:PROUD")
register("pipeline", LA_PROUD.name, obj=LA_PROUD,
         provenance=f"{__name__}:LA_PROUD")

