"""Link descriptors.

Flit transport itself is implemented by the routers' scheduled mailboxes
(a flit granted the switch at cycle ``s`` is scheduled to appear in the
downstream buffer at ``s + switch_delay + link_delay``), which avoids a
per-link object in the simulation's inner loop.  Because every link and
credit delay is at least one cycle (enforced here and in
:class:`~repro.router.config.RouterConfig`), a scheduled arrival always
lies strictly in the future -- the invariant that lets the flat core's
forecast skip to its next arrival without ever missing a same-cycle
event.  :class:`Link` is the descriptive record the
network assembly keeps for each unidirectional connection so that wiring
can be inspected, validated and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Link"]


@dataclass(frozen=True)
class Link:
    """One unidirectional router-to-router connection.

    Attributes
    ----------
    source, source_port:
        Upstream router (node id) and its output port.
    destination, destination_port:
        Downstream router (node id) and its input port.
    delay:
        Link traversal time in cycles (1 in the paper).
    """

    source: int
    source_port: int
    destination: int
    destination_port: int
    delay: int = 1

    def __post_init__(self) -> None:
        if self.delay < 1:
            raise ValueError("links need at least one cycle of delay")
        if self.source == self.destination:
            raise ValueError("links connect distinct routers")

    def reversed(self) -> "Link":
        """The link carrying traffic in the opposite direction."""
        return Link(
            source=self.destination,
            source_port=self.destination_port,
            destination=self.source,
            destination_port=self.source_port,
            delay=self.delay,
        )
