"""Routing-algorithm interface used by the router's decision block.

A routing algorithm answers two questions for the router:

1. How are the virtual channels of every physical channel partitioned into
   *adaptive* channels and *escape* channels (:class:`VirtualChannelClasses`)?
   Duato's theory of deadlock-free adaptive routing requires the escape
   channels to implement a deadlock-free (here: dimension-order) subfunction
   while the adaptive channels may follow any minimal relation.
2. Which output ports may a header take at the current router toward its
   destination (:class:`RouteDecision`)?  The adaptive ports typically come
   from a routing-table lookup, while the escape port is the dimension-order
   port.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "RouteDecision",
    "RoutingAlgorithm",
    "VirtualChannelClasses",
    "dateline_escape_classes",
]


def dateline_escape_classes(
    escape_vcs: Tuple[int, ...]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split escape virtual channels into the two dateline classes.

    Class 0 serves messages that have not yet crossed the dateline of the
    dimension they are escaping on, class 1 those that have.  An odd VC
    count gives the extra channel to class 0, where every message starts.
    Needs at least two escape VCs -- one per class -- to be expressible.
    """
    if len(escape_vcs) < 2:
        raise ValueError(
            "the dateline discipline needs at least 2 escape virtual "
            f"channels (one per dateline class), got {len(escape_vcs)}"
        )
    split = (len(escape_vcs) + 1) // 2
    return escape_vcs[:split], escape_vcs[split:]


@dataclass(frozen=True)
class RouteDecision:
    """Output-port choices for one (current node, destination) pair.

    ``adaptive_ports`` are the ports a message may take on an *adaptive*
    virtual channel; ``escape_port`` is the single port usable on an
    *escape* virtual channel.  For deterministic algorithms the two
    coincide.
    """

    adaptive_ports: Tuple[int, ...]
    escape_port: int

    @property
    def all_ports(self) -> Tuple[int, ...]:
        """Every distinct port mentioned by this decision."""
        if self.escape_port in self.adaptive_ports:
            return self.adaptive_ports
        return self.adaptive_ports + (self.escape_port,)


@dataclass(frozen=True)
class VirtualChannelClasses:
    """Partition of a physical channel's virtual channels into classes.

    ``escape_classes`` is the dateline sub-partition of the escape
    channels used on wrapping topologies: a ``(class0, class1)`` pair of
    disjoint VC tuples covering ``escape_vcs`` exactly.  Messages request
    class 0 until their route has crossed the dateline of the escaping
    dimension, class 1 afterwards.  ``None`` (meshes) means the escape
    pool is undivided.
    """

    adaptive_vcs: Tuple[int, ...]
    escape_vcs: Tuple[int, ...]
    escape_classes: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    def __post_init__(self) -> None:
        overlap = set(self.adaptive_vcs) & set(self.escape_vcs)
        if overlap:
            raise ValueError(f"virtual channels {sorted(overlap)} assigned to two classes")
        if self.escape_classes is not None:
            class0, class1 = self.escape_classes
            if not class0 or not class1:
                raise ValueError("both dateline escape classes need at least one VC")
            if sorted(class0 + class1) != sorted(self.escape_vcs):
                raise ValueError(
                    "dateline escape classes must partition the escape VCs: "
                    f"{class0} + {class1} != {self.escape_vcs}"
                )


class RoutingAlgorithm(ABC):
    """Run-time routing decision logic for a single network."""

    #: Human-readable name used in experiment reports.
    name: str = "routing"

    @abstractmethod
    def vc_classes(self, vcs_per_port: int) -> VirtualChannelClasses:
        """Partition ``vcs_per_port`` virtual channels into adaptive/escape
        classes; raise ``ValueError`` if that count cannot keep this
        algorithm deadlock free.  Both network cores call it once at
        build."""

    @abstractmethod
    def decide(self, current: int, destination: int) -> RouteDecision:
        """Output-port choices for a header at ``current`` heading to
        ``destination``."""

    @property
    def decides_by_signs(self) -> bool:
        """Whether :meth:`decide` depends on ``(current,
        topology.relative_signs(current, destination))`` alone.

        On meshes and tori the flat core then keeps one decision per node
        and sign pattern -- at most ``N * 3^n`` raw :meth:`decide` calls
        -- in the ``[node][sign class]`` table of
        :meth:`flat_decision_table`, filled lazily and never cleared (the
        table they read never changes).  False by default, so plugin
        algorithms and those reading per-destination tables are asked
        through :meth:`decide_cached` on every lookup.
        """
        return False

    def decision_cache(self) -> dict:
        """A ``(current, destination) -> RouteDecision`` memo shared by
        every router that asks this instance.

        :meth:`decide` is a pure function of the topology and the table,
        which is programmed once at construction, and
        :class:`RouteDecision` is frozen, so the routers and network
        interfaces consult this cache on their hot paths instead of
        re-deriving the same decision per header per retry.  The dict is
        created on first use and lives on the algorithm instance, which
        one network uses and, for built-in components, every later
        simulator of the process that builds the same network
        (:mod:`repro.core.simulator`); it is bounded by the number of
        (node, destination) pairs.
        """
        cache = getattr(self, "_decision_memo", None)
        if cache is None:
            cache = self._decision_memo = {}
        return cache

    def decide_cached(self, current: int, destination: int) -> RouteDecision:
        """Memoized :meth:`decide` -- the single lookup the routers and
        network interfaces share on their hot paths (see
        :meth:`decision_cache` for the purity contract).
        """
        cache = self.decision_cache()
        key = (current, destination)
        decision = cache.get(key)
        if decision is None:
            decision = cache[key] = self.decide(current, destination)
        return decision

    def flat_decision_table(self, size: int) -> bytearray:
        """The flat C core's ``[node][sign class]`` table of decoded
        decisions (see :attr:`decides_by_signs`), ``size`` zero bytes
        when first asked for.

        Every flat core built on this instance reads and fills the same
        buffer, so a core starts with every entry an earlier one filled
        and calls the raw :meth:`decide` only on a real miss.
        """
        table = getattr(self, "_flat_decision_table", None)
        if table is None:
            table = self._flat_decision_table = bytearray(size)
        return table

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
