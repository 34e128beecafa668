"""Routing-relation providers.

A *provider* is a function ``provider(current, destination) -> tuple of
ports`` describing which output ports a routing relation permits at
``current`` for messages heading to ``destination``.  Routing tables are
programmed by evaluating a provider for every table index, exactly the way
a system administrator would program the lookup tables of a commercial
table-based router.

Every built-in relation depends on the destination only through the
per-dimension sign pattern ``topology.relative_signs(current,
destination)``: it is a *sign rule* ``rule(signs) -> ports``, and the
provider is ``rule(topology.relative_signs(current, destination))``.  Each
built-in provider exposes its rule as ``provider.sign_rule``; the
economical-storage table evaluates that rule once per sign pattern
instead of once per node pair.

All providers here return **minimal** (productive) ports only, which is
what every routing algorithm evaluated in the paper uses.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.network.topology import (
    LOCAL_PORT,
    Topology,
    port_direction,
    port_for,
    productive_ports,
)

__all__ = [
    "PortProvider",
    "SignRule",
    "dimension_order_provider",
    "minimal_adaptive_provider",
    "negative_first_provider",
    "north_last_provider",
    "sign_rule_provider",
    "west_first_provider",
]

#: Signature of a routing-relation provider.
PortProvider = Callable[[int, int], Tuple[int, ...]]

#: Signature of a sign rule: per-dimension signs -> permitted ports.
SignRule = Callable[[Tuple[int, ...]], Tuple[int, ...]]


def sign_rule_provider(topology: Topology, rule: SignRule) -> PortProvider:
    """The provider ``rule(topology.relative_signs(current, destination))``.

    The provider carries ``rule`` as its ``sign_rule`` attribute, which is
    what an economical-storage table is programmed from.
    """
    relative_signs = topology.relative_signs

    def provider(current: int, destination: int) -> Tuple[int, ...]:
        return rule(relative_signs(current, destination))

    provider.sign_rule = rule  # type: ignore[attr-defined]
    return provider


def minimal_adaptive_provider(topology: Topology) -> PortProvider:
    """Fully adaptive minimal routing: every productive port is permitted.

    This is the routing relation used on the adaptive virtual channels of
    Duato's algorithm in the paper's evaluation.
    """
    return sign_rule_provider(topology, productive_ports)


def _dimension_order_rule(signs: Tuple[int, ...]) -> Tuple[int, ...]:
    return productive_ports(signs)[:1]


def dimension_order_provider(topology: Topology) -> PortProvider:
    """Deterministic dimension-order (XY) routing: a single port per entry."""
    return sign_rule_provider(topology, _dimension_order_rule)


def _turn_model_provider(
    topology: Topology, forbidden: Callable[[int, Tuple[int, ...]], bool]
) -> PortProvider:
    """Shared machinery for turn-model providers.

    ``forbidden(port, signs)`` returns True when the turn model disallows
    using ``port`` given the remaining per-dimension signs; the rule
    keeps every productive port that is not forbidden, falling back to the
    full productive set if the restriction would leave no port (which
    cannot happen for the three classic turn models but guards custom
    ones).
    """

    def rule(signs: Tuple[int, ...]) -> Tuple[int, ...]:
        candidates = productive_ports(signs)
        if candidates == (LOCAL_PORT,):
            return candidates
        allowed = tuple(port for port in candidates if not forbidden(port, signs))
        return allowed if allowed else candidates

    return sign_rule_provider(topology, rule)


def north_last_provider(topology: Topology) -> PortProvider:
    """North-Last partially adaptive routing for 2-D meshes (Turn Model).

    A message may only travel North (+Y) when no other productive
    direction remains, i.e. turns out of the North direction are forbidden
    so North must be the last direction used.  This is the algorithm used
    in the paper's Fig. 7 economical-storage programming example.
    """
    if topology.n_dims != 2:
        raise ValueError("the North-Last turn model is defined for 2-D meshes")
    north = port_for(1, positive=True)

    def forbidden(port: int, signs: Tuple[int, ...]) -> bool:
        # +Y is forbidden while an X correction is still pending.
        return port == north and signs[0] != 0

    return _turn_model_provider(topology, forbidden)


def west_first_provider(topology: Topology) -> PortProvider:
    """West-First partially adaptive routing for 2-D meshes (Turn Model).

    Any travel toward the West (-X) must happen before every other
    direction, therefore -X is the only permitted port while a westward
    correction remains.
    """
    if topology.n_dims != 2:
        raise ValueError("the West-First turn model is defined for 2-D meshes")
    west = port_for(0, positive=False)

    def forbidden(port: int, signs: Tuple[int, ...]) -> bool:
        # While a westward hop is pending, only the West port is allowed.
        return signs[0] < 0 and port != west

    return _turn_model_provider(topology, forbidden)


def negative_first_provider(topology: Topology) -> PortProvider:
    """Negative-First partially adaptive routing for n-D meshes (Turn Model).

    All hops in negative directions must be completed before any hop in a
    positive direction is taken.
    """

    def forbidden(port: int, signs: Tuple[int, ...]) -> bool:
        dimension, sign = port_direction(port)
        any_negative_pending = any(s < 0 for s in signs)
        return any_negative_pending and sign > 0

    return _turn_model_provider(topology, forbidden)
