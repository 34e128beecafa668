"""Routing algorithms and routing-relation providers.

Two closely related concepts live here:

* **Port providers** (:mod:`repro.routing.providers`): plain functions
  mapping ``(current_node, destination)`` to the set of output ports a
  routing relation permits.  They are what routing tables are programmed
  with (full-table, meta-table and economical-storage tables all store the
  image of a provider in different encodings).  Every built-in provider
  is a *sign rule* of the per-dimension offset signs and exposes it as
  ``provider.sign_rule``, which the economical-storage table requires.
* **Routing algorithms** (:class:`~repro.routing.base.RoutingAlgorithm`):
  the run-time decision logic used by a router.  An algorithm combines a
  routing table (giving the adaptive candidate ports) with a
  virtual-channel discipline that guarantees deadlock freedom; Duato's
  fully adaptive algorithm, used throughout the paper, reserves one escape
  virtual channel per physical channel (two on a torus, one per dateline
  class) that always follows dimension-order routing.  Each built-in
  algorithm states its virtual-channel rule once, as the
  ``*_vc_classes`` function beside it.
"""

from repro.routing.base import (
    RouteDecision,
    RoutingAlgorithm,
    VirtualChannelClasses,
    dateline_escape_classes,
)
from repro.routing.dimension_order import DimensionOrderRouting, dimension_order_vc_classes
from repro.routing.duato import DuatoFullyAdaptiveRouting, duato_vc_classes
from repro.routing.providers import (
    dimension_order_provider,
    minimal_adaptive_provider,
    negative_first_provider,
    north_last_provider,
    west_first_provider,
)
from repro.routing.turn_model import TurnModelRouting, turn_model_vc_classes

__all__ = [
    "DimensionOrderRouting",
    "DuatoFullyAdaptiveRouting",
    "RouteDecision",
    "RoutingAlgorithm",
    "TurnModelRouting",
    "VirtualChannelClasses",
    "dateline_escape_classes",
    "dimension_order_provider",
    "minimal_adaptive_provider",
    "negative_first_provider",
    "north_last_provider",
    "west_first_provider",
]


# -- registry factories --------------------------------------------------------------
#
# Each factory may carry a ``validate_config(config, wraps)`` attribute:
# eager config validation (:func:`repro.registry.validate_config_names`)
# calls it on every topology, telling it whether the topology wraps, so a
# routing x topology x virtual-channel mismatch fails at SimulationConfig
# construction with a pointed cross-field error instead of a ValueError
# from deep inside network wiring.  The built-in checks call the same
# ``*_vc_classes`` rule that ``vc_classes`` applies at build, so the two
# cannot disagree.  Factories without the attribute (plugins) are skipped
# and keep their wiring-time behaviour.

from repro.registry import register as _register  # noqa: E402


@_register("routing", "duato")
def _make_duato(topology, table, config) -> DuatoFullyAdaptiveRouting:
    """Duato's fully adaptive routing with escape virtual channels."""
    return DuatoFullyAdaptiveRouting(topology, table)


def _duato_validate_config(config, wraps: bool) -> None:
    duato_vc_classes(config.vcs_per_port, wraps)


_make_duato.validate_config = _duato_validate_config


@_register("routing", "dimension-order")
def _make_dimension_order(topology, table, config) -> DimensionOrderRouting:
    """Deterministic dimension-order (XY) routing."""
    return DimensionOrderRouting(topology)


def _dimension_order_validate_config(config, wraps: bool) -> None:
    dimension_order_vc_classes(config.vcs_per_port, wraps)


_make_dimension_order.validate_config = _dimension_order_validate_config


def _turn_model_validate_config(config, wraps: bool) -> None:
    turn_model_vc_classes(config.vcs_per_port, wraps, config.routing)


@_register("routing", "north-last")
def _make_north_last(topology, table, config) -> TurnModelRouting:
    """North-Last partially adaptive turn-model routing."""
    return TurnModelRouting(topology, model="north-last")


_make_north_last.validate_config = _turn_model_validate_config


@_register("routing", "west-first")
def _make_west_first(topology, table, config) -> TurnModelRouting:
    """West-First partially adaptive turn-model routing."""
    return TurnModelRouting(topology, model="west-first")


_make_west_first.validate_config = _turn_model_validate_config


@_register("routing", "negative-first")
def _make_negative_first(topology, table, config) -> TurnModelRouting:
    """Negative-First partially adaptive turn-model routing."""
    return TurnModelRouting(topology, model="negative-first")


_make_negative_first.validate_config = _turn_model_validate_config
