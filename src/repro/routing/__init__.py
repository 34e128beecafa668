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
  virtual channel per physical channel that always follows dimension-order
  routing.
"""

from repro.routing.base import (
    RouteDecision,
    RoutingAlgorithm,
    VirtualChannelClasses,
    dateline_escape_classes,
)
from repro.routing.dimension_order import DimensionOrderRouting
from repro.routing.duato import DuatoFullyAdaptiveRouting
from repro.routing.providers import (
    dimension_order_provider,
    minimal_adaptive_provider,
    negative_first_provider,
    north_last_provider,
    west_first_provider,
)
from repro.routing.turn_model import TurnModelRouting

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
# from deep inside network wiring.  Factories without the attribute
# (plugins) are skipped and keep their wiring-time behaviour.

from repro.registry import register as _register  # noqa: E402


@_register("routing", "duato")
def _make_duato(topology, table, config) -> DuatoFullyAdaptiveRouting:
    """Duato's fully adaptive routing with escape virtual channels."""
    return DuatoFullyAdaptiveRouting(
        topology, table, num_escape_vcs=config.num_escape_vcs
    )


def _duato_validate_config(config, wraps: bool) -> None:
    if config.num_escape_vcs < 1:
        raise ValueError(
            "SimulationConfig.num_escape_vcs: routing='duato' needs at least "
            "one escape VC (its deadlock-free dimension-order channel); got "
            f"num_escape_vcs={config.num_escape_vcs}"
        )
    if wraps and config.num_escape_vcs < 2:
        raise ValueError(
            "SimulationConfig: routing='duato' on a wrapping topology "
            "needs >=2 escape VCs on a torus (dateline discipline: one "
            "escape class before the dateline crossing, one after); got "
            f"num_escape_vcs={config.num_escape_vcs}"
        )
    if config.vcs_per_port < config.num_escape_vcs + 1:
        raise ValueError(
            "SimulationConfig.vcs_per_port: routing='duato' needs the "
            f"{config.num_escape_vcs} escape VC(s) plus at least one adaptive "
            f"VC per port; got vcs_per_port={config.vcs_per_port}"
        )


_make_duato.validate_config = _duato_validate_config


@_register("routing", "dimension-order")
def _make_dimension_order(topology, table, config) -> DimensionOrderRouting:
    """Deterministic dimension-order (XY) routing."""
    return DimensionOrderRouting(topology)


def _dimension_order_validate_config(config, wraps: bool) -> None:
    if wraps and config.vcs_per_port < 2:
        raise ValueError(
            "SimulationConfig: routing='dimension-order' on a wrapping "
            "topology needs >=2 escape VCs on a torus (all VCs become "
            "dateline escape channels, one class before the dateline "
            f"crossing, one after); got vcs_per_port={config.vcs_per_port}"
        )


_make_dimension_order.validate_config = _dimension_order_validate_config


def _turn_model_validate_config(config, wraps: bool) -> None:
    if not wraps:
        return
    raise ValueError(
        f"SimulationConfig: routing={config.routing!r} is a turn-model "
        "algorithm, which is only deadlock free on meshes; wraparound "
        "links need routing='duato' or 'dimension-order' with >=2 escape "
        "VCs (dateline discipline)"
    )


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
