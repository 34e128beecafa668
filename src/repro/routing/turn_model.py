"""Turn-model partially adaptive routing algorithms.

The turn model [Glass & Ni, ISCA 1992] obtains deadlock freedom on a mesh
without extra virtual channels by prohibiting a quarter of the possible
turns.  The paper uses North-Last routing in its Figure 7 example of how
an economical-storage routing table is programmed; West-First and
Negative-First are provided for completeness and for the turn-model
ablation benchmark.
"""

from __future__ import annotations

from repro.network.topology import Topology
from repro.routing.base import RouteDecision, RoutingAlgorithm, VirtualChannelClasses
from repro.routing.providers import (
    PortProvider,
    negative_first_provider,
    north_last_provider,
    west_first_provider,
)

__all__ = ["TurnModelRouting", "turn_model_vc_classes"]

_PROVIDERS = {
    "north-last": north_last_provider,
    "west-first": west_first_provider,
    "negative-first": negative_first_provider,
}


def turn_model_vc_classes(
    vcs_per_port: int, wraps: bool, model: str
) -> VirtualChannelClasses:
    """The turn models' virtual-channel rule: deadlock free on a mesh with
    a single VC, so every VC is adaptive; never on a torus.  Both the
    network cores and ``SimulationConfig`` construction apply it.
    """
    if wraps:
        raise ValueError(
            f"SimulationConfig: routing={model!r} is a turn-model "
            "algorithm, which is only deadlock free on meshes; wraparound "
            "links need routing='duato' or 'dimension-order' with >=2 escape "
            "VCs (dateline discipline)"
        )
    return VirtualChannelClasses(adaptive_vcs=tuple(range(vcs_per_port)), escape_vcs=())


class TurnModelRouting(RoutingAlgorithm):
    """Partially adaptive routing derived from a turn-model restriction.

    Parameters
    ----------
    topology:
        Mesh topology the algorithm routes on.
    model:
        One of ``"north-last"``, ``"west-first"`` or ``"negative-first"``.
        The turn restriction is computed on the fly; an economical-storage
        table programmed with the matching provider holds the same
        relation (the paper's Fig. 7 example).
    """

    def __init__(self, topology: Topology, model: str = "north-last") -> None:
        if model not in _PROVIDERS:
            raise ValueError(
                f"unknown turn model {model!r}; expected one of {sorted(_PROVIDERS)}"
            )
        self._model = model
        self._wraps = topology.wraps
        self._provider: PortProvider = _PROVIDERS[model](topology)
        self.name = f"turn-model-{model}"

    def vc_classes(self, vcs_per_port: int) -> VirtualChannelClasses:
        return turn_model_vc_classes(vcs_per_port, self._wraps, self._model)

    def decide(self, current: int, destination: int) -> RouteDecision:
        ports = self._provider(current, destination)
        # Any permitted port may serve as the deterministic fallback; using
        # the first (lowest-dimension) port keeps the decision stable.
        return RouteDecision(adaptive_ports=ports, escape_port=ports[0])
