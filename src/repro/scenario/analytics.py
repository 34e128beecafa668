"""Analytic experiments: paper items computed without simulating.

Both functions are registered in :data:`repro.registry.ANALYTICS` and
are what the built-in ``table5`` and ``figure7`` studies run (see
:func:`repro.scenario.builtin.cost_table_study` and
:func:`repro.scenario.builtin.es_programming_study`).  Analytic rows
never touch the result cache, so nothing here feeds a cache key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.network.topology import MeshTopology
from repro.registry import register
from repro.routing.providers import minimal_adaptive_provider, north_last_provider
from repro.tables.cost_model import table_cost_summary
from repro.tables.economical import EconomicalStorageTable

__all__ = ["cost_table_rows", "es_programming_rows"]

#: Printable names of the 2-D mesh ports.
_PORT_NAMES = {0: "local", 1: "+X", 2: "-X", 3: "+Y", 4: "-Y"}

_SIGN_NAMES = {1: "+", -1: "-", 0: "0"}


def _port_names(ports: Tuple[int, ...]) -> str:
    return ", ".join(_PORT_NAMES[port] for port in ports)


@register("analytic", "cost-table")
def cost_table_rows(
    num_nodes: int = 256,
    n_dims: int = 2,
    num_ports: Optional[int] = None,
    meta_levels: int = 2,
) -> List[Dict[str, object]]:
    """Table 5: storage-cost summary rows for one network shape.

    The defaults describe the paper's 256-node 2-D mesh; the Cray T3D
    comparison of Section 5.2.1 is ``num_nodes=2048, n_dims=3``.
    """
    summaries = table_cost_summary(
        num_nodes=num_nodes,
        n_dims=n_dims,
        num_ports=num_ports,
        meta_levels=meta_levels,
    )
    return [summary.as_row() for summary in summaries]


@register("analytic", "es-programming")
def es_programming_rows(
    mesh_extent: int = 3, node_coords: Sequence[int] = (1, 1)
) -> List[Dict[str, object]]:
    """Figure 7(d): economical-storage programming of one router.

    One row per destination of a ``mesh_extent`` square mesh: the sign
    pair, the fully adaptive candidate ports and the ports North-Last
    routing permits (some minimal ports are denied to stay deadlock free).
    """
    topology = MeshTopology((mesh_extent, mesh_extent))
    node = topology.node_id(tuple(node_coords))
    adaptive_table = EconomicalStorageTable(
        topology, provider=minimal_adaptive_provider(topology)
    )
    north_last_table = EconomicalStorageTable(
        topology, provider=north_last_provider(topology)
    )
    rows: List[Dict[str, object]] = []
    for destination in range(topology.num_nodes):
        signs = topology.relative_signs(node, destination)
        rows.append(
            {
                "destination": topology.coordinates(destination),
                "sign_x": _SIGN_NAMES[signs[0]],
                "sign_y": _SIGN_NAMES[signs[1]],
                "candidate_ports": _port_names(adaptive_table.lookup(node, destination)),
                "north_last_ports": _port_names(
                    north_last_table.lookup(node, destination)
                ),
            }
        )
    return rows
