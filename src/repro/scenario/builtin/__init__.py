"""Built-in studies: the paper's experiments, sweeps and campaign as specs.

Every table and figure of the paper's evaluation -- plus the plain load
sweep and the full reproduction campaign -- is expressed here as a
declarative :class:`~repro.scenario.spec.Study` built from a base
configuration and the experiment's sweep axes; ``run_study(<builder>(...))``
runs one.  The zero-argument builders registered in the ``study``
registry are what ``load_study(name)`` (and so ``repro.cli study
<name>``) calls.  The JSON files next to this module (``figure5.json``,
...) are their serialized copies, kept in step by
``tests/test_scenario_spec.py`` and the ``lint`` R-checks.

Spec bases store only the fields that differ from ``SimulationConfig()``;
:meth:`~repro.scenario.spec.Study.base_config` fills in the defaults, so
a new configuration field leaves every spec unchanged.  The report rows
of each study are pinned by digests in ``tests/test_scenario_golden.py``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import SimulationConfig
from repro.registry import register
from repro.scenario.spec import Axis, Report, StopPolicy, Study, Variant

__all__ = [
    "BUILTIN_SPEC_DIR",
    "LOOKAHEAD_REFERENCE",
    "PAPER_SELECTORS",
    "ROUTER_VARIANTS",
    "TABLE_SCHEMES",
    "campaign_study",
    "cost_table_study",
    "es_programming_study",
    "lookahead_study",
    "message_length_study",
    "path_selection_study",
    "refine_sweep_study",
    "replicated_lookahead_study",
    "single_run_study",
    "spec_path",
    "sweep_study",
    "table_storage_study",
    "torus3d_adaptivity_study",
    "torus_tornado_study",
    "workload_allreduce_study",
    "workload_llm_decode_study",
]

#: Directory holding the shipped JSON instances of the built-in studies.
BUILTIN_SPEC_DIR = Path(__file__).resolve().parent

#: The four router organisations of Figure 5, as configuration overrides.
ROUTER_VARIANTS: Dict[str, Dict[str, str]] = {
    "no-la-det": {"pipeline": "proud", "routing": "dimension-order"},
    "no-la-adapt": {"pipeline": "proud", "routing": "duato"},
    "la-det": {"pipeline": "la-proud", "routing": "dimension-order"},
    "la-adapt": {"pipeline": "la-proud", "routing": "duato"},
}

#: The organisation every other one is normalised against in Figure 5.
LOOKAHEAD_REFERENCE = "la-adapt"

#: The five heuristics evaluated in Figure 6, in the paper's legend order.
PAPER_SELECTORS = ("static-xy", "min-mux", "lfu", "lru", "max-credit")

#: Table 4 column name -> table organisation, in the paper's column order.
TABLE_SCHEMES: Dict[str, str] = {
    "meta_adaptive": "meta-block",
    "meta_deterministic": "meta-row",
    "economical": "economical",
}


def spec_path(name: str) -> Path:
    """Path of the shipped JSON spec of one built-in study."""
    return BUILTIN_SPEC_DIR / f"{name}.json"


def _base_dict(base_config: Optional[SimulationConfig], **overrides) -> Dict[str, object]:
    """The spec ``base``: the fields of the configuration (default
    :meth:`SimulationConfig.small`, plus ``overrides``) that differ from
    ``SimulationConfig()``."""
    config = base_config if base_config is not None else SimulationConfig.small()
    if overrides:
        config = config.variant(**overrides)
    defaults = SimulationConfig().to_dict()
    return {
        key: value for key, value in config.to_dict().items() if value != defaults[key]
    }


# -- single run and sweep ---------------------------------------------------------


def single_run_study(
    config: Optional[SimulationConfig] = None, name: str = "run"
) -> Study:
    """One simulation of ``config``, reported as a flat summary row."""
    return Study(
        name=name,
        title="Single run",
        base=_base_dict(config),
        report=Report(reporter="summary"),
    )


def sweep_study(
    base_config: Optional[SimulationConfig] = None,
    loads: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    stop_at_saturation: bool = True,
    name: str = "sweep",
) -> Study:
    """Latency-versus-normalized-load sweep (the paper's curves).

    With ``stop_at_saturation`` the walk stops after the first saturated
    load; the saturated point itself is kept so tables can print "Sat."
    rows.
    """
    return Study(
        name=name,
        title="Latency versus normalized load",
        base=_base_dict(base_config),
        axes=(Axis(field="normalized_load", values=tuple(loads), label="load"),),
        stop=StopPolicy(mode="any") if stop_at_saturation else None,
        report=Report(reporter="sweep"),
    )


# -- the paper's experiments ------------------------------------------------------


def lookahead_study(
    base_config: Optional[SimulationConfig] = None,
    traffic_patterns: Sequence[str] = ("uniform", "transpose"),
    loads: Sequence[float] = (0.1, 0.3, 0.5),
    variants: Sequence[str] = tuple(ROUTER_VARIANTS),
) -> Study:
    """Figure 5: look-ahead and adaptivity comparison."""
    if LOOKAHEAD_REFERENCE not in variants:
        variants = tuple(variants) + (LOOKAHEAD_REFERENCE,)
    return Study(
        name="figure5",
        title="Figure 5 - look-ahead and adaptivity comparison",
        base=_base_dict(base_config),
        axes=(
            Axis(field="traffic", values=tuple(traffic_patterns)),
            Axis(field="normalized_load", values=tuple(loads), label="load"),
            Axis(
                name="router",
                variants=tuple(
                    Variant(name=v, overrides=dict(ROUTER_VARIANTS[v])) for v in variants
                ),
            ),
        ),
        stop=StopPolicy(mode="reference", reference=LOOKAHEAD_REFERENCE),
        report=Report(
            reporter="reference-relative", options={"reference": LOOKAHEAD_REFERENCE}
        ),
    )


def message_length_study(
    base_config: Optional[SimulationConfig] = None,
    message_lengths: Sequence[int] = (5, 10, 20, 50),
    traffic: str = "uniform",
    load: float = 0.2,
) -> Study:
    """Table 3: impact of message length on the look-ahead benefit."""
    return Study(
        name="table3",
        title="Table 3 - look-ahead benefit versus message length",
        base=_base_dict(
            base_config, traffic=traffic, normalized_load=load, routing="duato"
        ),
        axes=(
            Axis(field="message_length", values=tuple(message_lengths)),
            Axis(
                name="router",
                variants=(
                    Variant(name="lookahead", overrides={"pipeline": "la-proud"}),
                    Variant(name="no_lookahead", overrides={"pipeline": "proud"}),
                ),
            ),
        ),
        report=Report(
            reporter="paired-improvement",
            options={"improved": "lookahead", "baseline": "no_lookahead"},
        ),
    )


def path_selection_study(
    base_config: Optional[SimulationConfig] = None,
    selectors: Sequence[str] = PAPER_SELECTORS,
    traffic_patterns: Sequence[str] = ("transpose",),
    loads: Sequence[float] = (0.2, 0.4),
) -> Study:
    """Figure 6: performance of the path-selection heuristics."""
    return Study(
        name="figure6",
        title="Figure 6 - path-selection heuristics",
        base=_base_dict(base_config, routing="duato", pipeline="la-proud"),
        axes=(
            Axis(field="traffic", values=tuple(traffic_patterns)),
            Axis(field="normalized_load", values=tuple(loads), label="load"),
            Axis(
                name="selector",
                variants=tuple(
                    Variant(name=s, overrides={"selector": s}) for s in selectors
                ),
            ),
        ),
        report=Report(
            reporter="variant-grid", options={"per_variant": ["latency", "saturated"]}
        ),
    )


def table_storage_study(
    base_config: Optional[SimulationConfig] = None,
    traffic_patterns: Sequence[str] = ("uniform", "transpose"),
    loads: Sequence[float] = (0.1, 0.3),
    schemes: Optional[Dict[str, str]] = None,
    include_full_table: bool = False,
) -> Study:
    """Table 4: performance of the routing-table storage schemes."""
    if schemes is None:
        schemes = dict(TABLE_SCHEMES)
    if include_full_table and "full" not in schemes.values():
        schemes = dict(schemes)
        schemes["full_table"] = "full"
    return Study(
        name="table4",
        title="Table 4 - table-storage schemes",
        base=_base_dict(base_config, routing="duato", pipeline="la-proud"),
        axes=(
            Axis(field="traffic", values=tuple(traffic_patterns)),
            Axis(field="normalized_load", values=tuple(loads), label="load"),
            Axis(
                name="scheme",
                variants=tuple(
                    Variant(name=column, overrides={"table": table})
                    for column, table in schemes.items()
                ),
            ),
        ),
        report=Report(
            reporter="variant-grid",
            options={"per_variant": ["latency", "saturated", "label"]},
        ),
    )


def cost_table_study(
    num_nodes: int = 256,
    n_dims: int = 2,
    num_ports: Optional[int] = None,
    meta_levels: int = 2,
) -> Study:
    """Table 5: storage-cost and property summary (analytic)."""
    return Study(
        name="table5",
        kind="analytic",
        title="Table 5 - storage cost summary",
        analytic="cost-table",
        options={
            "num_nodes": num_nodes,
            "n_dims": n_dims,
            "num_ports": num_ports,
            "meta_levels": meta_levels,
        },
    )


def es_programming_study(
    mesh_extent: int = 3, node_coords: Tuple[int, int] = (1, 1)
) -> Study:
    """Figure 7: economical-storage table programming example (analytic)."""
    return Study(
        name="figure7",
        kind="analytic",
        title="Figure 7 - economical-storage table programming (North-Last)",
        analytic="es-programming",
        options={"mesh_extent": mesh_extent, "node_coords": list(node_coords)},
    )


# -- statistically rigorous studies -----------------------------------------------


def replicated_lookahead_study(
    base_config: Optional[SimulationConfig] = None,
    replications: int = 5,
    seed_stride: int = 1,
    traffic_patterns: Sequence[str] = ("uniform", "transpose"),
    loads: Sequence[float] = (0.1, 0.3, 0.5),
    name: str = "figure5_replicated",
) -> Study:
    """Figure 5 with seed-replicated points and 95% CI columns.

    Every grid point fans out into ``replications`` runs at seeds
    ``seed, seed + seed_stride, ...`` through the execution backend;
    the reference-relative rows gain per-variant replicate counts and
    latency/throughput CI half-width columns (see
    :func:`repro.scenario.reporters.replication_columns`).
    """
    study = lookahead_study(base_config, traffic_patterns=traffic_patterns, loads=loads)
    return replace(
        study,
        name=name,
        title="Figure 5 (replicated) - look-ahead comparison with confidence intervals",
        base=_base_dict(
            base_config, replications=replications, seed_stride=seed_stride
        ),
    )


def refine_sweep_study(
    base_config: Optional[SimulationConfig] = None,
    loads: Sequence[float] = (0.1, 0.9),
    tolerance: float = 0.05,
    max_points: int = 12,
    replications: int = 1,
    name: str = "sweep_refine",
) -> Study:
    """Knee-seeking load sweep: bisect toward the saturation knee.

    The declared ``loads`` are only the coarse bracket; ``mode="refine"``
    bisects the load axis between the highest unsaturated and lowest
    saturated points until the bracket is within ``tolerance`` or
    ``max_points`` loads have been evaluated.  Reported through the
    ``confidence`` reporter so replicated runs print mean +- CI rows.
    """
    return Study(
        name=name,
        title="Saturation-knee refinement sweep",
        base=_base_dict(base_config, replications=replications),
        axes=(Axis(field="normalized_load", values=tuple(loads), label="load"),),
        stop=StopPolicy(mode="refine", tolerance=tolerance, max_points=max_points),
        report=Report(reporter="confidence"),
    )


# -- torus studies ----------------------------------------------------------------


def torus_tornado_study(
    base_config: Optional[SimulationConfig] = None,
    loads: Sequence[float] = (0.2, 0.4),
    name: str = "torus_tornado",
) -> Study:
    """Tornado traffic on a 2-D torus: the classic wraparound stressor.

    Tornado sends every node to the one ``extent // 2`` hops further
    around its own ring, so minimal routes lean maximally on the
    wraparound links -- the adversarial case for the dateline escape
    discipline, which every route with a crossing exercises.  Compares
    Duato's fully adaptive routing against plain dimension-order, both
    running over the two dateline escape classes.
    """
    return Study(
        name=name,
        title="Tornado on a torus - adaptivity over the dateline discipline",
        base=_base_dict(
            base_config,
            torus=True,
            num_escape_vcs=2,
            traffic="tornado",
            pipeline="la-proud",
        ),
        axes=(
            Axis(field="normalized_load", values=tuple(loads), label="load"),
            Axis(
                name="router",
                variants=(
                    Variant(name="adaptive", overrides={"routing": "duato"}),
                    Variant(name="dor", overrides={"routing": "dimension-order"}),
                ),
            ),
        ),
        report=Report(
            reporter="variant-grid", options={"per_variant": ["latency", "saturated"]}
        ),
    )


def torus3d_adaptivity_study(
    base_config: Optional[SimulationConfig] = None,
    dims: Tuple[int, int, int] = (3, 3, 3),
    loads: Sequence[float] = (0.15, 0.3),
    z_link_delay: int = 2,
    name: str = "torus3d_adaptivity",
) -> Study:
    """Uniform traffic on a 3-D torus whose vertical links are slow.

    Models a stacked-die part: the ``torus3d`` topology with
    per-dimension ``link_delays`` makes the Z (through-silicon-via)
    links ``z_link_delay`` cycles against 1 in plane.  Adaptive routing
    can spread load around the slow dimension's congestion while
    dimension-order cannot, which is what the variant pair measures.
    """
    return Study(
        name=name,
        title="3-D torus with slow Z links - adaptivity comparison",
        base=_base_dict(
            base_config,
            mesh_dims=tuple(dims),
            topology="torus3d",
            num_escape_vcs=2,
            link_delays=(1, 1, z_link_delay),
            pipeline="la-proud",
        ),
        axes=(
            Axis(field="normalized_load", values=tuple(loads), label="load"),
            Axis(
                name="router",
                variants=(
                    Variant(name="adaptive", overrides={"routing": "duato"}),
                    Variant(name="dor", overrides={"routing": "dimension-order"}),
                ),
            ),
        ),
        report=Report(
            reporter="variant-grid", options={"per_variant": ["latency", "saturated"]}
        ),
    )


# -- closed-loop workload studies -------------------------------------------------


def workload_allreduce_study(
    base_config: Optional[SimulationConfig] = None,
    mesh_sizes: Sequence[Tuple[int, int]] = ((4, 4), (8, 8)),
    iters: int = 2,
    name: str = "workload_allreduce",
) -> Study:
    """Time-to-drain of a ring all-reduce across mesh sizes.

    Every node joins one all-network ring (``workload_group=0``); the
    drain reporter's critical-path-utilization column shows how much of
    the drain time is contention versus the DAG's inherent serial chain.
    """
    return Study(
        name=name,
        title="Closed-loop ring all-reduce - time to drain versus mesh size",
        base=_base_dict(
            base_config, workload="allreduce", workload_iters=iters, workload_group=0
        ),
        axes=(
            # List-valued (not tuple) so the study equals its JSON
            # round-trip, like every shipped mesh sweep.
            Axis(
                field="mesh_dims",
                values=tuple(list(m) for m in mesh_sizes),
                label="mesh",
            ),
        ),
        report=Report(reporter="drain"),
    )


def workload_llm_decode_study(
    base_config: Optional[SimulationConfig] = None,
    mesh_sizes: Sequence[Tuple[int, int]] = ((4, 4),),
    tp_degrees: Sequence[int] = (2, 4),
    layers: int = 2,
    hidden: int = 64,
    name: str = "workload_llm_decode",
) -> Study:
    """Time-to-drain of tensor-parallel LLM decode across TP degrees.

    Sweeps the tensor-parallel group size (``workload_group``) and the
    mesh size; each decode layer is a per-member compute step, a ring
    all-reduce inside the group and an activation hand-off to the next
    group.
    """
    return Study(
        name=name,
        title="Closed-loop LLM decode - time to drain versus TP degree",
        base=_base_dict(
            base_config,
            workload="llm-decode",
            workload_layers=layers,
            workload_hidden=hidden,
        ),
        axes=(
            Axis(
                field="mesh_dims",
                values=tuple(list(m) for m in mesh_sizes),
                label="mesh",
            ),
            Axis(field="workload_group", values=tuple(tp_degrees), label="tp"),
        ),
        report=Report(reporter="drain"),
    )


# -- the full campaign ------------------------------------------------------------


def campaign_study(
    base_config: Optional[SimulationConfig] = None,
    loads_low_high: Sequence[float] = (0.15, 0.4),
    traffic_patterns: Sequence[str] = ("uniform", "transpose"),
) -> Study:
    """The full reproduction campaign as a suite of the six experiments.

    The (low, high) loads parameterize the latency experiments (Table 3
    samples only the low load, Figure 6 only the high one).
    """
    config = base_config if base_config is not None else SimulationConfig.small()
    loads = tuple(loads_low_high)
    members = (
        lookahead_study(
            config, traffic_patterns=traffic_patterns, loads=loads
        ).with_title(
            "Figure 5 - look-ahead and adaptivity comparison",
            "the LA-ADAPT router is ~12-15% faster than the no-look-ahead routers "
            "at low load, and adaptivity dominates at high load on non-uniform traffic",
        ),
        message_length_study(config, load=loads[0]).with_title(
            "Table 3 - look-ahead benefit versus message length",
            "the relative improvement shrinks from 18% (5 flits) to 6.5% (50 flits)",
        ),
        path_selection_study(
            config, traffic_patterns=traffic_patterns, loads=loads[-1:]
        ).with_title(
            "Figure 6 - path-selection heuristics",
            "LRU, LFU and MAX-CREDIT beat STATIC-XY and MIN-MUX on the "
            "non-uniform patterns at medium-to-high load",
        ),
        table_storage_study(
            config,
            traffic_patterns=traffic_patterns,
            loads=loads,
            include_full_table=True,
        ).with_title(
            "Table 4 - table-storage schemes",
            "economical storage equals the full table; the meta-table mappings "
            "lose adaptivity and saturate earlier",
        ),
        cost_table_study(
            num_nodes=config.num_nodes, n_dims=len(config.mesh_dims)
        ).with_title(
            "Table 5 - storage cost summary",
            "economical storage needs 9 entries on any 2-D mesh vs N for the full table",
        ),
        es_programming_study().with_title(
            "Figure 7 - economical-storage table programming (North-Last)",
            "specific algorithms deny otherwise-minimal ports to stay deadlock free",
        ),
    )
    return Study(
        name="campaign",
        kind="suite",
        title="Reproduction campaign",
        base=_base_dict(config),
        members=members,
    )


# -- registered default-scale builders --------------------------------------------
#
# Zero-argument builders at SimulationConfig.tiny() scale, matching the CLI's
# `experiment --scale tiny` default.  `load_study(name)` calls these; the
# shipped JSON files are their serialized copies, kept in step by the spec
# sync test and the lint R-checks.


@register("study", "run")
def _builtin_run() -> Study:
    """Single tiny-scale run of the default configuration."""
    return single_run_study(SimulationConfig.tiny())


@register("study", "sweep")
def _builtin_sweep() -> Study:
    """Tiny-scale latency/load sweep."""
    return sweep_study(SimulationConfig.tiny())


@register("study", "figure5")
def _builtin_figure5() -> Study:
    """Tiny-scale Figure 5 study."""
    return lookahead_study(SimulationConfig.tiny())


@register("study", "table3")
def _builtin_table3() -> Study:
    """Tiny-scale Table 3 study."""
    return message_length_study(SimulationConfig.tiny())


@register("study", "figure6")
def _builtin_figure6() -> Study:
    """Tiny-scale Figure 6 study."""
    return path_selection_study(SimulationConfig.tiny())


@register("study", "table4")
def _builtin_table4() -> Study:
    """Tiny-scale Table 4 study (including the full-table column)."""
    return table_storage_study(SimulationConfig.tiny(), include_full_table=True)


@register("study", "table5")
def _builtin_table5() -> Study:
    """Table 5 cost summary for the tiny 4x4 mesh."""
    tiny = SimulationConfig.tiny()
    return cost_table_study(num_nodes=tiny.num_nodes, n_dims=len(tiny.mesh_dims))


@register("study", "figure7")
def _builtin_figure7() -> Study:
    """The paper's 3x3 Figure 7 programming example."""
    return es_programming_study()


@register("study", "campaign")
def _builtin_campaign() -> Study:
    """Tiny-scale full campaign suite."""
    return campaign_study(SimulationConfig.tiny())


@register("study", "figure5_replicated")
def _builtin_figure5_replicated() -> Study:
    """Tiny-scale replicated Figure 5 study (5 seeds per point)."""
    return replicated_lookahead_study(SimulationConfig.tiny())


@register("study", "sweep_refine")
def _builtin_sweep_refine() -> Study:
    """Knee-refinement sweep on the curve with a knee inside the bracket.

    Transpose under dimension-order routing on an 8x8 mesh saturates
    around load 0.65 at this run length, so the (0.2, 1.0) coarse
    bracket genuinely bisects (4x4 tiny-scale runs drain everything the
    budget offers and never trip the saturation detector).
    """
    return refine_sweep_study(
        SimulationConfig.tiny(
            mesh_dims=(8, 8),
            traffic="transpose",
            routing="dimension-order",
            message_length=20,
            warmup_messages=150,
            measure_messages=1_200,
        ),
        loads=(0.2, 1.0),
        tolerance=0.2,
        max_points=8,
    )


@register("study", "torus_tornado")
def _builtin_torus_tornado() -> Study:
    """Tiny-scale tornado-on-torus study."""
    return torus_tornado_study(SimulationConfig.tiny(num_escape_vcs=2))


@register("study", "torus3d_adaptivity")
def _builtin_torus3d_adaptivity() -> Study:
    """Tiny-scale 3-D torus slow-Z adaptivity study."""
    return torus3d_adaptivity_study(SimulationConfig.tiny(num_escape_vcs=2))


@register("study", "workload_allreduce")
def _builtin_workload_allreduce() -> Study:
    """Tiny-scale ring all-reduce drain study."""
    return workload_allreduce_study(
        SimulationConfig.tiny(), mesh_sizes=((2, 2), (4, 4))
    )


@register("study", "workload_llm_decode")
def _builtin_workload_llm_decode() -> Study:
    """Tiny-scale tensor-parallel LLM-decode drain study."""
    return workload_llm_decode_study(SimulationConfig.tiny())
