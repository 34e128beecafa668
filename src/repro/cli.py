"""Command-line interface for the LAPSES reproduction.

Four subcommands cover the common workflows:

``study``
    Run a declarative study: a JSON spec file or the name of a built-in
    study (``figure5`` ... ``figure7``, ``sweep``, ``campaign``).  This
    is the primary entry point; ``--plugin MODULE`` imports user code
    that registers extra components (see :mod:`repro.registry`) before
    the spec is loaded, and ``--list`` shows everything registered.
``run``
    Simulate a single configuration and print its summary.
``sweep``
    Run a latency-versus-load sweep for one configuration.
``lint``
    Run the house-style linter (:mod:`repro.analysis`): the static
    determinism checks ``D001``-``D004``.

``run``/``sweep`` are thin wrappers that build the equivalent study spec
and execute it through the same path as ``study``.  Every
simulation-backed subcommand accepts ``--workers N`` (simulate N points
at a time on a process pool; default serial) and ``--cache-dir PATH``
(persist results as JSON keyed by the configuration hash, so repeated
points are served from disk).  Results are bit-identical for any worker
count because every simulation is seeded by its configuration.

The console script ``lapses`` (installed with the package) and
``python -m repro.cli`` both dispatch to :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence

from repro import registry
from repro.core.config import SimulationConfig
from repro.core.results import format_rows
from repro.exec.backend import ExecutionBackend, make_backend
from repro.registry import STUDIES, load_plugin
from repro.scenario import Study, StudyResult, load_study, run_study
from repro.scenario import builtin as builtin_studies

__all__ = ["build_parser", "main"]


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid mesh size {text!r}; expected e.g. 8x8")
    if not dims:
        raise argparse.ArgumentTypeError("mesh size needs at least one dimension")
    return dims


def _parse_loads(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid load list {text!r}; expected e.g. 0.1,0.2")


def _parse_workers(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker count {text!r}")
    if workers < 1:
        raise argparse.ArgumentTypeError("worker count must be at least 1")
    return workers


def _add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_parse_workers, default=1, metavar="N",
                        help="simulate N points in parallel on a process pool "
                             "(default: 1 = serial; results are identical either way)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="persist results as JSON under PATH keyed by the "
                             "configuration hash; cached points are not re-simulated")


def _backend_from_args(
    args: argparse.Namespace, plugins: Sequence[str] = ()
) -> ExecutionBackend:
    try:
        return make_backend(workers=args.workers, cache_dir=args.cache_dir, plugins=plugins)
    except OSError as error:
        raise SystemExit(f"lapses: cannot use cache directory {args.cache_dir!r}: {error}")


def _load_plugins(plugins: Sequence[str]) -> None:
    for plugin in plugins:
        try:
            load_plugin(plugin)
        except (ImportError, OSError) as error:
            raise SystemExit(f"lapses: cannot load plugin {plugin!r}: {error}")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = SimulationConfig.small()
    mesh = "x".join(map(str, defaults.mesh_dims))
    parser.add_argument("--mesh", type=_parse_dims, default=defaults.mesh_dims, metavar="KxK",
                        help=f"mesh size, e.g. 16x16 (default {mesh})")
    parser.add_argument("--traffic", default=defaults.traffic,
                        help="traffic pattern (uniform, transpose, bit-reversal, shuffle, ...)")
    parser.add_argument("--load", type=float, default=defaults.normalized_load,
                        help="normalized load (1.0 = bisection saturation)")
    parser.add_argument("--message-length", type=int, default=defaults.message_length,
                        help="message length in flits (paper default: 20)")
    parser.add_argument("--pipeline", choices=registry.PIPELINES.names(),
                        default=defaults.pipeline,
                        help="router pipeline: 5-stage PROUD or 4-stage LA-PROUD")
    parser.add_argument("--routing", default=defaults.routing,
                        choices=registry.ROUTING_ALGORITHMS.names(),
                        help="routing algorithm")
    parser.add_argument("--table", default=defaults.table,
                        choices=registry.ROUTING_TABLES.names(),
                        help="routing-table storage organisation")
    parser.add_argument("--selector", default=defaults.selector,
                        choices=registry.SELECTORS.names(),
                        help="path-selection heuristic")
    parser.add_argument("--vcs", type=int, default=defaults.vcs_per_port,
                        help="virtual channels per physical channel")
    parser.add_argument("--core-mode", choices=("objects", "flat"),
                        default=defaults.core_mode, dest="core_mode",
                        help="network core: flat C core (default) or the "
                             "object network (reference; needs no compiler)")
    parser.add_argument("--messages", type=int, default=defaults.measure_messages,
                        help="measured messages per data point")
    parser.add_argument("--warmup", type=int, default=defaults.warmup_messages,
                        help="warm-up messages excluded from statistics")
    parser.add_argument("--seed", type=int, default=defaults.seed, help="master random seed")
    parser.add_argument("--replications", type=int, default=defaults.replications,
                        help="seed-offset replicate runs per point; >1 reports "
                             "means with 95%% confidence intervals")
    parser.add_argument("--seed-stride", type=int, default=defaults.seed_stride,
                        help="seed increment between consecutive replicates")


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        mesh_dims=args.mesh,
        traffic=args.traffic,
        normalized_load=args.load,
        message_length=args.message_length,
        pipeline=args.pipeline,
        routing=args.routing,
        table=args.table,
        selector=args.selector,
        vcs_per_port=args.vcs,
        core_mode=args.core_mode,
        measure_messages=args.messages,
        warmup_messages=args.warmup,
        seed=args.seed,
        replications=args.replications,
        seed_stride=args.seed_stride,
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="lapses",
        description="LAPSES adaptive-router reproduction (HPCA 1999)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    study_parser = subparsers.add_parser(
        "study", help="run a declarative study from a JSON spec or built-in name"
    )
    study_parser.add_argument(
        "spec", nargs="?", default=None,
        help="path to a JSON study spec, or a built-in study name "
             "(see --list)")
    study_parser.add_argument(
        "--plugin", action="append", default=[], metavar="MODULE",
        help="import MODULE (dotted path or .py file) before loading the "
             "spec, so user-registered components are available; worker "
             "processes import it too (repeatable)")
    study_parser.add_argument(
        "--list", action="store_true", dest="list_studies",
        help="list the built-in studies and every registered component, "
             "then exit")
    study_parser.add_argument("--output", default=None, metavar="FILE",
                              help="also write the report to FILE")
    _add_exec_arguments(study_parser)

    run_parser = subparsers.add_parser("run", help="simulate one configuration")
    _add_config_arguments(run_parser)
    _add_exec_arguments(run_parser)

    sweep_parser = subparsers.add_parser("sweep", help="latency-versus-load sweep")
    _add_config_arguments(sweep_parser)
    _add_exec_arguments(sweep_parser)
    sweep_parser.add_argument("--loads", type=_parse_loads, default=[0.1, 0.2, 0.3, 0.4],
                              metavar="L1,L2,...", help="normalized loads to sweep")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the house-style linter (determinism checks D001-D004)",
    )
    from repro.analysis.runner import add_lint_arguments

    add_lint_arguments(lint_parser)
    return parser


def _study_needs_backend(study: Study) -> bool:
    """Whether running ``study`` submits any simulations."""
    if study.kind == "grid":
        return True
    if study.kind == "suite":
        return any(_study_needs_backend(member) for member in study.members)
    return False


def _render_study(outcome: StudyResult, precision: int = 2) -> str:
    """The printable report of one study outcome."""
    if outcome.study.kind == "suite":
        return outcome.to_markdown()
    return format_rows(
        outcome.rows, columns=outcome.study.report.columns, precision=precision
    )


def _write_output(text: str, output: Optional[str]) -> None:
    if not output:
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise SystemExit(f"lapses: cannot write report to {output!r}: {error}")


def _print_backend_summary(label: str, backend: ExecutionBackend) -> None:
    summary = f"{label}: {backend.simulations_run} simulations run"
    if backend.cache is not None:
        summary += (
            f", {backend.cache.hits} served from cache ({backend.cache.cache_dir})"
        )
    print(summary, file=sys.stderr)


def _list_studies() -> int:
    print("Built-in studies (run with: study <name>):")
    for name in STUDIES.names():
        study = STUDIES.get(name)()
        print(f"  {name:<10} {study.title}")
    print()
    print("Registered components:")
    for kind, entries in registry.describe_registries().items():
        if kind == "study":
            continue
        names = ", ".join(entry["name"] for entry in entries)
        print(f"  {kind:<10} {names}")
    return 0


def _command_study(args: argparse.Namespace) -> int:
    # Plugins load first so --list shows their components and spec files
    # can name them.
    _load_plugins(args.plugin)
    if args.list_studies:
        return _list_studies()
    if args.spec is None:
        raise SystemExit("lapses: study needs a spec file or built-in name (or --list)")
    try:
        study = load_study(args.spec)
    except ValueError as error:
        raise SystemExit(f"lapses: {error}")
    # Pre-load the spec's own plugins (run_study would too, but failing
    # here turns a traceback into a clean CLI error).
    _load_plugins(study.all_plugins())
    if _study_needs_backend(study):
        with _backend_from_args(args, study.all_plugins() + tuple(args.plugin)) as backend:
            outcome = _run_study_or_exit(study, backend)
        text = _render_study(outcome)
        # Print before writing: a bad --output path must not discard the report.
        print(text)
        _write_output(text, args.output)
        _print_backend_summary(f"study {study.name}", backend)
    else:
        outcome = _run_study_or_exit(study, None)
        text = _render_study(outcome)
        print(text)
        _write_output(text, args.output)
    return 0


def _run_study_or_exit(study: Study, backend: Optional[ExecutionBackend]) -> StudyResult:
    """Run a study, converting spec-level failures into clean CLI errors.

    Expansion and execution raise ``ValueError`` for bad component names
    (the eager config validation) and unknown reporters/analytics, and
    ``TypeError`` for reporter/analytic options that do not match the
    registered callable's signature -- all user-spec mistakes, not bugs.
    """
    try:
        return run_study(study, backend=backend)
    except (ValueError, TypeError) as error:
        raise SystemExit(f"lapses: cannot run study {study.name!r}: {error}")


def _command_config_study(
    args: argparse.Namespace, build: Callable[[SimulationConfig], Study], precision: int
) -> int:
    """``run``/``sweep``: build the study of the flags' configuration, run
    it and print its rows; bad flag values exit with a one-line error."""
    try:
        study = build(_config_from_args(args))
    except ValueError as error:
        raise SystemExit(f"lapses: {error}")
    with _backend_from_args(args) as backend:
        outcome = _run_study_or_exit(study, backend)
    print(format_rows(outcome.rows, precision=precision))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "study":
        return _command_study(args)
    if args.command == "run":
        return _command_config_study(args, builtin_studies.single_run_study, precision=2)
    if args.command == "sweep":
        return _command_config_study(
            args, lambda config: builtin_studies.sweep_study(config, loads=args.loads), precision=3
        )
    if args.command == "lint":
        from repro.analysis.runner import run_from_args

        return run_from_args(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
