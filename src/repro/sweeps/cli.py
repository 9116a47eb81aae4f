"""The shared CLI of the five tier sweeps.

``python -m repro.scenarios``, ``repro.fleet``, ``repro.multicluster``,
``repro.chaos`` and ``repro.serve`` are each :func:`sweep_main` over their
:class:`~repro.sweeps.grid.Grid`: one flag per axis (plus ``--list-*``
registry listings), the grid's options and opt-in observers, and the
result-cache controls, handled once here.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict

from repro.sweeps.cache import ResultCache, default_cache_dir


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``--no-cache`` / ``--cache-stats`` / ``--clear-cache`` /
    ``--cache-dir`` options on a sweep CLI parser."""
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every cell instead of serving unchanged cells from "
        "the on-disk result cache",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss counts after the sweep",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="purge the result cache and exit",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: .repro_cache/ at the "
        "repository root, or $REPRO_CACHE_DIR)",
    )


def clear_cache(args: argparse.Namespace) -> int:
    """Handle ``--clear-cache``: purge and report; returns the exit code."""
    cache = ResultCache(args.cache_dir)
    removed = cache.clear()
    print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def print_cache_stats(document: Dict, args: argparse.Namespace) -> None:
    """Handle ``--cache-stats``: one summary line after the sweep table."""
    cells = document["cache_hits"] + document["cache_misses"]
    print(
        f"cache: {document['cache_hits']}/{cells} cells served from "
        f"{args.cache_dir or default_cache_dir()}"
        + (" (caching disabled)" if args.no_cache else "")
    )


def _parser(grid) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"python -m repro.{grid.name}", description=grid.description)
    parser.add_argument(
        "--scale",
        choices=sorted(grid.scales),
        default="quick",
        help="sweep scale (default: quick)",
    )
    for axis in grid.axes:
        parser.add_argument(
            axis.flag or f"--{axis.plural.replace('_', '-')}",
            dest=axis.plural,
            nargs="*",
            default=None,
            metavar=axis.metavar,
            help=axis.help,
        )
    for name, help_text in grid.options:
        parser.add_argument(f"--{name}", default=None, metavar="PRESET", help=help_text)
    parser.add_argument("--seed", type=int, default=42, help="sweep seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: min(cells to compute, CPU count))",
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="run every cell inline in this process (equivalent to --workers 1)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"where to write {grid.output.name} (default: repository root)",
    )
    replayed = "last" if grid.replay_last else "first"
    if "metrics_out" in grid.observers:
        parser.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help=f"additionally replay the {replayed} grid cell inline, streaming "
            "live Prometheus text scrapes to FILE",
        )
    if "trace" in grid.observers:
        parser.add_argument(
            "--trace",
            action="store_true",
            help="attach a per-request span tracer to every cell and add a "
            "stage_breakdown block (per-stage latency attribution) to each "
            "entry; with --metrics-out, also streams the stage-duration histogram",
        )
    if "trace_out" in grid.observers:
        parser.add_argument(
            "--trace-out",
            default=None,
            metavar="FILE",
            help=f"additionally replay the {replayed} grid cell inline with tracing "
            "on and write its Chrome trace-event JSON (Perfetto-loadable) to FILE",
        )
    if "alerts" in grid.observers:
        parser.add_argument(
            "--alerts",
            action="store_true",
            help="replay the default alert-rule pack (repro.obs) over every "
            "cell's metric stream and add an alerts block (firing/resolved "
            "timeline) to each entry",
        )
    add_cache_arguments(parser)
    for axis in grid.axes:
        if axis.listing:
            parser.add_argument(
                axis.listing,
                action="store_true",
                help=f"list {axis.noun or axis.plural} and exit",
            )
    return parser


def sweep_main(grid, argv=None) -> int:
    """Run ``grid``'s CLI; returns the exit code (2 on a bad axis value)."""
    from repro.policies import make_policy

    args = _parser(grid).parse_args(argv)
    for axis in grid.axes:
        if axis.listing and getattr(args, axis.listing[2:].replace("-", "_")):
            for value in axis.known():
                print(axis.describe(value))
            return 0
    if args.clear_cache:
        return clear_cache(args)

    observers = {
        name: getattr(args, name) for name in ("trace", "alerts") if name in grid.observers
    }
    values = {axis.plural: getattr(args, axis.plural) for axis in grid.axes}
    values.update({name: getattr(args, name) for name, _ in grid.options})
    scale = grid.scales[args.scale]
    try:
        for policy in args.policies or ():
            make_policy(policy)  # fail fast on typos before spawning workers
        document = grid.sweep(
            scale=scale,
            seed=args.seed,
            max_workers=1 if args.sequential else args.workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            **observers,
            **values,
        )
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    problems = grid.schema.validate(document)
    if problems:
        print("schema violations:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    path = grid.write_results(document, args.output)
    print(grid.format_results(document))
    if args.cache_stats:
        print_cache_stats(document, args)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if metrics_out or trace_out:
        _, cells = grid.cells(scale, values)
        cell = cells[-1 if grid.replay_last else 0]
        if metrics_out:
            monitor_path = Path(metrics_out)
            grid.run_cell(cell, args.seed, trace=observers.get("trace", False), metrics_path=monitor_path)
            scrapes = monitor_path.read_text().count("# scrape ")
            print(f"streamed {scrapes} metric scrapes to {metrics_out}")
        if trace_out:
            from repro.trace import write_chrome_trace

            tracers = []
            grid.run_cell(cell, args.seed, trace=True, on_tracer=tracers.append)
            spans = tracers[0].spans()
            write_chrome_trace(spans, Path(trace_out))
            print(f"wrote Chrome trace ({len(spans)} spans) to {trace_out}")
    print(f"\nwrote {path}")
    return 0
