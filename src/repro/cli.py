"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig15 --scale 0.2
    python -m repro all --scale 0.2 --jobs 8
    python -m repro all --scale 1.0 --no-cache --json report.json
    python -m repro run ext-fleet --fleet-cells 100 --jobs 4 --json out.json

(``run <id>`` is an optional explicit form of the bare ``<id>``
invocation; the two are interchangeable.)

``--scale 1.0`` reproduces the paper-sized runs (30 000 subframes per
basestation for the scheduler experiments); smaller scales shrink the
sample counts proportionally for quick looks.

``--jobs N`` fans the work out over N processes: sweep-style
experiments (fig15, fig17, fig19, table2) decompose into independent
sweep points, everything else parallelizes across experiments; the
output is byte-identical to a serial run.  Results are cached on disk
(``--cache-dir``, default ``~/.cache/rtopex-repro`` or
``$RTOPEX_CACHE_DIR``) keyed by experiment, scale, seed, and a source
fingerprint, so warm reruns skip execution entirely; ``--no-cache``
disables this.  ``--json PATH`` exports run telemetry (per-unit wall
times, cache counters, failures) for CI tracking.

``--trace PATH`` records every scheduler run's microsecond timeline
(arrivals, per-core busy spans, migrations, idle gaps, deadline
verdicts) — by default as Chrome trace-event JSON loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``, or as line-delimited
JSON with ``--trace-format jsonl`` for programmatic analysis (see
:mod:`repro.analysis.tracestats`).  The file is *streamed*: events are
appended as the schedulers emit them, so trace memory stays O(1) in the
event count and a killed run leaves a loadable prefix behind (JSONL).
``--trace-kinds deadline,migration,gap`` filters at emit time to the
named kinds.  Tracing forces the result cache off (with a warning): a
cache-served unit executes no scheduler and would leave holes in the
timeline.

``--classes urllc:0.1,embb:0.6,mmtc:0.3`` selects the mixed-service
traffic mix for class-aware experiments (``ext_mixed``): each entry is
``<class>:<share>`` with shares summing to 1; the per-class packet
delay budgets and burst profiles come from the standard class table in
:mod:`repro.workload.classes`.

``--fleet-cells N`` / ``--nodes 8,12`` / ``--loads 0.8,1.0`` /
``--schedulers rt-opex,global`` / ``--placer greedy|opt|both``
parameterize the fleet placement sweep (``ext-fleet``): the fleet
size, the cores-per-node axis, the load-multiplier axis, the
per-node scheduler axis, and whether cells are placed by the greedy
first-fit-decreasing heuristic, the exact MILP baseline, or both (the
default, which also reports the greedy-vs-optimal node gap per grid
point).  Like ``--classes``, the flags are rejected on experiments that
do not declare the corresponding option.

``--profile`` wraps the run in cProfile and embeds the top-20
cumulative hotspots into the ``--json`` telemetry report — the quick
answer to "where did that run spend its time" without a separate
profiling harness.  It requires ``--jobs 1``: work executed in worker
processes never reaches the in-process profiler, and a silently
coordinator-only hotspot table would mislead.

``--sanitize`` runs the virtual-time sanitizer over every scheduler
run's event stream (see :mod:`repro.check.sanitizer`): core-track
overlap, time monotonicity, migration-batch conservation, span nesting,
and deadline-verdict consistency are validated online, and the first
violation aborts the run with a ``SanitizerError``.  It composes with
``--trace`` (the exported stream is exactly what gets validated) but
not with ``--trace-kinds`` — conservation needs the full stream — and,
like tracing, it forces the cache off: a cache-served unit executes no
scheduler, so there would be nothing to validate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional

from repro.experiments import get_experiment, list_experiments
from repro.experiments.base import DEFAULT_SEED
from repro.runtime import ExperimentRunner, ExperimentResult, ResultCache, default_cache_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtopex",
        description="RT-OPEX (CoNEXT 2016) reproduction: experiment runner",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'list', or the literal 'run'",
    )
    parser.add_argument(
        "experiment_id",
        nargs="?",
        default=None,
        help="experiment id when the first positional is 'run'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="sample-size scale; 1.0 = paper-sized runs (default 0.2)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    parser.add_argument(
        "--classes",
        default=None,
        metavar="SPEC",
        help=(
            "mixed-service class spec, e.g. 'urllc:0.1,embb:0.6,mmtc:0.3' "
            "(shares sum to 1); applies to experiments that declare the "
            "option (ext_mixed)"
        ),
    )
    parser.add_argument(
        "--fleet-cells",
        type=int,
        default=None,
        metavar="N",
        dest="fleet_cells",
        help=(
            "fleet size for the placement sweep (ext-fleet); applies to "
            "experiments that declare the option"
        ),
    )
    parser.add_argument(
        "--nodes",
        default=None,
        metavar="SPEC",
        help=(
            "cores-per-node axis for the placement sweep, e.g. '8,12' "
            "(ext-fleet only)"
        ),
    )
    parser.add_argument(
        "--loads",
        default=None,
        metavar="SPEC",
        help=(
            "load-multiplier axis for the placement sweep, e.g. "
            "'0.8,1.0' (ext-fleet only)"
        ),
    )
    parser.add_argument(
        "--schedulers",
        default=None,
        metavar="SPEC",
        help=(
            "scheduler axis for the placement sweep, e.g. "
            "'rt-opex,global' (ext-fleet only)"
        ),
    )
    parser.add_argument(
        "--placer",
        choices=("greedy", "opt", "both"),
        default=None,
        help=(
            "placement algorithm for the fleet sweep: greedy FFD, the "
            "MILP optimum, or both with the gap reported (default both; "
            "ext-fleet only)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; sweeps decompose into parallel units (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default ~/.cache/rtopex-repro or $RTOPEX_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="write the run report (telemetry + cache counters) as JSON",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        dest="trace_path",
        help="record scheduler timelines and write a trace file (disables the cache)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="trace file format: Chrome/Perfetto JSON or line-delimited JSON (default chrome)",
    )
    parser.add_argument(
        "--trace-kinds",
        default=None,
        metavar="KINDS",
        help=(
            "comma-separated event kinds to record (e.g. "
            "'deadline,migration,gap'); 'migration' expands to the "
            "planned/executed/returned triple; default: everything"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "validate every scheduler run's event stream online "
            "(virtual-time sanitizer); incompatible with --trace-kinds, "
            "disables the cache"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "profile the run with cProfile and put the top-20 cumulative "
            "hotspots in the --json report (requires --jobs 1: worker "
            "processes are invisible to an in-process profiler)"
        ),
    )
    return parser


def _print_listing(stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    for exp in list_experiments():
        print(f"{exp.experiment_id:8s}  {exp.title}", file=stream)


def _print_result(result: ExperimentResult) -> None:
    if result.error is not None:
        print(f"[{result.experiment_id} FAILED]", file=sys.stderr)
        print(result.error.rstrip(), file=sys.stderr)
        print(file=sys.stderr)
        return
    print(result.output)
    suffix = " (cached)" if result.cached else ""
    print(f"[{result.experiment_id} finished in {result.wall_s:.1f}s{suffix}]")
    print()


def _validate_classes(spec: str) -> None:
    from repro.workload.classes import parse_class_spec

    parse_class_spec(spec)


def _validate_fleet_cells(spec: str) -> None:
    from repro.experiments.ext_fleet import parse_fleet_cells

    parse_fleet_cells(spec)


def _validate_nodes(spec: str) -> None:
    from repro.experiments.ext_fleet import parse_nodes

    parse_nodes(spec)


def _validate_loads(spec: str) -> None:
    from repro.experiments.ext_fleet import parse_loads

    parse_loads(spec)


def _validate_schedulers(spec: str) -> None:
    from repro.experiments.ext_fleet import parse_schedulers

    parse_schedulers(spec)


def _validate_placer(spec: str) -> None:
    from repro.experiments.ext_fleet import parse_placer

    parse_placer(spec)


#: CLI flag -> (experiment option name, validator, hint for the
#: "not declared by this experiment" usage error).
_OPTION_FLAGS = (
    ("--classes", "classes", _validate_classes,
     "only class-aware experiments like ext_mixed do"),
    ("--fleet-cells", "fleet_cells", _validate_fleet_cells,
     "only the fleet placement sweep ext-fleet does"),
    ("--nodes", "nodes", _validate_nodes,
     "only the fleet placement sweep ext-fleet does"),
    ("--loads", "loads", _validate_loads,
     "only the fleet placement sweep ext-fleet does"),
    ("--schedulers", "schedulers", _validate_schedulers,
     "only the fleet placement sweep ext-fleet does"),
    ("--placer", "placer", _validate_placer,
     "only the fleet placement sweep ext-fleet does"),
)


def _gather_options(args) -> Dict[str, str]:
    """Collect option-style flags into the runner's options mapping.

    Raises ``ValueError`` with a printable message for an invalid value
    or a flag the selected experiment does not declare.
    """
    values = {
        "--classes": args.classes,
        "--fleet-cells": (
            None if args.fleet_cells is None else str(args.fleet_cells)
        ),
        "--nodes": args.nodes,
        "--loads": args.loads,
        "--schedulers": args.schedulers,
        "--placer": args.placer,
    }
    options: Dict[str, str] = {}
    for flag, option, validate, hint in _OPTION_FLAGS:
        value = values[flag]
        if value is None:
            continue
        try:
            validate(value)
        except ValueError as exc:
            raise ValueError(f"error: invalid {flag} spec: {exc}")
        if args.experiment != "all":
            declared = get_experiment(args.experiment).options
            if option not in declared:
                raise ValueError(
                    f"error: experiment {args.experiment!r} does not take "
                    f"{flag} ({hint})"
                )
        options[option] = value
    return options


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.experiment == "run":
        if args.experiment_id is None:
            print(
                "error: 'run' needs an experiment id, e.g. 'run ext-fleet'",
                file=sys.stderr,
            )
            return 2
        args.experiment = args.experiment_id
    elif args.experiment_id is not None:
        print(
            f"error: unexpected extra argument {args.experiment_id!r} "
            "(only the 'run <id>' form takes two positionals)",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "list":
        _print_listing()
        return 0

    if args.experiment == "all":
        ids = [e.experiment_id for e in list_experiments()]
    else:
        try:
            get_experiment(args.experiment)
        except KeyError:
            print(f"error: unknown experiment {args.experiment!r}", file=sys.stderr)
            print("known experiments:", file=sys.stderr)
            _print_listing(sys.stderr)
            return 2
        ids = [args.experiment]

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if not (math.isfinite(args.scale) and args.scale > 0):
        print(
            f"error: --scale must be a finite positive number, got {args.scale}",
            file=sys.stderr,
        )
        return 2
    if args.profile and args.jobs != 1:
        print(
            "error: --profile requires --jobs 1 (work executed in worker "
            "processes never reaches the in-process profiler, so the "
            "hotspot table would silently cover only the coordinator)",
            file=sys.stderr,
        )
        return 2

    try:
        options = _gather_options(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    trace_kinds = None
    if args.trace_kinds is not None:
        if not args.trace_path:
            print("error: --trace-kinds requires --trace PATH", file=sys.stderr)
            return 2
        if args.sanitize:
            print(
                "error: --sanitize is incompatible with --trace-kinds "
                "(migration-batch conservation needs the full event stream)",
                file=sys.stderr,
            )
            return 2
        from repro.obs import resolve_kinds

        try:
            trace_kinds = resolve_kinds(args.trace_kinds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    observing = bool(args.trace_path) or args.sanitize
    cache = None
    cache_disabled_reason = None
    if observing and not args.no_cache:
        flag = "--trace" if args.trace_path else "--sanitize"
        cache_disabled_reason = (
            f"{flag} disables the result cache: a cache-served unit "
            "executes no scheduler and would leave holes in the timeline"
        )
        print(f"warning: {cache_disabled_reason}", file=sys.stderr)
    if not args.no_cache and not observing:
        cache_dir = args.cache_dir if args.cache_dir else default_cache_dir()
        cache = ResultCache(cache_dir)

    runner = ExperimentRunner(jobs=args.jobs, cache=cache)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    def run_units():
        if profiler is not None:
            return profiler.runcall(
                runner.run, ids, scale=args.scale, seed=args.seed,
                on_result=_print_result, options=options,
            )
        return runner.run(
            ids, scale=args.scale, seed=args.seed, on_result=_print_result,
            options=options,
        )

    if observing:
        from repro.check import SanitizerError, SanitizingSink
        from repro.obs import Tracer, open_sink, tracing

        sink = open_sink(args.trace_path, args.trace_format) if args.trace_path else None
        sanitizing_sink = None
        if args.sanitize:
            sanitizing_sink = SanitizingSink(sink)
            sink = sanitizing_sink
        tracer = Tracer(kinds=trace_kinds, sink=sink)
        try:
            with tracing(tracer):
                results, report = run_units()
            sink.close()
        except SanitizerError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
        except BaseException:
            # Close the file handle on the error path too, but swallow
            # sanitizer end-of-run errors: the original failure wins.
            try:
                sink.close()
            except SanitizerError:
                pass
            raise
        if args.trace_path:
            report.trace_summary = {
                **tracer.summary(),
                "path": args.trace_path,
                "format": args.trace_format,
            }
        if sanitizing_sink is not None:
            report.sanitizer_summary = sanitizing_sink.summary()
        report.cache_disabled_reason = cache_disabled_reason
    else:
        results, report = run_units()

    if profiler is not None:
        from repro.runtime.telemetry import profile_summary

        report.profile = profile_summary(profiler)

    print(report.summary_text())
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
        print(f"[runtime] report written to {args.json_path}")

    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
