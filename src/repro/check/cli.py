"""``python -m repro.check`` — the correctness-tooling command line.

Subcommands::

    python -m repro.check lint [PATH ...]      # default: src/repro
    python -m repro.check analyze [PATH ...]   # whole-program flow passes
    python -m repro.check rules                # ruff-style rule table
    python -m repro.check rules --explain RTX003
    python -m repro.check replay trace.jsonl

``lint`` runs the per-file rules (RTX001–RTX006); ``analyze`` parses the
same tree once, builds the project graph, and runs the flow passes
(RTX008–RTX009).  Both accept ``--select``/``--ignore`` rule-id filters;
``analyze`` additionally supports ``--format json``.  Inline
``# repro-check: allow`` waivers are the one way to accept a finding.

``replay`` streams a saved JSONL trace through the same
:class:`~repro.check.sanitizer.SanitizingSink` the live ``--sanitize``
path uses (via :func:`~repro.obs.export.read_jsonl_trace`), so an
archived trace can be re-validated offline — after a sanitizer change,
or to triage a trace produced on another machine — without re-running
the simulation that produced it.

Exit codes follow linter convention: 0 clean, 1 findings (lint/analyze)
or a sanitizer violation (replay), 2 usage or I/O errors (unreadable
path, syntax error in a linted file, unknown rule id, malformed trace
line).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro.check.lint import lint_paths
from repro.check.rules import RULES_BY_ID, explain, rule_table


def _add_rule_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--select",
        metavar="RTX0NN[,RTX0NN...]",
        action="append",
        default=None,
        help="only report these rule ids (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RTX0NN[,RTX0NN...]",
        action="append",
        default=None,
        help="suppress these rule ids (repeatable, comma-separated)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Determinism lint, whole-program analysis, and rule table "
        "for the RT-OPEX repro.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_parser = sub.add_parser(
        "lint", help="lint files/trees for determinism hazards (RTX001-006)"
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    _add_rule_filters(lint_parser)

    analyze_parser = sub.add_parser(
        "analyze",
        help="whole-program flow analysis (RTX008-009): pool-shared "
        "state, unit flow",
    )
    analyze_parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    _add_rule_filters(analyze_parser)
    analyze_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits the full machine-readable report)",
    )

    rules_parser = sub.add_parser("rules", help="list the lint/analyze rules")
    rules_parser.add_argument(
        "--explain",
        metavar="RTX0NN",
        default=None,
        help="print one rule's full rationale instead of the table",
    )

    replay_parser = sub.add_parser(
        "replay",
        help="re-validate a saved JSONL trace through the virtual-time sanitizer",
    )
    replay_parser.add_argument("trace", help="JSONL trace file to validate")
    replay_parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="tolerate one truncated final line (writer killed mid-run)",
    )
    return parser


def _parse_rule_ids(specs: Optional[List[str]]) -> Optional[Set[str]]:
    """Expand repeated/comma-separated ``--select``/``--ignore`` values."""
    if specs is None:
        return None
    out: Set[str] = set()
    for spec in specs:
        for part in spec.split(","):
            part = part.strip().upper()
            if not part:
                continue
            if part not in RULES_BY_ID:
                known = ", ".join(sorted(RULES_BY_ID))
                raise ValueError(f"unknown rule id {part!r} (known: {known})")
            out.add(part)
    return out or None


def _check_paths(paths: Sequence[str]) -> Optional[int]:
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"repro.check: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    return None


def _run_lint(
    paths: Sequence[str],
    select: Optional[List[str]],
    ignore: Optional[List[str]],
) -> int:
    bad = _check_paths(paths)
    if bad is not None:
        return bad
    try:
        select_ids = _parse_rule_ids(select)
        ignore_ids = _parse_rule_ids(ignore)
    except ValueError as exc:
        print(f"repro.check: {exc}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(paths, select=select_ids, ignore=ignore_ids)
    except SyntaxError as exc:
        print(f"repro.check: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"repro.check: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    # Imported here so plain `lint` never pays for graph construction.
    from repro.check.analyze import analyze_paths, report_json

    bad = _check_paths(args.paths)
    if bad is not None:
        return bad
    try:
        select_ids = _parse_rule_ids(args.select)
        ignore_ids = _parse_rule_ids(args.ignore)
    except ValueError as exc:
        print(f"repro.check: {exc}", file=sys.stderr)
        return 2
    try:
        findings = analyze_paths(args.paths, select=select_ids, ignore=ignore_ids)
    except SyntaxError as exc:
        print(f"repro.check: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report_json(findings), indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"repro.check: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _run_replay(trace: str, allow_partial: bool) -> int:
    # Imported here so `repro.check lint` stays usable without the
    # observability stack (and numpy) importable.
    from repro.check.sanitizer import SanitizerError, SanitizingSink
    from repro.obs.export import read_jsonl_trace

    if not Path(trace).is_file():
        print(f"repro.check: no such trace: {trace}", file=sys.stderr)
        return 2
    # Events are validated as they stream, never buffered, so replay
    # memory is O(runs + cores) like the live path.
    sink = SanitizingSink()
    try:
        read_jsonl_trace(trace, allow_partial, sink=sink)
        sink.close()
    except SanitizerError as exc:
        print(f"repro.check: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"repro.check: {trace}: malformed trace: {exc}", file=sys.stderr)
        return 2
    summary = sink.summary()
    print(
        f"replay ok: {summary['runs']} run(s), "
        f"{summary['events_checked']} event(s) checked, "
        f"{summary['batches_closed']} migration batch(es) closed"
    )
    return 0


def _run_rules(explain_id: Optional[str]) -> int:
    if explain_id is None:
        print(rule_table())
        return 0
    try:
        print(explain(explain_id))
    except KeyError as exc:
        print(f"repro.check: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return _run_lint(args.paths, args.select, args.ignore)
    if args.command == "analyze":
        return _run_analyze(args)
    if args.command == "replay":
        return _run_replay(args.trace, args.allow_partial)
    return _run_rules(args.explain)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
