"""The determinism-lint rule table.

Every result this reproduction publishes rests on the discrete-event
simulation being *deterministic*: same seed, same bytes, on every
machine and under every ``--jobs`` fan-out.  The rules below encode the
repo-specific ways that property has been (or could be) broken — each
one is a hazard class, not a style preference, and each carries the
rationale a reviewer needs to judge a waiver.

Rules are identified ``RTX0NN`` (ruff-style).  A finding can be waived
on its line with an inline comment::

    t0 = time.perf_counter()  # repro-check: allow RTX001

Waivers are for the rare sites where the hazard is the point (e.g. the
wall-clock telemetry layer adds a new module outside the allowlist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

#: Inline-waiver marker: ``# repro-check: allow RTX001[,RTX002...]``.
WAIVER_MARKER = "repro-check: allow"


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, what it flags, and why it exists."""

    rule_id: str
    name: str
    summary: str
    rationale: str


WALLCLOCK = Rule(
    rule_id="RTX001",
    name="wall-clock",
    summary=(
        "wall-clock read (time.time/perf_counter/monotonic/process_time, "
        "argless datetime.now, datetime.utcnow) outside repro.runtime"
    ),
    rationale=(
        "The simulator owns virtual time; a wall-clock read anywhere in "
        "the model makes results machine- and load-dependent.  Only the "
        "repro.runtime telemetry layer (wall-time reporting, cache "
        "timing) legitimately observes real clocks."
    ),
)

UNSEEDED_RNG = Rule(
    rule_id="RTX002",
    name="unseeded-rng",
    summary=(
        "global `random` module, numpy global-state RNG (np.random.<fn>), "
        "or argless np.random.default_rng() instead of a seeded generator"
    ),
    rationale=(
        "All randomness must flow from repro.sim.rng.RngStreams (or an "
        "explicitly seeded Generator) so that runs are reproducible and "
        "scheduler comparisons stay paired.  Global/unseeded RNG state "
        "silently decouples reruns from the seed."
    ),
)

UNORDERED_ITERATION = Rule(
    rule_id="RTX003",
    name="unordered-iteration",
    summary=(
        "iterating a set display/set() call or dict .keys()/.values()/"
        ".items() view without sorted() in scheduling modules "
        "(repro.sched, repro.sim)"
    ),
    rationale=(
        "Scheduling decisions and heap pushes must consume inputs in a "
        "defined order.  Set iteration order varies with insertion "
        "history and hash salting; dict views encode insertion order, "
        "which refactors change silently.  An explicit sorted() key "
        "makes the order part of the contract."
    ),
)

US_UNIT_MIXING = Rule(
    rule_id="RTX004",
    name="us-unit-mixing",
    summary=(
        "microsecond field/argument (`*_us`) annotated `int`, int-literal "
        "`*_US` constant, or floor division on a `*_us` value"
    ),
    rationale=(
        "Virtual time is float microseconds end to end; an int-typed "
        "timestamp or a floor division truncates sub-microsecond "
        "arithmetic differently across code paths, which breaks the "
        "byte-identity guarantees between serial and parallel runs."
    ),
)

MUTABLE_DEFAULT = Rule(
    rule_id="RTX005",
    name="mutable-default",
    summary="mutable default argument (list/dict/set display or constructor)",
    rationale=(
        "A mutable default is shared across calls: state leaks between "
        "scheduler runs and between experiments executed in the same "
        "worker process, making results depend on execution history."
    ),
)

ENV_READ = Rule(
    rule_id="RTX006",
    name="env-read",
    summary=(
        "os.environ / os.getenv read outside repro.runtime and repro.check"
    ),
    rationale=(
        "Environment variables are per-machine, per-shell state: a model "
        "or scheduler that consults one produces results the seed cannot "
        "reproduce on another host.  Only the repro.runtime configuration "
        "layer (cache locations) and repro.check's own sanitizer — which "
        "exists to inspect the environment — may read it; everything else "
        "takes configuration as explicit arguments."
    ),
)

PARALLEL_SHARED_STATE = Rule(
    rule_id="RTX008",
    name="parallel-shared-state",
    summary=(
        "module-level mutable (or default-argument alias) mutated inside "
        "a function reachable from a process-pool submission"
    ),
    rationale=(
        "Pool workers are forked and reused across work units: state "
        "mutated in one unit leaks into the next unit the same worker "
        "executes, so results depend on which worker ran what — the "
        "byte-identity killer that serial runs never exhibit.  Worker-"
        "reachable code (including experiment drivers and sweep "
        "callbacks reached through the registry) must not write module "
        "globals or shared default arguments."
    ),
)

UNIT_FLOW = Rule(
    rule_id="RTX009",
    name="unit-flow",
    summary=(
        "time-unit mixing found by dataflow: a µs/ms/seconds-typed value "
        "(inferred through assignments and call boundaries) combined, "
        "compared, passed, or returned as a different unit"
    ),
    rationale=(
        "RTX004 only sees lexical `*_us` names; real unit bugs flow "
        "through unsuffixed intermediates and across function calls "
        "(`budget = mix.delay_budget_ms` ... `deadline_us = air + "
        "budget`).  Propagating unit types through assignments, "
        "arithmetic, and resolved call/return boundaries catches the "
        "mix where it happens, not just where it is named."
    ),
)

#: Every rule, in id order — the table ``repro.check rules`` renders.
#: The ids skip two retired rules, never reused, so inline waivers
#: naming the others keep their meaning: RTX007 cache-key completeness
#: (the runtime puts every declared option into the cache key itself)
#: and RTX010 trace-emit conformance (the typed ``RunTrace`` emitters
#: fix each kind's args keys, and the sanitizer's ``vocabulary`` check
#: rejects any other kind or key at run time).
RULES: Tuple[Rule, ...] = (
    WALLCLOCK,
    UNSEEDED_RNG,
    UNORDERED_ITERATION,
    US_UNIT_MIXING,
    MUTABLE_DEFAULT,
    ENV_READ,
    PARALLEL_SHARED_STATE,
    UNIT_FLOW,
)

#: Rules implemented by the per-file lint (``repro.check lint``).
LINT_RULE_IDS: Tuple[str, ...] = (
    "RTX001", "RTX002", "RTX003", "RTX004", "RTX005", "RTX006",
)

#: Rules implemented by the whole-program analyzer (``repro.check analyze``).
ANALYZE_RULE_IDS: Tuple[str, ...] = ("RTX008", "RTX009")

RULES_BY_ID = {rule.rule_id: rule for rule in RULES}

#: Module-path fragments (as ``(parent, child)`` directory pairs) whose
#: files may read wall clocks: the telemetry layer reports real wall
#: time by design.
WALLCLOCK_ALLOWED_PARTS: Tuple[Tuple[str, str], ...] = (("repro", "runtime"),)

#: Modules where iteration order feeds scheduling decisions; RTX003
#: applies only here (elsewhere an unordered loop cannot perturb the
#: simulated timeline).
ORDERED_MODULE_PARTS: Tuple[Tuple[str, str], ...] = (
    ("repro", "sched"),
    ("repro", "sim"),
)

#: Modules that may read the process environment: runtime configuration
#: (cache dirs) and the sanitizer that audits the environment itself.
ENV_READ_ALLOWED_PARTS: Tuple[Tuple[str, str], ...] = (
    ("repro", "runtime"),
    ("repro", "check"),
)


def path_matches(path_parts: Sequence[str], pairs: Sequence[Tuple[str, str]]) -> bool:
    """True when ``path_parts`` contains any adjacent directory pair."""
    for parent, child in pairs:
        for a, b in zip(path_parts, path_parts[1:]):
            if a == parent and b == child:
                return True
    return False


def rule_table() -> str:
    """Ruff-style rule listing: id, name, one-line summary."""
    lines = []
    for rule in RULES:
        lines.append(f"{rule.rule_id}  {rule.name:22s}  {rule.summary}")
    return "\n".join(lines)


def explain(rule_id: str) -> str:
    """Full description of one rule (id, summary, rationale)."""
    rule = RULES_BY_ID.get(rule_id.upper())
    if rule is None:
        known = ", ".join(r.rule_id for r in RULES)
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})")
    return (
        f"{rule.rule_id} ({rule.name})\n"
        f"  flags: {rule.summary}\n"
        f"  why:   {rule.rationale}"
    )
