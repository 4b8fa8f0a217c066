"""Experiment registry, shared evaluation defaults, and the sweep-point
decomposition API the parallel runtime fans out over."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.constants import DEFAULT_TRACE_SUBFRAMES

#: Default seed for every experiment (the paper's publication year).
DEFAULT_SEED = 2016


@dataclass
class ExperimentOutput:
    """What an experiment driver returns.

    ``text`` is the regenerated table/series rendered for the terminal;
    ``data`` holds the raw numbers so tests and EXPERIMENTS.md tooling
    can assert on them without re-parsing text.
    """

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        return f"{header}\n{self.text}"


#: Driver signature: ``(scale, seed, **options) -> ExperimentOutput``.
#: Options are string-valued keyword arguments the experiment declared
#: at registration (e.g. ``classes="urllc:0.2,embb:0.5,mmtc:0.3"``);
#: drivers that declare none keep the plain two-argument signature.
ExperimentFn = Callable[..., ExperimentOutput]


@dataclass(frozen=True)
class WorkUnit:
    """One independent sweep point of a decomposable experiment.

    ``params`` must be JSON-native (str keys; str/int/float/bool/None
    values, possibly nested in lists/dicts) — it is part of the result
    cache key and crosses process boundaries.
    """

    experiment_id: str
    key: str
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = DEFAULT_SEED


#: Unit result: a JSON-native dict ``{"data": {...}, "events": int}``
#: where ``events`` counts the subframes (or samples) the unit processed.
UnitResult = Dict[str, object]


@dataclass(frozen=True)
class SweepSpec:
    """How to split one experiment into independent work units.

    ``units(scale, seed)`` enumerates the sweep points — called as
    ``units(scale, seed, options)`` when the experiment declares
    options, which the runtime also puts in every unit's cache key;
    ``units`` copies into ``params`` only what ``run_unit`` needs to
    read (pool workers see nothing else).  ``run_unit``
    executes one of them (in any process, in any order) and returns a
    JSON-native :data:`UnitResult`; ``combine(results, scale, seed)``
    folds the unit results — in ``units()`` order — back into the exact
    :class:`ExperimentOutput` the serial driver produces.  Decomposed
    runs must be byte-identical to serial ones: ``run_unit`` has to
    perform the same calls, with the same seeds, as the corresponding
    slice of the serial driver.
    """

    units: Callable[..., List[WorkUnit]]
    run_unit: Callable[[WorkUnit], UnitResult]
    combine: Callable[[List[UnitResult], float, int], ExperimentOutput]


def derive_unit_seed(base_seed: int, experiment_id: str, key: str) -> int:
    """Stable per-unit seed for drivers whose sweep points need
    *independent* RNG streams (e.g. replicated-seed studies).

    The paper-artifact sweeps reuse ``base_seed`` at every point (the
    paired-workload methodology), so their units carry it unchanged;
    this helper exists for decompositions where points must not share
    draws.  sha256-based, so it is stable across processes and Python
    versions (unlike ``hash()``).
    """
    digest = hashlib.sha256(
        f"{base_seed}:{experiment_id}:{key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Experiment:
    experiment_id: str
    title: str
    fn: ExperimentFn
    sweep: Optional[SweepSpec] = None
    #: Option names the driver accepts as keyword arguments.
    options: Tuple[str, ...] = ()


_REGISTRY: Dict[str, Experiment] = {}


def register(
    experiment_id: str, title: str, options: Tuple[str, ...] = ()
) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator registering a driver under its artifact id."""

    def wrap(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id, title, fn, options=tuple(options)
        )
        return fn

    return wrap


def attach_sweep(experiment_id: str, spec: SweepSpec) -> None:
    """Declare an already-registered experiment decomposable."""
    if experiment_id not in _REGISTRY:
        raise KeyError(f"cannot attach sweep: unknown experiment {experiment_id!r}")
    _REGISTRY[experiment_id] = dataclasses.replace(_REGISTRY[experiment_id], sweep=spec)


def list_experiments() -> List[Experiment]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_experiment(experiment_id: str) -> Experiment:
    if experiment_id not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[experiment_id]


def run_experiment(
    experiment_id: str,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    options: Optional[Mapping[str, str]] = None,
) -> ExperimentOutput:
    """Run one registered experiment.

    ``scale`` shrinks the sample sizes proportionally (CI/benchmarks use
    small scales; ``1.0`` reproduces the paper-sized runs).  ``options``
    forwards string-valued keyword arguments the experiment declared at
    registration; passing an undeclared option raises ``ValueError``.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a finite positive number, got {scale}")
    exp = get_experiment(experiment_id)
    opts = dict(options or {})
    unknown = sorted(set(opts) - set(exp.options))
    if unknown:
        raise ValueError(
            f"experiment {experiment_id!r} does not accept option(s) {unknown}; "
            f"declared: {sorted(exp.options) or 'none'}"
        )
    return exp.fn(scale, seed, **opts)


def scaled_subframes(scale: float, minimum: int = 500) -> int:
    """Trace length for scheduler experiments at a given scale."""
    return max(minimum, int(DEFAULT_TRACE_SUBFRAMES * scale))
