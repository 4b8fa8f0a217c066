"""Concrete task graphs: Fig. 5's task/subtask breakdown with durations.

A :class:`SubframeWork` is the schedulable representation of one
subframe: an ordered list of tasks (FFT -> demod -> decode) with a
precedence constraint between stages ("all of its subtasks must complete
execution before moving on to the next stage", sec. 2.2).  Parallelizable
tasks carry their subtasks explicitly; these are the units RT-OPEX
migrates.

Durations come from :class:`repro.timing.model.LinearTimingModel`; the
per-code-block iteration counts are drawn by the caller (usually via
:class:`repro.timing.iterations.IterationModel`) so that planning-time
estimates and actual execution can differ — the source of RT-OPEX's
recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from repro.lte.subframe import UplinkGrant
from repro.timing.model import LinearTimingModel


@dataclass(frozen=True)
class SubtaskSpec:
    """An independently executable unit of a parallelizable task."""

    name: str
    duration_us: float
    #: Planning-time duration the scheduler assumes (WCET-style bound);
    #: actual execution uses ``duration_us``.
    planned_us: float

    def __post_init__(self) -> None:
        if self.duration_us < 0 or self.planned_us < 0:
            raise ValueError("subtask durations must be non-negative")


@dataclass(frozen=True)
class TaskSpec:
    """One stage of the processing chain.

    ``serial_us`` is the non-parallelizable prologue executed by the
    owning thread; ``subtasks`` may be empty for fully serial tasks.
    """

    name: str
    serial_us: float
    subtasks: tuple = ()
    parallelizable: bool = False

    @cached_property
    def serial_duration_us(self) -> float:
        """Time to execute the whole task on a single core.

        Cached: the schedulers read this at every stage boundary and
        the specs are immutable (``cached_property`` writes straight to
        ``__dict__``, which a frozen dataclass permits).
        """
        return self.serial_us + sum(s.duration_us for s in self.subtasks)

    @property
    def num_subtasks(self) -> int:
        return len(self.subtasks)


@dataclass(frozen=True)
class SubframeWork:
    """All processing for one subframe, in execution order."""

    tasks: tuple
    iterations: tuple  # per-code-block turbo iterations actually needed
    crc_pass: bool

    @cached_property
    def total_serial_us(self) -> float:
        """Single-core processing time — Eq. (1) without the error term."""
        return sum(t.serial_duration_us for t in self.tasks)

    @property
    def decode_task(self) -> TaskSpec:
        return self.tasks[-1]

    def task(self, name: str) -> TaskSpec:
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"no task named {name!r}")


# Specs are frozen value objects, so graphs share one instance per
# distinct value: a workload holds a few hundred distinct specs however
# many subframes it has, and each TaskSpec computes its cached serial
# duration once.  The bound caps memory when many models are swept.
_SPEC_CACHE_SIZE = 4096


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _decode_subtask(cb: int, duration_us: float, planned_us: float) -> SubtaskSpec:
    return SubtaskSpec(name=f"decode/cb{cb}", duration_us=duration_us, planned_us=planned_us)


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _fft_task(subtask_us: float, num_antennas: int) -> TaskSpec:
    subtasks = tuple(
        SubtaskSpec(name=f"fft/ant{a}", duration_us=subtask_us, planned_us=subtask_us)
        for a in range(num_antennas)
    )
    return TaskSpec(name="fft", serial_us=0.0, subtasks=subtasks, parallelizable=True)


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _serial_task(name: str, serial_us: float) -> TaskSpec:
    return TaskSpec(name=name, serial_us=serial_us)


def build_subframe_work(
    model: LinearTimingModel,
    grant: UplinkGrant,
    iterations: Sequence[int],
    max_iterations: int,
    crc_pass: bool = True,
    parallelize_fft: bool = True,
    parallelize_decode: bool = True,
) -> SubframeWork:
    """Build the FFT -> demod -> decode task graph for one subframe.

    ``iterations`` holds the drawn per-code-block iteration counts; the
    planned duration of each decode subtask uses ``max_iterations`` (the
    WCET bound the scheduler can rely on before decoding starts).
    """
    num_blocks = grant.code_blocks
    if len(iterations) != num_blocks:
        raise ValueError(
            f"need {num_blocks} iteration counts for this grant, got {len(iterations)}"
        )

    num_antennas = grant.num_antennas
    if parallelize_fft:
        fft = _fft_task(model.fft_subtask_time(), num_antennas)
    else:
        fft = _serial_task("fft", model.fft_task_time(num_antennas))
    demod = _serial_task(
        "demod", model.demod_task_time(num_antennas, grant.modulation_order)
    )

    load = grant.subcarrier_load
    planned_cb = model.decode_subtask_time(load, float(max_iterations), num_blocks)
    decode_subtasks = tuple(
        _decode_subtask(
            i, model.decode_subtask_time(load, float(l), num_blocks), planned_cb
        )
        for i, l in enumerate(iterations)
    )
    prologue = model.decode_prologue_time(grant.modulation_order)
    if parallelize_decode:
        decode = TaskSpec(
            name="decode",
            serial_us=prologue,
            subtasks=decode_subtasks,
            parallelizable=True,
        )
    else:
        decode = TaskSpec(
            name="decode",
            serial_us=prologue + sum(s.duration_us for s in decode_subtasks),
        )

    return SubframeWork(
        tasks=(fft, demod, decode),
        iterations=tuple(int(l) for l in iterations),
        crc_pass=crc_pass,
    )
