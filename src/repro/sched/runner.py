"""Workload construction and scheduler entry points.

``build_workload`` materializes the evaluation workload exactly as the
paper does (sec. 4.2): per-basestation load traces drive the MCS of each
subframe; the channel is AWGN at a fixed SNR; iteration counts come from
the iteration model; the platform error E is drawn per subframe; the
transport delay RTT/2 is fixed (emulating the various deployment
scenarios after replacing the live WARP transport).

``run_scheduler`` is the single switch the experiments use to compare
policies over the *same* job list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sched.base import CRanConfig, SchedulerResult, SubframeJob
from repro.sched.cloudiq import CloudIqScheduler
from repro.sched.das import DelayAwareScheduler
from repro.sched.global_ import GlobalScheduler
from repro.sched.partitioned import PartitionedScheduler
from repro.sched.pran import PranScheduler
from repro.sched.rtopex import RtOpexScheduler
from repro.sim.rng import RngStreams
from repro.timing.iterations import IterationModel
from repro.timing.model import LinearTimingModel
from repro.timing.platform import PlatformNoiseModel
from repro.workload.mapping import GrantMapper
from repro.workload.traces import CellularTraceGenerator


def resolve_loads(
    config: CRanConfig, num_subframes: int, seed: int, loads: Optional[np.ndarray]
) -> np.ndarray:
    """``loads`` as a ``(num_basestations, num_subframes)`` float array,
    generated from the default trace model (seeded by ``seed``) when
    ``None``.  Any other shape is rejected, and so is a NaN or a load
    outside [0, 1], naming its ``(bs, subframe)``."""
    if loads is None:
        generator = CellularTraceGenerator(seed=seed)
        if generator.num_basestations < config.num_basestations:
            raise ValueError(
                "default trace model has fewer basestations than the config; pass loads="
            )
        loads = generator.generate(num_subframes)[: config.num_basestations]
    loads = np.asarray(loads, dtype=np.float64)
    if loads.shape != (config.num_basestations, num_subframes):
        raise ValueError(
            f"loads must be shaped {(config.num_basestations, num_subframes)}, got {loads.shape}"
        )
    bad = ~((loads >= 0.0) & (loads <= 1.0))  # NaN fails both
    if bad.any():
        bs, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValueError(
            f"load at (bs={bs}, subframe={j}) is {loads[bs, j]}; load must be in [0, 1]"
        )
    return loads


def build_workload(
    config: CRanConfig,
    num_subframes: int,
    seed: int = 2016,
    loads: Optional[np.ndarray] = None,
    timing_model: Optional[LinearTimingModel] = None,
    iteration_model: Optional[IterationModel] = None,
    noise_model: Optional[PlatformNoiseModel] = None,
    mapper: Optional[GrantMapper] = None,
    transport_jitter: Optional[np.ndarray] = None,
) -> List[SubframeJob]:
    """Materialize the per-subframe jobs for one experiment.

    The columns come from
    :func:`~repro.workload.soa.build_workload_arrays` and the jobs from
    :func:`~repro.workload.soa.materialize_jobs`.  The models are
    reached only through these methods, so a subclass that overrides
    them is honoured: ``GrantMapper.mcs_for_trace``,
    ``IterationModel.draw_trace``, ``PlatformNoiseModel.draw_one`` and
    the Eq. (1) methods of ``LinearTimingModel`` that
    :func:`~repro.timing.tasks.build_subframe_work` calls.

    Parameters
    ----------
    loads:
        Optional ``(num_basestations, num_subframes)`` normalized-load
        array; generated from the default trace model when omitted.
    transport_jitter:
        Optional per-(bs, subframe) additive jitter on top of the fixed
        ``config.transport_latency_us`` (e.g. drawn from the cloud
        model); zero by default, matching the paper's fixed-RTT runs.
    """
    # Looked up on the module at call time, so wrappers installed
    # there (e.g. timing probes) see every build.
    from repro.workload import soa

    arrays = soa.build_workload_arrays(
        config,
        num_subframes,
        seed=seed,
        loads=loads,
        timing_model=timing_model,
        iteration_model=iteration_model,
        noise_model=noise_model,
        mapper=mapper,
        transport_jitter=transport_jitter,
    )
    return soa.materialize_jobs(arrays)


#: Each policy's scheduler class and the RNG stream it draws from
#: (``None`` for the two that draw nothing); ``rtopex`` is an alias.
SCHEDULERS: Dict[str, Tuple[type, Optional[str]]] = {
    "partitioned": (PartitionedScheduler, None),
    "global": (GlobalScheduler, "global"),
    "rt-opex": (RtOpexScheduler, "rtopex"),
    "rtopex": (RtOpexScheduler, "rtopex"),
    "pran": (PranScheduler, "pran"),
    "cloudiq": (CloudIqScheduler, None),
    "das": (DelayAwareScheduler, "das"),
}


def run_scheduler(
    name: str,
    config: CRanConfig,
    jobs: Sequence[SubframeJob],
    seed: int = 2016,
    capture_trace: object = False,
    sanitize: Optional[bool] = None,
    **kwargs,
) -> SchedulerResult:
    """Run one scheduler over a prepared job list.

    ``name`` is one of ``partitioned``, ``global`` (respects
    ``config.num_cores``), ``rt-opex``, ``pran``, ``cloudiq``, or
    ``das`` (the delay-aware mixed-service baseline; also respects
    ``config.num_cores``); extra keyword arguments are forwarded to the
    scheduler constructor.

    When an ambient tracer is installed (see :mod:`repro.obs`), each
    invocation opens its own :class:`~repro.obs.trace.RunTrace` — one
    Perfetto process per scheduler run — and the instrumented schedulers
    emit their timelines into it.  Tracing never touches the RNG
    streams, so traced and untraced runs produce identical results.

    ``capture_trace`` additionally buffers this run's events on
    ``result.trace_run`` for programmatic analysis
    (:mod:`repro.analysis.tracestats`) — pass ``True`` for all kinds or
    an iterable of kind names (see
    :func:`repro.obs.events.resolve_kinds`) to capture a subset.  The
    capture buffer is private: it works with no ambient tracer
    installed, and with one it *tees*, leaving the ambient run's
    filtering and streaming untouched.

    ``sanitize`` tees a :class:`~repro.check.sanitizer.SanitizingTrace`
    behind the run: every emitted event is validated online against the
    virtual-time invariants and a :class:`~repro.check.SanitizerError`
    is raised on the first violation.  ``None`` (the default) defers to
    the ``RTOPEX_SANITIZE`` environment variable, which is how the test
    suite turns every scheduler run into a sanitized one.
    """
    from repro.check.sanitizer import SanitizingTrace, sanitize_enabled
    from repro.obs.events import resolve_kinds
    from repro.obs.trace import RunTrace, TeeRunTrace, get_tracer

    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r}")
    scheduler_cls, stream = SCHEDULERS[name]
    if sanitize is None:
        sanitize = sanitize_enabled()
    tracer = get_tracer()
    capture_run: Optional[RunTrace] = None
    sanitizing_run: Optional[SanitizingTrace] = None
    if "trace" not in kwargs:
        label = (
            f"{name} rtt={config.transport_latency_us:g}us "
            f"cores={config.total_cores}"
        )
        meta = {
            "rtt_us": config.transport_latency_us,
            "cores": config.total_cores,
            "jobs": len(jobs),
            "seed": seed,
        }
        ambient_run = None
        if tracer is not None:
            ambient_run = tracer.begin_run(label, scheduler=name, meta=meta)
        if capture_trace:
            kinds = None if capture_trace is True else resolve_kinds(capture_trace)
            capture_run = RunTrace(label, scheduler=name, meta=meta, kinds=kinds)
        if sanitize:
            sanitizing_run = SanitizingTrace(label, scheduler=name, meta=meta)
        targets = [
            run for run in (ambient_run, capture_run, sanitizing_run)
            if run is not None
        ]
        if len(targets) > 1:
            kwargs["trace"] = TeeRunTrace(targets[0], *targets[1:])
        elif targets:
            kwargs["trace"] = targets[0]

    if stream is None:
        scheduler = scheduler_cls(config, **kwargs)
    else:
        scheduler = scheduler_cls(config, rng=RngStreams(seed).stream(stream), **kwargs)
    result = scheduler.run(jobs)
    if sanitizing_run is not None:
        # End-of-run validation (dangling migration batches) + attestation.
        sanitizing_run.finish()
        result.sanitizer_report = sanitizing_run.report()
    if capture_run is not None:
        result.trace_run = capture_run
    return result


def compare_schedulers(
    config: CRanConfig,
    jobs: Sequence[SubframeJob],
    names: Sequence[str] = ("partitioned", "global", "rt-opex"),
    seed: int = 2016,
) -> Dict[str, SchedulerResult]:
    """Run several schedulers over identical jobs (paired comparison)."""
    return {name: run_scheduler(name, config, jobs, seed=seed) for name in names}
