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

from repro.lte.grid import GridConfig
from repro.lte.subframe import Subframe
from repro.sched.base import CRanConfig, SchedulerResult, SubframeJob
from repro.sched.global_ import GlobalScheduler
from repro.sched.partitioned import PartitionedScheduler
from repro.sched.rtopex import RtOpexScheduler
from repro.sim.rng import RngStreams
from repro.timing.iterations import IterationModel
from repro.timing.model import LinearTimingModel
from repro.timing.platform import PlatformNoiseModel
from repro.timing.tasks import build_subframe_work
from repro.workload.mapping import GrantMapper
from repro.workload.traces import CellularTraceGenerator


def resolve_loads(
    config: CRanConfig, num_subframes: int, seed: int, loads: Optional[np.ndarray]
) -> np.ndarray:
    """``loads`` as a ``(num_basestations, num_subframes)`` float array,
    generated from the default trace model (seeded by ``seed``) when
    ``None``; any other shape is rejected."""
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
    return loads


def resolve_workload_inputs(
    config: CRanConfig,
    num_subframes: int,
    seed: int,
    loads: Optional[np.ndarray],
    timing_model: Optional[LinearTimingModel],
    iteration_model: Optional[IterationModel],
    noise_model: Optional[PlatformNoiseModel],
    mapper: Optional[GrantMapper],
    transport_jitter: Optional[np.ndarray],
) -> Tuple[
    LinearTimingModel, IterationModel, PlatformNoiseModel, GrantMapper, np.ndarray, np.ndarray
]:
    """Default models, load generation and input checks for one workload.

    Shared by :func:`build_workload_legacy` and
    :func:`repro.workload.soa.build_workload_arrays`, which take the
    same parameters; it draws from none of their RNG streams.  Returns
    ``(timing, iterations, noise, mapper, loads, transport_us)``, where
    ``transport_us`` is the effective RTT/2 (``transport_latency_us``
    plus the jitter) per (bs, subframe), shaped like ``loads``.  Each
    must be finite and >= 0: a NaN arrival never misses, and a negative
    one is processed before it is received.
    """
    timing = timing_model if timing_model is not None else LinearTimingModel()
    iters = iteration_model if iteration_model is not None else IterationModel(
        max_iterations=config.max_iterations
    )
    noise = noise_model if noise_model is not None else PlatformNoiseModel()
    grants = mapper if mapper is not None else GrantMapper(num_antennas=config.num_antennas)

    loads = resolve_loads(config, num_subframes, seed, loads)
    transport_us = np.full(loads.shape, config.transport_latency_us, dtype=np.float64)
    if transport_jitter is not None:
        transport_jitter = np.asarray(transport_jitter, dtype=np.float64)
        if transport_jitter.shape != loads.shape:
            raise ValueError("transport_jitter must match the loads shape")
        transport_us = transport_us + transport_jitter
    bad = ~(np.isfinite(transport_us) & (transport_us >= 0.0))
    if bad.any():
        bs, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValueError(
            f"effective RTT/2 at (bs={bs}, subframe={j}) is {transport_us[bs, j]} us; "
            "transport_latency_us + transport_jitter must be finite and >= 0"
        )
    return timing, iters, noise, grants, loads, transport_us


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

    Dispatches to the array-native pipeline
    (:mod:`repro.workload.soa`) whenever the mapper/iteration/timing
    models are the stock types whose vectorized forms are proven
    bit-identical; subclasses overriding the scalar hooks fall back to
    :func:`build_workload_legacy`.  Both paths consume the RNG streams
    identically and return equal job lists (asserted by the golden and
    property tests), so callers never observe which one ran.

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
    fast = (
        (mapper is None or type(mapper) is GrantMapper)
        and (iteration_model is None or type(iteration_model) is IterationModel)
        and (timing_model is None or type(timing_model) is LinearTimingModel)
    )
    if fast:
        from repro.workload.soa import build_workload_arrays, materialize_jobs

        arrays = build_workload_arrays(
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
        return materialize_jobs(arrays)
    return build_workload_legacy(
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


def build_workload_legacy(
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
    """The scalar per-subframe builder (reference implementation).

    Retained verbatim as the semantic ground truth for the SoA fast
    path: the identity tests build the same experiment through both
    and require equal job lists.
    """
    streams = RngStreams(seed)
    timing, iters, noise, grants, loads, transport_us = resolve_workload_inputs(
        config, num_subframes, seed, loads, timing_model, iteration_model,
        noise_model, mapper, transport_jitter,
    )

    grid = GridConfig(10.0)
    iter_rng = streams.stream("iterations")
    noise_rng = streams.stream("platform-noise")

    jobs: List[SubframeJob] = []
    for bs in range(config.num_basestations):
        for j in range(num_subframes):
            load = float(loads[bs, j])
            grant = grants.grant_for_load(load)
            draw = iters.draw_subframe(
                grant.mcs, config.snr_db, iter_rng, num_blocks=grant.code_blocks
            )
            work = build_subframe_work(
                timing,
                grant,
                draw.iterations,
                max_iterations=config.max_iterations,
                crc_pass=draw.crc_pass,
            )
            subframe = Subframe(
                bs_id=bs,
                index=j,
                grant=grant,
                snr_db=config.snr_db,
                transport_latency_us=float(transport_us[bs, j]),
                grid=grid,
            )
            jobs.append(
                SubframeJob(
                    subframe=subframe,
                    work=work,
                    noise_us=noise.draw_one(noise_rng),
                    load=load,
                )
            )
    return jobs


#: Schedulers that accept a ``trace=`` keyword — all six policies.
TRACEABLE_SCHEDULERS = (
    "partitioned", "global", "rt-opex", "rtopex", "pran", "cloudiq", "das"
)


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
    from repro.sched.cloudiq import CloudIqScheduler
    from repro.sched.pran import PranScheduler

    if sanitize is None:
        sanitize = sanitize_enabled()
    tracer = get_tracer()
    capture_run: Optional[RunTrace] = None
    sanitizing_run: Optional[SanitizingTrace] = None
    if name in TRACEABLE_SCHEDULERS and "trace" not in kwargs:
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

    streams = RngStreams(seed)
    if name == "partitioned":
        result = PartitionedScheduler(config, **kwargs).run(jobs)
    elif name == "global":
        result = GlobalScheduler(config, rng=streams.stream("global"), **kwargs).run(jobs)
    elif name in ("rt-opex", "rtopex"):
        result = RtOpexScheduler(config, rng=streams.stream("rtopex"), **kwargs).run(jobs)
    elif name == "pran":
        result = PranScheduler(config, rng=streams.stream("pran"), **kwargs).run(jobs)
    elif name == "cloudiq":
        result = CloudIqScheduler(config, **kwargs).run(jobs)
    elif name == "das":
        from repro.sched.das import DelayAwareScheduler

        result = DelayAwareScheduler(config, rng=streams.stream("das"), **kwargs).run(jobs)
    else:
        raise ValueError(f"unknown scheduler {name!r}")
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
