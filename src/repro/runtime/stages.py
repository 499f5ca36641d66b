"""Staged-pipeline dataflow runtime: one execution engine for every loop.

The paper's core claim (Sections 4.2-4.3, Figure 1b) is that training *and*
inference become fast when sample / slice / transfer / compute are expressed
as overlapped pipeline stages with bounded prefetch.  This module makes that
decomposition an explicit, reusable runtime instead of four hand-rolled
loops: a pipeline is a list of :class:`Stage` objects connected by bounded
queues with backpressure, sharing one lifecycle (start / drain / close),
deterministic per-batch seeding, and first-class error propagation +
cancellation.

Every execution path in the repository runs on this engine.  Training
and sampled inference get theirs from
:func:`~repro.runtime.pipeline.build_pipeline`, which maps an executor
name to a stage list and prefetch depth:

- ``"serial"``       = depth-0 policy (all stages inline on the caller);
- ``"pipelined"``    = fused :class:`PrepareStage` + depth-N prefetch;
- ``"staged"``       = split :class:`SampleStage` → :class:`SliceStage`
  dataflow, each stage with its own workers;
- ``"multiprocess"`` = the prepare stage fanned out to worker processes
  (:class:`~repro.runtime.mp_prepare.MPPrepareStage`).

``DDPTrainer`` runs one prepare pipeline per replica, with compute driven
externally under the all-reduce barrier (:meth:`StagedPipeline.start`).

Telemetry: every stage counts into the pipeline's one
:class:`~repro.telemetry.MetricsRegistry` (``ctx.metrics``) — busy-time
histograms, queue depths, and counters such as ``pipeline_batches``,
``pipeline_cancelled`` and ``pool_overflow_batches``.

Determinism: batch ``index`` alone decides the RNG stream (``rng_entries``
policy), and completed batches are delivered to the compute stage in index
order regardless of worker count or scheduling, so serial, pipelined and
staged runs of the same seed produce identical losses.

Error handling: an exception inside a stage worker cancels the run — all
queues close, workers abandon their in-flight envelopes (releasing pinned
buffers back to the pool), the transfer stream is synchronized — and a
:class:`StageError` naming the stage and failing batch index re-raises at
the caller.  Exceptions raised by the caller-side compute function propagate
unchanged (after the same drain), preserving the pre-runtime behaviour.
"""

from __future__ import annotations

import abc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..slicing.slicer import (
    SlicedBatch,
    build_aggregation_plans,
    slice_batch_fused,
    slice_batch_reference,
)
from ..slicing.store import FeatureStore
from ..telemetry import MetricsRegistry
from ..telemetry.monitor import ProbeSampler
from ..telemetry.tracer import Tracer
from .device import Device, DeviceBatch, StreamEvent
from .pinned import PinnedBuffer, PinnedBufferPool
from .queues import BoundedOutputQueue, InputQueue, QueueClosed

__all__ = [
    "EpochStats",
    "Envelope",
    "Stage",
    "SampleStage",
    "SliceStage",
    "PrepareStage",
    "TransferStage",
    "ComputeStage",
    "StageError",
    "StagedPipeline",
]


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass
class EpochStats:
    """Timing breakdown of one epoch, produced by the runtime's single
    accounting path (envelope timings + caller blocking waits).

    ``sample_time``/``slice_time`` are *busy* times: on a depth-0 pipeline
    they block the caller, on an overlapped pipeline they are aggregate
    worker-thread time.  ``prep_wait_time``/``transfer_time``/``train_time``
    are always measured on the caller thread.

    When a :class:`~repro.telemetry.MetricsRegistry` is attached (every
    :meth:`StagedPipeline.run_epoch` attaches a per-epoch one), each timing
    observation is recorded there too — ``stage_seconds{stage=...}``
    histograms for busy time and ``caller_seconds{stage=...}`` histograms
    for the blocking view — and :meth:`breakdown` reads *from the registry*
    rather than keeping a parallel accounting implementation.
    """

    epoch_time: float = 0.0
    sample_time: float = 0.0  # sampling busy time
    slice_time: float = 0.0  # slicing busy time
    plan_build_time: float = 0.0  # aggregation-plan build busy time
    transfer_time: float = 0.0  # blocking transfer (or transfer-wait) time
    train_time: float = 0.0  # device compute time
    prep_wait_time: float = 0.0  # pipelined: main thread starved for batches
    num_batches: int = 0
    bytes_transferred: int = 0
    losses: list[float] = field(default_factory=list)
    #: True when sample/slice ran off the caller thread (their times are
    #: busy, not blocking, and must not be counted in the blocking view).
    overlapped: bool = False
    #: seconds a cold (memory-mapped) feature tier spent faulting/copying
    #: slab pages this epoch; feeds the storage-bound verdict
    mmap_wait_s: float = 0.0
    #: per-epoch metric registry (the breakdown's source of truth)
    metrics: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )

    #: breakdown keys, in Table 1's column order
    BREAKDOWN_STAGES = ("batch_prep", "transfer", "train", "prep_wait")

    @property
    def batch_prep_time(self) -> float:
        """Batch preparation = sampling + slicing + aggregation-plan build
        (Table 1's first column)."""
        return self.sample_time + self.slice_time + self.plan_build_time

    # ------------------------------------------------------------------
    # Recording (fields + registry in lockstep)
    # ------------------------------------------------------------------
    def record_busy(self, stage: str, seconds: float) -> None:
        """One batch's busy seconds on ``stage`` (worker or caller thread)."""
        if stage == "sample":
            self.sample_time += seconds
        elif stage == "slice":
            self.slice_time += seconds
        elif stage == "plan_build":
            self.plan_build_time += seconds
        if self.metrics is not None:
            self.metrics.histogram("stage_seconds", stage=stage).observe(seconds)

    def record_caller(self, stage: str, seconds: float) -> None:
        """Seconds the caller thread spent blocked on ``stage``."""
        if stage == "transfer":
            self.transfer_time += seconds
        elif stage == "train":
            self.train_time += seconds
        elif stage == "prep_wait":
            self.prep_wait_time += seconds
        if self.metrics is not None:
            self.metrics.histogram("caller_seconds", stage=stage).observe(seconds)

    def breakdown(self) -> dict[str, float]:
        """Fractions of epoch time per stage, from the caller's blocking
        perspective (the Table 1 measurement).  Includes ``prep_wait`` so
        overlapped-executor fractions sum to ~1.0 instead of silently
        under-reporting starvation; off-thread prep busy time is excluded
        from the blocking view.

        With an attached registry this is a pure view over the
        ``caller_seconds`` histograms; the legacy field arithmetic remains
        only for hand-built stats objects with no registry.
        """
        total = max(self.epoch_time, 1e-12)
        if self.metrics is not None:
            out = {
                stage: self.metrics.value("caller_seconds", stage=stage) / total
                for stage in self.BREAKDOWN_STAGES
            }
            plan_busy = self.metrics.value("stage_seconds", stage="plan_build")
            if plan_busy > 0.0:
                # Busy fraction (already inside batch_prep on serial runs);
                # surfaced so plan cost is visible in overlapped runs too.
                out["plan_build"] = plan_busy / total
            return out
        blocking_prep = 0.0 if self.overlapped else self.batch_prep_time
        out = {
            "batch_prep": blocking_prep / total,
            "transfer": self.transfer_time / total,
            "train": self.train_time / total,
            "prep_wait": self.prep_wait_time / total,
        }
        if self.plan_build_time > 0.0:
            out["plan_build"] = self.plan_build_time / total
        return out

    # ------------------------------------------------------------------
    # Bottleneck attribution (PAPER Table 1's question, answered in code)
    # ------------------------------------------------------------------
    def attribution(self, tracer: Optional["Tracer"] = None):
        """Bottleneck :class:`~repro.telemetry.attribution.Attribution`
        for this epoch — blocking shares, gpu idle fraction and the
        prep-/transfer-/compute-/storage-bound verdict; lane utilization
        is folded in when a tracer that recorded this epoch is supplied."""
        from ..telemetry.attribution import attribute_breakdown, attribute_trace

        lanes = attribute_trace(tracer) if tracer is not None else None
        stalls = {"mmap_wait_s": self.mmap_wait_s} if self.mmap_wait_s else None
        return attribute_breakdown(
            self.breakdown(), lanes=lanes, stalls=stalls,
            total_s=self.epoch_time or None,
        )

    def verdict(self, tracer: Optional["Tracer"] = None) -> str:
        """The epoch's one-word bottleneck verdict (e.g. ``prep-bound``)."""
        return self.attribution(tracer).verdict


#: queue-depth histogram bins: one per occupancy level up to 16 batches
_DEPTH_BUCKETS = tuple(float(i) for i in range(17))


class StageError(RuntimeError):
    """A stage worker failed while processing a batch.

    Carries the stage name and the failing batch index; the original
    exception is chained as ``__cause__``.
    """

    def __init__(self, stage: str, batch_index: int, original: BaseException):
        super().__init__(
            f"stage {stage!r} failed on batch {batch_index}: {original}"
        )
        self.stage = stage
        self.batch_index = batch_index
        self.original = original


# ----------------------------------------------------------------------
# Envelope: the unit of dataflow
# ----------------------------------------------------------------------
@dataclass
class Envelope:
    """One mini-batch flowing through the pipeline, stage by stage."""

    index: int
    nodes: np.ndarray
    rng: np.random.Generator
    mfg: Any = None
    sliced: Optional[SlicedBatch] = None
    buffer: Optional[PinnedBuffer] = None
    buffer_pool: Optional[PinnedBufferPool] = None
    device_batch: Optional[DeviceBatch] = None
    output: Any = None
    #: per-stage busy seconds, merged into EpochStats by the driver
    timings: dict[str, float] = field(default_factory=dict)
    _transfer_event: Optional[StreamEvent] = None
    _transfer_holder: Optional[list] = None

    def payload(self):
        """What the compute stage consumes: the device batch if a transfer
        stage ran, else the host-side sliced batch."""
        return self.device_batch if self.device_batch is not None else self.sliced

    def release_buffer(self) -> None:
        """Return the pinned slot (if any) to its pool, exactly once."""
        if self.buffer is not None and self.buffer_pool is not None:
            self.buffer_pool.release(self.buffer)
        self.buffer = None

    def wait_transfer(self, stats: Optional[EpochStats] = None) -> None:
        """Block until the submitted device transfer completes."""
        if self._transfer_event is None:
            return
        t0 = time.perf_counter()
        self._transfer_event.wait()
        if stats is not None:
            stats.record_caller("transfer", time.perf_counter() - t0)
        self.device_batch = self._transfer_holder[0]
        self._transfer_event = None
        self._transfer_holder = None


@dataclass
class PipelineContext:
    """Shared services threaded uniformly through every stage."""

    tracer: Tracer
    seed: int
    #: pipeline-lifetime metric registry (per-epoch registries merge in)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: continuous-monitoring sampler; overlapped runs register queue-depth,
    #: stage-occupancy and in-flight probes against it (None = no probes)
    probes: Optional[ProbeSampler] = None


@contextmanager
def _timed_span(ctx: PipelineContext, env: Envelope, name: str, resource: str):
    """Record one tracer span *and* the envelope's busy time for ``name``."""
    t0 = time.perf_counter()
    with ctx.tracer.span(name, resource, env.index):
        yield
    env.timings[name] = env.timings.get(name, 0.0) + time.perf_counter() - t0


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class Stage(abc.ABC):
    """One pipeline stage: a transformation applied to each envelope.

    Stages are bound to a pipeline (receiving the shared context) and may
    hold per-worker state created by :meth:`make_state` (e.g. one sampler
    instance per worker thread).  :meth:`abandon` must release any resource
    the stage attached to a cancelled envelope.
    """

    name = "stage"
    #: worker threads for this stage in overlapped mode
    workers = 1

    def __init__(self) -> None:
        self.ctx: Optional[PipelineContext] = None

    def bind(self, ctx: PipelineContext) -> None:
        self.ctx = ctx

    def make_state(self, worker_id: int):
        """Per-worker-thread state; called once per worker per run."""
        return None

    @abc.abstractmethod
    def process(self, env: Envelope, state, resource: str) -> None:
        """Transform ``env`` in place (runs on a worker or the caller)."""

    def abandon(self, env: Envelope) -> None:
        """Release resources held by a cancelled envelope."""
        env.release_buffer()


class SampleStage(Stage):
    """Multi-hop neighborhood sampling (the paper's first pipeline stage)."""

    name = "sample"

    def __init__(self, sampler_factory: Callable[[], Any], workers: int = 1):
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sampler_factory = sampler_factory
        self.workers = workers

    def make_state(self, worker_id: int):
        sampler = self.sampler_factory()
        attach_metrics = getattr(sampler, "attach_metrics", None)
        if attach_metrics is not None:
            attach_metrics(self.ctx.metrics)
        return sampler

    def process(self, env: Envelope, state, resource: str) -> None:
        with _timed_span(self.ctx, env, "sample", resource):
            env.mfg = state.sample(env.nodes, env.rng)


class SliceStage(Stage):
    """Feature/label slicing into (optionally pinned) staging memory.

    ``reference=True`` keeps the baseline's double-copy semantics
    (Section 4.2's multiprocessing analogue) — the serial training policy;
    otherwise the fused single-gather path is used, writing straight into a
    pinned slot when the batch fits the pool.

    Every batch also gets each MFG layer's
    :class:`~repro.tensor.plan.AggregationPlan` built here — on the prepare
    side of the pipeline, overlapped with compute — so the aggregation
    kernels find their sort metadata ready and the per-batch argsort cost
    stays off the training critical path.
    """

    name = "slice"

    def __init__(
        self,
        store: FeatureStore,
        pinned_pool: Optional[PinnedBufferPool] = None,
        reference: bool = False,
        workers: int = 1,
    ):
        super().__init__()
        self.store = store
        self.pinned_pool = pinned_pool
        self.reference = reference
        self.workers = workers

    def process(self, env: Envelope, state, resource: str) -> None:
        with _timed_span(self.ctx, env, "slice", resource):
            if self.reference:
                env.sliced = slice_batch_reference(self.store, env.mfg)
            else:
                pool = self.pinned_pool
                mfg = env.mfg
                if pool is not None and (
                    len(mfg.n_id) <= pool.max_rows
                    and mfg.batch_size <= pool.max_batch
                ):
                    buffer = pool.acquire()
                    env.buffer = buffer
                    env.buffer_pool = pool
                    env.sliced = slice_batch_fused(
                        self.store,
                        mfg,
                        xs_out=buffer.features,
                        ys_out=buffer.labels,
                        pinned_slot=buffer.slot,
                        metrics=self.ctx.metrics,
                    )
                else:
                    if pool is not None:
                        self.ctx.metrics.counter("pool_overflow_batches").inc()
                    env.sliced = slice_batch_fused(
                        self.store, mfg, metrics=self.ctx.metrics
                    )
        with _timed_span(self.ctx, env, "plan_build", resource):
            build_aggregation_plans(env.mfg, metrics=self.ctx.metrics)


class PrepareStage(Stage):
    """Fused sample + pinned slice: one worker owns a batch end-to-end.

    This is Section 4.2's batch-preparation design (and PR 1's arena
    sampler + fused pinned slicing) expressed as a single stage; it records
    separate ``sample`` and ``slice`` spans so accounting stays uniform
    with the split-stage pipeline.
    """

    name = "prepare"

    def __init__(
        self,
        sampler_factory: Callable[[], Any],
        store: FeatureStore,
        pinned_pool: Optional[PinnedBufferPool] = None,
        workers: int = 1,
    ):
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sampler_factory = sampler_factory
        self.workers = workers
        self._slice = SliceStage(store, pinned_pool=pinned_pool)
        self._sample = SampleStage(sampler_factory)

    def bind(self, ctx: PipelineContext) -> None:
        super().bind(ctx)
        self._slice.bind(ctx)
        self._sample.bind(ctx)

    def make_state(self, worker_id: int):
        return self._sample.make_state(worker_id)

    def process(self, env: Envelope, state, resource: str) -> None:
        self._sample.process(env, state, resource)
        self._slice.process(env, None, resource)


class TransferStage(Stage):
    """Host-to-device copy on the dedicated transfer stream.

    In overlapped mode the driver submits transfers in arrival order (so
    pinned slots recycle as soon as the DMA copy lands, never deadlocking
    behind in-order delivery) and waits for completion just before compute.
    """

    name = "transfer"

    def __init__(self, device: Device):
        super().__init__()
        self.device = device

    def submit(self, env: Envelope) -> None:
        """Enqueue the copy on the transfer stream; completion releases the
        pinned slot even before training consumes the device batch."""
        holder: list[Optional[DeviceBatch]] = [None]
        ctx = self.ctx

        def work() -> None:
            try:
                with _timed_span(ctx, env, "transfer", "dma"):
                    holder[0] = self.device.transfer_batch(env.sliced, env.index)
            finally:
                env.release_buffer()

        env._transfer_holder = holder
        env._transfer_event = self.device.transfer_stream.submit(work)

    def process(self, env: Envelope, state, resource: str) -> None:
        # Depth-0 (inline) policy: blocking copy on the caller thread.
        with _timed_span(self.ctx, env, "transfer", "dma"):
            env.device_batch = self.device.transfer_batch(env.sliced, env.index)
        env.release_buffer()


class ComputeStage(Stage):
    """The sink stage: runs the caller's function on the caller thread.

    ``fn`` is bound per-epoch by :meth:`StagedPipeline.run_epoch`; float
    results are collected as losses, array results (inference) are handed
    to the ``on_result`` callback.
    """

    name = "train"

    def __init__(self, fn: Optional[Callable] = None, name: str = "train"):
        super().__init__()
        self.fn = fn
        self.name = name

    def process(self, env: Envelope, state, resource: str) -> None:
        with _timed_span(self.ctx, env, self.name, resource):
            env.output = self.fn(env.payload())


# ----------------------------------------------------------------------
# The pipeline engine
# ----------------------------------------------------------------------
class StagedPipeline:
    """A list of stages connected by bounded queues with backpressure.

    Parameters
    ----------
    stages:
        Worker stages in dataflow order, optionally followed by one
        :class:`TransferStage` and at most one final :class:`ComputeStage`.
    prefetch_depth:
        0 runs every stage inline on the caller (the serial policy);
        >= 1 gives each worker stage its own threads connected by
        ``BoundedOutputQueue(prefetch_depth)`` — the bound is the paper's
        pinned-memory backpressure.
    rng_entries:
        ``index -> list[int]`` seeding policy; each batch's generator is
        ``default_rng(SeedSequence(rng_entries(index)))`` so results are
        independent of which worker runs which batch.  Defaults to
        ``[seed, index]``.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        *,
        prefetch_depth: int = 0,
        seed: int = 0,
        rng_entries: Optional[Callable[[int], Sequence[int]]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        probes: Optional[ProbeSampler] = None,
    ) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.prefetch_depth = prefetch_depth
        self.seed = seed
        self.rng_entries = rng_entries or (lambda index: [seed, index])
        self.ctx = PipelineContext(
            tracer=tracer or Tracer(enabled=False),
            seed=seed,
            metrics=metrics if metrics is not None else MetricsRegistry(),
            probes=probes if probes is not None and probes.enabled else None,
        )

        stages = list(stages)
        self.compute_stage: Optional[ComputeStage] = None
        self.transfer_stage: Optional[TransferStage] = None
        if stages and isinstance(stages[-1], ComputeStage):
            self.compute_stage = stages.pop()
        if stages and isinstance(stages[-1], TransferStage):
            self.transfer_stage = stages.pop()
        for stage in stages:
            if isinstance(stage, (TransferStage, ComputeStage)):
                raise ValueError(
                    "TransferStage/ComputeStage must come last, in that order"
                )
        self.worker_stages = stages
        for stage in self._all_stages():
            stage.bind(self.ctx)

    # ------------------------------------------------------------------
    def _all_stages(self) -> list[Stage]:
        out = list(self.worker_stages)
        if self.transfer_stage is not None:
            out.append(self.transfer_stage)
        if self.compute_stage is not None:
            out.append(self.compute_stage)
        return out

    def _make_envelope(self, index: int, nodes: np.ndarray) -> Envelope:
        rng = np.random.default_rng(
            np.random.SeedSequence(list(self.rng_entries(index)))
        )
        return Envelope(index=index, nodes=nodes, rng=rng)

    def _abandon(self, env: Envelope) -> None:
        for stage in self.worker_stages:
            stage.abandon(env)
        self.ctx.metrics.counter("pipeline_abandoned_batches").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, batches: Sequence[np.ndarray], stats: Optional[EpochStats] = None):
        """Start the worker stages over ``batches``; returns a
        :class:`PipelineRun` yielding envelopes in batch-index order with
        their transfers submitted (call :meth:`Envelope.wait_transfer`
        before consuming the device batch).

        At depth 0 the run processes each batch inline on demand.
        """
        stats = stats if stats is not None else EpochStats()
        if self.prefetch_depth == 0:
            return _InlineRun(self, batches, stats)
        return _OverlappedRun(self, batches, stats)

    def run_epoch(
        self,
        batches: Sequence[np.ndarray],
        compute_fn: Optional[Callable] = None,
        on_result: Optional[Callable[[Envelope], None]] = None,
    ) -> EpochStats:
        """Drive a full epoch through every stage and account it.

        The compute stage runs on the caller thread; with prefetch the
        next batch's transfer is always in flight while the current one
        trains (the Figure 1(b) overlap).
        """
        if self.compute_stage is None:
            raise ValueError("run_epoch requires a final ComputeStage")
        if compute_fn is not None:
            self.compute_stage.fn = compute_fn
        if self.compute_stage.fn is None:
            raise ValueError("no compute function bound")

        stats = EpochStats(
            overlapped=self.prefetch_depth > 0, metrics=MetricsRegistry()
        )
        device = self.transfer_stage.device if self.transfer_stage else None
        bytes_at_start = device.bytes_transferred if device else 0
        # Tiered stores write mmap_wait_seconds into the *cumulative*
        # registry (they are attached once, executor-wide); the per-epoch
        # share is the delta across this epoch.
        mmap_wait_at_start = self.ctx.metrics.value("mmap_wait_seconds")
        epoch_start = time.perf_counter()
        run = self.start(batches, stats)
        try:
            # Software pipelining: acquire (and submit) batch i+1 before
            # computing batch i, so its transfer overlaps this compute.
            pending = run.next_envelope()
            while pending is not None:
                upcoming = run.next_envelope()
                pending.wait_transfer(stats)
                self.compute_stage.process(pending, None, "gpu")
                self._finish(pending, stats, on_result)
                pending = upcoming
        except BaseException:
            run.close()
            if device is not None:
                device.transfer_stream.synchronize()
            raise
        run.drain()
        stats.epoch_time = time.perf_counter() - epoch_start
        stats.mmap_wait_s = (
            self.ctx.metrics.value("mmap_wait_seconds") - mmap_wait_at_start
        )
        if device is not None:
            stats.bytes_transferred = device.bytes_transferred - bytes_at_start
        # Fold the per-epoch registry into the pipeline's cumulative one so
        # multi-epoch runs (and benches) see one aggregated pool view.
        epoch_metrics = stats.metrics
        epoch_metrics.counter("batches").inc(stats.num_batches)
        epoch_metrics.counter("bytes_transferred").inc(stats.bytes_transferred)
        epoch_metrics.histogram("epoch_seconds").observe(stats.epoch_time)
        self.ctx.metrics.merge(epoch_metrics)
        return stats

    def _finish(
        self,
        env: Envelope,
        stats: EpochStats,
        on_result: Optional[Callable[[Envelope], None]],
    ) -> None:
        env.release_buffer()  # no-op when a transfer already recycled it
        stats.num_batches += 1
        timings = env.timings
        for stage_name, seconds in timings.items():
            stats.record_busy(stage_name, seconds)
        if not stats.overlapped:
            stats.record_caller(
                "batch_prep",
                timings.get("sample", 0.0)
                + timings.get("slice", 0.0)
                + timings.get("plan_build", 0.0),
            )
        if not self.prefetch_depth:
            stats.record_caller("transfer", timings.get("transfer", 0.0))
        stats.record_caller("train", timings.get(self.compute_stage.name, 0.0))
        if isinstance(env.output, (int, float)):
            stats.losses.append(float(env.output))
        if on_result is not None:
            on_result(env)
        self.ctx.metrics.counter("pipeline_batches").inc()


class _InlineRun:
    """Depth-0 policy: every stage executes on the caller, in order."""

    def __init__(self, pipeline: StagedPipeline, batches, stats: EpochStats):
        self.pipeline = pipeline
        self._iter = iter(
            pipeline._make_envelope(i, nodes) for i, nodes in enumerate(batches)
        )
        # Per-stage state (e.g. the sampler instance) is created lazily,
        # once per run, exactly like one worker thread would.
        self._states: dict[int, Any] = {}

    def next_envelope(self) -> Optional[Envelope]:
        env = next(self._iter, None)
        if env is None:
            return None
        pipeline = self.pipeline
        for stage in pipeline.worker_stages:
            stage.process(env, self._state_for(stage), "cpu:0")
        if pipeline.transfer_stage is not None:
            pipeline.transfer_stage.process(env, None, "dma")
        return env

    def _state_for(self, stage: Stage):
        key = id(stage)
        if key not in self._states:
            self._states[key] = stage.make_state(0)
        return self._states[key]

    def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


class _OverlappedRun:
    """Depth-N policy: worker threads per stage, bounded queues between.

    Input is a dynamically load-balanced queue (Section 4.2); each worker
    stage pushes into a ``BoundedOutputQueue(prefetch_depth)``.  The caller
    receives envelopes in index order; out-of-order arrivals have their
    transfers submitted immediately (arrival order) so pinned slots recycle
    without waiting on reordering.
    """

    def __init__(self, pipeline: StagedPipeline, batches, stats: EpochStats):
        self.pipeline = pipeline
        self.stats = stats
        #: queue-depth / wait-time observations target the epoch registry
        #: when one is attached, else the pipeline's cumulative registry
        self.metrics = (
            stats.metrics if stats.metrics is not None else pipeline.ctx.metrics
        )
        self.total = len(batches)
        self.error: Optional[StageError] = None
        self._cancelled = False
        self._expected = 0
        self._delivered = 0  # envelopes handed to the caller (caller thread)
        self._pending: dict[int, Envelope] = {}
        self._upstream_done = False
        self._lock = threading.Lock()

        self.input_queue: InputQueue = InputQueue(
            [pipeline._make_envelope(i, nodes) for i, nodes in enumerate(batches)]
        )
        self.queues: list[BoundedOutputQueue] = [
            BoundedOutputQueue(max(pipeline.prefetch_depth, 1))
            for _ in pipeline.worker_stages
        ]
        # Per-worker busy flags for the stage-occupancy probes: plain 0/1
        # assignments (atomic under the GIL), summed by the sampler thread.
        self._busy_flags: list[list[int]] = [
            [0] * stage.workers for stage in pipeline.worker_stages
        ]
        self._probe_names: list[str] = []
        self._register_probes()
        self.threads: list[threading.Thread] = []
        self._closers: list[threading.Thread] = []
        for si, stage in enumerate(pipeline.worker_stages):
            stage_threads = [
                threading.Thread(
                    target=self._worker,
                    args=(si, stage, wid),
                    daemon=True,
                    name=f"{stage.name}-{wid}",
                )
                for wid in range(stage.workers)
            ]
            self.threads.extend(stage_threads)
            for thread in stage_threads:
                thread.start()
            # Close stage si's output once all its workers have exited, so
            # the next stage (or the caller) observes end-of-stream.
            closer = threading.Thread(
                target=self._close_after,
                args=(stage_threads, self.queues[si]),
                daemon=True,
                name=f"close-{stage.name}",
            )
            closer.start()
            self._closers.append(closer)

    @staticmethod
    def _close_after(threads: list[threading.Thread], queue: BoundedOutputQueue):
        for thread in threads:
            thread.join()
        queue.close()

    # ------------------------------------------------------------------
    # Continuous-monitoring probes (repro.telemetry.monitor)
    # ------------------------------------------------------------------
    def _in_flight(self) -> float:
        """Envelopes inside the pipeline: dequeued but not yet delivered."""
        return float(max(0, self.total - len(self.input_queue) - self._delivered))

    def _register_probes(self) -> None:
        """Expose this run's queues/occupancy to the attached sampler.

        Probe names are stable across runs (keyed by stage name, not run
        identity), so a multi-epoch series stays continuous: each epoch's
        run re-registers the same names over its fresh queues.
        """
        probes = self.pipeline.ctx.probes
        if probes is None:
            return

        def add(name: str, fn, unit: str) -> None:
            probes.add_probe(name, fn, unit=unit)
            self._probe_names.append(name)

        add("pipeline/input_queue_depth", self.input_queue.__len__, "batches")
        add("pipeline/in_flight_envelopes", self._in_flight, "envelopes")
        for si, stage in enumerate(self.pipeline.worker_stages):
            add(f"queue_depth/{stage.name}", self.queues[si].__len__, "batches")
            flags = self._busy_flags[si]
            add(
                f"stage_occupancy/{stage.name}",
                lambda f=flags: float(sum(f)),
                "workers",
            )

    def _unregister_probes(self) -> None:
        probes = self.pipeline.ctx.probes
        if probes is None:
            return
        for name in self._probe_names:
            probes.remove_probe(name)
        self._probe_names = []

    def _worker(self, stage_index: int, stage: Stage, worker_id: int) -> None:
        state = stage.make_state(worker_id)
        resource = f"cpu:{worker_id}" if stage_index == 0 else f"cpu:{stage.name}{worker_id}"
        upstream = self.input_queue if stage_index == 0 else self.queues[stage_index - 1]
        downstream = self.queues[stage_index]
        while True:
            if self._cancelled:
                return
            if stage_index == 0:
                env = upstream.get()
                if env is None:
                    return
            else:
                t0 = time.perf_counter()
                try:
                    env = upstream.get()
                except QueueClosed:
                    return
                # How long this worker starved on its upstream stage.
                self.metrics.histogram(
                    "queue_wait_seconds", stage=stage.name
                ).observe(time.perf_counter() - t0)
            flags = self._busy_flags[stage_index]
            flags[worker_id] = 1
            try:
                stage.process(env, state, resource)
            except BaseException as exc:
                stage.abandon(env)
                self._fail(StageError(stage.name, env.index, exc))
                return
            finally:
                flags[worker_id] = 0
            try:
                downstream.put(env)
            except QueueClosed:
                self.pipeline._abandon(env)
                return
            self.metrics.histogram(
                "queue_depth", _DEPTH_BUCKETS, stage=stage.name
            ).observe(len(downstream))

    def _fail(self, error: StageError) -> None:
        with self._lock:
            if self.error is None:
                self.error = error
        self.pipeline.ctx.metrics.counter("pipeline_stage_errors").inc()
        self.cancel()

    # ------------------------------------------------------------------
    def next_envelope(self) -> Optional[Envelope]:
        """Next envelope in index order (transfer submitted), or None at
        end of stream.  Raises the recorded :class:`StageError` after the
        pipeline has fully drained."""
        final_queue = self.queues[-1]
        transfer = self.pipeline.transfer_stage
        while True:
            if self._expected in self._pending:
                env = self._pending.pop(self._expected)
                self._expected += 1
                self._delivered += 1
                return env
            if self._upstream_done:
                if self.error is not None:
                    # Cancelled run: don't hand stragglers to compute.
                    # Submitted transfers still complete on the stream
                    # (releasing their pinned slots); drain() re-raises.
                    for env in self._pending.values():
                        try:
                            env.wait_transfer()
                        except BaseException:
                            pass  # the StageError is the primary failure
                    self._pending.clear()
                if self._pending:
                    # Batch indices are dense, so a gap only appears under
                    # cancellation; normal completion empties the map via
                    # the in-order branch above.
                    index = min(self._pending)
                    self._expected = index + 1
                    self._delivered += 1
                    return self._pending.pop(index)
                self.drain()
                return None
            t0 = time.perf_counter()
            try:
                env = final_queue.get()
            except QueueClosed:
                env = None
            self.stats.record_caller("prep_wait", time.perf_counter() - t0)
            if env is None:
                self._upstream_done = True
                continue
            if transfer is not None:
                # Submit in arrival order: pinned slots free as soon as
                # each DMA copy completes, independent of delivery order.
                transfer.submit(env)
            self._pending[env.index] = env

    def drain(self) -> None:
        """Wait for worker shutdown and re-raise any stage error."""
        for thread in self.threads:
            thread.join(timeout=60)
        for closer in self._closers:
            closer.join(timeout=60)
        self._unregister_probes()
        if self.error is not None:
            if self.pipeline.transfer_stage is not None:
                self.pipeline.transfer_stage.device.transfer_stream.synchronize()
            raise self.error

    def cancel(self) -> None:
        """Close every queue; workers abandon in-flight envelopes."""
        self._cancelled = True
        for queue in self.queues:
            queue.close()
        # Drop work that never entered the pipeline.
        while True:
            env = self.input_queue.get()
            if env is None:
                break
        self.pipeline.ctx.metrics.counter("pipeline_cancelled").inc()

    def close(self) -> None:
        """Cancel, then reclaim every leftover envelope's resources."""
        self.cancel()
        for thread in self.threads:
            thread.join(timeout=60)
        for queue in self.queues:
            while True:
                try:
                    env = queue.get(timeout=1)
                except (QueueClosed, TimeoutError):
                    break
                self.pipeline._abandon(env)
        for env in self._pending.values():
            # Transfers were already submitted for pending envelopes; the
            # stream's completion callback releases their pinned slots.
            try:
                env.wait_transfer()
            except BaseException:
                pass  # close() must always reclaim, never raise
        self._pending.clear()
        self._unregister_probes()
