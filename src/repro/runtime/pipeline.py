"""Executor policies: one builder mapping an executor name to a pipeline.

Every loop in the repository runs on :class:`~repro.runtime.stages
.StagedPipeline`; an *executor* is only a choice of stages, prefetch depth
and staging pool.  :func:`build_pipeline` is the single place that choice
is made, for training (:class:`~repro.train.loop.Trainer`), sampled
inference, ``repro timeline`` and the benches:

- ``"serial"`` reproduces Listing 1 — the standard PyTorch workflow of
  Figure 1(a): sample, slice, transfer, train, strictly in order on the
  caller (``prefetch_depth=0``, no staging pool).  Training slices through
  the double-copy reference path (the paper's baseline); inference keeps
  the fused slice.
- ``"pipelined"`` is SALIENT (Figure 1(b)): fused
  :class:`~repro.runtime.stages.PrepareStage` workers fill pinned buffers
  ahead of time; the transfer stream moves batch i+1 to the device while
  the caller computes batch i.
- ``"staged"`` splits prepare into :class:`~repro.runtime.stages
  .SampleStage` → :class:`~repro.runtime.stages.SliceStage`, each with its
  own workers and a bounded queue between them.
- ``"multiprocess"`` runs the prepare stage in worker *processes* over the
  shared-memory segments of a :class:`~repro.runtime.mp_prepare
  .MultiprocessExecutor`.

All policies record per-stage times into one
:class:`~repro.runtime.stages.EpochStats` accounting path and share batch
seeding, so their per-batch losses are identical for a shared seed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..sampling.base import NeighborSamplerBase
from ..slicing.store import FeatureStore
from ..telemetry import MetricsRegistry
from ..telemetry.monitor import ProbeSampler
from ..telemetry.tracer import Tracer
from .device import Device
from .pinned import PinnedBufferPool, estimate_max_rows
from .stages import (
    ComputeStage,
    PrepareStage,
    SampleStage,
    SliceStage,
    StagedPipeline,
    TransferStage,
)

__all__ = ["EXECUTORS", "PINNED_SLOTS", "PREFETCH_DEPTH", "build_pipeline"]

#: executor names :func:`build_pipeline` accepts
EXECUTORS = ("serial", "pipelined", "staged", "multiprocess")
#: bounded-queue depth of every overlapped policy
PREFETCH_DEPTH = 4
#: pinned staging slots of the threaded overlapped policies
PINNED_SLOTS = 4


def build_pipeline(
    executor: str,
    sampler_factory: Optional[Callable[[], NeighborSamplerBase]],
    fanouts: Sequence[Optional[int]],
    store: FeatureStore,
    device: Optional[Device] = None,
    *,
    compute: str = "train",
    num_workers: int = 2,
    max_batch: int = 1024,
    seed: int = 0,
    rng_entries: Optional[Callable[[int], Sequence[int]]] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    probes: Optional[ProbeSampler] = None,
    shared=None,
) -> StagedPipeline:
    """The :class:`StagedPipeline` for ``executor``.

    ``compute`` names the final stage (``"train"`` or ``"infer"``); serial
    training slices through the reference double copy.  With a ``device``
    the pipeline ends in a transfer stage, and the overlapped policies
    stage batches in a :data:`PINNED_SLOTS`-slot pinned pool sized from
    ``fanouts`` and ``max_batch``.  ``"multiprocess"`` takes its prepare
    workers and staging slots from ``shared`` (a
    :class:`~repro.runtime.mp_prepare.MultiprocessExecutor`, which owns and
    closes them); the other policies build one sampler per worker from
    ``sampler_factory``.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}")
    metrics = metrics if metrics is not None else MetricsRegistry()
    probes = probes if probes is not None and probes.enabled else None
    rng_entries = rng_entries or (lambda index: [seed, index])
    pool = None
    if executor == "multiprocess":
        pool = shared.pinned_pool
        pool.metrics = metrics  # slot waits land in this pipeline's registry
        stages = [shared.prepare_stage(rng_entries)]
        if probes is not None:
            shared.client.register_probes(probes)
    elif executor == "serial":
        stages = [
            SampleStage(sampler_factory),
            SliceStage(store, reference=compute == "train"),
        ]
    else:
        if device is not None:
            pool = PinnedBufferPool(
                num_slots=PINNED_SLOTS,
                max_rows=estimate_max_rows(fanouts, max_batch, store.num_nodes),
                num_features=store.num_features,
                max_batch=max_batch,
                feature_dtype=store.feature_dtype,
                metrics=metrics,
            )
        if executor == "pipelined":
            stages = [
                PrepareStage(
                    sampler_factory, store, pinned_pool=pool, workers=num_workers
                )
            ]
        else:
            stages = [
                SampleStage(sampler_factory, workers=num_workers),
                SliceStage(store, pinned_pool=pool),
            ]
    if pool is not None and probes is not None:
        pool.register_probes(probes)
    if device is not None:
        stages.append(TransferStage(device))
    stages.append(ComputeStage(name=compute))
    return StagedPipeline(
        stages,
        prefetch_depth=0 if executor == "serial" else PREFETCH_DEPTH,
        seed=seed,
        rng_entries=rng_entries,
        tracer=tracer,
        metrics=metrics,
        probes=probes,
    )
