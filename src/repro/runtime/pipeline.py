"""Epoch executors: policy configurations over the staged-pipeline runtime.

Every executor here is a thin wiring of :mod:`repro.runtime.stages` — the
loop body (queues, workers, overlap, error handling, accounting) lives in
:class:`~repro.runtime.stages.StagedPipeline`, not in the executors:

- :class:`SerialExecutor` reproduces Listing 1 — the standard PyTorch
  workflow of Figure 1(a): sample, slice (double-copy reference path),
  transfer, train, strictly in order on the main thread.  Policy:
  ``prefetch_depth=0``.
- :class:`PipelinedExecutor` is SALIENT (Figure 1(b)): fused
  :class:`~repro.runtime.stages.PrepareStage` workers fill pinned buffers
  ahead of time; the transfer stream moves batch i+1 to the device while
  the main thread trains on batch i.  Policy: fused prepare +
  ``prefetch_depth=N``.
- :class:`StagedExecutor` runs the fully split dataflow (sample → slice →
  transfer → train as four stages, each with its own workers) — the
  explicit-stage configuration benchmarks compare against the fused one.

All three record per-stage times (the Table 1 measurement: "time spent on
it from the perspective of the main thread") into one
:class:`~repro.runtime.stages.EpochStats` accounting path, and share batch
seeding, so their per-batch losses are identical for a shared seed.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..sampling.base import NeighborSamplerBase
from ..slicing.store import FeatureStore
from ..telemetry import Counters, MetricsRegistry
from ..telemetry.monitor import ProbeSampler
from ..telemetry.tracer import Tracer
from .device import Device, DeviceBatch
from .pinned import PinnedBufferPool
from .stages import (
    ComputeStage,
    EpochStats,
    PrepareStage,
    SampleStage,
    SliceStage,
    StagedPipeline,
    TransferStage,
)
from .workers import estimate_max_rows

__all__ = [
    "EpochStats",
    "SerialExecutor",
    "PipelinedExecutor",
    "StagedExecutor",
]

TrainFn = Callable[[DeviceBatch], float]


class SerialExecutor:
    """Listing-1 workflow: every stage blocks the main thread (depth 0)."""

    def __init__(
        self,
        sampler: NeighborSamplerBase,
        store: FeatureStore,
        device: Device,
        tracer: Optional[Tracer] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        probes: Optional[ProbeSampler] = None,
    ) -> None:
        self.sampler = sampler
        self.store = store
        self.device = device
        self.tracer = tracer or Tracer(enabled=False)
        self.seed = seed
        self.probes = probes
        self._pipeline = StagedPipeline(
            [
                SampleStage(lambda: sampler),
                SliceStage(store, reference=True),
                TransferStage(device),
                ComputeStage(),
            ],
            prefetch_depth=0,
            seed=seed,
            tracer=self.tracer,
            metrics=metrics,
            probes=probes,
        )
        self.counters = self._pipeline.ctx.counters
        self.metrics = self._pipeline.ctx.metrics

    def run_epoch(self, batches: Sequence[np.ndarray], train_fn: TrainFn) -> EpochStats:
        return self._pipeline.run_epoch(batches, train_fn)


class _PooledExecutor:
    """Shared wiring for the overlapped policies: pinned pool + pipeline."""

    def __init__(
        self,
        sampler_factory: Callable[[], NeighborSamplerBase],
        store: FeatureStore,
        device: Device,
        num_workers: int = 2,
        prefetch_depth: int = 4,
        pinned_slots: int = 4,
        max_rows_hint: Optional[int] = None,
        max_batch_hint: int = 1024,
        tracer: Optional[Tracer] = None,
        seed: int = 0,
        counters: Optional[Counters] = None,
        metrics: Optional[MetricsRegistry] = None,
        probes: Optional[ProbeSampler] = None,
    ) -> None:
        self.store = store
        self.device = device
        self.tracer = tracer or Tracer(enabled=False)
        #: one shared sink for sampler, slicer and pinned-pool telemetry
        self.counters = counters if counters is not None else Counters()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.probes = probes
        sizing_probe = sampler_factory()
        max_rows = max_rows_hint or estimate_max_rows(
            sizing_probe.fanouts, max_batch_hint, store.num_nodes
        )
        self.pinned_pool = PinnedBufferPool(
            num_slots=pinned_slots,
            max_rows=max_rows,
            num_features=store.num_features,
            max_batch=max_batch_hint,
            feature_dtype=store.feature_dtype,
            counters=self.counters,
            metrics=self.metrics,
        )
        if probes is not None and probes.enabled:
            self.pinned_pool.register_probes(probes)
        self._pipeline = StagedPipeline(
            self._build_stages(sampler_factory, num_workers),
            prefetch_depth=prefetch_depth,
            seed=seed,
            tracer=self.tracer,
            counters=self.counters,
            metrics=self.metrics,
            probes=probes,
        )

    def _build_stages(self, sampler_factory, num_workers):
        raise NotImplementedError

    def run_epoch(self, batches: Sequence[np.ndarray], train_fn: TrainFn) -> EpochStats:
        return self._pipeline.run_epoch(batches, train_fn)


class PipelinedExecutor(_PooledExecutor):
    """SALIENT's overlapped pipeline (Sections 4.2-4.3): fused prepare
    workers (one thread owns a batch's sampling *and* pinned slicing
    end-to-end) feeding the transfer/compute overlap."""

    def _build_stages(self, sampler_factory, num_workers):
        return [
            PrepareStage(
                sampler_factory,
                self.store,
                pinned_pool=self.pinned_pool,
                workers=num_workers,
            ),
            TransferStage(self.device),
            ComputeStage(),
        ]


class StagedExecutor(_PooledExecutor):
    """Split dataflow: sample and slice as separate stages with their own
    worker pools and a bounded queue between them — the explicit
    stage-per-resource configuration of the staged runtime."""

    def _build_stages(self, sampler_factory, num_workers):
        return [
            SampleStage(sampler_factory, workers=num_workers),
            SliceStage(self.store, pinned_pool=self.pinned_pool),
            TransferStage(self.device),
            ComputeStage(),
        ]
