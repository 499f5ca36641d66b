"""Batch slicing: turning a sampled MFG into a transfer-ready batch.

Two implementations mirror the paper's comparison:

- :func:`slice_batch_reference` — the PyTorch-multiprocessing-flavored path:
  slices allocate fresh arrays which must then be *copied again* into the
  consumer's memory (the POSIX-shared-memory double copy of Section 4.2).
- :func:`slice_batch_fused` — SALIENT's path: a single serial gather writes
  straight into caller-provided (pinned) buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sampling.mfg import MFG
from ..telemetry import MetricsRegistry
from .store import FeatureStore

__all__ = [
    "SlicedBatch",
    "slice_batch_reference",
    "slice_batch_fused",
    "build_aggregation_plans",
]

#: MFG-node-count bins for the per-batch slice-size histogram
_ROW_BUCKETS = tuple(float(4 ** exp) for exp in range(2, 13))


@dataclass
class SlicedBatch:
    """A fully prepared mini-batch, ready for device transfer.

    Mirrors the ``(xs, ys, Gs)`` triple of the paper's Listing 1.
    """

    mfg: MFG
    xs: np.ndarray  # (num_input_nodes, F) features, host dtype
    ys: np.ndarray  # (batch_size,) labels
    #: buffer-pool slot index when xs lives in pinned memory (else None)
    pinned_slot: Optional[int] = None

    @property
    def batch_size(self) -> int:
        return self.mfg.batch_size

    def nbytes(self) -> int:
        """Payload volume a CPU->GPU transfer must move."""
        return self.xs.nbytes + self.ys.nbytes + self.mfg.nbytes()

    def validate(self) -> None:
        self.mfg.validate()
        if self.xs.shape[0] != self.mfg.num_input_nodes:
            raise ValueError(
                f"feature rows {self.xs.shape[0]} != MFG input nodes "
                f"{self.mfg.num_input_nodes}"
            )
        if self.ys.shape[0] != self.mfg.batch_size:
            raise ValueError("label count != batch size")


def slice_batch_reference(store: FeatureStore, mfg: MFG) -> SlicedBatch:
    """Slice with a worker-to-consumer copy (the multiprocessing analogue).

    The extra ``.copy()`` models the POSIX-shared-memory handoff that
    "effectively halves the observed memory bandwidth" (Section 4.2).
    """
    xs_worker = store.slice_features(mfg.n_id)
    ys_worker = store.slice_labels(mfg.target_ids())
    xs = xs_worker.copy()
    ys = ys_worker.copy()
    return SlicedBatch(mfg=mfg, xs=xs, ys=ys)


def slice_batch_fused(
    store: FeatureStore,
    mfg: MFG,
    xs_out: Optional[np.ndarray] = None,
    ys_out: Optional[np.ndarray] = None,
    pinned_slot: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SlicedBatch:
    """Slice once, directly into destination (pinned) buffers.

    With ``metrics``, each call observes its row count in the
    ``slice_rows`` histogram (whose count is the fused-batch count) and its
    bytes in ``slice_bytes{pinned}``; pinned calls also bump
    ``slice_pinned_batches``.
    """
    n_id = mfg.n_id
    xs_view = xs_out[: len(n_id)] if xs_out is not None else None
    ys_view = ys_out[: mfg.batch_size] if ys_out is not None else None
    xs = store.slice_features(n_id, out=xs_view)
    ys = store.slice_labels(mfg.target_ids(), out=ys_view)
    if metrics is not None:
        metrics.histogram("slice_rows", _ROW_BUCKETS).observe(float(len(n_id)))
        metrics.counter(
            "slice_bytes", pinned="yes" if pinned_slot is not None else "no"
        ).inc(xs.nbytes + ys.nbytes)
        if pinned_slot is not None:
            metrics.counter("slice_pinned_batches").inc()
    return SlicedBatch(mfg=mfg, xs=xs, ys=ys, pinned_slot=pinned_slot)


def build_aggregation_plans(
    mfg: MFG, metrics: Optional[MetricsRegistry] = None
) -> MFG:
    """Build every layer's :class:`~repro.tensor.plan.AggregationPlan`.

    Runs in the prepare/slice stage — i.e. on pipeline workers, overlapped
    with compute — so the per-batch argsort cost leaves the training
    critical path entirely.  Idempotent; returns ``mfg`` for chaining.
    """
    if metrics is not None:
        with metrics.timer("plan_build_seconds").time():
            mfg.build_plans()
        metrics.counter("aggregation_plans_built").inc(len(mfg.adjs))
        metrics.counter("plan_build_edges").inc(mfg.total_edges())
    else:
        mfg.build_plans()
    return mfg
