"""Device-resident feature caching (Section 8 future work).

"one must avail of additional techniques such as GPU-based slicing or
caching data on the GPU to reduce the slicing or data transfer volume."

:class:`DeviceFeatureCache` pins the features of a chosen node set (by
default the highest-degree nodes — the ones sampled most often) on the
simulated device in the store's own dtype (fp16 by default, halving the
resident footprint and the one-time upload). :func:`transfer_batch_with_cache`
then moves only the *missing* rows over the bus and assembles the fp32
device-side feature matrix from cache hits plus transferred misses —
row assignment upcasts fp16 exactly. Adjacency and labels still transfer
normally.

The extension bench (``bench_ablation_feature_cache.py``) sweeps the cache
size and reports hit rate and transfer-volume reduction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..slicing.slicer import SlicedBatch
from ..slicing.store import FeatureStore
from ..telemetry import MetricsRegistry
from ..tensor.workspace import current_workspace
from .device import Device, DeviceBatch, DeviceTensor

__all__ = ["DeviceFeatureCache", "transfer_batch_with_cache", "hottest_nodes"]


def hottest_nodes(graph: CSRGraph, cache_size: int) -> np.ndarray:
    """The ``cache_size`` highest-degree nodes (most frequently sampled).

    Deterministic: degree ties at the selection boundary are broken by
    ascending node id, and the result is ordered by (descending degree,
    ascending id).  ``np.argpartition`` alone breaks ties in unspecified
    order, which made the resident set — and hence hit rates and metered
    transfer bytes — vary run-to-run on tie-heavy synthetic graphs.
    """
    if cache_size < 0 or cache_size > graph.num_nodes:
        raise ValueError("cache_size out of range")
    if cache_size == 0:
        return np.empty(0, dtype=np.int64)
    degrees = np.asarray(graph.degree(), dtype=np.int64)
    n = len(degrees)
    if cache_size == n:
        chosen = np.arange(n, dtype=np.int64)
    else:
        # argpartition finds the k-th largest degree; membership above the
        # threshold is unambiguous, and the tie boundary is filled with the
        # smallest node ids (flatnonzero scans in ascending-id order).
        kth = np.partition(degrees, n - cache_size)[n - cache_size]
        sure = np.flatnonzero(degrees > kth)
        tied = np.flatnonzero(degrees == kth)[: cache_size - len(sure)]
        chosen = np.concatenate([sure, tied]).astype(np.int64)
    order = np.lexsort((chosen, -degrees[chosen]))
    return chosen[order]


class DeviceFeatureCache:
    """Features of a fixed node set, resident on the device in store dtype."""

    def __init__(
        self,
        device: Device,
        store: FeatureStore,
        node_ids: np.ndarray,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        self.device = device
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # int32 halves the lookup table; cache row indices always fit.
        self._row_of = np.full(store.num_nodes, -1, dtype=np.int32)
        self._row_of[node_ids] = np.arange(len(node_ids), dtype=np.int32)
        # One-time bulk upload of the resident set (metered), gathered in a
        # single zero-intermediate pass and kept in the store's dtype —
        # fancy indexing + astype would materialize the rows twice.
        resident = np.empty((len(node_ids), store.num_features), store.feature_dtype)
        store.slice_features(node_ids, out=resident)
        self.rows = device.to_device(resident).data
        self.num_features = store.num_features

    # Hit/miss/byte totals are views over the registry counters that
    # ``transfer_batch_with_cache`` increments (thread-safe, one channel).
    @property
    def hits(self) -> int:
        return int(self.metrics.value("cache_rows", outcome="hit"))

    @property
    def misses(self) -> int:
        return int(self.metrics.value("cache_rows", outcome="miss"))

    @property
    def bytes_saved(self) -> int:
        return int(self.metrics.value("cache_bytes_saved"))

    @property
    def size(self) -> int:
        return int((self._row_of >= 0).sum())

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, n_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (cache row per node or -1, boolean hit mask)."""
        rows = self._row_of[n_id]
        return rows, rows >= 0

    def register_probes(self, sampler) -> None:
        """Expose the running hit rate to a continuous-monitoring sampler
        (:class:`~repro.telemetry.monitor.ProbeSampler`)."""
        sampler.add_probe("feature_cache/hit_rate", self.hit_rate, unit="fraction")
        sampler.add_probe(
            "feature_cache/bytes_saved",
            lambda: float(self.bytes_saved),
            unit="bytes",
        )


def transfer_batch_with_cache(
    device: Device,
    cache: DeviceFeatureCache,
    batch: SlicedBatch,
    batch_index: int = -1,
) -> DeviceBatch:
    """Move a batch to the device, shipping only cache-miss feature rows.

    The assembled fp32 matrix comes from the thread's active
    :class:`~repro.tensor.workspace.Workspace` when one is in scope, so the
    steady-state loop reuses one buffer per batch-size bucket instead of
    allocating a fresh feature matrix every batch.
    """
    n_id = batch.mfg.n_id
    rows, hit = cache.lookup(n_id)
    miss_idx = np.flatnonzero(~hit)

    # Meter only the miss payload + labels + adjacency.
    miss_features = np.ascontiguousarray(batch.xs[: len(n_id)][miss_idx])
    payload = miss_features.nbytes + batch.ys.nbytes + batch.mfg.nbytes()
    adj_tensors = 1 + len(batch.mfg.adjs)
    device._meter(payload, 2 + adj_tensors)

    ws = current_workspace()
    if ws is not None:
        xs = ws.empty((len(n_id), cache.num_features), np.float32)
    else:
        xs = np.empty((len(n_id), cache.num_features), dtype=np.float32)
    hit_idx = np.flatnonzero(hit)
    if len(hit_idx):
        xs[hit_idx] = cache.rows[rows[hit_idx]]
    if len(miss_idx):
        xs[miss_idx] = miss_features.astype(np.float32)

    full_bytes = batch.xs[: len(n_id)].nbytes
    cache.metrics.counter("cache_rows", outcome="hit").inc(len(hit_idx))
    cache.metrics.counter("cache_rows", outcome="miss").inc(int(len(miss_idx)))
    cache.metrics.counter("cache_bytes_saved").inc(full_bytes - miss_features.nbytes)

    return DeviceBatch(
        xs=DeviceTensor(xs, device),
        ys=DeviceTensor(batch.ys.copy(), device),
        mfg=batch.mfg,
        batch_index=batch_index,
    )
