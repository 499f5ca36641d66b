"""Pinned host-memory buffer pool.

Real pinned (page-locked) memory lets the DMA engine read host buffers
directly, enabling asynchronous CPU->GPU copies. We model it as a pool of
preallocated numpy buffers with explicit acquire/release: batch-preparation
workers slice features straight into an acquired slot (Section 4.2's
zero-copy handoff), the transfer stream consumes the slot, and the slot is
recycled once the device copy completes. The pool bound doubles as pipeline
backpressure, exactly like a fixed ring of pinned staging buffers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..telemetry import MetricsRegistry

__all__ = ["PinnedBuffer", "PinnedBufferPool", "estimate_max_rows"]


def estimate_max_rows(
    fanouts: Sequence[Optional[int]], batch_size: int, num_nodes: int
) -> int:
    """Upper bound on MFG node count: batch * prod(fanout_i + 1), capped —
    the feature rows one staging slot must hold.

    The +1 accounts for each frontier node remaining in the next source set
    (the destination-prefix property). ``None`` fanouts (full neighborhood)
    cap at the graph size.
    """
    bound = batch_size
    for fanout in fanouts:
        if fanout is None:
            return num_nodes
        bound *= fanout + 1
        if bound >= num_nodes:
            return num_nodes
    return min(bound, num_nodes)


@dataclass
class PinnedBuffer:
    """One staging slot: feature rows + label entries."""

    slot: int
    features: np.ndarray  # (max_rows, num_features)
    labels: np.ndarray  # (max_batch,)


class PinnedBufferPool:
    """Fixed-size pool of staging buffers with blocking acquire."""

    def __init__(
        self,
        num_slots: int,
        max_rows: int,
        num_features: int,
        max_batch: int,
        feature_dtype=np.float16,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_slots < 1:
            raise ValueError("need at least one slot")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_rows = max_rows
        self.num_features = num_features
        self.max_batch = max_batch
        self.feature_dtype = np.dtype(feature_dtype)
        self._buffers = [self._make_buffer(i) for i in range(num_slots)]
        self._free = list(range(num_slots))
        self._mutex = threading.Lock()
        self._available = threading.Condition(self._mutex)
        self.total_slots = num_slots

    def _make_buffer(self, slot: int) -> PinnedBuffer:
        """Allocate one slot's backing storage (subclasses override to
        place the arrays in shared memory)."""
        return PinnedBuffer(
            slot=slot,
            features=np.empty((self.max_rows, self.num_features), self.feature_dtype),
            labels=np.empty(self.max_batch, dtype=np.int64),
        )

    def acquire(self, timeout: Optional[float] = None) -> PinnedBuffer:
        """Block until a slot is free; return it.

        ``timeout`` is a single deadline for the whole call: the wait loop
        re-arms with the *remaining* time after every wakeup (a condition
        notify with no free slot must not restart the clock).
        """
        t0 = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._available:
            while not self._free:
                self.metrics.counter("pinned_acquire_waits").inc()
                if deadline is None:
                    self._available.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._available.wait(timeout=remaining):
                    raise TimeoutError("no pinned buffer became available")
            self.metrics.counter("pinned_acquires").inc()
            buffer = self._buffers[self._free.pop()]
            free = len(self._free)
        self.metrics.histogram(
            "pinned_acquire_wait_seconds"
        ).observe(time.perf_counter() - t0)
        self.metrics.gauge("pinned_free_slots").set(float(free))
        return buffer

    def release(self, buffer: PinnedBuffer) -> None:
        with self._available:
            if (
                not 0 <= buffer.slot < self.total_slots
                or self._buffers[buffer.slot] is not buffer
            ):
                raise ValueError(
                    f"buffer with slot {buffer.slot} does not belong to this pool"
                )
            if buffer.slot in self._free:
                raise ValueError(f"slot {buffer.slot} released twice")
            self._free.append(buffer.slot)
            self.metrics.counter("pinned_releases").inc()
            self._available.notify()
            free = len(self._free)
        self.metrics.gauge("pinned_free_slots").set(float(free))

    def free_slots(self) -> int:
        with self._mutex:
            return len(self._free)

    def utilization(self) -> float:
        """Fraction of slots currently checked out (1.0 = pool exhausted)."""
        return 1.0 - self.free_slots() / self.total_slots

    def register_probes(self, sampler) -> None:
        """Expose pool occupancy to a continuous-monitoring sampler.

        ``sampler`` is a :class:`~repro.telemetry.monitor.ProbeSampler`;
        both probes are lock-protected reads, cheap enough for a 10 ms
        sampling period.
        """
        sampler.add_probe(
            "pinned_pool/free_slots", lambda: float(self.free_slots()), unit="slots"
        )
        sampler.add_probe("pinned_pool/utilization", self.utilization, unit="fraction")

    def nbytes(self) -> int:
        """Total pinned memory footprint."""
        return sum(b.features.nbytes + b.labels.nbytes for b in self._buffers)
