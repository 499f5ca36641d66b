"""Per-step workspace buffer pool for the fused kernels.

Training allocates near-identical activation/gradient arrays every batch —
the column widths repeat exactly (feature/hidden dims), while the row
counts (batch's node/edge counts) vary a few percent batch to batch.
:class:`Workspace` therefore pools *base* buffers keyed by
``(trailing shape, dtype, row-capacity bucket)`` where the leading
dimension is rounded up to a power of two: a request checks out a
``base[:rows]`` contiguous view of a pooled base with matching bucket, so
steady-state training recycles the same arrays batch after batch even as
row counts wobble.  Kernels check buffers out during a step and the
trainer releases them all at step end.  Hits, misses and byte volumes are
recorded into a :class:`~repro.telemetry.metrics.MetricsRegistry` when one
is attached.

The active workspace is a *thread-local* scope, entered by the trainer
around the forward/backward of each step::

    with workspace_scope(ws):
        out = model(x, mfg.adjs)
        loss.backward()

Outside any scope (inference, whose outputs outlive the forward; DDP;
ad-hoc tensor math) the same kernels allocate with plain ``numpy``.

Pooled buffers are only handed to *step-transient* consumers (fused-kernel
outputs and backward scratch).  Nothing that outlives the step may hold
one: ``Tensor._accumulate`` copies gradients into fresh arrays before they
reach ``param.grad``, optimizer state is separate, and losses are scalars,
so releasing at step end is safe by construction.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Optional

import numpy as np

__all__ = [
    "Workspace",
    "workspace_scope",
    "current_workspace",
]


def _row_capacity(rows: int) -> int:
    """Leading-dimension bucket: ``rows`` rounded up to a power of two.

    Bucketing bounds the number of distinct base shapes, so a batch whose
    node/edge counts differ slightly from the last one still finds a
    pooled base (at most 2x leading-dim slack, typically far less).
    """
    return 1 if rows <= 1 else 1 << (rows - 1).bit_length()


class Workspace:
    """Capacity-bucketed buffer pool recycling arrays across batches.

    ``zeros``/``empty`` check out a ``base[:rows]`` view of a pooled base
    array keyed by ``(trailing shape, dtype, row-capacity bucket)``;
    :meth:`release_all` returns every checked-out base to the free lists.
    Not thread-safe — each trainer owns one and uses it from the compute
    thread only.
    """

    def __init__(self, metrics=None) -> None:
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._out: list[tuple[tuple, np.ndarray]] = []
        self._metrics = None
        self._hits = self._misses = 0
        self._bytes_reused = self._bytes_allocated = 0
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, metrics) -> None:
        """Route hit/miss/bytes counters into ``metrics`` from now on."""
        self._metrics = metrics

    # ------------------------------------------------------------------
    def empty(self, shape, dtype) -> np.ndarray:
        """Check out an uninitialized buffer of ``shape``/``dtype``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        dtype = np.dtype(dtype)
        if not shape:  # 0-d: not worth pooling
            return np.empty(shape, dtype=dtype)
        rows = int(shape[0])
        capacity = _row_capacity(rows)
        key = (shape[1:], dtype.str, capacity)
        stack = self._free.get(key)
        if stack:
            base = stack.pop()
            self._record(hit=True, nbytes=base.nbytes)
        else:
            base = np.empty((capacity,) + shape[1:], dtype=dtype)
            self._record(hit=False, nbytes=base.nbytes)
        self._out.append((key, base))
        return base[:rows]

    def zeros(self, shape, dtype) -> np.ndarray:
        """Check out a zero-filled buffer of ``shape``/``dtype``."""
        array = self.empty(shape, dtype)
        array.fill(0)
        return array

    def release_all(self) -> None:
        """Return every checked-out base to the pool (end of step)."""
        for key, base in self._out:
            self._free.setdefault(key, []).append(base)
        self._out.clear()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "bytes_reused": self._bytes_reused,
            "bytes_allocated": self._bytes_allocated,
            "buffers_pooled": sum(len(s) for s in self._free.values()),
            "buffers_out": len(self._out),
        }

    def pooled_bytes(self) -> int:
        return sum(a.nbytes for s in self._free.values() for a in s) + sum(
            a.nbytes for _, a in self._out
        )

    def register_probes(self, sampler) -> None:
        """Expose pool occupancy to a continuous-monitoring sampler.

        The probes run on the sampler thread while the compute thread
        mutates the pool, so they only read single attributes (atomic under
        the GIL) — never the free-list dict.  ``pooled_bytes`` equals the
        cumulative base allocations (bases are never dropped), which is
        exactly the ``_bytes_allocated`` counter.
        """
        sampler.add_probe(
            "workspace/pooled_bytes",
            lambda: float(self._bytes_allocated),
            unit="bytes",
        )
        sampler.add_probe(
            "workspace/buffers_out", lambda: float(len(self._out)), unit="buffers"
        )

    def _record(self, hit: bool, nbytes: int) -> None:
        if hit:
            self._hits += 1
            self._bytes_reused += nbytes
        else:
            self._misses += 1
            self._bytes_allocated += nbytes
        if self._metrics is not None:
            if hit:
                self._metrics.counter("workspace_hits").inc(1)
                self._metrics.counter("workspace_bytes", source="reused").inc(nbytes)
            else:
                self._metrics.counter("workspace_misses").inc(1)
                self._metrics.counter("workspace_bytes", source="allocated").inc(
                    nbytes
                )


_LOCAL = threading.local()


@contextmanager
def workspace_scope(workspace: Optional[Workspace]):
    """Make ``workspace`` the active pool for this thread; release on exit.

    ``workspace=None`` is a no-op scope (kernels allocate with numpy).
    """
    if workspace is None:
        yield None
        return
    previous = getattr(_LOCAL, "workspace", None)
    _LOCAL.workspace = workspace
    try:
        yield workspace
    finally:
        _LOCAL.workspace = previous
        workspace.release_all()


def current_workspace() -> Optional[Workspace]:
    """The pool active on this thread, or ``None``."""
    return getattr(_LOCAL, "workspace", None)


def _pool_zeros(shape, dtype) -> np.ndarray:
    """Zero-filled output buffer: pooled when a workspace is active."""
    workspace = current_workspace()
    if workspace is not None:
        return workspace.zeros(shape, dtype)
    return np.zeros(shape, dtype=dtype)


def _pool_empty(shape, dtype) -> np.ndarray:
    """Uninitialized scratch buffer: pooled when a workspace is active."""
    workspace = current_workspace()
    if workspace is not None:
        return workspace.empty(shape, dtype)
    return np.empty(shape, dtype=dtype)
