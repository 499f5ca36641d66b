"""Per-batch aggregation plans: precomputed segment-reduction metadata.

Every segment reduction over a message-flow-graph layer needs the same
setup metadata — per-destination counts for means, and for max/softmax a
destination-sorted edge permutation with its segment boundaries.
Recomputing it (an argsort or a ``bincount`` over the index) inside every
``segment_mean/max/softmax`` call would cost it once per op per layer per
direction.  An :class:`AggregationPlan` computes it **once per batch** (in
the prepare/slice pipeline stage, off the compute critical path) and is
reused by every layer's forward *and* backward pass.  For GAT the
self-loop-augmented edge set (and its sort) is additionally memoized on
the plan, shared by every softmax/sum call of the layer.

Bitwise contract: each output slot of a segment *sum* must accumulate its
edges sequentially **in original edge order, in float64** — the
flat-index ``np.bincount`` semantics of the per-call reference kernels
(``benchmarks/reference.py``).  The plan materializes that same
accumulation as cached CSR operators (rows grouped by the *stable*
dst/src sort, so entries within a row keep edge order; data all-ones
float64): ``A @ x`` runs the identical per-slot add sequence through
scipy's C matvec loop, an order of magnitude faster than bincount's
flat-index scalar loop.  ``np.add.reduceat`` is deliberately *not* used
for sums — its pairwise summation re-associates float adds and is not
bit-identical — but ``maximum.reduceat`` is order-exact, so the sorted
view drives max/softmax.  When scipy is unavailable the kernels fall
back to the flat-index bincount itself (same bits, slower).
``tests/tensor/test_fused_kernels.py`` pins this bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

try:  # pragma: no cover - exercised implicitly by the kernel tests
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy ships with the toolchain
    _sparse = None

__all__ = ["AggregationPlan"]


class AggregationPlan:
    """Precomputed metadata for segment reductions over one edge list.

    Parameters
    ----------
    src, dst:
        Local edge endpoints, each ``(E,)`` int64; messages flow
        ``src -> dst``.
    n_src, n_dst:
        Sizes of the source/destination node sets.
    """

    __slots__ = (
        "src",
        "dst",
        "n_src",
        "n_dst",
        "num_edges",
        "perm",
        "starts",
        "seg_ids",
        "counts",
        "_with_loops",
        "_edge_matrix",
        "_gather_matrix",
        "_scatter_matrix",
    )

    def __init__(self, src: np.ndarray, dst: np.ndarray, n_src: int, n_dst: int):
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src/dst must be 1-D arrays of equal length")
        self.src = src
        self.dst = dst
        self.n_src = int(n_src)
        self.n_dst = int(n_dst)
        self.num_edges = int(src.shape[0])

        #: per-destination in-degree (mean kernels divide by this)
        self.counts = np.bincount(dst, minlength=self.n_dst).astype(np.int64)
        #: dst-sorted view (max / softmax reductions); stable keeps edges in
        #: original order within a segment.  int64 stable argsort is a radix
        #: sort, so plan construction is O(E).
        self.perm = np.argsort(dst, kind="stable")
        self.starts, self.seg_ids = _run_starts(dst[self.perm])

        self._with_loops: Optional["AggregationPlan"] = None
        self._edge_matrix = None
        self._gather_matrix = None
        self._scatter_matrix = None

    # ------------------------------------------------------------------
    # Cached CSR aggregation operators.  Rows follow the stable sort, so
    # scipy's matvec loop visits each slot's entries in original edge
    # order and (with all-ones float64 data) reproduces the flat-index
    # bincount accumulation bit for bit.  Indices are intentionally NOT
    # per-row sorted and the matrices must never be canonicalized
    # (``sum_duplicates``/``sort_indices`` would re-associate the adds).

    def _csr(self, indices: np.ndarray, counts: np.ndarray, n_cols: int):
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        data = np.ones(indices.shape[0], dtype=np.float64)
        return _sparse.csr_matrix(
            (data, indices, indptr), shape=(counts.shape[0], n_cols), copy=False
        )

    def edge_matrix(self):
        """``(n_dst, E)`` operator: ``A @ values`` == segment-sum of
        per-edge rows by destination.  ``None`` when scipy is absent."""
        if _sparse is None:
            return None
        if self._edge_matrix is None:
            self._edge_matrix = self._csr(self.perm, self.counts, self.num_edges)
        return self._edge_matrix

    def gather_matrix(self):
        """``(n_dst, n_src)`` operator: ``A @ x`` == gather source rows
        along each edge then segment-sum by destination, without ever
        materializing the ``(E, F)`` message array."""
        if _sparse is None:
            return None
        if self._gather_matrix is None:
            self._gather_matrix = self._csr(
                self.src[self.perm], self.counts, self.n_src
            )
        return self._gather_matrix

    def scatter_matrix(self):
        """``(n_src, n_dst)`` operator: ``A @ g`` == gather destination
        rows along each edge then scatter-add into source rows (the
        backward of :meth:`gather_matrix`)."""
        if _sparse is None:
            return None
        if self._scatter_matrix is None:
            src_perm = np.argsort(self.src, kind="stable")
            src_counts = np.bincount(self.src, minlength=self.n_src)
            self._scatter_matrix = self._csr(
                self.dst[src_perm], src_counts, self.n_dst
            )
        return self._scatter_matrix

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_index(
        cls, edge_index: np.ndarray, size: tuple[int, int]
    ) -> "AggregationPlan":
        """Build from a PyG-style ``(2, E)`` local edge index and layer size."""
        edge_index = np.asarray(edge_index)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must be (2, E), got {edge_index.shape}")
        return cls(edge_index[0], edge_index[1], size[0], size[1])

    @classmethod
    def for_segments(cls, index: np.ndarray, n_segments: int) -> "AggregationPlan":
        """Plan grouping per-edge rows by ``index`` into ``n_segments``
        (each row is its own source), for segment ops over values that are
        already one row per edge."""
        index = np.asarray(index, dtype=np.int64)
        return cls(np.arange(len(index)), index, len(index), n_segments)

    def with_self_loops(self) -> "AggregationPlan":
        """Plan for the self-loop-augmented edge set used by GAT.

        GAT appends one ``j -> j`` edge per destination (the PyG
        ``add_self_loops=True`` convention, valid because destinations are
        a prefix of the source set).  The augmented plan is memoized so all
        heads and both passes of a layer share it.
        """
        if self._with_loops is None:
            loops = np.arange(self.n_dst, dtype=np.int64)
            self._with_loops = AggregationPlan(
                np.concatenate([self.src, loops]),
                np.concatenate([self.dst, loops]),
                self.n_src,
                self.n_dst,
            )
        return self._with_loops

    def nbytes(self) -> int:
        """Host bytes held by this plan (excluded from transfer metering:
        plans are prepare-stage metadata, not paper-modelled payload)."""
        total = 0
        for name in ("src", "dst", "perm", "starts", "seg_ids", "counts"):
            total += getattr(self, name).nbytes
        for mat in (self._edge_matrix, self._gather_matrix, self._scatter_matrix):
            if mat is not None:
                total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        if self._with_loops is not None:
            total += self._with_loops.nbytes()
        return total

    def __repr__(self) -> str:
        return (
            f"AggregationPlan(E={self.num_edges}, n_src={self.n_src}, "
            f"n_dst={self.n_dst})"
        )


def _run_starts(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run starts and run key ids of an already-sorted key array."""
    if sorted_keys.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate([[0], boundaries]).astype(np.int64)
    return starts, sorted_keys[starts]
