"""Reference formulations that benches time and tests compare against.

The production kernels in ``repro`` (the plan/fused aggregation kernels,
the fused linear node, the arena sampler hop loop) are pure performance
rewrites of simpler formulations that rebuild their metadata on every
call.  Those simpler formulations live here, once, verbatim from the code
they replaced, so that:

- the speedup gates (``arena_vs_fast_speedup`` in
  ``bench_sampler_hotpath.py``; ``plan_reuse_speedup``, ``fused_speedup``
  and ``fused_epoch_speedup`` in ``bench_compute_kernels.py``) keep timing
  the same baseline code;
- the byte-identity tests have one oracle: every production kernel must
  reproduce its reference bit for bit.

Three groups:

- numpy kernels: ``segment_counts``/``segment_sum``/``segment_mean``/
  ``segment_max`` (per-call bincount/argsort setup, materialized inputs);
- the pre-arena sampler: :func:`expand_frontier_vectorized` (full-edge
  ``lexsort`` selection) and :class:`LegacyFastSampler` (``np.unique``
  dedup, fresh per-hop arrays);
- Tensor-level autograd ops over those kernels, and
  :func:`legacy_compute`, which swaps them in for the production
  ``repro.tensor.functional`` ops so unmodified model code runs the
  unfused formulation (gather → segment reduce, ``x @ W.T + b``).

Import with ``benchmarks/`` on ``sys.path`` (the bench scripts and the
test suite both arrange that).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.fast_sampler import FastNeighborSampler, _gather_all_edges
from repro.sampling.mfg import Adj
from repro.tensor import Tensor, functional as F
from repro.tensor.kernels import scatter_add_rows

__all__ = [
    "segment_counts",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "expand_frontier_vectorized",
    "LegacyFastSampler",
    "tensor_segment_sum",
    "tensor_segment_mean",
    "tensor_segment_max",
    "tensor_segment_softmax",
    "tensor_linear",
    "legacy_compute",
]


# ----------------------------------------------------------------------
# numpy segment kernels: metadata rebuilt on every call
# ----------------------------------------------------------------------
def segment_counts(index: np.ndarray, n_segments: int) -> np.ndarray:
    """Number of elements per segment (int64)."""
    return np.bincount(np.asarray(index), minlength=n_segments).astype(np.int64)


def segment_sum(values: np.ndarray, index: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum ``values`` grouped by ``index`` into ``n_segments`` rows."""
    return scatter_add_rows(values, index, n_segments)


def segment_mean(values: np.ndarray, index: np.ndarray, n_segments: int) -> np.ndarray:
    """Mean of ``values`` per segment; empty segments yield zero rows."""
    sums = segment_sum(values, index, n_segments)
    counts = segment_counts(index, n_segments).astype(values.dtype)
    counts = np.maximum(counts, 1)
    if sums.ndim == 2:
        return sums / counts[:, None]
    return sums / counts


def segment_max(
    values: np.ndarray, index: np.ndarray, n_segments: int
) -> tuple[np.ndarray, np.ndarray]:
    """Max of ``values`` per segment, plus the argmax element index per slot.

    Returns
    -------
    out:
        ``(n_segments, n_cols)`` array; empty segments are zero.
    argmax:
        ``(n_segments, n_cols)`` int64 array of the winning element index per
        (segment, column) slot, or -1 for empty segments. Used to route
        gradients back in the autograd wrapper.
    """
    squeeze = False
    if values.ndim == 1:
        values = values[:, None]
        squeeze = True
    index = np.asarray(index)
    n_elems, n_cols = values.shape
    out = np.zeros((n_segments, n_cols), dtype=values.dtype)
    argmax = np.full((n_segments, n_cols), -1, dtype=np.int64)
    if n_elems == 0:
        return (out[:, 0], argmax[:, 0]) if squeeze else (out, argmax)

    order = np.argsort(index, kind="stable")
    sorted_idx = index[order]
    sorted_vals = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [n_elems]])
    seg_ids = sorted_idx[starts]
    # maximum.reduceat handles contiguous runs at C speed.
    out[seg_ids] = np.maximum.reduceat(sorted_vals, starts, axis=0)
    # Recover the argmax via a masked comparison against the per-segment max.
    expanded_max = out[index]
    is_max = values == expanded_max
    # First matching element per (segment, col): iterate columns, still C-heavy.
    elem_ids = np.arange(n_elems, dtype=np.int64)
    for col in range(n_cols):
        winners = np.where(is_max[:, col], elem_ids, np.iinfo(np.int64).max)
        best = np.full(n_segments, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, index, winners)
        hit = best != np.iinfo(np.int64).max
        argmax[hit, col] = best[hit]
    if squeeze:
        return out[:, 0], argmax[:, 0]
    return out, argmax


# ----------------------------------------------------------------------
# Pre-arena sampler: full-edge lexsort selection, np.unique dedup
# ----------------------------------------------------------------------
def expand_frontier_vectorized(
    graph: CSRGraph,
    frontier: np.ndarray,
    fanout: Optional[int],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One-hop uniform without-replacement expansion, fully vectorized.

    The pre-arena ("old fast") kernel: gathers every candidate edge, draws
    one uniform key per edge, and keeps the ``fanout`` smallest keys per
    destination segment via a full-array ``lexsort`` — an exchangeable
    scheme equivalent to uniform sampling without replacement.

    Returns ``(src_global, dst_local)`` for the selected edges in canonical
    adjacency order (ascending candidate-edge position), the same order the
    arena split path emits, so the two kernels are interchangeable under a
    shared RNG stream.
    """
    indptr, indices = graph.indptr, graph.indices
    src_global, dst_local, degrees = _gather_all_edges(indptr, indices, frontier)
    if fanout is None or len(src_global) == 0 or degrees.max() <= fanout:
        return src_global, dst_local

    total = len(src_global)
    keys = rng.random(total)
    # Candidate edges are already grouped by destination; lexsort orders by
    # (segment, key) so each segment's smallest-key edges come first.
    order = np.lexsort((keys, dst_local))
    seg_starts = np.cumsum(degrees) - degrees
    rank_in_segment = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, degrees)
    cap = np.minimum(degrees, fanout)
    keep_sorted = rank_in_segment < np.repeat(cap, degrees)
    # Canonical adjacency order: selection happens in key order, output in
    # original candidate order (a boolean mask preserves it).
    keep = np.zeros(total, dtype=bool)
    keep[order[keep_sorted]] = True
    return src_global[keep], dst_local[keep]


class LegacyFastSampler(FastNeighborSampler):
    """:class:`FastNeighborSampler` with the pre-arena hop loop.

    Same persistent ID map, validation and exception-safe reset (inherited
    ``sample``); each hop runs :func:`expand_frontier_vectorized` and a
    ``np.unique`` first-occurrence dedup with fresh allocations.  Consumes
    the RNG stream exactly like the arena path, so MFGs are byte-identical
    for a shared seed.
    """

    def _sample_hops(
        self,
        n_id: np.ndarray,
        local_of: np.ndarray,
        touched: list[np.ndarray],
        adjs: list[Adj],
        rng: np.random.Generator,
    ) -> np.ndarray:
        for fanout in self.fanouts:
            n_dst = len(n_id)
            src_global, dst_local = expand_frontier_vectorized(
                self.graph, n_id, fanout, rng
            )
            # Fused remap + dedup (design points 2 and 3): find first
            # occurrences of unseen globals in discovery order.
            src_local = local_of[src_global]
            new_mask = src_local < 0
            if new_mask.any():
                new_globals = src_global[new_mask]
                uniq, first_pos = np.unique(new_globals, return_index=True)
                discovery = np.argsort(first_pos, kind="stable")
                ordered_new = uniq[discovery]
                local_of[ordered_new] = len(n_id) + np.arange(
                    len(ordered_new), dtype=np.int64
                )
                touched.append(ordered_new)
                n_id = np.concatenate([n_id, ordered_new])
                src_local = local_of[src_global]
            edge_index = np.stack([src_local, dst_local])
            adjs.append(
                Adj(edge_index=edge_index, e_id=None, size=(len(n_id), n_dst))
            )
        return n_id


# ----------------------------------------------------------------------
# Tensor-level ops over the reference kernels
# ----------------------------------------------------------------------
def tensor_segment_sum(values: Tensor, index: np.ndarray, n_segments: int) -> Tensor:
    """Differentiable per-segment sum."""
    index = np.asarray(index)
    data = segment_sum(values.data, index, n_segments)

    def backward(g: np.ndarray):
        return ((values, g[index]),)

    return Tensor._make(data, (values,), backward, "segment_sum")


def tensor_segment_mean(values: Tensor, index: np.ndarray, n_segments: int) -> Tensor:
    """Differentiable per-segment mean."""
    index = np.asarray(index)
    data = segment_mean(values.data, index, n_segments)
    counts = np.maximum(segment_counts(index, n_segments), 1).astype(values.dtype)

    def backward(g: np.ndarray):
        scaled = g / (counts[:, None] if g.ndim == 2 else counts)
        return ((values, scaled[index]),)

    return Tensor._make(data, (values,), backward, "segment_mean")


def tensor_segment_max(values: Tensor, index: np.ndarray, n_segments: int) -> Tensor:
    """Differentiable per-segment max."""
    index = np.asarray(index)
    data, argmax = segment_max(values.data, index, n_segments)

    def backward(g: np.ndarray):
        grad = np.zeros_like(values.data)
        if g.ndim == 2:
            seg_ids, col_ids = np.nonzero(argmax >= 0)
            grad[argmax[seg_ids, col_ids], col_ids] = g[seg_ids, col_ids]
        else:
            hit = argmax >= 0
            grad[argmax[hit]] = g[hit]
        return ((values, grad),)

    return Tensor._make(data, (values,), backward, "segment_max")


def tensor_segment_softmax(
    scores: Tensor, index: np.ndarray, n_segments: int
) -> Tensor:
    """Softmax of 1-D ``scores`` normalized within each segment."""
    index = np.asarray(index)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores (one per edge)")
    seg_max, _ = segment_max(scores.data, index, n_segments)
    # Empty segments have max 0, harmless: no edges reference them.
    shifted = scores.data - seg_max[index]
    exp = np.exp(shifted)
    denom = segment_sum(exp, index, n_segments)
    denom = np.maximum(denom, np.finfo(scores.dtype).tiny)
    out = exp / denom[index]

    def backward(g: np.ndarray):
        weighted = segment_sum(g * out, index, n_segments)
        return ((scores, out * (g - weighted[index])),)

    return Tensor._make(out.astype(scores.dtype), (scores,), backward, "segment_softmax")


def tensor_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` as separate matmul/transpose/add tape nodes."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def _gather_then(reduce):
    """Plan-signature gather→reduce op that materializes the messages."""

    def op(x: Tensor, plan) -> Tensor:
        return reduce(F.gather_rows(x, plan.src), plan.dst, plan.n_dst)

    return op


def _by_plan(reduce):
    """Plan-signature segment op that ignores the plan's metadata."""

    def op(values: Tensor, plan) -> Tensor:
        return reduce(values, plan.dst, plan.n_dst)

    return op


#: production ``functional`` op -> reference formulation with its signature
_LEGACY_OPS = {
    "linear": tensor_linear,
    "gather_segment_sum": _gather_then(tensor_segment_sum),
    "gather_segment_mean": _gather_then(tensor_segment_mean),
    "segment_sum": _by_plan(tensor_segment_sum),
    "segment_mean": _by_plan(tensor_segment_mean),
    "segment_max": _by_plan(tensor_segment_max),
    "segment_softmax": _by_plan(tensor_segment_softmax),
}


@contextmanager
def legacy_compute():
    """Run model code on the reference ops instead of the production ones.

    Swaps the module attributes of ``repro.tensor.functional`` that the
    conv layers and ``Linear`` call, so unmodified models compute the
    unfused formulation: every aggregation gathers an ``(E, F)`` message
    array and reduces it with the per-call kernels above; every linear
    layer is a matmul/transpose/add chain.  Process-wide while active: use
    it only where one thread runs models (benches, tests).
    """
    saved = {name: getattr(F, name) for name in _LEGACY_OPS}
    for name, op in _LEGACY_OPS.items():
        setattr(F, name, op)
    try:
        yield
    finally:
        for name, op in saved.items():
            setattr(F, name, op)
