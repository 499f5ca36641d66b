"""Low-level numpy kernels shared by autograd ops and graph aggregation.

These are the "compiled extension" analogues of this reproduction: the few
routines whose cost dominates message passing (row scatter-add, segment
reductions) per the ml-systems performance guide.

- ``scatter_add_rows`` is the backward of a row gather (flat-index
  ``np.bincount``, column-blocked);
- the **plan** kernels (``plan_segment_*``) take the batch's prebuilt
  :class:`~repro.tensor.plan.AggregationPlan` instead of recomputing sort /
  count metadata per call, and the **fused** kernels
  (``fused_gather_segment_*``, ``fused_gather_scatter_add``) additionally
  collapse the gather into the reduction so the ``(E, F)`` per-edge message
  array is never materialized; ``linear_forward`` / ``linear_backward`` fuse
  ``x @ W.T + b`` (+ optional relu) into one kernel.

Every *sum* accumulates each output slot sequentially in original edge
order, in float64, cast back to the input dtype — the flat-index
``np.bincount`` semantics of the per-call reference kernels in
``benchmarks/reference.py``.  The plan kernels run that accumulation
through the plan's cached all-ones CSR operators (rows grouped by the
*stable* sort preserve edge order, so scipy's C matvec loop adds in the
same sequence an order of magnitude faster), falling back to the
flat-index bincount itself when scipy is absent.  ``np.add.reduceat`` is
never used for sums — its pairwise summation re-associates float adds and
breaks bit-identity — but max is order-exact, so the plan's precomputed
stable sort drives ``maximum.reduceat`` there.
``tests/tensor/test_fused_kernels.py`` pins every kernel bit-for-bit
against its reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .plan import AggregationPlan
from .workspace import _pool_empty, _pool_zeros

try:  # pragma: no cover - scipy ships with the toolchain
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None

__all__ = [
    "scatter_add_rows",
    "plan_segment_sum",
    "plan_segment_mean",
    "plan_segment_max",
    "fused_gather_segment_sum",
    "fused_gather_segment_mean",
    "fused_gather_scatter_add",
    "linear_forward",
    "linear_backward",
]

#: float64 element budget for blocked accumulation temporaries (32 MiB).
_BLOCK_BUDGET = 1 << 22


def _block_cols(n_rows: int, n_cols: int, budget: int = _BLOCK_BUDGET) -> int:
    """Column-block width keeping ``n_rows * width`` under ``budget`` elements.

    (Historically ``1 << 22 // rows`` — operator precedence made that
    ``1 << (22 // rows)``, i.e. single-column blocking for any input with
    more than 22 rows and multi-MiB blocks for tiny ones.)
    """
    return max(1, min(n_cols, budget // max(n_rows, 1)))


def scatter_add_rows(values: np.ndarray, index: np.ndarray, n_rows: int) -> np.ndarray:
    """Accumulate ``values[i]`` into ``out[index[i]]`` for 1-D/2-D values.

    This is the transpose of a row gather and the core primitive of both
    neighborhood aggregation (forward) and feature-gather backward.

    Implementation note: ``np.add.at`` is notoriously slow (scalar inner
    loop); for the 2-D float case we instead flatten (row, col) pairs and use
    ``np.bincount``, which accumulates at C speed. Accumulation happens in
    float64 and is cast back, keeping results deterministic and accurate.
    """
    index = np.asarray(index)
    if index.ndim != 1:
        raise ValueError("index must be 1-D")
    if values.shape[0] != index.shape[0]:
        raise ValueError(
            f"values rows ({values.shape[0]}) != index length ({index.shape[0]})"
        )
    if values.ndim == 1:
        out = np.bincount(index, weights=values.astype(np.float64), minlength=n_rows)
        return out.astype(values.dtype)
    if values.ndim != 2:
        raise ValueError("only 1-D or 2-D values are supported")

    n_cols = values.shape[1]
    out = np.zeros((n_rows, n_cols), dtype=values.dtype)
    if values.shape[0] == 0:
        return out
    # Process column blocks to bound the temporary (index*width) array size.
    block_cols = _block_cols(values.shape[0], n_cols)
    col = 0
    base = index.astype(np.int64)
    while col < n_cols:
        stop = min(col + block_cols, n_cols)
        width = stop - col
        flat_idx = (base[:, None] * width + np.arange(width, dtype=np.int64)[None, :]).ravel()
        acc = np.bincount(
            flat_idx,
            weights=values[:, col:stop].ravel().astype(np.float64),
            minlength=n_rows * width,
        )
        out[:, col:stop] = acc.reshape(n_rows, width).astype(values.dtype)
        col = stop
    return out


# ----------------------------------------------------------------------
# Plan-based segment kernels: the per-call argsort/flat-index setup is
# replaced by the batch's precomputed AggregationPlan.
# ----------------------------------------------------------------------
def _check_plan(values: np.ndarray, plan: AggregationPlan) -> None:
    if values.shape[0] != plan.num_edges:
        raise ValueError(
            f"values rows ({values.shape[0]}) != plan edges ({plan.num_edges})"
        )


def _bincount_block(
    block: np.ndarray, index: np.ndarray, n_rows: int
) -> np.ndarray:
    """Flat-index bincount of one ``(E, width)`` column block.

    This is the exact :func:`scatter_add_rows` accumulation — sequential
    in edge order, in float64 — shared by the plan/fused sum kernels so
    they stay bit-identical to it.
    """
    width = block.shape[1]
    flat_idx = (
        index[:, None] * width + np.arange(width, dtype=np.int64)[None, :]
    ).ravel()
    acc = np.bincount(
        flat_idx,
        weights=block.ravel().astype(np.float64),
        minlength=n_rows * width,
    )
    return acc.reshape(n_rows, width)


def _csr_accumulate(mat, values: np.ndarray, out: np.ndarray) -> None:
    """``out[:mat.shape[0]] = (mat @ float64(values)).astype(out.dtype)``.

    ``mat`` is one of the plan's cached all-ones CSR operators; the matvec
    visits each row's entries in storage order (== original edge order,
    thanks to the stable sort) accumulating in float64, reproducing
    :func:`_bincount_block` bit for bit at C-matvec speed.

    When scipy's ``csr_matvecs`` kernel is importable it is driven
    directly so the float64 *operand* copy comes from the workspace pool
    (it is fully overwritten, so the checkout skips any fill pass); the
    accumulator deliberately does NOT — ``csr_matvecs`` requires a zeroed
    destination, and ``np.zeros``'s lazily-mapped pages are one memory
    pass cheaper than re-zeroing a recycled buffer.  The public ``mat @``
    fallback runs the exact same kernel on scipy-allocated temporaries.
    """
    n_rows = mat.shape[0]
    if _csr_tools is None:
        acc = mat @ values.astype(np.float64, copy=False)
        out[:n_rows] = acc.astype(out.dtype)
        return
    if values.dtype == np.float64 and values.flags["C_CONTIGUOUS"]:
        v64 = values
    else:
        v64 = _pool_empty(values.shape, np.float64)
        v64[...] = values
    acc = np.zeros((n_rows, values.shape[1]), dtype=np.float64)
    _csr_tools.csr_matvecs(
        n_rows,
        mat.shape[1],
        values.shape[1],
        mat.indptr,
        mat.indices,
        mat.data,
        v64.ravel(),
        acc.ravel(),
    )
    out[:n_rows] = acc


def _blocked_bincount_into(
    gather, index: np.ndarray, n_rows: int, num_edges: int, out: np.ndarray
) -> None:
    """Scipy-free fallback: flat-index bincount over column blocks.

    ``gather(col, stop)`` yields the ``(E, width)`` message block for
    columns ``[col, stop)``; blocks are accumulated and discarded so the
    full ``(E, F)`` temporary is never materialized.
    """
    n_cols = out.shape[1]
    block = _block_cols(num_edges, n_cols)
    col = 0
    while col < n_cols:
        stop = min(col + block, n_cols)
        acc = _bincount_block(gather(col, stop), index, n_rows)
        out[:, col:stop] = acc.astype(out.dtype)
        col = stop


def plan_segment_sum(values: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """Sum ``values`` (one row per edge) by ``plan.dst`` into a pooled buffer."""
    _check_plan(values, plan)
    if values.ndim == 1:
        if plan.num_edges == 0:
            return _pool_zeros(plan.n_dst, values.dtype)
        out = _pool_empty(plan.n_dst, values.dtype)
        acc = np.bincount(
            plan.dst, weights=values.astype(np.float64), minlength=plan.n_dst
        )
        out[...] = acc.astype(values.dtype)
        return out
    if values.ndim != 2:
        raise ValueError("only 1-D or 2-D values are supported")
    n_cols = values.shape[1]
    if plan.num_edges == 0:
        return _pool_zeros((plan.n_dst, n_cols), values.dtype)
    # Every row is overwritten below, so the checkout skips the zero-fill
    # pass (a pooled buffer holds stale data; np.empty's pages are lazy).
    out = _pool_empty((plan.n_dst, n_cols), values.dtype)
    mat = plan.edge_matrix()
    if mat is not None:
        _csr_accumulate(mat, values, out)
        return out
    _blocked_bincount_into(
        lambda col, stop: values[:, col:stop], plan.dst, plan.n_dst,
        plan.num_edges, out,
    )
    return out


def plan_segment_mean(values: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """Per-destination mean of ``values`` via the plan's counts (empty
    segments yield zero rows)."""
    sums = plan_segment_sum(values, plan)
    counts = np.maximum(plan.counts.astype(values.dtype), 1)
    if sums.ndim == 2:
        np.divide(sums, counts[:, None], out=sums)
    else:
        np.divide(sums, counts, out=sums)
    return sums


def plan_segment_max(
    values: np.ndarray, plan: AggregationPlan, compute_argmax: bool = True
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-destination max of ``values`` reusing the plan's sorted order.

    Returns ``(out, argmax)``: empty segments are zero in ``out``;
    ``argmax`` holds the first winning edge per (segment, column) slot, or
    -1 for empty segments, and routes gradients back.
    ``compute_argmax=False`` skips the per-column argmax recovery loop —
    segment-softmax only needs the max values.
    """
    _check_plan(values, plan)
    squeeze = False
    if values.ndim == 1:
        values = values[:, None]
        squeeze = True
    n_elems, n_cols = values.shape
    out = np.zeros((plan.n_dst, n_cols), dtype=values.dtype)
    argmax = (
        np.full((plan.n_dst, n_cols), -1, dtype=np.int64) if compute_argmax else None
    )
    if n_elems == 0:
        if squeeze:
            return out[:, 0], (argmax[:, 0] if argmax is not None else None)
        return out, argmax

    out[plan.seg_ids] = np.maximum.reduceat(values[plan.perm], plan.starts, axis=0)
    if compute_argmax:
        index = plan.dst
        expanded_max = out[index]
        is_max = values == expanded_max
        elem_ids = np.arange(n_elems, dtype=np.int64)
        for col in range(n_cols):
            winners = np.where(is_max[:, col], elem_ids, np.iinfo(np.int64).max)
            best = np.full(plan.n_dst, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(best, index, winners)
            hit = best != np.iinfo(np.int64).max
            argmax[hit, col] = best[hit]
    if squeeze:
        return out[:, 0], (argmax[:, 0] if argmax is not None else None)
    return out, argmax


# ----------------------------------------------------------------------
# Fused gather→segment-reduce kernels: the (E, F) per-edge message array
# is streamed through column blocks instead of being materialized.
# ----------------------------------------------------------------------
def fused_gather_segment_sum(x: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """Gather ``x[plan.src]`` and sum by ``plan.dst`` without the ``(E, F)``
    message temporary.

    The plan's cached ``(n_dst, n_src)`` CSR operator collapses the gather
    and the reduce into one matvec over ``x`` (bit-identical to the unfused
    gather→segment_sum chain); without scipy, ``(E, width)`` column blocks
    are gathered, bincount-accumulated and discarded.
    """
    if x.ndim != 2:
        raise ValueError("fused gather kernels expect 2-D features")
    n_cols = x.shape[1]
    if plan.num_edges == 0:
        return _pool_zeros((plan.n_dst, n_cols), x.dtype)
    out = _pool_empty((plan.n_dst, n_cols), x.dtype)  # every row overwritten
    mat = plan.gather_matrix()
    if mat is not None:
        _csr_accumulate(mat, x, out)
        return out
    _blocked_bincount_into(
        lambda col, stop: x[plan.src, col:stop], plan.dst, plan.n_dst,
        plan.num_edges, out,
    )
    return out


def fused_gather_segment_mean(x: np.ndarray, plan: AggregationPlan) -> np.ndarray:
    """Gather ``x[plan.src]`` and average by ``plan.dst``, fused."""
    sums = fused_gather_segment_sum(x, plan)
    counts = np.maximum(plan.counts.astype(x.dtype), 1)
    np.divide(sums, counts[:, None], out=sums)
    return sums


def fused_gather_scatter_add(
    g: np.ndarray, plan: AggregationPlan, n_rows: Optional[int] = None
) -> np.ndarray:
    """Backward of the fused gather→segment-sum: ``out[src] += g[dst]``.

    Bitwise-equivalent to ``scatter_add_rows(g[plan.dst], plan.src,
    n_rows)``: the plan's cached ``(n_src, n_dst)`` CSR operator runs the
    same per-source accumulation in one matvec over ``g`` (source rows
    beyond ``n_src`` stay zero, as in the bincount), so the
    ``(E, F)`` edge-gradient temporary is never materialized either.
    """
    if g.ndim != 2:
        raise ValueError("fused gather kernels expect 2-D gradients")
    n_rows = plan.n_src if n_rows is None else int(n_rows)
    n_cols = g.shape[1]
    if plan.num_edges == 0:
        return _pool_zeros((n_rows, n_cols), g.dtype)
    out = _pool_empty((n_rows, n_cols), g.dtype)
    mat = plan.scatter_matrix() if n_rows >= plan.n_src else None
    if mat is not None:
        _csr_accumulate(mat, g, out)
        out[mat.shape[0] :] = 0  # sources past n_src receive no edges
        return out
    _blocked_bincount_into(
        lambda col, stop: g[plan.dst, col:stop], plan.src, n_rows,
        plan.num_edges, out,
    )
    return out


# ----------------------------------------------------------------------
# Fused linear (+bias, +relu) kernels: one tape node instead of the
# matmul/transpose/add/relu chain; identical arithmetic, fewer temporaries.
# ----------------------------------------------------------------------
def linear_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    relu: bool = False,
) -> np.ndarray:
    """``relu?(x @ weight.T + bias)`` with PyTorch weight layout ``(out, in)``.

    The gemm consumes ``weight.T`` as a view (the exact operand an unfused
    ``x @ weight.T`` transpose node feeds BLAS) and writes into a
    workspace-pooled destination; bias add and relu are applied in place
    on the gemm output — elementwise identical to the unfused op chain.
    """
    out = _pool_empty(
        x.shape[:-1] + (weight.shape[0],), np.result_type(x.dtype, weight.dtype)
    )
    np.matmul(x, weight.T, out=out)
    if bias is not None:
        out += bias
    if relu:
        np.maximum(out, 0, out=out)
    return out


def linear_backward(
    g: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    out: np.ndarray,
    has_bias: bool = True,
    relu: bool = False,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Gradients ``(grad_x, grad_weight, grad_bias)`` of :func:`linear_forward`.

    Matches the unfused tape bit-for-bit: the relu mask tests the (post-)
    activation against 0 (equivalent to the pre-activation test since
    ``out > 0  ⟺  pre > 0``); ``grad_weight`` is computed as
    ``transpose(x.T @ g)`` — the same gemm the unfused matmul backward runs,
    transposed as a view — **not** ``g.T @ x``, which would sum in a
    different order.
    """
    if relu:
        g = g * (out > 0)
    grad_x = _pool_empty(
        g.shape[:-1] + (weight.shape[1],), np.result_type(g.dtype, weight.dtype)
    )
    np.matmul(g, weight, out=grad_x)
    # grad_w / grad_b become parameter gradients, which outlive the step's
    # workspace scope — they must NOT come from the pool.
    grad_w = np.transpose(x.swapaxes(-1, -2) @ g)
    grad_b = g.sum(axis=0) if has_bias else None
    return grad_x, grad_w, grad_b
