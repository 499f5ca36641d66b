"""Differentiable functional ops built on :class:`repro.tensor.Tensor`.

Covers the ops needed by the paper's four architectures (appendix listings):
``log_softmax``, ``dropout``, ``relu``/``leaky_relu`` (as tensor methods),
``nll_loss``/``cross_entropy``, plus the segment ops that implement message
passing over bipartite message-flow-graph layers (``segment_sum`` /
``segment_mean`` / ``segment_max`` / ``segment_softmax``).

Every segment op takes the layer's precomputed
:class:`~repro.tensor.plan.AggregationPlan`, which carries the
destination index and the sort/count metadata the reductions need, so no
op recomputes it per call.  ``gather_segment_sum`` /
``gather_segment_mean`` fuse the row gather *into* the reduction so the
``(E, F)`` message array never exists; :func:`linear` is a single tape
node (matmul + bias).  ``tests/tensor/test_fused_kernels.py`` pins each op
bit-for-bit against the unfused reference in ``benchmarks/reference.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .plan import AggregationPlan
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "relu",
    "leaky_relu",
    "dropout",
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "segment_sum",
    "segment_mean",
    "segment_max",
    "segment_softmax",
    "gather_rows",
    "gather_segment_sum",
    "gather_segment_mean",
    "linear",
    "linear_relu",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    return x.leaky_relu(negative_slope)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` with PyTorch weight layout ``(out, in)``.

    One tape node backed by :func:`repro.tensor.kernels.linear_forward`:
    output and gradients are bit-identical to the matmul/transpose/add
    chain, with three fewer tape nodes and temporaries per call.
    """
    return _fused_linear(x, weight, bias)


def _fused_linear(
    x: Tensor, weight: Tensor, bias: Optional[Tensor], relu: bool = False
) -> Tensor:
    data = kernels.linear_forward(
        x.data, weight.data, None if bias is None else bias.data, relu=relu
    )
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray):
        grad_x, grad_w, grad_b = kernels.linear_backward(
            g, x.data, weight.data, data, has_bias=bias is not None, relu=relu
        )
        grads = [(x, grad_x), (weight, grad_w)]
        if bias is not None:
            grads.append((bias, grad_b))
        return tuple(grads)

    return Tensor._make(data, parents, backward, "linear_relu" if relu else "linear")


def linear_relu(
    x: Tensor, weight: Tensor, bias: Optional[Tensor] = None
) -> Tensor:
    """Fused ``relu(x @ weight.T + bias)`` as a single tape node."""
    return _fused_linear(x, weight, bias, relu=True)


def dropout(
    x: Tensor,
    p: float = 0.5,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout. Identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep

    def backward(g: np.ndarray):
        return ((x, g * mask),)

    return Tensor._make(x.data * mask, (x,), backward, "dropout")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((x, out * (g - dot)),)

    return Tensor._make(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    soft = np.exp(out)

    def backward(g: np.ndarray):
        return ((x, g - soft * g.sum(axis=axis, keepdims=True)),)

    return Tensor._make(out, (x,), backward, "log_softmax")


def nll_loss(
    log_probs: Tensor,
    target: np.ndarray,
    reduction: str = "mean",
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Negative log-likelihood of integer ``target`` under ``log_probs``.

    ``log_probs`` has shape ``(N, C)`` (output of :func:`log_softmax`).
    """
    target = np.asarray(target)
    if target.ndim != 1 or log_probs.ndim != 2:
        raise ValueError("nll_loss expects (N, C) log-probs and (N,) targets")
    n = target.shape[0]
    valid = np.ones(n, dtype=bool)
    if ignore_index is not None:
        valid = target != ignore_index
    rows = np.arange(n)[valid]
    cols = target[valid]
    picked = log_probs.data[rows, cols]
    count = max(int(valid.sum()), 1)
    if reduction == "mean":
        value = -picked.sum() / count
        scale = 1.0 / count
    elif reduction == "sum":
        value = -picked.sum()
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(g: np.ndarray):
        grad = np.zeros_like(log_probs.data)
        grad[rows, cols] = -scale * g
        return ((log_probs, grad),)

    return Tensor._make(
        np.asarray(value, dtype=log_probs.dtype), (log_probs,), backward, "nll_loss"
    )


def cross_entropy(logits: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Numerically stable ``nll_loss(log_softmax(logits), target)``."""
    return nll_loss(log_softmax(logits, axis=-1), target, reduction=reduction)


# ----------------------------------------------------------------------
# Segment (scatter) operations: the message-passing primitives
# ----------------------------------------------------------------------
def gather_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Differentiable row gather (``x[index]``) with fast scatter backward."""
    return x.gather_rows(index)


def gather_segment_sum(x: Tensor, plan: AggregationPlan) -> Tensor:
    """Sum of ``x[plan.src]`` per destination, as one fused tape node.

    Neither direction materializes the ``(E, F)`` per-edge array.
    """
    data = kernels.fused_gather_segment_sum(x.data, plan)
    n_rows = x.shape[0]

    def backward(g: np.ndarray):
        return ((x, kernels.fused_gather_scatter_add(g, plan, n_rows)),)

    return Tensor._make(data, (x,), backward, "gather_segment_sum")


def gather_segment_mean(x: Tensor, plan: AggregationPlan) -> Tensor:
    """Mean of ``x[plan.src]`` per destination (GraphSAGE-mean), fused."""
    data = kernels.fused_gather_segment_mean(x.data, plan)
    counts = np.maximum(plan.counts, 1).astype(x.dtype)
    n_rows = x.shape[0]

    def backward(g: np.ndarray):
        scaled = g / counts[:, None]
        return ((x, kernels.fused_gather_scatter_add(scaled, plan, n_rows)),)

    return Tensor._make(data, (x,), backward, "gather_segment_mean")


def segment_sum(values: Tensor, plan: AggregationPlan) -> Tensor:
    """Differentiable sum of per-edge ``values`` by ``plan.dst``."""
    data = kernels.plan_segment_sum(values.data, plan)
    index = plan.dst

    def backward(g: np.ndarray):
        return ((values, g[index]),)

    return Tensor._make(data, (values,), backward, "segment_sum")


def segment_mean(values: Tensor, plan: AggregationPlan) -> Tensor:
    """Differentiable mean of per-edge ``values`` by ``plan.dst``."""
    data = kernels.plan_segment_mean(values.data, plan)
    counts = np.maximum(plan.counts, 1).astype(values.dtype)
    index = plan.dst

    def backward(g: np.ndarray):
        scaled = g / (counts[:, None] if g.ndim == 2 else counts)
        return ((values, scaled[index]),)

    return Tensor._make(data, (values,), backward, "segment_mean")


def segment_max(values: Tensor, plan: AggregationPlan) -> Tensor:
    """Differentiable max of per-edge ``values`` by ``plan.dst`` (pooling)."""
    data, argmax = kernels.plan_segment_max(values.data, plan)

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


def segment_softmax(scores: Tensor, plan: AggregationPlan) -> Tensor:
    """Softmax of ``scores`` normalized within each destination segment.

    This is the attention-coefficient normalization of GAT: edge scores are
    grouped by destination node and exponentiated/normalized per group.
    ``scores`` is 1-D (one scalar per edge).
    """
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores (one per edge)")
    index = plan.dst
    seg_max, _ = kernels.plan_segment_max(scores.data, plan, compute_argmax=False)
    # Empty segments have max 0, harmless: no edges reference them.
    shifted = scores.data - seg_max[index]
    exp = np.exp(shifted)
    denom = kernels.plan_segment_sum(exp, plan)
    denom = np.maximum(denom, np.finfo(scores.dtype).tiny)
    out = exp / denom[index]

    def backward(g: np.ndarray):
        weighted = kernels.plan_segment_sum(g * out, plan)
        return ((scores, out * (g - weighted[index])),)

    return Tensor._make(out.astype(scores.dtype), (scores,), backward, "segment_softmax")
