"""Bipartite graph convolution layers (SAGEConv, GATConv, GINConv).

Each layer follows the PyG bipartite calling convention used throughout the
paper's appendix listings::

    x = conv((x_source, x_target), edge_index)

where ``edge_index`` is local ``(2, E)`` with messages flowing
``edge_index[0] -> edge_index[1]`` and the target nodes are a prefix of the
source set.  ``edge_index`` may also be a :class:`~repro.sampling.mfg.Adj`.
Every layer aggregates through an :class:`~repro.tensor.plan.AggregationPlan`:
the Adj's plan (built in the prepare stage, or on first use and then
memoized on the Adj), or a fresh one for a raw ``(2, E)`` array.  Sum and
mean aggregation never materialize the ``(E, F)`` message array.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..nn.layers import Linear
from ..nn.module import Module
from ..tensor import AggregationPlan, Tensor, functional as F, init

__all__ = ["SAGEConv", "GATConv", "GINConv"]


def _unpack(x_pair, edge_index):
    """``(x_src, x_dst, plan)`` for one conv call."""
    x_src, x_dst = x_pair
    n_dst = x_dst.shape[0]
    adj = edge_index if hasattr(edge_index, "build_plan") else None
    edge_index = np.asarray(getattr(edge_index, "edge_index", edge_index))
    if edge_index.shape[1]:
        if edge_index[1].max() >= n_dst:
            raise ValueError("edge destination exceeds target-set size")
        if edge_index[0].max() >= x_src.shape[0]:
            raise ValueError("edge source exceeds source-set size")
    if adj is not None:
        plan = adj.build_plan()
        if plan.num_edges != edge_index.shape[1]:
            raise ValueError("aggregation plan does not match edge_index")
    else:
        plan = AggregationPlan.from_edge_index(edge_index, (x_src.shape[0], n_dst))
    return x_src, x_dst, plan


class SAGEConv(Module):
    """GraphSAGE convolution (Hamilton et al., 2017).

    ``out = W_neigh * AGG({x_u}) + W_root * x_v`` with mean (default), sum
    or max aggregation. ``bias=False`` matches the paper's Listing 1
    hyperparameters.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        bias: bool = False,
        aggregator: str = "mean",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if aggregator not in ("mean", "sum", "max"):
            raise ValueError(f"unknown aggregator {aggregator!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.aggregator = aggregator
        self.lin_neigh = Linear(in_channels, out_channels, bias=False, rng=rng)
        self.lin_root = Linear(in_channels, out_channels, bias=bias, rng=rng)

    def forward(self, x_pair, edge_index) -> Tensor:
        x_src, x_dst, plan = _unpack(x_pair, edge_index)
        if self.aggregator == "mean":
            agg = F.gather_segment_mean(x_src, plan)
        elif self.aggregator == "sum":
            agg = F.gather_segment_sum(x_src, plan)
        else:
            agg = F.segment_max(F.gather_rows(x_src, plan.src), plan)
        return self.lin_neigh(agg) + self.lin_root(x_dst)

    def __repr__(self) -> str:
        return f"SAGEConv({self.in_channels}, {self.out_channels}, aggr={self.aggregator})"


class GATConv(Module):
    """Graph attention convolution (Velickovic et al., 2018).

    Attention logits ``e_uv = LeakyReLU(a_src . W x_u + a_dst . W x_v)`` are
    normalized per destination with a segment softmax. Self-loop edges for
    the target nodes are added internally (PyG's ``add_self_loops=True``
    default), which is how the target's own representation enters the
    weighted combination described in Section 2.1.

    Multi-head attention concatenates the heads' outputs (PyG's
    ``concat=True`` convention), so the layer output width is
    ``heads * out_channels``. The paper's Table 5 configuration uses
    ``heads=1``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        heads: int = 1,
        bias: bool = False,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if heads < 1:
            raise ValueError("heads must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.heads = heads
        self.negative_slope = negative_slope
        # One shared projection producing all heads' channels at once.
        self.lin = Linear(in_channels, heads * out_channels, bias=False, rng=rng)
        limit = math.sqrt(6.0 / (out_channels + 1))
        self.att_src = init.uniform(-limit, limit, (heads, out_channels), rng=rng)
        self.att_dst = init.uniform(-limit, limit, (heads, out_channels), rng=rng)
        self.bias = init.zeros(heads * out_channels) if bias else None

    def forward(self, x_pair, edge_index) -> Tensor:
        x_src, x_dst, plan = _unpack(x_pair, edge_index)
        n_dst = x_dst.shape[0]
        # Self loops: target node j is source node j (prefix property).
        # The augmented plan is memoized on the batch plan, shared by all
        # heads and both passes.
        aug_plan = plan.with_self_loops()
        src, dst = aug_plan.src, aug_plan.dst

        n_src = x_src.shape[0]
        h_src = self.lin(x_src).reshape(n_src, self.heads, self.out_channels)
        # Per-node attention scores, one per head: (N, H)
        alpha_src = (h_src * self.att_src).sum(axis=2)
        alpha_dst = (h_src[:n_dst] * self.att_dst).sum(axis=2)

        head_outputs: list[Tensor] = []
        for head in range(self.heads):
            logits = (
                alpha_src[:, head][src] + alpha_dst[:, head][dst]
            ).leaky_relu(self.negative_slope)
            alpha = F.segment_softmax(logits, aug_plan)
            h_head = h_src[:, head]
            weighted = F.gather_rows(h_head, src) * alpha.reshape(-1, 1)
            head_outputs.append(F.segment_sum(weighted, aug_plan))
        out = (
            head_outputs[0]
            if self.heads == 1
            else Tensor.concat(head_outputs, axis=-1)
        )
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"GATConv({self.in_channels}, {self.out_channels}, heads={self.heads})"
        )


class GINConv(Module):
    """Graph isomorphism convolution (Xu et al., 2019).

    ``out = MLP((1 + eps) * x_v + sum({x_u}))``; the paper's Listing 3 uses
    PyG defaults (eps = 0, not trained).
    """

    def __init__(self, mlp: Module, eps: float = 0.0) -> None:
        super().__init__()
        self.mlp = mlp
        self.eps = eps

    def forward(self, x_pair, edge_index) -> Tensor:
        x_src, x_dst, plan = _unpack(x_pair, edge_index)
        agg = F.gather_segment_sum(x_src, plan)
        return self.mlp(agg + x_dst * (1.0 + self.eps))

    def __repr__(self) -> str:
        return f"GINConv(eps={self.eps})"
