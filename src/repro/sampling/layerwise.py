"""Layer-wise (importance) sampling: FastGCN / LADIES (Section 2.2).

The paper's background taxonomy contrasts node-wise sampling (what SALIENT
optimizes) with *layer-wise* approaches that sample one node set per layer
for the whole mini-batch, under an importance distribution, and rescale
messages by inverse probability to keep the pre-activation estimate
unbiased. This module implements both flavors as an extension:

- ``FastGCNSampler`` — layer-independent sampling with a fixed, global
  importance distribution (degree-proportional, as in Chen et al. 2018).
- ``LadiesSampler`` — layer-*dependent* sampling where the distribution is
  proportional to the squared number of connections into the current
  frontier (Zou et al. 2019), so sampled nodes are guaranteed useful.

Both emit standard MFGs whose layers carry ``edge_weight`` importance
corrections; :class:`repro.models.conv.SAGEConv` consumers can fold them
in via :func:`weighted_segment_mean`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..tensor import AggregationPlan, Tensor, functional as F
from .base import NeighborSamplerBase
from .fast_sampler import _gather_all_edges
from .mfg import MFG, Adj

__all__ = ["FastGCNSampler", "LadiesSampler", "weighted_segment_mean"]


def weighted_segment_mean(
    messages: Tensor, edge_weight: np.ndarray, index: np.ndarray, n_segments: int
) -> Tensor:
    """Importance-weighted mean aggregation.

    Computes ``sum_j w_j m_j / sum_j w_j`` per segment — the self-normalized
    importance estimator of the neighborhood mean used by layer-wise
    sampling methods.
    """
    plan = AggregationPlan.for_segments(index, n_segments)
    weights = Tensor(edge_weight.astype(np.float32).reshape(-1, 1))
    weighted = messages * weights
    num = F.segment_sum(weighted, plan)
    den = F.segment_sum(weights, plan)
    den_safe = Tensor(np.maximum(den.data, 1e-12)) + (den - den.detach())
    return num / den_safe


class _LayerwiseBase(NeighborSamplerBase):
    """Shared machinery: fanouts act as per-layer *budgets*, not per-node."""

    def __init__(self, graph: CSRGraph, budgets: Sequence[int]) -> None:
        for budget in budgets:
            if budget is None:
                raise ValueError("layer-wise samplers need integer budgets")
        super().__init__(graph, budgets)

    def _layer_distribution(self, frontier: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, batch_nodes: np.ndarray, rng: np.random.Generator) -> MFG:
        batch_nodes = np.asarray(batch_nodes, dtype=np.int64)
        if len(batch_nodes) == 0:
            raise ValueError("empty batch")
        indptr, indices = self.graph.indptr, self.graph.indices

        n_id = batch_nodes.copy()
        adjs: list[Adj] = []
        for budget in self.fanouts:
            # Candidate pool: union of the frontier's neighbors.
            src_global, dst_local, _ = _gather_all_edges(indptr, indices, n_id)
            if len(src_global) == 0:
                adjs.append(
                    Adj(
                        edge_index=np.empty((2, 0), dtype=np.int64),
                        e_id=None,
                        size=(len(n_id), len(n_id)),
                    )
                )
                continue
            candidates = np.setdiff1d(np.unique(src_global), n_id)
            probs = self._distribution_over(candidates, n_id)
            take = min(budget, len(candidates))
            if take > 0 and probs.sum() > 0:
                chosen = rng.choice(candidates, size=take, replace=False, p=probs)
            else:
                chosen = np.empty(0, dtype=np.int64)
            new_n_id = np.concatenate([n_id, np.sort(chosen)])

            # Keep candidate edges whose source landed in the sampled set.
            local_of = {int(v): i for i, v in enumerate(new_n_id)}
            keep = np.fromiter(
                (int(s) in local_of for s in src_global),
                count=len(src_global),
                dtype=bool,
            )
            src_local = np.fromiter(
                (local_of[int(s)] for s in src_global[keep]),
                count=int(keep.sum()),
                dtype=np.int64,
            )
            edge_index = np.stack([src_local, dst_local[keep]])
            # Inverse-probability weights for unbiased aggregation: frontier
            # nodes (kept deterministically) get weight 1.
            prob_of = dict(zip(candidates.tolist(), probs.tolist()))
            inv = np.array(
                [
                    1.0
                    if int(new_n_id[s]) in set(n_id.tolist())
                    else 1.0 / (max(prob_of.get(int(new_n_id[s]), 1.0), 1e-12) * take)
                    for s in src_local
                ],
                dtype=np.float32,
            )
            adj = Adj(edge_index=edge_index, e_id=None, size=(len(new_n_id), len(n_id)))
            adj.edge_weight = inv  # type: ignore[attr-defined]
            adjs.append(adj)
            n_id = new_n_id
        adjs.reverse()
        return MFG(n_id=n_id, adjs=adjs, batch_size=len(batch_nodes))

    def _distribution_over(
        self, candidates: np.ndarray, frontier: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


class FastGCNSampler(_LayerwiseBase):
    """Layer-independent importance sampling with degree-proportional q."""

    def _distribution_over(
        self, candidates: np.ndarray, frontier: np.ndarray
    ) -> np.ndarray:
        degrees = self.graph.degree()[candidates].astype(np.float64)
        total = degrees.sum()
        if total == 0:
            return np.full(len(candidates), 1.0 / max(len(candidates), 1))
        return degrees / total


class LadiesSampler(_LayerwiseBase):
    """Layer-dependent importance: q(v) ∝ (#connections of v into frontier)^2."""

    def _distribution_over(
        self, candidates: np.ndarray, frontier: np.ndarray
    ) -> np.ndarray:
        frontier_set = np.zeros(self.graph.num_nodes, dtype=bool)
        frontier_set[frontier] = True
        counts = np.zeros(len(candidates), dtype=np.float64)
        for i, v in enumerate(candidates):
            neighbors = self.graph.neighbors(int(v))
            counts[i] = frontier_set[neighbors].sum()
        weights = counts**2
        total = weights.sum()
        if total == 0:
            return np.full(len(candidates), 1.0 / max(len(candidates), 1))
        return weights / total
