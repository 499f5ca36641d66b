"""Inference paths: mini-batch sampled inference vs layer-wise full inference.

Section 5 argues for running inference with neighborhood sampling — the
same code path as training — instead of the conventional layer-wise
full-neighborhood computation. Both are implemented here so Table 6 and
Figure 3 can compare them:

- :func:`sampled_inference` — mini-batch inference through a sampler; this
  is *one-shot* sampling (no averaging), exactly the regime the paper
  studies.
- :func:`layerwise_full_inference` — evaluates the network layer by layer
  over full neighborhoods, materializing every layer's representations for
  all nodes in host memory. Also reports that memory footprint, the cost
  the paper's Section 5 highlights (dense architectures like SAGE-RI must
  keep *all* layers).

Both run on the same kernels as training: every batch (or
full-neighbourhood block) gets its
:class:`~repro.tensor.plan.AggregationPlan` in the slice stage and every
conv aggregates through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..models.architectures import GAT, GIN, MLP, SAGERI, GraphSAGE, _SampledGNN
from ..nn.module import Module
from ..runtime.device import Device, DeviceBatch
from ..runtime.pipeline import build_pipeline
from ..telemetry.tracer import Tracer
from ..sampling.base import BatchIterator, NeighborSamplerBase
from ..sampling.fast_sampler import FastNeighborSampler
from ..slicing.store import FeatureStore
from ..tensor import Tensor, functional as F, no_grad
from ..telemetry import MetricsRegistry

__all__ = ["sampled_inference", "layerwise_full_inference", "LayerwiseResult"]


def sampled_inference(
    model: Module,
    features: np.ndarray,
    graph: CSRGraph,
    nodes: np.ndarray,
    fanouts: Sequence[Optional[int]],
    batch_size: int = 1024,
    seed: int = 0,
    sampler: Optional[NeighborSamplerBase] = None,
    executor: str = "serial",
    device: Optional[Device] = None,
    num_workers: int = 2,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> np.ndarray:
    """Predict log-probabilities for ``nodes`` with one-shot sampling.

    Reuses the training code path (model.forward over sampled MFGs), the
    simplification benefit Section 5 emphasizes — and, like training, it
    runs on the pipeline :func:`~repro.runtime.pipeline.build_pipeline`
    builds for ``executor``:

    - ``executor="serial"`` — depth-0 policy, every stage inline (the
      conventional inference loop);
    - ``executor="pipelined"`` — fused prepare workers + bounded prefetch,
      Section 5.4's pipelined inference;
    - ``executor="staged"`` — split sample/slice stages, same prefetch.

    When a :class:`~repro.runtime.device.Device` is given, batches move
    through a transfer stage (pinned staging buffers, transfer stream);
    the overlapped executors then hide transfer+prepare behind compute.
    Results are byte-identical across executors: batch seeds depend only
    on the batch's node offset (``[seed, cursor]``) and completed batches
    are delivered in index order.  Each batch's aggregation plans are
    built in the prepare/slice stage, as in training.
    """
    if executor not in ("serial", "pipelined", "staged"):
        raise ValueError(f"unknown executor {executor!r}")
    model.eval()
    nodes = np.asarray(nodes, dtype=np.int64)
    if hasattr(features, "slice_features"):
        # Already a store (e.g. a TieredFeatureStore): use it directly so
        # inference slices through the same tier hierarchy as training.
        store = features
    else:
        # half_precision=None: wrap the caller's array without changing
        # dtype or values; labels are a placeholder (inference needs none).
        store = FeatureStore(features, half_precision=None)
    if sampler is not None:
        factory = lambda: sampler  # noqa: E731 - shared instance: 1 worker
        num_workers = 1
    else:
        factory = lambda: FastNeighborSampler(graph, list(fanouts))  # noqa: E731

    def infer_fn(payload) -> np.ndarray:
        if isinstance(payload, DeviceBatch):
            xs, mfg = payload.xs.data, payload.mfg
        else:
            xs, mfg = payload.xs, payload.mfg
        x = Tensor(np.asarray(xs, dtype=np.float32))
        return model(x, mfg.adjs).data

    out: Optional[np.ndarray] = None

    def on_result(env) -> None:
        nonlocal out
        log_probs = env.output
        if out is None:
            out = np.empty((len(nodes), log_probs.shape[1]), dtype=np.float32)
        start = env.index * batch_size
        out[start : start + len(env.nodes)] = log_probs

    pipeline = build_pipeline(
        executor,
        factory,
        fanouts,
        store,
        device,
        compute="infer",
        num_workers=num_workers,
        max_batch=batch_size,
        seed=seed,
        # The batch's node offset (not its index) keys the RNG stream,
        # preserving the historical cursor-based seeding.
        rng_entries=lambda index: [seed, index * batch_size],
        tracer=tracer,
        metrics=metrics,
    )
    batches = list(BatchIterator(nodes, batch_size, shuffle=False))
    with no_grad():
        pipeline.run_epoch(batches, infer_fn, on_result=on_result)
    assert out is not None and out.shape[0] == len(nodes)
    return out


@dataclass
class LayerwiseResult:
    """Full-neighborhood inference output plus its memory footprint."""

    log_probs: np.ndarray  # (N, C) for all nodes
    peak_host_bytes: int  # bytes of simultaneously live layer activations

    def select(self, nodes: np.ndarray) -> np.ndarray:
        return self.log_probs[np.asarray(nodes, dtype=np.int64)]


def _propagate_full(
    apply_layer,
    h_in: np.ndarray,
    graph: CSRGraph,
    batch_size: int,
) -> np.ndarray:
    """Apply one conv over full neighborhoods for every node, batched.

    The single-hop full-fanout sampler produces exact (unsampled) bipartite
    blocks, so this is the conventional layer-wise inference kernel.  Runs
    on the serial pipeline like every other execution path (full
    fanout draws nothing from the RNG, so seeding is irrelevant here).

    The slice stage builds each block's aggregation plan and
    ``apply_layer`` receives the plan-carrying
    :class:`~repro.sampling.mfg.Adj`, so full inference runs on the same
    plan kernels as training and sampled inference.
    """
    store = FeatureStore(h_in, half_precision=None)
    h_out: Optional[np.ndarray] = None

    def layer_fn(sliced) -> np.ndarray:
        adj = sliced.mfg.adjs[0]
        x_src = Tensor(np.asarray(sliced.xs, dtype=np.float32))
        x_dst = x_src[: adj.size[1]]
        return apply_layer((x_src, x_dst), adj).data

    def on_result(env) -> None:
        nonlocal h_out
        out = env.output
        if h_out is None:
            h_out = np.empty((graph.num_nodes, out.shape[1]), dtype=np.float32)
        h_out[env.nodes] = out

    pipeline = build_pipeline(
        "serial",
        lambda: FastNeighborSampler(graph, [None]),
        [None],
        store,
        compute="infer",
    )
    batches = list(
        BatchIterator(np.arange(graph.num_nodes), batch_size, shuffle=False)
    )
    pipeline.run_epoch(batches, layer_fn, on_result=on_result)
    assert h_out is not None
    return h_out


def layerwise_full_inference(
    model: Module,
    features: np.ndarray,
    graph: CSRGraph,
    batch_size: int = 4096,
) -> LayerwiseResult:
    """Full-neighborhood, layer-by-layer inference for every node.

    Dispatches on architecture: plain stacks (SAGE, GAT) keep two live
    layer buffers; GIN adds its prediction head; SAGE-RI's dense
    (Inception) connections force *all* layer outputs to stay resident,
    multiplying host memory — the trade-off Section 5 calls out.
    """
    model.eval()
    with no_grad():
        if isinstance(model, (GraphSAGE, GAT)):
            return _layerwise_stack(model, features, graph, batch_size)
        if isinstance(model, GIN):
            return _layerwise_gin(model, features, graph, batch_size)
        if isinstance(model, SAGERI):
            return _layerwise_sage_ri(model, features, graph, batch_size)
        if isinstance(model, MLP):
            x = Tensor(features.astype(np.float32))
            log_probs = model(x, []).data
            return LayerwiseResult(log_probs, peak_host_bytes=log_probs.nbytes)
    raise TypeError(f"layerwise inference not implemented for {type(model).__name__}")


def _layerwise_stack(
    model: _SampledGNN, features: np.ndarray, graph: CSRGraph, batch_size: int
) -> LayerwiseResult:
    h = features
    peak = 0
    for i in range(model.num_layers):
        last = i == model.num_layers - 1

        def apply_layer(x_pair, adj, _conv=model.convs[i], _last=last):
            out = _conv(x_pair, adj)
            return out if _last else F.relu(out)

        h_next = _propagate_full(apply_layer, h, graph, batch_size)
        peak = max(peak, h.nbytes + h_next.nbytes)
        h = h_next
    log_probs = F.log_softmax(Tensor(h), axis=-1).data
    return LayerwiseResult(log_probs, peak_host_bytes=peak)


def _layerwise_gin(
    model: GIN, features: np.ndarray, graph: CSRGraph, batch_size: int
) -> LayerwiseResult:
    h = features
    peak = 0
    for i in range(model.num_layers):
        def apply_layer(x_pair, adj, _conv=model.convs[i]):
            return _conv(x_pair, adj)

        h_next = _propagate_full(apply_layer, h, graph, batch_size)
        peak = max(peak, h.nbytes + h_next.nbytes)
        h = h_next
    x = model.lin2(model.lin1(Tensor(h)).relu())
    log_probs = F.log_softmax(x, axis=-1).data
    return LayerwiseResult(log_probs, peak_host_bytes=peak)


def _layerwise_sage_ri(
    model: SAGERI, features: np.ndarray, graph: CSRGraph, batch_size: int
) -> LayerwiseResult:
    x = features.astype(np.float32)
    collect: list[np.ndarray] = [x]  # dense connections: all layers stay live
    h = x
    for i in range(model.num_layers):
        def apply_layer(x_pair, adj, _i=i):
            out = model.convs[_i](x_pair, adj)
            out = model.bns[_i](out)
            return F.leaky_relu(out)

        h_next = _propagate_full(apply_layer, h, graph, batch_size)
        collect.append(h_next)
        # Residual: x_{i+1} = h_i + res(x_i); in full inference the target
        # set is every node, so the residual applies row-wise globally.
        res = model.res_linears[i](Tensor(h)).data
        h = h_next + res
    peak = sum(arr.nbytes for arr in collect) + h.nbytes
    concat = np.concatenate(collect, axis=1)
    log_probs = F.log_softmax(model.mlp(Tensor(concat)), axis=-1).data
    return LayerwiseResult(log_probs, peak_host_bytes=peak)
