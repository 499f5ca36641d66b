"""Tier-1 byte identity: production compute vs the reference formulation.

The aggregation plans, fused gather→reduce and linear nodes and the
workspace buffer pool are performance features only.  Running the same
model code on the reference ops — ``reference.legacy_compute()``: every
aggregation gathers the ``(E, F)`` messages and reduces them with the
per-call kernels, every linear layer is a matmul/transpose/add chain (the
"legacy" formulation the plan kernels replaced) — must not change a
single bit of any result.  Checked per conv on a sampled MFG (output and
parameter gradients), over one training epoch per architecture (losses,
gradients, final parameters), and for sampled inference under every
inference executor and layer-wise full inference (log-probabilities);
always ``array_equal``, never allclose.
"""

from contextlib import nullcontext

import numpy as np
import pytest

import reference
from repro.datasets import generate_dataset
from repro.models import build_model
from repro.sampling import FastNeighborSampler
from repro.tensor import Tensor, Workspace, workspace_scope
from repro.train.config import ExperimentConfig
from repro.train.inference import layerwise_full_inference
from repro.train.loop import Trainer

MODELS = ["sage", "gat", "gin", "sage-ri"]


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset("arxiv", scale=0.1, seed=0)


def _config(model):
    return ExperimentConfig(
        dataset="arxiv",
        model=model,
        hidden_channels=32,
        num_layers=2,
        train_fanouts=(5, 5),
        infer_fanouts=(5, 5),
        batch_size=64,
        epochs=1,
    )


def _conv_pass(conv, adj, x_np, compute):
    """Forward + backward of one conv; copies of output and parameter grads.

    (The input's gradient sums several tape paths whose visiting order
    differs between one fused node and a gather→reduce chain, so only
    parameter gradients — what training consumes — are compared.)
    """
    conv.zero_grad()
    with compute, workspace_scope(Workspace()):
        x = Tensor(x_np.copy(), requires_grad=True)
        out = conv((x, x[: adj.size[1]]), adj)
        out.backward(np.ones_like(out.data))
        result = out.data.copy()
    grads = {name: p.grad.copy() for name, p in conv.named_parameters()}
    return result, grads


@pytest.mark.parametrize("model", MODELS)
def test_conv_forward_and_grads_match_reference(dataset, model):
    net = build_model(
        model, dataset.num_features, 32, dataset.num_classes,
        num_layers=2, rng=np.random.default_rng(0),
    )
    net.train()
    sampler = FastNeighborSampler(dataset.graph, [5, 5])
    mfg = sampler.sample(dataset.split.train[:64], np.random.default_rng(3))
    mfg.build_plans()  # as the prepare stage does
    rng = np.random.default_rng(5)
    for i, (conv, adj) in enumerate(zip(net.convs, mfg.adjs)):
        in_channels = getattr(conv, "in_channels", None) or conv.mlp[0].in_features
        x = rng.normal(size=(adj.size[0], in_channels)).astype(np.float32)
        out_f, grads_f = _conv_pass(conv, adj, x, nullcontext())
        out_r, grads_r = _conv_pass(conv, adj, x, reference.legacy_compute())
        np.testing.assert_array_equal(out_f, out_r, err_msg=f"conv{i} output")
        assert grads_f.keys() == grads_r.keys() and grads_f
        for name in grads_r:
            np.testing.assert_array_equal(
                grads_f[name], grads_r[name], err_msg=f"conv{i}.{name}"
            )


def _run_epoch(dataset, model, executor, compute=None):
    trainer = Trainer(dataset, _config(model), executor=executor, seed=0)
    with compute or nullcontext():
        stats = trainer.train_epoch(0)
    params = {
        name: np.array(p.data, copy=True)
        for name, p in trainer.model.named_parameters()
    }
    grads = {
        name: None if p.grad is None else np.array(p.grad, copy=True)
        for name, p in trainer.model.named_parameters()
    }
    workspace = trainer._workspace
    trainer.shutdown()
    return list(stats.losses), grads, params, workspace


@pytest.mark.parametrize("model", MODELS)
def test_fused_pooled_epoch_byte_identical_to_legacy(dataset, model):
    losses_r, grads_r, params_r, _ = _run_epoch(
        dataset, model, "pipelined", reference.legacy_compute()
    )
    losses_f, grads_f, params_f, ws_f = _run_epoch(dataset, model, "pipelined")

    assert losses_f == losses_r  # float-exact, not approx
    assert grads_f.keys() == grads_r.keys()
    for name in grads_r:
        if grads_r[name] is None:
            assert grads_f[name] is None
        else:
            np.testing.assert_array_equal(grads_f[name], grads_r[name], err_msg=name)
    for name in params_r:
        np.testing.assert_array_equal(params_f[name], params_r[name], err_msg=name)

    # The production run really exercised the pool.
    assert ws_f.stats["misses"] > 0
    assert ws_f.stats["buffers_out"] == 0  # everything released at step end


def test_serial_matches_pipelined_under_fused(dataset):
    losses_serial, _, params_serial, _ = _run_epoch(dataset, "sage", "serial")
    losses_pipe, _, params_pipe, _ = _run_epoch(dataset, "sage", "pipelined")
    assert losses_serial == losses_pipe
    for name in params_serial:
        np.testing.assert_array_equal(params_serial[name], params_pipe[name])


def _predict(dataset, model, infer_executor, compute):
    trainer = Trainer(
        dataset,
        _config(model),
        executor="serial",
        infer_executor=infer_executor,
        seed=0,
    )
    try:
        with compute:
            return trainer.predict(dataset.split.test)
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("infer_executor", ["serial", "pipelined", "staged"])
@pytest.mark.parametrize("model", MODELS)
def test_fused_inference_byte_identical_to_legacy(dataset, model, infer_executor):
    expected = _predict(dataset, model, infer_executor, reference.legacy_compute())
    fused = _predict(dataset, model, infer_executor, nullcontext())
    np.testing.assert_array_equal(fused, expected)


@pytest.mark.parametrize("model", MODELS)
def test_fused_layerwise_inference_byte_identical_to_legacy(dataset, model):
    """Layer-wise full inference on the plan kernels reproduces the
    reference formulation bit for bit."""
    trainer = Trainer(dataset, _config(model), executor="serial", seed=0)
    trainer.shutdown()
    with reference.legacy_compute():
        expected = layerwise_full_inference(
            trainer.model, dataset.features, dataset.graph
        ).log_probs
    fused = layerwise_full_inference(
        trainer.model, dataset.features, dataset.graph
    ).log_probs
    np.testing.assert_array_equal(fused, expected)


def test_reference_mode_runs_no_plan_kernel(dataset, monkeypatch):
    """Guards the oracle itself: under ``legacy_compute`` a model forward
    and backward reach none of the plan/fused kernels (otherwise every
    comparison above would be the production path against itself)."""
    from repro.tensor import kernels

    calls = []
    for name in kernels.__all__:
        fn = getattr(kernels, name)
        monkeypatch.setattr(
            kernels, name,
            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k),
        )
    net = build_model(
        "gat", dataset.num_features, 16, dataset.num_classes,
        num_layers=2, rng=np.random.default_rng(0),
    )
    mfg = FastNeighborSampler(dataset.graph, [5, 5]).sample(
        dataset.split.train[:32], np.random.default_rng(0)
    )
    x = Tensor(dataset.features[mfg.n_id].astype(np.float32))
    with reference.legacy_compute():
        net(x, mfg.adjs).sum().backward()
    assert set(calls) <= {"scatter_add_rows"} and calls
    calls.clear()
    net(x, mfg.adjs).sum().backward()
    assert "plan_segment_sum" in calls and "linear_forward" in calls
