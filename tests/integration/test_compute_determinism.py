"""Tier-1 twin contract: fused+pooled compute is byte-identical to legacy.

The fused aggregation/linear kernels, per-batch plans and the workspace
buffer pool are performance features only — switching ``compute`` between
``"fused"`` and ``"legacy"`` must not change a single bit of any training
or inference result.  One epoch per model architecture, asserting
byte-identical losses, gradients and final parameters (``array_equal``,
not allclose); then sampled inference under every inference executor and
layer-wise full inference, asserting byte-identical log-probabilities.
"""

import numpy as np
import pytest

from repro.datasets import generate_dataset
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


def _run_epoch(dataset, model, compute, executor):
    config = _config(model)
    trainer = Trainer(dataset, config, executor=executor, compute=compute, seed=0)
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
    losses_l, grads_l, params_l, ws_l = _run_epoch(dataset, model, "legacy", "pipelined")
    losses_f, grads_f, params_f, ws_f = _run_epoch(dataset, model, "fused", "pipelined")

    assert losses_f == losses_l  # float-exact, not approx
    assert grads_f.keys() == grads_l.keys()
    for name in grads_l:
        if grads_l[name] is None:
            assert grads_f[name] is None
        else:
            np.testing.assert_array_equal(grads_f[name], grads_l[name], err_msg=name)
    for name in params_l:
        np.testing.assert_array_equal(params_f[name], params_l[name], err_msg=name)

    # The twin really exercised the pool / really stayed off it.
    assert ws_l is None
    assert ws_f is not None and ws_f.stats["misses"] > 0
    assert ws_f.stats["buffers_out"] == 0  # everything released at step end


def test_serial_matches_pipelined_under_fused(dataset):
    losses_serial, _, params_serial, _ = _run_epoch(dataset, "sage", "fused", "serial")
    losses_pipe, _, params_pipe, _ = _run_epoch(dataset, "sage", "fused", "pipelined")
    assert losses_serial == losses_pipe
    for name in params_serial:
        np.testing.assert_array_equal(params_serial[name], params_pipe[name])


def _predict(dataset, model, compute, infer_executor):
    trainer = Trainer(
        dataset,
        _config(model),
        executor="serial",
        infer_executor=infer_executor,
        compute=compute,
        seed=0,
    )
    try:
        return trainer.predict(dataset.split.test)
    finally:
        trainer.shutdown()


@pytest.mark.parametrize("infer_executor", ["serial", "pipelined", "staged"])
@pytest.mark.parametrize("model", MODELS)
def test_fused_inference_byte_identical_to_legacy(dataset, model, infer_executor):
    legacy = _predict(dataset, model, "legacy", infer_executor)
    fused = _predict(dataset, model, "fused", infer_executor)
    np.testing.assert_array_equal(fused, legacy)


@pytest.mark.parametrize("model", MODELS)
def test_fused_layerwise_inference_byte_identical_to_legacy(dataset, model):
    """``compute="legacy"`` is the pre-plan layer-wise path (no plans, the
    per-call kernels); the fused path must reproduce it bit for bit."""
    trainer = Trainer(dataset, _config(model), executor="serial", seed=0)
    trainer.shutdown()
    results = {
        compute: layerwise_full_inference(
            trainer.model, dataset.features, dataset.graph, compute=compute
        ).log_probs
        for compute in ("legacy", "fused")
    }
    np.testing.assert_array_equal(results["fused"], results["legacy"])
