"""Inference paths: sampled vs layer-wise full-neighborhood consistency."""

import numpy as np
import pytest

from repro.models import build_model
from repro.runtime import stages
from repro.telemetry import MetricsRegistry
from repro.train import layerwise_full_inference, sampled_inference
from repro.train.inference import LayerwiseResult


@pytest.fixture(scope="module")
def trained_setup(small_products):
    """A briefly trained 2-layer SAGE model (training details irrelevant)."""
    from dataclasses import replace

    from repro.train import Trainer, get_config

    cfg = replace(
        get_config("products", "sage"),
        batch_size=64,
        hidden_channels=24,
        num_layers=2,
        train_fanouts=(10, 5),
        infer_fanouts=(10, 10),
        lr=0.01,
    )
    trainer = Trainer(small_products, cfg, executor="serial", seed=0)
    for epoch in range(10):
        trainer.train_epoch(epoch)
    trainer.shutdown()
    return small_products, trainer.model


MODELS_FOR_LAYERWISE = ["sage", "gat", "gin", "sage-ri", "mlp"]


class TestSampledInference:
    def test_output_aligned_with_nodes(self, trained_setup):
        ds, model = trained_setup
        nodes = ds.split.test[:100]
        out = sampled_inference(
            model, ds.features, ds.graph, nodes, [10, 10], batch_size=32
        )
        assert out.shape == (100, ds.num_classes)

    def test_deterministic_given_seed(self, trained_setup):
        ds, model = trained_setup
        nodes = ds.split.test[:50]
        a = sampled_inference(model, ds.features, ds.graph, nodes, [5, 5], seed=3)
        b = sampled_inference(model, ds.features, ds.graph, nodes, [5, 5], seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_samples(self, trained_setup):
        ds, model = trained_setup
        nodes = ds.split.test[:50]
        a = sampled_inference(model, ds.features, ds.graph, nodes, [3, 3], seed=0)
        b = sampled_inference(model, ds.features, ds.graph, nodes, [3, 3], seed=1)
        assert not np.array_equal(a, b)

    def test_puts_model_in_eval_mode(self, trained_setup):
        ds, model = trained_setup
        model.train()
        sampled_inference(model, ds.features, ds.graph, ds.split.test[:10], [5, 5])
        assert not model.training

    def test_full_fanout_matches_layerwise(self, trained_setup):
        """With fanouts=None the sampled path computes exact neighborhoods,
        so it must agree with layer-wise full inference."""
        ds, model = trained_setup
        nodes = ds.split.test[:64]
        sampled = sampled_inference(
            model, ds.features, ds.graph, nodes, [None, None], batch_size=32
        )
        full = layerwise_full_inference(model, ds.features, ds.graph)
        np.testing.assert_allclose(sampled, full.select(nodes), rtol=1e-3, atol=1e-4)


#: kernels the plan path runs; every other kernel (per-call segment setup,
#: scatter-add of materialized messages) means a path fell off the plans
PLAN_FAMILY = {
    "plan_segment_sum",
    "plan_segment_mean",
    "plan_segment_max",
    "fused_gather_segment_sum",
    "fused_gather_segment_mean",
    "fused_gather_scatter_add",
    "linear_forward",
    "linear_backward",
}


@pytest.fixture()
def kernel_calls(monkeypatch):
    """Names of every ``repro.tensor.kernels`` function called from now on."""
    from repro.tensor import kernels

    calls = []
    for name in kernels.__all__:
        fn = getattr(kernels, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def _guard_config():
    from dataclasses import replace

    from repro.train import get_config

    return replace(
        get_config("arxiv", "sage"),
        batch_size=32,
        hidden_channels=16,
        num_layers=2,
        train_fanouts=(6, 4),
    )


class TestPlanPathGuard:
    """No execution path may silently fall back to per-call kernels: each
    builds aggregation plans and runs only the plan kernel family."""

    @pytest.mark.parametrize("executor", ["serial", "pipelined", "staged"])
    def test_default_compute_builds_plans(self, trained_setup, executor):
        ds, model = trained_setup
        metrics = MetricsRegistry()
        sampled_inference(
            model, ds.features, ds.graph, ds.split.test[:64], [5, 5],
            batch_size=32, executor=executor, metrics=metrics,
        )
        assert metrics.value("aggregation_plans_built") > 0
        plan_build = metrics.get("stage_seconds", stage="plan_build")
        assert plan_build is not None and plan_build.count == 2  # one per batch

    def test_unknown_compute_rejected(self, trained_setup):
        """There is one kernel generation: no entry point takes a
        ``compute`` selector any more."""
        ds, model = trained_setup
        with pytest.raises(TypeError, match="compute"):
            sampled_inference(
                model, ds.features, ds.graph, ds.split.test[:8], [5, 5],
                compute="legacy",
            )
        with pytest.raises(TypeError, match="compute"):
            layerwise_full_inference(model, ds.features, ds.graph, compute="legacy")

    def test_layerwise_builds_plans(self, trained_setup, monkeypatch, kernel_calls):
        ds, model = trained_setup
        built = []
        build = stages.build_aggregation_plans

        def counting(mfg, metrics=None):
            built.append(mfg)
            return build(mfg, metrics=metrics)

        monkeypatch.setattr(stages, "build_aggregation_plans", counting)
        layerwise_full_inference(model, ds.features, ds.graph)
        assert built
        assert kernel_calls and set(kernel_calls) <= PLAN_FAMILY

    def test_ddp_train_epoch_runs_on_plans(self, tiny_dataset, kernel_calls):
        from repro.train import DDPTrainer

        ddp = DDPTrainer(tiny_dataset, _guard_config(), num_ranks=2, seed=0)
        ddp.train_epoch(0)
        assert ddp.metrics.value("aggregation_plans_built") > 0
        assert kernel_calls and set(kernel_calls) <= PLAN_FAMILY

    def test_fullbatch_train_epoch_runs_on_plans(self, tiny_dataset, kernel_calls):
        from repro.train import FullBatchTrainer

        trainer = FullBatchTrainer(tiny_dataset, _guard_config(), seed=0)
        trainer.train_epoch()
        trainer.train_epoch()
        plans = {id(adj.plan) for adj in trainer._layers}
        assert None not in {adj.plan for adj in trainer._layers}
        assert len(plans) == 1  # one plan, built once, shared by every layer
        assert kernel_calls and set(kernel_calls) <= PLAN_FAMILY


class TestLayerwiseFullInference:
    @pytest.mark.parametrize("name", MODELS_FOR_LAYERWISE)
    def test_runs_and_shapes(self, name, small_products):
        ds = small_products
        model = build_model(
            name, ds.num_features, 12, ds.num_classes, num_layers=2,
            rng=np.random.default_rng(0),
        )
        result = layerwise_full_inference(model, ds.features, ds.graph, batch_size=512)
        assert isinstance(result, LayerwiseResult)
        assert result.log_probs.shape == (ds.num_nodes, ds.num_classes)
        np.testing.assert_allclose(
            np.exp(result.log_probs).sum(axis=1), 1.0, rtol=1e-3
        )

    def test_batch_size_does_not_change_result(self, trained_setup):
        ds, model = trained_setup
        a = layerwise_full_inference(model, ds.features, ds.graph, batch_size=128)
        b = layerwise_full_inference(model, ds.features, ds.graph, batch_size=1024)
        np.testing.assert_allclose(a.log_probs, b.log_probs, rtol=1e-4, atol=1e-5)

    def test_sage_ri_stores_all_layers(self, small_products):
        """Dense connections force every layer resident: SAGE-RI's peak host
        memory exceeds a plain stack's (the Section 5 trade-off)."""
        ds = small_products
        rngs = [np.random.default_rng(0), np.random.default_rng(0)]
        plain = build_model("sage", ds.num_features, 16, ds.num_classes,
                            num_layers=3, rng=rngs[0])
        dense = build_model("sage-ri", ds.num_features, 16, ds.num_classes,
                            num_layers=3, rng=rngs[1])
        plain_mem = layerwise_full_inference(plain, ds.features, ds.graph).peak_host_bytes
        dense_mem = layerwise_full_inference(dense, ds.features, ds.graph).peak_host_bytes
        assert dense_mem > plain_mem

    def test_select(self, trained_setup):
        ds, model = trained_setup
        result = layerwise_full_inference(model, ds.features, ds.graph)
        nodes = np.array([5, 0, 17])
        np.testing.assert_array_equal(result.select(nodes), result.log_probs[nodes])

    def test_unsupported_model_rejected(self, small_products):
        class Strange:
            def eval(self):
                return self

        with pytest.raises(TypeError):
            layerwise_full_inference(
                Strange(), small_products.features, small_products.graph
            )


class TestFanoutAccuracyShape:
    def test_accuracy_improves_with_fanout(self, trained_setup):
        """Table 6's core finding at small scale: accuracy is monotone-ish in
        inference fanout and saturates by ~20."""
        ds, model = trained_setup
        from repro.train import accuracy

        nodes = ds.split.test
        labels = ds.labels[nodes]
        accs = {}
        for fanout in (2, 20):
            out = sampled_inference(
                model, ds.features, ds.graph, nodes, [fanout, fanout], seed=0
            )
            accs[fanout] = accuracy(out, labels)
        full = layerwise_full_inference(model, ds.features, ds.graph)
        accs["full"] = accuracy(full.select(nodes), labels)
        assert accs[2] < accs[20] + 0.02  # tiny fanout is no better
        assert abs(accs[20] - accs["full"]) < 0.05  # fanout 20 ~ full
