"""Layer-wise samplers (FastGCN / LADIES extensions)."""

import numpy as np
import pytest

from repro.sampling import FastGCNSampler, LadiesSampler, weighted_segment_mean
from repro.tensor import AggregationPlan, Tensor

SAMPLERS = [FastGCNSampler, LadiesSampler]


@pytest.mark.parametrize("sampler_cls", SAMPLERS)
class TestLayerwiseContract:
    def test_mfg_structurally_valid(self, sampler_cls, small_products, rng):
        sampler = sampler_cls(small_products.graph, [64, 32])
        batch = rng.choice(small_products.num_nodes, size=16, replace=False)
        mfg = sampler.sample(batch, np.random.default_rng(0))
        mfg.validate()
        np.testing.assert_array_equal(mfg.n_id[:16], batch)

    def test_budget_bounds_layer_growth(self, sampler_cls, small_products, rng):
        """Each hop adds at most `budget` new nodes — the defining property
        of layer-wise (vs node-wise) sampling."""
        budget = 20
        sampler = sampler_cls(small_products.graph, [budget, budget])
        batch = rng.choice(small_products.num_nodes, size=32, replace=False)
        mfg = sampler.sample(batch, np.random.default_rng(1))
        sizes = [adj.size for adj in mfg.adjs]  # input-side first
        # innermost layer: 32 targets; each hop adds <= budget sources
        assert sizes[-1][0] - sizes[-1][1] <= budget
        assert sizes[0][0] - sizes[0][1] <= budget

    def test_edges_exist_in_graph(self, sampler_cls, small_products, rng):
        sampler = sampler_cls(small_products.graph, [32])
        batch = rng.choice(small_products.num_nodes, size=8, replace=False)
        mfg = sampler.sample(batch, np.random.default_rng(2))
        adj = mfg.adjs[0]
        for s, d in zip(mfg.n_id[adj.edge_index[0]], mfg.n_id[adj.edge_index[1]]):
            assert s in small_products.graph.neighbors(int(d))

    def test_edge_weights_attached_and_positive(self, sampler_cls, small_products, rng):
        sampler = sampler_cls(small_products.graph, [32])
        batch = rng.choice(small_products.num_nodes, size=8, replace=False)
        mfg = sampler.sample(batch, np.random.default_rng(3))
        weights = mfg.adjs[0].edge_weight
        assert weights.shape == (mfg.adjs[0].num_edges,)
        assert (weights > 0).all()

    def test_rejects_none_budget(self, sampler_cls, small_products):
        with pytest.raises(ValueError):
            sampler_cls(small_products.graph, [None])

    def test_empty_batch_rejected(self, sampler_cls, small_products):
        sampler = sampler_cls(small_products.graph, [16])
        with pytest.raises(ValueError):
            sampler.sample(np.array([], dtype=np.int64), np.random.default_rng(0))


class TestImportanceDistributions:
    def test_ladies_prefers_frontier_connected_nodes(self, small_products):
        """LADIES probability is zero-heavy toward nodes with many frontier
        connections; check monotonicity on a constructed case."""
        sampler = LadiesSampler(small_products.graph, [16])
        frontier = np.arange(50)
        candidates = np.arange(50, 120)
        probs = sampler._distribution_over(candidates, frontier)
        counts = np.array(
            [
                np.isin(small_products.graph.neighbors(int(v)), frontier).sum()
                for v in candidates
            ],
            dtype=float,
        )
        # probabilities proportional to counts^2 (up to normalization)
        expected = counts**2
        if expected.sum() > 0:
            np.testing.assert_allclose(probs, expected / expected.sum(), rtol=1e-6)

    def test_fastgcn_degree_proportional(self, small_products):
        sampler = FastGCNSampler(small_products.graph, [16])
        candidates = np.arange(80)
        probs = sampler._distribution_over(candidates, np.arange(10))
        degrees = small_products.graph.degree()[candidates].astype(float)
        np.testing.assert_allclose(probs, degrees / degrees.sum(), rtol=1e-6)


class TestWeightedAggregation:
    def test_uniform_weights_equal_plain_mean(self, rng):
        from repro.tensor import functional as F

        messages = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        index = np.array([0, 0, 1, 1, 1, 2])
        weighted = weighted_segment_mean(messages, np.ones(6), index, 3)
        plain = F.segment_mean(messages, AggregationPlan.for_segments(index, 3))
        np.testing.assert_allclose(weighted.data, plain.data, rtol=1e-5)

    def test_weights_bias_the_mean(self, rng):
        messages = Tensor(np.array([[0.0], [10.0]], dtype=np.float32))
        index = np.array([0, 0])
        out = weighted_segment_mean(messages, np.array([3.0, 1.0]), index, 1)
        np.testing.assert_allclose(out.data, [[2.5]], rtol=1e-5)

    def test_gradients_flow(self, rng):
        messages = Tensor(
            rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True
        )
        index = np.array([0, 1, 1, 0, 1])
        out = weighted_segment_mean(messages, rng.random(5) + 0.5, index, 2)
        out.sum().backward()
        assert messages.grad is not None

    def test_self_normalized_estimator_unbiasedness(self, small_products):
        """Monte-Carlo check: LADIES-weighted aggregation over repeated
        samples approaches the exact full-neighborhood mean."""
        from repro.tensor import functional as F

        graph = small_products.graph
        features = small_products.features.astype(np.float32)
        target = 5
        exact = features[graph.neighbors(target)].mean(axis=0)

        sampler = LadiesSampler(graph, [24])
        estimates = []
        for trial in range(60):
            mfg = sampler.sample(np.array([target]), np.random.default_rng(trial))
            adj = mfg.adjs[0]
            msgs = Tensor(features[mfg.n_id[adj.edge_index[0]]])
            est = weighted_segment_mean(msgs, adj.edge_weight, adj.edge_index[1], 1)
            estimates.append(est.data[0])
        mc = np.mean(estimates, axis=0)
        # self-normalized IS is consistent; tolerate Monte-Carlo noise
        err = np.abs(mc - exact).mean() / (np.abs(exact).mean() + 1e-6)
        assert err < 0.6
