"""Gradients and semantics of functional ops (losses, softmax, segment ops)."""

import numpy as np
import pytest

from repro.tensor import AggregationPlan, Tensor, functional as F

from ..helpers import check_gradient

segments = AggregationPlan.for_segments


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        out = F.softmax(x, axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), rtol=1e-6)
        assert (out >= 0).all()

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-6
        )

    def test_log_softmax_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        out = F.log_softmax(x).data
        assert np.isfinite(out).all()

    def test_softmax_grad(self, rng):
        w = rng.normal(size=(3, 5))
        check_gradient(lambda x: (F.softmax(x, axis=-1) * Tensor(w)).sum(), (3, 5), rng)

    def test_log_softmax_grad(self, rng):
        w = rng.normal(size=(3, 5))
        check_gradient(
            lambda x: (F.log_softmax(x, axis=-1) * Tensor(w)).sum(), (3, 5), rng
        )


class TestLosses:
    def test_nll_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        target = np.array([0, 2, 1, 2])
        log_probs = F.log_softmax(Tensor(logits))
        loss = F.nll_loss(log_probs, target)
        manual = -log_probs.data[np.arange(4), target].mean()
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-6)

    def test_cross_entropy_equals_composed(self, rng):
        logits = rng.normal(size=(4, 3))
        target = np.array([1, 0, 2, 1])
        a = F.cross_entropy(Tensor(logits), target).item()
        b = F.nll_loss(F.log_softmax(Tensor(logits)), target).item()
        np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_nll_grad(self, rng):
        target = np.array([0, 2, 1])
        check_gradient(
            lambda x: F.nll_loss(F.log_softmax(x), target), (3, 4), rng
        )

    def test_nll_sum_reduction(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        target = np.array([0, 1, 2, 0])
        lp = F.log_softmax(logits)
        np.testing.assert_allclose(
            F.nll_loss(lp, target, reduction="sum").item(),
            F.nll_loss(lp, target, reduction="mean").item() * 4,
            rtol=1e-6,
        )

    def test_nll_ignore_index(self, rng):
        logits = rng.normal(size=(4, 3))
        lp = F.log_softmax(Tensor(logits))
        target = np.array([0, -1, 1, -1])
        loss = F.nll_loss(lp, target, ignore_index=-1)
        manual = -(lp.data[0, 0] + lp.data[2, 1]) / 2
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-6)

    def test_nll_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.nll_loss(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            F.nll_loss(Tensor(np.zeros((2, 3))), np.zeros(2, dtype=int), reduction="x")


class TestDropout:
    def test_identity_in_eval(self, rng):
        x = Tensor(rng.normal(size=(10, 4)))
        assert F.dropout(x, p=0.5, training=False) is x

    def test_identity_at_p_zero(self, rng):
        x = Tensor(rng.normal(size=(10, 4)))
        assert F.dropout(x, p=0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 50)))
        out = F.dropout(x, p=0.3, training=True, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.02
        # surviving entries are scaled by 1/keep
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.7, rtol=1e-6)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.0, training=True)

    def test_grad_masks_match_forward(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = F.dropout(x, p=0.5, training=True, rng=np.random.default_rng(1))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestSegmentOps:
    def test_segment_sum_values(self):
        vals = Tensor(np.arange(8.0).reshape(4, 2))
        idx = np.array([1, 0, 1, 3])
        out = F.segment_sum(vals, segments(idx, 4)).data
        np.testing.assert_allclose(out, [[2, 3], [4, 6], [0, 0], [6, 7]])

    def test_segment_mean_empty_segment_is_zero(self):
        vals = Tensor(np.ones((2, 3)))
        out = F.segment_mean(vals, segments([0, 0], 3)).data
        np.testing.assert_allclose(out[1:], 0.0)
        np.testing.assert_allclose(out[0], 1.0)

    def test_segment_max_values(self):
        vals = Tensor(np.array([[1.0, -5.0], [3.0, 2.0], [2.0, 9.0]]))
        idx = np.array([0, 0, 1])
        out = F.segment_max(vals, segments(idx, 2)).data
        np.testing.assert_allclose(out, [[3.0, 2.0], [2.0, 9.0]])

    def test_segment_sum_grad(self, rng):
        idx = np.array([0, 0, 1, 2, 2, 2])
        plan = segments(idx, 4)
        check_gradient(lambda x: (F.segment_sum(x, plan) ** 2).sum(), (6, 3), rng)

    def test_segment_mean_grad(self, rng):
        idx = np.array([0, 0, 1, 2, 2, 2])
        plan = segments(idx, 4)
        check_gradient(lambda x: (F.segment_mean(x, plan) ** 2).sum(), (6, 3), rng)

    def test_segment_max_grad(self, rng):
        idx = np.array([0, 0, 1, 2, 2, 2])
        plan = segments(idx, 3)
        check_gradient(lambda x: (F.segment_max(x, plan) ** 2).sum(), (6, 2), rng)

    def test_segment_softmax_normalizes_per_segment(self, rng):
        scores = Tensor(rng.normal(size=10))
        idx = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
        out = F.segment_softmax(scores, segments(idx, 4)).data
        for seg in range(4):
            np.testing.assert_allclose(out[idx == seg].sum(), 1.0, rtol=1e-5)

    def test_segment_softmax_grad(self, rng):
        idx = np.array([0, 0, 1, 1, 1, 2])
        w = rng.normal(size=6)
        plan = segments(idx, 3)
        check_gradient(
            lambda x: (F.segment_softmax(x, plan) * Tensor(w)).sum(), (6,), rng
        )

    def test_segment_softmax_rejects_2d(self):
        with pytest.raises(ValueError):
            F.segment_softmax(Tensor(np.zeros((3, 2))), segments([0, 0, 0], 2))

    def test_gather_rows_matches_fancy_index(self, rng):
        x = Tensor(rng.normal(size=(6, 4)))
        idx = np.array([5, 0, 0, 3])
        np.testing.assert_allclose(F.gather_rows(x, idx).data, x.data[idx])


class TestLinear:
    def test_linear_with_bias(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, x @ w.T + b, rtol=1e-6)
