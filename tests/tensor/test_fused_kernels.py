"""Plan/fused kernels vs the per-call reference kernels: bit-identical.

The plan and fused kernels are performance rewrites only: they must not
change a single bit of any result relative to the reference formulations
in ``benchmarks/reference.py``.  These tests pin:

- every plan/fused kernel against its reference kernel with
  ``np.array_equal`` (not allclose) across random shapes, empty segments,
  single-edge segments, float32/float64 and non-contiguous inputs;
- the functional segment ops and the fused linear node against the
  reference autograd ops (forward and gradients);
- the :class:`~repro.tensor.workspace.Workspace` pool semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro.tensor import (
    AggregationPlan,
    Tensor,
    Workspace,
    current_workspace,
    functional as F,
    kernels,
    workspace_scope,
)


@st.composite
def plan_case(draw):
    """Random edge list + features, covering the awkward regimes."""
    n_src = draw(st.integers(min_value=1, max_value=16))
    n_dst = draw(st.integers(min_value=1, max_value=n_src))
    n_edges = draw(st.integers(min_value=0, max_value=60))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    noncontig = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_src, size=n_edges).astype(np.int64)
    dst = rng.integers(0, n_dst, size=n_edges).astype(np.int64)
    x = rng.normal(size=(n_src, n_cols)).astype(dtype)
    if noncontig:
        # Column-sliced view of a wider array: stride > itemsize.
        wide = rng.normal(size=(n_src, 2 * n_cols)).astype(dtype)
        wide[:, ::2] = x
        x = wide[:, ::2]
    plan = AggregationPlan(src, dst, n_src, n_dst)
    return x, src, dst, plan


class TestPlanKernelsBitwise:
    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_plan_segment_sum(self, case):
        x, src, dst, plan = case
        messages = x[src]
        expected = reference.segment_sum(messages, dst, plan.n_dst)
        np.testing.assert_array_equal(kernels.plan_segment_sum(messages, plan), expected)

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_plan_segment_mean(self, case):
        x, src, dst, plan = case
        messages = x[src]
        expected = reference.segment_mean(messages, dst, plan.n_dst)
        np.testing.assert_array_equal(kernels.plan_segment_mean(messages, plan), expected)

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_plan_segment_max(self, case):
        x, src, dst, plan = case
        messages = x[src]
        ref_out, ref_arg = reference.segment_max(messages, dst, plan.n_dst)
        out, arg = kernels.plan_segment_max(messages, plan)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(arg, ref_arg)
        out2, arg2 = kernels.plan_segment_max(messages, plan, compute_argmax=False)
        np.testing.assert_array_equal(out2, ref_out)
        assert arg2 is None

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_fused_gather_segment_sum(self, case):
        x, src, dst, plan = case
        expected = reference.segment_sum(x[src], dst, plan.n_dst)
        np.testing.assert_array_equal(kernels.fused_gather_segment_sum(x, plan), expected)

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_fused_gather_segment_mean(self, case):
        x, src, dst, plan = case
        expected = reference.segment_mean(x[src], dst, plan.n_dst)
        np.testing.assert_array_equal(
            kernels.fused_gather_segment_mean(x, plan), expected
        )

    @settings(max_examples=80, deadline=None)
    @given(plan_case())
    def test_fused_gather_scatter_add(self, case):
        x, src, dst, plan = case
        rng = np.random.default_rng(7)
        g = rng.normal(size=(plan.n_dst, x.shape[1])).astype(x.dtype)
        expected = kernels.scatter_add_rows(g[dst], src, plan.n_src)
        np.testing.assert_array_equal(kernels.fused_gather_scatter_add(g, plan), expected)

    def test_1d_plan_sum(self):
        rng = np.random.default_rng(0)
        dst = rng.integers(0, 5, size=30).astype(np.int64)
        src = rng.integers(0, 8, size=30).astype(np.int64)
        plan = AggregationPlan(src, dst, 8, 5)
        vals = rng.normal(size=30).astype(np.float64)
        expected = reference.segment_sum(vals, dst, 5)
        np.testing.assert_array_equal(kernels.plan_segment_sum(vals, plan), expected)

    def test_single_edge_segments(self):
        # Every destination has exactly one incoming edge.
        src = np.array([3, 1, 0], dtype=np.int64)
        dst = np.array([0, 1, 2], dtype=np.int64)
        plan = AggregationPlan(src, dst, 4, 3)
        x = np.arange(8, dtype=np.float32).reshape(4, 2)
        np.testing.assert_array_equal(kernels.fused_gather_segment_sum(x, plan), x[src])

    def test_empty_edge_list(self):
        plan = AggregationPlan(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4, 3
        )
        x = np.ones((4, 2), dtype=np.float32)
        assert (kernels.fused_gather_segment_sum(x, plan) == 0).all()
        assert (kernels.plan_segment_sum(np.empty((0, 2), np.float32), plan) == 0).all()
        g = np.ones((3, 2), dtype=np.float32)
        assert (kernels.fused_gather_scatter_add(g, plan) == 0).all()

    def test_plan_shape_mismatch_rejected(self):
        plan = AggregationPlan(
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64), 2, 1
        )
        with pytest.raises(ValueError):
            kernels.plan_segment_sum(np.zeros((3, 2), np.float32), plan)


class TestPlanObject:
    def test_with_self_loops_memoized(self):
        plan = AggregationPlan(
            np.array([2, 1], dtype=np.int64), np.array([0, 1], dtype=np.int64), 3, 2
        )
        aug = plan.with_self_loops()
        assert aug is plan.with_self_loops()
        assert aug.num_edges == plan.num_edges + plan.n_dst
        np.testing.assert_array_equal(aug.src[-2:], [0, 1])
        np.testing.assert_array_equal(aug.dst[-2:], [0, 1])

    def test_from_edge_index_and_validation(self):
        ei = np.array([[0, 1], [1, 0]], dtype=np.int64)
        plan = AggregationPlan.from_edge_index(ei, (2, 2))
        assert plan.num_edges == 2
        with pytest.raises(ValueError):
            AggregationPlan.from_edge_index(np.zeros((3, 2), np.int64), (2, 2))
        with pytest.raises(ValueError):
            AggregationPlan(np.zeros(2, np.int64), np.zeros(3, np.int64), 4, 4)

    def test_counts_and_nbytes(self):
        plan = AggregationPlan(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([1, 1, 0], dtype=np.int64),
            3,
            2,
        )
        np.testing.assert_array_equal(plan.counts, [1, 2])
        assert plan.nbytes() > 0


def _autograd_pair(x_np, plan, op):
    """Run ``op`` on a fresh leaf tensor; return (out, grad) arrays."""
    x = Tensor(x_np.copy(), requires_grad=True)
    out = op(x, plan)
    out.backward(np.ones_like(out.data))
    return out.data.copy(), x.grad.copy()


class TestFunctionalPlanPaths:
    """Autograd-level equality: plan ops vs the reference ops, every bit."""

    def _random_case(self, seed, dtype=np.float32):
        rng = np.random.default_rng(seed)
        n_src, n_dst, n_edges, n_cols = 9, 6, 25, 4
        src = rng.integers(0, n_src, size=n_edges).astype(np.int64)
        dst = rng.integers(0, n_dst, size=n_edges).astype(np.int64)
        x = rng.normal(size=(n_src, n_cols)).astype(dtype)
        return x, src, dst, AggregationPlan(src, dst, n_src, n_dst)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_gather_segment_matches_unfused(self, agg, dtype):
        x, src, dst, plan = self._random_case(3, dtype)
        fused_op = getattr(F, f"gather_segment_{agg}")
        seg_op = getattr(reference, f"tensor_segment_{agg}")

        def unfused(t, _):
            return seg_op(F.gather_rows(t, src), dst, plan.n_dst)

        out_f, grad_f = _autograd_pair(x, plan, fused_op)
        out_l, grad_l = _autograd_pair(x, plan, unfused)
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_softmax_plan_matches(self, dtype):
        rng = np.random.default_rng(11)
        n_dst, n_edges = 5, 40
        dst = rng.integers(0, n_dst, size=n_edges).astype(np.int64)
        plan = AggregationPlan(
            rng.integers(0, 7, size=n_edges).astype(np.int64), dst, 7, n_dst
        )
        logits = rng.normal(size=n_edges).astype(dtype)

        def with_plan(t, p):
            return F.segment_softmax(t, p)

        def without_plan(t, _):
            return reference.tensor_segment_softmax(t, dst, n_dst)

        out_f, grad_f = _autograd_pair(logits, plan, with_plan)
        out_l, grad_l = _autograd_pair(logits, plan, without_plan)
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("agg", ["sum", "mean", "max"])
    def test_segment_ops_plan_kwarg_matches(self, agg, dtype):
        x, src, dst, plan = self._random_case(5, dtype)
        messages = x[src]

        def with_plan(t, p):
            return getattr(F, f"segment_{agg}")(t, p)

        def without_plan(t, _):
            return getattr(reference, f"tensor_segment_{agg}")(t, dst, plan.n_dst)

        out_f, grad_f = _autograd_pair(messages, plan, with_plan)
        out_l, grad_l = _autograd_pair(messages, plan, without_plan)
        np.testing.assert_array_equal(out_f, out_l)
        np.testing.assert_array_equal(grad_f, grad_l)


class TestFusedLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_matches_legacy_chain(self, bias, relu, dtype):
        rng = np.random.default_rng(17)
        x_np = rng.normal(size=(12, 7)).astype(dtype)
        w_np = rng.normal(size=(5, 7)).astype(dtype)
        b_np = rng.normal(size=(5,)).astype(dtype) if bias else None

        def run(fused):
            x = Tensor(x_np.copy(), requires_grad=True)
            w = Tensor(w_np.copy(), requires_grad=True)
            b = Tensor(b_np.copy(), requires_grad=True) if bias else None
            if fused:
                out = F.linear_relu(x, w, b) if relu else F.linear(x, w, b)
            else:
                out = reference.tensor_linear(x, w, b)
                if relu:
                    out = out.relu()
            out.backward(np.ones_like(out.data))
            return (
                out.data.copy(),
                x.grad.copy(),
                w.grad.copy(),
                b.grad.copy() if bias else None,
            )

        fused_res = run(True)
        reference_res = run(False)
        for got, want in zip(fused_res, reference_res):
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)

    def test_kernel_forward_values(self):
        x = np.array([[1.0, -2.0]], dtype=np.float32)
        w = np.array([[3.0, 1.0]], dtype=np.float32)
        b = np.array([4.0], dtype=np.float32)
        np.testing.assert_array_equal(kernels.linear_forward(x, w, b), [[5.0]])
        np.testing.assert_array_equal(
            kernels.linear_forward(x, w, np.array([-6.0], np.float32), relu=True),
            [[0.0]],
        )


class TestWorkspace:
    def test_bucket_reuse_across_row_counts(self):
        ws = Workspace()
        a = ws.zeros((100, 8), np.float32)
        base_a = ws._out[0][1]
        ws.release_all()
        # 100 and 120 share the 128-row bucket: the base is recycled.
        b = ws.zeros((120, 8), np.float32)
        assert ws._out[0][1] is base_a
        assert b.shape == (120, 8)
        assert (b == 0).all()
        assert ws.stats["hits"] == 1 and ws.stats["misses"] == 1

    def test_distinct_buckets_miss(self):
        ws = Workspace()
        ws.zeros((100, 8), np.float32)
        ws.release_all()
        ws.zeros((200, 8), np.float32)  # 256-row bucket: fresh allocation
        assert ws.stats == {
            **ws.stats,
            "hits": 0,
            "misses": 2,
        }

    def test_no_reuse_while_checked_out(self):
        ws = Workspace()
        a = ws.empty((10, 4), np.float32)
        b = ws.empty((10, 4), np.float32)
        assert a.base is not b.base
        ws.release_all()
        assert ws.stats["buffers_pooled"] == 2

    def test_dtype_and_trailing_shape_separate_pools(self):
        ws = Workspace()
        ws.zeros((10, 4), np.float32)
        ws.release_all()
        ws.zeros((10, 4), np.float64)
        ws.zeros((10, 5), np.float32)
        assert ws.stats["hits"] == 0 and ws.stats["misses"] == 3

    def test_zeros_zeroes_only_the_view(self):
        ws = Workspace()
        a = ws.empty((8, 2), np.float32)
        a[...] = 7.0
        ws.release_all()
        b = ws.zeros((5, 2), np.float32)
        assert (b == 0).all()

    def test_pooled_bytes_and_1d(self):
        ws = Workspace()
        ws.zeros(33, np.float32)  # int shape accepted; 64-element bucket
        assert ws.pooled_bytes() == 64 * 4
        ws.release_all()
        ws.zeros(60, np.float32)
        assert ws.stats["hits"] == 1

    def test_scope_restores_previous_and_releases(self):
        outer, inner = Workspace(), Workspace()
        assert current_workspace() is None
        with workspace_scope(outer):
            assert current_workspace() is outer
            outer.empty((4,), np.float32)
            with workspace_scope(inner):
                assert current_workspace() is inner
            assert current_workspace() is outer
            assert inner.stats["buffers_out"] == 0  # released on scope exit
        assert current_workspace() is None
        assert outer.stats["buffers_out"] == 0

    def test_none_scope_is_noop(self):
        with workspace_scope(None):
            assert current_workspace() is None

    def test_pooled_outputs_inside_scope(self):
        ws = Workspace()
        plan = AggregationPlan(
            np.array([0, 1], dtype=np.int64), np.array([0, 0], dtype=np.int64), 2, 1
        )
        x = np.ones((2, 3), dtype=np.float32)
        with workspace_scope(ws):
            out = kernels.fused_gather_segment_sum(x, plan)
        np.testing.assert_array_equal(out, [[2.0, 2.0, 2.0]])
        # The output buffer plus the CSR path's float64 operand/accumulator
        # temporaries all come from the pool.
        assert ws.stats["misses"] >= 1
        assert ws.stats["buffers_out"] == 0
