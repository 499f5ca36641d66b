"""Property-based tests for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import AggregationPlan, Tensor, functional as F

segments = AggregationPlan.for_segments


def finite_arrays(shape):
    return hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )


class TestAlgebraicProperties:
    @settings(max_examples=40, deadline=None)
    @given(finite_arrays((3, 4)), finite_arrays((3, 4)))
    def test_addition_commutes(self, a, b):
        np.testing.assert_allclose(
            (Tensor(a) + Tensor(b)).data, (Tensor(b) + Tensor(a)).data
        )

    @settings(max_examples=40, deadline=None)
    @given(finite_arrays((2, 3)), finite_arrays((3, 2)))
    def test_matmul_transpose_identity(self, a, b):
        left = (Tensor(a) @ Tensor(b)).T
        right = Tensor(b).T @ Tensor(a).T
        np.testing.assert_allclose(left.data, right.data, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(finite_arrays((4, 5)))
    def test_sum_of_relu_plus_negrelu_is_abs(self, a):
        x = Tensor(a)
        combined = x.relu() + (-x).relu()
        np.testing.assert_allclose(combined.data, np.abs(a), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(finite_arrays((3, 6)), st.floats(-5, 5))
    def test_softmax_shift_invariance(self, a, shift):
        base = F.softmax(Tensor(a)).data
        shifted = F.softmax(Tensor(a + shift)).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(finite_arrays((5,)))
    def test_log_softmax_normalizes(self, a):
        out = F.log_softmax(Tensor(a.reshape(1, -1))).data
        np.testing.assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-9)


class TestGradientProperties:
    @settings(max_examples=30, deadline=None)
    @given(finite_arrays((3, 4)))
    def test_sum_gradient_is_ones(self, a):
        x = Tensor(a, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))

    @settings(max_examples=30, deadline=None)
    @given(finite_arrays((4,)), finite_arrays((4,)))
    def test_gradient_linearity(self, a, w):
        """grad of (w . x) w.r.t. x is w, independent of x's value."""
        x = Tensor(a, requires_grad=True)
        (x * Tensor(w)).sum().backward()
        np.testing.assert_allclose(x.grad, w, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(finite_arrays((3, 3)))
    def test_quadratic_gradient(self, a):
        x = Tensor(a, requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * a, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(finite_arrays((6, 2)), st.lists(st.integers(0, 3), min_size=6, max_size=6))
    def test_segment_sum_grad_routes_upstream(self, values, index):
        index = np.asarray(index)
        x = Tensor(values, requires_grad=True)
        coeff = np.arange(4.0).reshape(4, 1)
        (F.segment_sum(x, segments(index, 4)) * Tensor(coeff)).sum().backward()
        expected = np.broadcast_to(coeff[index], values.shape)
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(finite_arrays((5, 3)))
    def test_detached_path_contributes_nothing(self, a):
        x = Tensor(a, requires_grad=True)
        y = (x * 2).detach() + x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(a))
