"""Optimized numpy kernels vs obvious reference implementations.

Follows the ml-systems guide's pattern: the slow, clearly correct
formulation lives in the tests and gates the optimized kernel, including
under hypothesis-generated inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import AggregationPlan, kernels

segments = AggregationPlan.for_segments


def reference_scatter_add(values, index, n_rows):
    out = np.zeros((n_rows,) + values.shape[1:], dtype=np.float64)
    for i, row in enumerate(index):
        out[row] += values[i]
    return out.astype(values.dtype)


@st.composite
def scatter_case(draw):
    n_rows = draw(st.integers(min_value=1, max_value=12))
    n_elems = draw(st.integers(min_value=0, max_value=40))
    n_cols = draw(st.integers(min_value=1, max_value=5))
    index = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_rows - 1),
            min_size=n_elems,
            max_size=n_elems,
        )
    )
    values = draw(
        st.lists(
            st.lists(
                st.floats(
                    min_value=-100, max_value=100, allow_nan=False, width=32
                ),
                min_size=n_cols,
                max_size=n_cols,
            ),
            min_size=n_elems,
            max_size=n_elems,
        )
    )
    return (
        np.asarray(values, dtype=np.float32).reshape(n_elems, n_cols),
        np.asarray(index, dtype=np.int64),
        n_rows,
    )


class TestScatterAdd:
    @settings(max_examples=60, deadline=None)
    @given(scatter_case())
    def test_matches_reference(self, case):
        values, index, n_rows = case
        out = kernels.scatter_add_rows(values, index, n_rows)
        np.testing.assert_allclose(out, reference_scatter_add(values, index, n_rows), rtol=1e-5)

    def test_1d_values(self):
        out = kernels.scatter_add_rows(
            np.array([1.0, 2.0, 3.0], dtype=np.float32), np.array([1, 1, 0]), 3
        )
        np.testing.assert_allclose(out, [3.0, 3.0, 0.0])

    def test_empty_input(self):
        out = kernels.scatter_add_rows(
            np.empty((0, 4), dtype=np.float32), np.empty(0, dtype=np.int64), 5
        )
        assert out.shape == (5, 4)
        assert (out == 0).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 5)
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(np.zeros((3, 2)), np.zeros((3, 1), dtype=np.int64), 5)
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(np.zeros((2, 2, 2)), np.zeros(2, dtype=np.int64), 3)

    def test_wide_matrix_block_path(self):
        # exercise the column-blocking loop with > block width columns
        rng = np.random.default_rng(0)
        values = rng.normal(size=(50, 300)).astype(np.float32)
        index = rng.integers(0, 7, size=50)
        out = kernels.scatter_add_rows(values, index, 7)
        np.testing.assert_allclose(
            out, reference_scatter_add(values, index, 7), rtol=1e-4
        )


class TestSegmentReductions:
    def test_counts(self):
        np.testing.assert_array_equal(
            segments([0, 2, 2, 2], 4).counts, [1, 0, 3, 0]
        )

    def test_mean_divides_by_count(self):
        vals = np.array([[2.0], [4.0], [10.0]], dtype=np.float32)
        out = kernels.plan_segment_mean(vals, segments([0, 0, 1], 3))
        np.testing.assert_allclose(out, [[3.0], [10.0], [0.0]])

    @settings(max_examples=40, deadline=None)
    @given(scatter_case())
    def test_segment_max_matches_reference(self, case):
        values, index, n_rows = case
        out, argmax = kernels.plan_segment_max(values, segments(index, n_rows))
        for seg in range(n_rows):
            members = values[index == seg]
            if len(members) == 0:
                np.testing.assert_allclose(out[seg], 0.0)
                assert (argmax[seg] == -1).all()
            else:
                np.testing.assert_allclose(out[seg], members.max(axis=0))

    def test_segment_max_argmax_routes_to_element(self):
        values = np.array([[1.0], [9.0], [5.0]], dtype=np.float32)
        out, argmax = kernels.plan_segment_max(values, segments([0, 0, 0], 1))
        assert argmax[0, 0] == 1
        np.testing.assert_allclose(out[0], [9.0])

    def test_segment_max_1d(self):
        out, argmax = kernels.plan_segment_max(
            np.array([3.0, 7.0, 1.0], dtype=np.float32), segments([1, 1, 0], 2)
        )
        np.testing.assert_allclose(out, [1.0, 7.0])
        np.testing.assert_array_equal(argmax, [2, 1])

    def test_segment_max_empty(self):
        out, argmax = kernels.plan_segment_max(
            np.empty((0, 2), dtype=np.float32), segments([], 3)
        )
        assert out.shape == (3, 2)
        assert (argmax == -1).all()


class TestBlockCols:
    """Regression tests for the column-block width computation.

    The original expression ``1 << 22 // max(rows, 1)`` parsed as
    ``1 << (22 // rows)`` — single-column blocks for any input past 22
    rows, and multi-mebibyte blocks for tiny ones.  ``_block_cols`` pins
    the intended ``(1 << 22) // rows`` element budget.
    """

    def test_budget_semantics(self):
        # products-scale rows: the budget allows dozens of columns, not 1.
        assert kernels._block_cols(150_000, 100) == 27
        assert kernels._block_cols(1 << 22, 64) == 1
        # Wide-but-short inputs are capped at n_cols, not the raw budget.
        assert kernels._block_cols(10, 8) == 8
        assert kernels._block_cols(0, 8) == 8

    def test_old_precedence_bug_documented(self):
        # What the buggy expression evaluated to, for the record: 23+ rows
        # degenerated to single-column blocking.
        rows = 150_000
        buggy = 1 << 22 // max(rows, 1)
        assert buggy == 1
        assert kernels._block_cols(rows, 100) > buggy

    def test_never_below_one_column(self):
        for rows in [1, 10, 1 << 22, (1 << 22) + 1, 1 << 25]:
            assert kernels._block_cols(rows, 500) >= 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1 << 23),
        st.integers(min_value=1, max_value=512),
    )
    def test_budget_respected(self, rows, cols):
        width = kernels._block_cols(rows, cols)
        assert 1 <= width <= cols
        if width > 1:
            # A block of this width stays within the element budget.
            assert max(rows, 1) * width <= kernels._BLOCK_BUDGET

    def test_scatter_result_independent_of_blocking(self):
        # The same input must produce identical results whether the row
        # count forces 1-column, few-column or single-block processing.
        rng = np.random.default_rng(1)
        values = rng.normal(size=(40, 13)).astype(np.float32)
        index = rng.integers(0, 9, size=40)
        expect = kernels.scatter_add_rows(values, index, 9)
        for budget in [1, 13, 40 * 13, 1 << 22]:
            width = kernels._block_cols(values.shape[0], values.shape[1], budget)
            out = np.zeros((9, 13), dtype=values.dtype)
            col = 0
            while col < 13:
                stop = min(col + width, 13)
                out[:, col:stop] = kernels.scatter_add_rows(
                    values[:, col:stop], index, 9
                )
                col = stop
            np.testing.assert_array_equal(out, expect)
