"""Feature store and slicing paths."""

import numpy as np
import pytest

from repro.sampling import FastNeighborSampler
from repro.slicing import (
    FeatureStore,
    slice_batch_fused,
    slice_batch_reference,
)


@pytest.fixture()
def store(small_products):
    return FeatureStore(small_products.features, small_products.labels)


@pytest.fixture()
def mfg(small_products, rng):
    sampler = FastNeighborSampler(small_products.graph, [5, 3])
    batch = rng.choice(small_products.num_nodes, size=16, replace=False)
    return sampler.sample(batch, np.random.default_rng(0))


class TestFeatureStore:
    def test_half_precision_default(self, store):
        assert store.features.dtype == np.float16

    def test_full_precision_option(self, small_products):
        s = FeatureStore(
            small_products.features, small_products.labels, half_precision=False
        )
        assert s.features.dtype == np.float32

    def test_row_major_layout(self, store):
        assert store.features.flags["C_CONTIGUOUS"]

    def test_slice_features_matches_fancy_index(self, store, rng):
        ids = rng.choice(store.num_nodes, size=20)
        np.testing.assert_array_equal(store.slice_features(ids), store.features[ids])

    def test_slice_into_out_buffer(self, store, rng):
        ids = rng.choice(store.num_nodes, size=10)
        out = np.empty((10, store.num_features), dtype=store.feature_dtype)
        result = store.slice_features(ids, out=out)
        assert result is out
        np.testing.assert_array_equal(out, store.features[ids])

    def test_out_shape_validated(self, store):
        with pytest.raises(ValueError):
            store.slice_features(np.arange(5), out=np.empty((4, store.num_features)))

    def test_labels_out_shape_validated(self, store):
        with pytest.raises(ValueError):
            store.slice_labels(np.arange(5), out=np.empty(4, dtype=np.int64))

    def test_labels_slice(self, store):
        ids = np.array([0, 5, 9])
        np.testing.assert_array_equal(store.slice_labels(ids), store.labels[ids])

    def test_row_bytes(self, store):
        assert store.row_bytes() == store.num_features * 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureStore(np.zeros((3, 2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            FeatureStore(np.zeros((3, 2)), np.zeros(4))


class TestSlicingPaths:
    def test_reference_and_fused_agree(self, store, mfg):
        a = slice_batch_reference(store, mfg)
        b = slice_batch_fused(store, mfg)
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)

    def test_fused_writes_into_pinned_view(self, store, mfg):
        xs_buf = np.zeros((len(mfg.n_id) + 100, store.num_features), dtype=np.float16)
        ys_buf = np.zeros(mfg.batch_size + 10, dtype=np.int64)
        batch = slice_batch_fused(store, mfg, xs_out=xs_buf, ys_out=ys_buf, pinned_slot=3)
        assert batch.pinned_slot == 3
        assert batch.xs.base is xs_buf  # a view, not a copy
        np.testing.assert_array_equal(xs_buf[: len(mfg.n_id)], store.features[mfg.n_id])

    def test_sliced_batch_validates(self, store, mfg):
        batch = slice_batch_fused(store, mfg)
        batch.validate()

    def test_validate_catches_row_mismatch(self, store, mfg):
        batch = slice_batch_fused(store, mfg)
        batch.xs = batch.xs[:-1]
        with pytest.raises(ValueError):
            batch.validate()

    def test_nbytes_counts_everything(self, store, mfg):
        batch = slice_batch_fused(store, mfg)
        assert batch.nbytes() == batch.xs.nbytes + batch.ys.nbytes + mfg.nbytes()

    def test_labels_are_target_only(self, store, mfg):
        batch = slice_batch_fused(store, mfg)
        assert batch.ys.shape == (mfg.batch_size,)
        np.testing.assert_array_equal(batch.ys, store.labels[mfg.target_ids()])


class TestZeroIntermediateGather:
    def test_out_of_range_ids_raise_with_out_buffer(self, store):
        out = np.empty((2, store.num_features), dtype=store.feature_dtype)
        with pytest.raises(IndexError, match="out of range"):
            store.slice_features(
                np.array([0, store.num_nodes], dtype=np.int64), out=out
            )
        with pytest.raises(IndexError, match="out of range"):
            store.slice_labels(np.array([-1, 0], dtype=np.int64), out=np.empty(2, np.int64))

    def test_empty_id_list_with_out_buffer(self, store):
        out = np.empty((0, store.num_features), dtype=store.feature_dtype)
        result = store.slice_features(np.empty(0, dtype=np.int64), out=out)
        assert result.shape == (0, store.num_features)

    def test_gather_into_out_allocates_no_intermediate(self, store):
        """The out= gather must not materialize a hidden full-size copy.

        ``np.take(..., mode="raise", out=...)`` builds a temporary the size
        of the result before copying into ``out``; the bounds-check +
        ``mode="clip"`` path writes rows directly. Peak traced allocation
        during the gather must therefore stay far below the payload size.
        """
        import tracemalloc

        n_id = np.arange(0, store.num_nodes, 2, dtype=np.int64)
        out = np.empty((len(n_id), store.num_features), dtype=store.feature_dtype)
        store.slice_features(n_id, out=out)  # warm-up
        tracemalloc.start()
        store.slice_features(n_id, out=out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < out.nbytes / 10
        np.testing.assert_array_equal(out, store.features[n_id])


class TestSliceCounters:
    def test_fused_slice_reports_bytes_and_batches(self, store, mfg):
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
        batch = slice_batch_fused(store, mfg, metrics=metrics)
        assert metrics.get("slice_rows").count == 1
        assert metrics.value("slice_bytes", pinned="no") == (
            batch.xs.nbytes + batch.ys.nbytes
        )
        assert metrics.value("slice_pinned_batches") == 0

    def test_pinned_slot_counted(self, store, mfg):
        from repro.telemetry import MetricsRegistry

        metrics = MetricsRegistry()
        xs_buf = np.empty((len(mfg.n_id), store.num_features), store.feature_dtype)
        ys_buf = np.empty(mfg.batch_size, np.int64)
        slice_batch_fused(
            store, mfg, xs_out=xs_buf, ys_out=ys_buf, pinned_slot=3, metrics=metrics
        )
        assert metrics.value("slice_pinned_batches") == 1
