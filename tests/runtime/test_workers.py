"""Prepare workers: coverage, determinism, buffer recycling, telemetry.

The pipelined policy's batch preparation is a :class:`PrepareStage` whose
worker threads each own a batch end-to-end (sample + fused slice into a
pinned slot).  These tests drive that stage through a
:class:`StagedPipeline` with a transfer stage, the shape every overlapped
policy runs, and inspect each delivered envelope.
"""

import numpy as np
import pytest

from repro.runtime import (
    ComputeStage,
    Device,
    PinnedBufferPool,
    PrepareStage,
    StagedPipeline,
    TransferStage,
    estimate_max_rows,
)
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.telemetry import MetricsRegistry


def make_pool(dataset, num_workers=2, pinned=True, prefetch=4, seed=0,
              pinned_pool=None, metrics=None):
    store = FeatureStore(dataset.features, dataset.labels)
    factory = lambda: FastNeighborSampler(dataset.graph, [5, 3])  # noqa: E731
    if pinned and pinned_pool is None:
        rows = estimate_max_rows([5, 3], 32, dataset.num_nodes)
        pinned_pool = PinnedBufferPool(
            prefetch, max_rows=rows, num_features=store.num_features, max_batch=32
        )
    pipeline = StagedPipeline(
        [
            PrepareStage(factory, store, pinned_pool=pinned_pool, workers=num_workers),
            TransferStage(Device()),
            ComputeStage(fn=lambda batch: batch),
        ],
        prefetch_depth=prefetch,
        seed=seed,
        metrics=metrics,
    )
    return pipeline, pinned_pool, store


def drain(pipeline, batches):
    """Run one epoch; returns every delivered envelope in delivery order.

    Pinned slots recycle once a batch's transfer lands, so each envelope's
    staged rows are read back from its device batch (the copy the
    transfer made), exactly what compute would consume.
    """
    out = []
    pipeline.run_epoch(batches, on_result=out.append)
    pipeline.transfer_stage.device.shutdown()
    return out


class TestEstimateMaxRows:
    def test_product_bound(self):
        assert estimate_max_rows([2, 3], 10, 10_000) == 10 * 3 * 4

    def test_caps_at_graph_size(self):
        assert estimate_max_rows([50, 50], 1000, 500) == 500

    def test_full_fanout_returns_graph_size(self):
        assert estimate_max_rows([None, 5], 10, 777) == 777


class TestPool:
    def test_all_batches_prepared_once(self, small_products, rng):
        pipeline, _, _ = make_pool(small_products)
        batches = [
            rng.choice(small_products.num_nodes, size=16, replace=False)
            for _ in range(9)
        ]
        prepared = drain(pipeline, batches)
        assert sorted(p.index for p in prepared) == list(range(9))

    def test_batches_identical_across_worker_counts(self, small_products, rng):
        """Per-batch-index RNG seeding: results don't depend on scheduling."""
        batches = [
            rng.choice(small_products.num_nodes, size=8, replace=False)
            for _ in range(6)
        ]
        results = {}
        for workers in (1, 3):
            pipeline, _, _ = make_pool(small_products, num_workers=workers, seed=7)
            results[workers] = {p.index: p for p in drain(pipeline, batches)}
        for i in range(6):
            a, b = results[1][i].device_batch, results[3][i].device_batch
            np.testing.assert_array_equal(a.mfg.n_id, b.mfg.n_id)
            np.testing.assert_array_equal(a.xs.data, b.xs.data)

    def test_sliced_content_correct(self, small_products, rng):
        pipeline, _, store = make_pool(small_products)
        batches = [rng.choice(small_products.num_nodes, size=16, replace=False)]
        batch = drain(pipeline, batches)[0].device_batch
        np.testing.assert_array_equal(
            batch.xs.data, store.features[batch.mfg.n_id].astype(batch.xs.data.dtype)
        )
        np.testing.assert_array_equal(
            batch.ys.data, store.labels[batch.mfg.target_ids()]
        )

    def test_single_worker_preserves_order(self, small_products, rng):
        pipeline, _, _ = make_pool(small_products, num_workers=1)
        batches = [
            rng.choice(small_products.num_nodes, size=8, replace=False)
            for _ in range(5)
        ]
        prepared = drain(pipeline, batches)
        assert [p.index for p in prepared] == list(range(5))

    def test_pinned_buffers_all_recycled(self, small_products, rng):
        pipeline, pool, _ = make_pool(small_products, prefetch=2)
        batches = [
            rng.choice(small_products.num_nodes, size=16, replace=False)
            for _ in range(8)
        ]
        prepared = drain(pipeline, batches)
        assert all(p.buffer is None for p in prepared)  # released exactly once
        assert pool.free_slots() == pool.total_slots

    def test_overflow_falls_back_to_fresh_allocation(self, small_products, rng):
        tiny_pinned = PinnedBufferPool(
            2, max_rows=4, num_features=small_products.num_features, max_batch=32
        )  # too small for any real MFG
        pipeline, _, _ = make_pool(
            small_products, num_workers=1, pinned_pool=tiny_pinned
        )
        batches = [rng.choice(small_products.num_nodes, size=16, replace=False)]
        prepared = drain(pipeline, batches)
        assert prepared[0].sliced.pinned_slot is None
        assert pipeline.ctx.metrics.value("pool_overflow_batches") == 1
        assert tiny_pinned.free_slots() == tiny_pinned.total_slots
        prepared[0].sliced.validate()

    def test_works_without_pinned_pool(self, small_products, rng):
        pipeline, _, _ = make_pool(small_products, pinned=False)
        batches = [rng.choice(small_products.num_nodes, size=8, replace=False)]
        prepared = drain(pipeline, batches)
        assert prepared[0].sliced.pinned_slot is None
        assert pipeline.ctx.metrics.value("pool_overflow_batches") == 0

    def test_invalid_worker_count(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        with pytest.raises(ValueError):
            PrepareStage(
                lambda: FastNeighborSampler(small_products.graph, [3]),
                store,
                workers=0,
            )


class TestPoolCounters:
    def test_pool_aggregates_sampler_and_slice_telemetry(self, small_products, rng):
        pipeline, _, _ = make_pool(small_products, num_workers=2)
        batches = [
            rng.choice(small_products.num_nodes, size=32, replace=False)
            for _ in range(6)
        ]
        drain(pipeline, batches)
        # Workers attach their arena samplers to the pipeline's registry
        # and slice through it, so one registry tells the whole story.
        metrics = pipeline.ctx.metrics
        assert metrics.value("sampler_batches") == 6
        assert metrics.get("slice_rows").count == 6
        assert metrics.value("slice_pinned_batches") == 6
        assert metrics.value("slice_bytes", pinned="yes") > 0
        assert metrics.value("arena_grows") > 0

    def test_external_counters_instance_is_used(self, small_products, rng):
        shared = MetricsRegistry()
        pipeline, _, _ = make_pool(
            small_products, num_workers=1, pinned=False, metrics=shared
        )
        batches = [rng.choice(small_products.num_nodes, size=16, replace=False)]
        drain(pipeline, batches)
        assert shared is pipeline.ctx.metrics
        assert shared.value("sampler_batches") == 1
