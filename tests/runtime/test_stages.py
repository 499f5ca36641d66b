"""Staged-pipeline runtime: accounting, lifecycle, errors, determinism.

Covers the PR-level guarantees of :mod:`repro.runtime.stages`:

- ``EpochStats.breakdown()`` includes ``prep_wait`` so overlapped-executor
  fractions sum to ~1.0 (regression for the silent under-reporting bug);
- a stage raising mid-epoch surfaces a :class:`StageError` carrying the
  failing batch index, never leaks pinned buffers, and leaves the executor
  reusable;
- envelopes are delivered to compute in batch-index order regardless of
  worker count, so multi-worker runs match serial runs exactly.
"""

import time

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Adam
from repro.runtime import (
    ComputeStage,
    Device,
    EpochStats,
    PinnedBufferPool,
    PrepareStage,
    SampleStage,
    SliceStage,
    StagedPipeline,
    StageError,
    TransferStage,
    build_pipeline,
    estimate_max_rows,
)
from repro.sampling import FastNeighborSampler
from repro.sampling.base import NeighborSamplerBase
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F


def _batches(dataset, count=6, size=16):
    rng = np.random.default_rng(0)
    return [
        rng.choice(dataset.num_nodes, size=size, replace=False) for _ in range(count)
    ]


def _make_train_fn(dataset, seed=0):
    model = build_model(
        "sage",
        dataset.num_features,
        16,
        dataset.num_classes,
        num_layers=2,
        rng=np.random.default_rng(seed),
    )
    optimizer = Adam(model.parameters(), lr=3e-3)

    def fn(batch):
        model.train()
        optimizer.zero_grad()
        loss = F.nll_loss(model(Tensor(batch.xs.data), batch.mfg.adjs), batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return fn


class ArmedSampler(NeighborSamplerBase):
    """Raises once the shared trigger's countdown reaches zero, then only
    while the trigger stays armed (lets a second epoch run clean)."""

    def __init__(self, graph, fanouts, trigger):
        super().__init__(graph, fanouts)
        self._inner = FastNeighborSampler(graph, fanouts)
        self.trigger = trigger

    def sample(self, batch_nodes, rng):
        if self.trigger["armed"]:
            self.trigger["remaining"] -= 1
            if self.trigger["remaining"] < 0:
                self.trigger["armed"] = False
                raise RuntimeError("sampler exploded")
        return self._inner.sample(batch_nodes, rng)


# ----------------------------------------------------------------------
# Satellite: breakdown() accounting
# ----------------------------------------------------------------------
class TestBreakdownAccounting:
    def test_breakdown_includes_prep_wait(self):
        """Regression: starvation used to be dropped from the breakdown, so
        pipelined fractions silently summed to well under 1.0."""
        stats = EpochStats(
            epoch_time=2.0,
            sample_time=0.5,
            slice_time=0.3,
            transfer_time=0.4,
            train_time=1.0,
            prep_wait_time=0.6,
            overlapped=True,
        )
        frac = stats.breakdown()
        assert frac["prep_wait"] == pytest.approx(0.3)
        # Off-thread prep is busy time, not caller-blocking time.
        assert frac["batch_prep"] == 0.0
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_storage_bound_attribution_from_mmap_wait(self):
        """The per-epoch mmap-wait delta refines prep-bound to
        storage-bound when slab faults dominate prep seconds."""
        stats = EpochStats(
            epoch_time=10.0,
            sample_time=4.0,
            slice_time=3.0,
            transfer_time=0.5,
            train_time=2.0,
            mmap_wait_s=5.0,
        )
        attr = stats.attribution()
        assert attr.verdict == "storage-bound"
        assert attr.stalls["mmap_wait_s"] == pytest.approx(5.0)
        # Same epoch served from RAM stays plain prep-bound.
        stats.mmap_wait_s = 0.0
        assert stats.attribution().verdict == "prep-bound"

    def test_breakdown_serial_counts_prep_as_blocking(self):
        stats = EpochStats(
            epoch_time=2.0,
            sample_time=0.5,
            slice_time=0.3,
            transfer_time=0.4,
            train_time=0.8,
            overlapped=False,
        )
        frac = stats.breakdown()
        assert frac["batch_prep"] == pytest.approx(0.4)
        assert frac["prep_wait"] == 0.0
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_pipelined_epoch_fractions_sum_to_one(self, small_products):
        """On a real overlapped epoch the blocking fractions must account
        for (almost) the whole wall time."""
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        executor = build_pipeline(
            "pipelined",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            [5, 3],
            store,
            device,
            max_batch=16,
        )

        def slow_train(batch):
            time.sleep(0.005)
            return 0.0

        stats = executor.run_epoch(_batches(small_products, count=8), slow_train)
        device.shutdown()
        assert stats.overlapped
        total = sum(stats.breakdown().values())
        assert 0.5 < total <= 1.05


# ----------------------------------------------------------------------
# Lifecycle: start / next_envelope / drain, delivery order
# ----------------------------------------------------------------------
class TestLifecycle:
    def _prepare_pipeline(self, dataset, depth, workers=1):
        store = FeatureStore(dataset.features, dataset.labels)
        return StagedPipeline(
            [
                PrepareStage(
                    lambda: FastNeighborSampler(dataset.graph, [5, 3]),
                    store,
                    workers=workers,
                )
            ],
            prefetch_depth=depth,
            seed=3,
        )

    @pytest.mark.parametrize("depth,workers", [(0, 1), (2, 1), (2, 3)])
    def test_envelopes_delivered_in_index_order(self, small_products, depth, workers):
        pipeline = self._prepare_pipeline(small_products, depth, workers)
        run = pipeline.start(_batches(small_products, count=7))
        indices = []
        while True:
            env = run.next_envelope()
            if env is None:
                break
            assert env.sliced is not None
            indices.append(env.index)
        run.drain()
        assert indices == list(range(7))

    def test_externally_driven_run_matches_inline(self, small_products):
        """start() consumers (the DDP barrier loop) see the same batches as
        the inline policy."""
        inline = self._prepare_pipeline(small_products, 0)
        overlapped = self._prepare_pipeline(small_products, 3, workers=2)
        batches = _batches(small_products, count=5)
        run_a, run_b = inline.start(batches), overlapped.start(batches)
        while True:
            env_a, env_b = run_a.next_envelope(), run_b.next_envelope()
            assert (env_a is None) == (env_b is None)
            if env_a is None:
                break
            np.testing.assert_array_equal(env_a.sliced.mfg.n_id, env_b.sliced.mfg.n_id)
            np.testing.assert_array_equal(env_a.sliced.xs, env_b.sliced.xs)
        run_a.drain()
        run_b.drain()

    def test_bounded_queues_enforce_prefetch_depth(self, small_products):
        pipeline = self._prepare_pipeline(small_products, 2)
        run = pipeline.start(_batches(small_products, count=6))
        assert all(q.capacity == 2 for q in run.queues)
        while run.next_envelope() is not None:
            pass
        run.drain()

    def test_compute_stage_required_for_run_epoch(self, small_products):
        pipeline = self._prepare_pipeline(small_products, 0)
        with pytest.raises(ValueError, match="ComputeStage"):
            pipeline.run_epoch(_batches(small_products))


# ----------------------------------------------------------------------
# Satellite: exception safety
# ----------------------------------------------------------------------
def _two_slot_pipeline(dataset, sampler_factory, store, device, staged=True, workers=2):
    """The staged (or pipelined) policy over a 2-slot pinned pool, so
    backpressure engages within a few batches."""
    pool = PinnedBufferPool(
        2,
        max_rows=estimate_max_rows([5, 3], 16, dataset.num_nodes),
        num_features=store.num_features,
        max_batch=16,
    )
    if staged:
        prepare = [
            SampleStage(sampler_factory, workers=workers),
            SliceStage(store, pinned_pool=pool),
        ]
    else:
        prepare = [PrepareStage(sampler_factory, store, pinned_pool=pool, workers=workers)]
    pipeline = StagedPipeline(
        prepare + [TransferStage(device), ComputeStage()],
        prefetch_depth=4,
        metrics=pool.metrics,
    )
    return pipeline, pool


class TestErrorPropagation:
    def _staged_executor(self, dataset, trigger, num_workers):
        store = FeatureStore(dataset.features, dataset.labels)
        device = Device()
        factory = lambda: ArmedSampler(dataset.graph, [5, 3], trigger)  # noqa: E731
        executor, pool = _two_slot_pipeline(
            dataset, factory, store, device, workers=num_workers
        )
        return executor, pool, device

    def test_stage_error_names_stage_and_batch_index(self, small_products):
        trigger = {"armed": True, "remaining": 2}
        executor, _, device = self._staged_executor(
            small_products, trigger, num_workers=1
        )
        with pytest.raises(StageError) as excinfo:
            executor.run_epoch(_batches(small_products), lambda b: 0.0)
        device.shutdown()
        assert excinfo.value.stage == "sample"
        assert excinfo.value.batch_index == 2
        assert "exploded" in str(excinfo.value)
        assert isinstance(excinfo.value.original, RuntimeError)

    def test_stage_error_releases_all_pinned_buffers(self, small_products):
        trigger = {"armed": True, "remaining": 3}
        executor, pool, device = self._staged_executor(
            small_products, trigger, num_workers=2
        )
        with pytest.raises(StageError):
            executor.run_epoch(_batches(small_products, count=8), lambda b: 0.0)
        deadline = time.time() + 5
        while pool.free_slots() < pool.total_slots and time.time() < deadline:
            time.sleep(0.01)
        device.shutdown()
        assert pool.free_slots() == pool.total_slots
        counts = executor.ctx.metrics.counter_values()
        assert counts.get("pinned_acquires", 0) == counts.get("pinned_releases", 0)

    def test_compute_error_releases_all_pinned_buffers(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        device = Device()
        executor, pool = _two_slot_pipeline(
            small_products,
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            store,
            device,
            staged=False,
        )

        def diverge(batch):
            if batch.batch_index >= 1:
                raise ValueError("loss diverged")
            return 0.0

        with pytest.raises(ValueError, match="diverged"):
            executor.run_epoch(_batches(small_products, count=8), diverge)
        deadline = time.time() + 5
        while pool.free_slots() < pool.total_slots and time.time() < deadline:
            time.sleep(0.01)
        device.shutdown()
        assert pool.free_slots() == pool.total_slots
        counts = executor.ctx.metrics.counter_values()
        assert counts.get("pinned_acquires", 0) == counts.get("pinned_releases", 0)

    def test_executor_reusable_after_stage_error(self, small_products):
        trigger = {"armed": True, "remaining": 2}
        executor, pool, device = self._staged_executor(
            small_products, trigger, num_workers=2
        )
        batches = _batches(small_products, count=6)
        with pytest.raises(StageError):
            executor.run_epoch(batches, lambda b: 0.0)
        deadline = time.time() + 5
        while pool.free_slots() < pool.total_slots and time.time() < deadline:
            time.sleep(0.01)
        stats = executor.run_epoch(batches, lambda b: 0.0)
        device.shutdown()
        assert stats.num_batches == 6
        assert executor.ctx.metrics.value("pipeline_cancelled") >= 1
        assert executor.ctx.metrics.value("pipeline_stage_errors") == 1


# ----------------------------------------------------------------------
# Determinism across policies
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_multiworker_staged_matches_serial(self, small_products):
        store = FeatureStore(small_products.features, small_products.labels)
        batches = _batches(small_products, count=6)

        device = Device()
        serial = build_pipeline(
            "serial",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            [5, 3],
            store,
            device,
        )
        serial_stats = serial.run_epoch(batches, _make_train_fn(small_products))
        device.shutdown()

        device = Device()
        staged = build_pipeline(
            "staged",
            lambda: FastNeighborSampler(small_products.graph, [5, 3]),
            [5, 3],
            store,
            device,
            num_workers=3,
            max_batch=16,
        )
        staged_stats = staged.run_epoch(batches, _make_train_fn(small_products))
        device.shutdown()

        assert serial_stats.losses == staged_stats.losses

    def test_custom_rng_entries_policy(self, small_products):
        """Two pipelines with the same rng_entries policy produce identical
        MFGs even when batch indices differ (the inference cursor contract)."""
        store = FeatureStore(small_products.features, small_products.labels)

        def make(entries):
            return StagedPipeline(
                [
                    SampleStage(lambda: FastNeighborSampler(small_products.graph, [4])),
                    SliceStage(store),
                    ComputeStage(name="infer"),
                ],
                rng_entries=entries,
                seed=9,
            )

        nodes = _batches(small_products, count=1)[0]
        seen = []
        make(lambda i: [9, 5]).run_epoch(
            [nodes], lambda s: 0.0, on_result=lambda e: seen.append(e.sliced.mfg.n_id)
        )
        make(lambda i: [9, i + 5]).run_epoch(
            [nodes], lambda s: 0.0, on_result=lambda e: seen.append(e.sliced.mfg.n_id)
        )
        np.testing.assert_array_equal(seen[0], seen[1])
