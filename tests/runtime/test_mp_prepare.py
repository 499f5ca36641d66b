"""Multiprocess prepare executor: determinism, failure handling, telemetry.

The de-simulation contract (ISSUE 9): worker *processes* sampling and
slicing over shared memory must be indistinguishable from the in-process
executors — byte-identical per-batch losses for a shared seed, the same
StageError cancellation on failure (including a worker killed mid-epoch),
and every pinned slot back in the pool afterwards.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.models import GraphSAGE
from repro.nn import Adam
from repro.runtime import (
    Device,
    MultiprocessExecutor,
    StageError,
    WorkerCrashed,
    build_pipeline,
    estimate_max_rows,
)
from repro.runtime.mp_prepare import MultiprocessPreparePool, estimate_mfg_capacity
from repro.runtime.shm import mfg_ints_needed
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F

FANOUTS = [5, 3]


@pytest.fixture(scope="module")
def setup():
    dataset = generate_dataset("arxiv", scale=0.25, seed=3)
    store = FeatureStore(dataset.features, dataset.labels)
    rng = np.random.default_rng(0)
    batches = [
        rng.choice(dataset.split.train, size=32, replace=False) for _ in range(6)
    ]
    return dataset, store, batches


def make_train_fn(dataset, seed=4):
    model = GraphSAGE(
        dataset.num_features, 32, dataset.num_classes, num_layers=2,
        rng=np.random.default_rng(seed),
    )
    optimizer = Adam(model.parameters(), lr=1e-2)

    def train_fn(device_batch):
        model.train()
        optimizer.zero_grad()
        out = model(Tensor(device_batch.xs.data), device_batch.mfg.adjs)
        loss = F.nll_loss(out, device_batch.ys.data)
        loss.backward()
        optimizer.step()
        return loss.item()

    return train_fn


def serial_losses(setup, seed=9):
    dataset, store, batches = setup
    device = Device()
    executor = build_pipeline(
        "serial",
        lambda: FastNeighborSampler(dataset.graph, FANOUTS),
        FANOUTS,
        store,
        device,
        seed=seed,
    )
    stats = executor.run_epoch(batches, make_train_fn(dataset))
    device.shutdown()
    return stats.losses


class MPRun:
    """The ``"multiprocess"`` pipeline plus the shared-memory owner it
    runs over: ``run_epoch``/``metrics`` come from the pipeline,
    ``pinned_pool``/``client``/``close`` from the owner."""

    def __init__(self, shared, pipeline):
        self.shared, self.pipeline = shared, pipeline
        self.pinned_pool, self.client = shared.pinned_pool, shared.client
        self.metrics = pipeline.ctx.metrics
        self.run_epoch, self.close = pipeline.run_epoch, shared.close


def mp_executor(setup, **kwargs):
    dataset, store, _ = setup
    device = Device()
    defaults = dict(
        num_workers=2,
        max_batch_hint=32,
        start_method="fork",  # spawn is exercised separately; fork is fast
    )
    defaults.update(kwargs)
    shared = MultiprocessExecutor(dataset.graph, store, FANOUTS, **defaults)
    pipeline = build_pipeline(
        "multiprocess", None, FANOUTS, store, device, seed=9, shared=shared
    )
    return MPRun(shared, pipeline), device


class TestDeterminism:
    def test_losses_bitwise_identical_to_serial(self, setup):
        expected = serial_losses(setup)
        executor, device = mp_executor(setup)
        try:
            stats = executor.run_epoch(setup[2], make_train_fn(setup[0]))
        finally:
            executor.close()
            device.shutdown()
        assert stats.losses == expected
        assert stats.num_batches == len(setup[2])

    def test_spawn_start_method(self, setup):
        """The documented (portable) start method: slower to boot, same
        bytes out."""
        expected = serial_losses(setup)[:3]
        executor, device = mp_executor(setup, num_workers=1, start_method="spawn")
        try:
            stats = executor.run_epoch(setup[2][:3], make_train_fn(setup[0]))
        finally:
            executor.close()
            device.shutdown()
        assert stats.losses == expected

    def test_worker_count_does_not_change_results(self, setup):
        losses = []
        for workers in (1, 3):
            executor, device = mp_executor(setup, num_workers=workers)
            try:
                stats = executor.run_epoch(setup[2], make_train_fn(setup[0]))
            finally:
                executor.close()
                device.shutdown()
            losses.append(stats.losses)
        assert losses[0] == losses[1]

    def test_spill_path_matches_serial(self, setup):
        """Slots sized too small force the (counted) pickle fallback for
        features and MFG alike — results must not change."""
        expected = serial_losses(setup)
        executor, device = mp_executor(setup, max_rows_hint=8)
        try:
            stats = executor.run_epoch(setup[2], make_train_fn(setup[0]))
            assert executor.metrics.value("mp_slot_overflow_batches") > 0
        finally:
            executor.close()
            device.shutdown()
        assert stats.losses == expected


class TestFailureHandling:
    def test_worker_exception_propagates_as_stage_error(self, setup):
        dataset, store, batches = setup
        poisoned = list(batches)
        # out-of-range node ids blow up inside the worker's slice step
        poisoned[2] = np.array([dataset.num_nodes + 5], dtype=np.int64)
        executor, device = mp_executor(setup)
        try:
            with pytest.raises(StageError) as excinfo:
                executor.run_epoch(poisoned, make_train_fn(dataset))
            assert excinfo.value.stage == "prepare"
            # cancellation must have returned every pinned slot
            pool = executor.pinned_pool
            assert pool.free_slots() == pool.total_slots
            # the pool is still healthy: a clean epoch runs afterwards
            stats = executor.run_epoch(batches, make_train_fn(dataset))
            assert stats.num_batches == len(batches)
        finally:
            executor.close()
            device.shutdown()

    def test_worker_killed_mid_epoch_releases_all_slots(self, setup):
        """SIGKILL a worker process: the liveness watchdog must fail the
        pending futures (WorkerCrashed), the pipeline must cancel with a
        StageError, and every pinned slot must return to the pool."""
        dataset, store, batches = setup
        executor, device = mp_executor(setup, num_workers=1)
        try:
            victim = executor.client.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(StageError) as excinfo:
                executor.run_epoch(batches, make_train_fn(dataset))
            assert isinstance(excinfo.value.original, WorkerCrashed)
            pool = executor.pinned_pool
            assert pool.free_slots() == pool.total_slots
            # a broken pool refuses new work instead of hanging
            with pytest.raises(WorkerCrashed):
                executor.client.submit(0, batches[0], [9, 0], 0)
        finally:
            executor.close()
            device.shutdown()

    def test_close_is_idempotent(self, setup):
        executor, device = mp_executor(setup, num_workers=1)
        executor.close()
        executor.close()
        device.shutdown()


class TestTelemetry:
    def test_per_worker_busy_metrics_recorded(self, setup):
        executor, device = mp_executor(setup)
        try:
            executor.run_epoch(setup[2], make_train_fn(setup[0]))
            snapshot = executor.metrics.snapshot()
            batches_per_worker = [
                entry
                for entry in snapshot
                if entry["name"] == "mp_batches"
            ]
            assert sum(e["value"] for e in batches_per_worker) == len(setup[2])
            busy = [
                entry
                for entry in snapshot
                if entry["name"] == "mp_worker_busy_seconds"
            ]
            assert busy and all(e["sum"] > 0 for e in busy)
            # dispatch overhead is tracked separately from worker busy time
            assert executor.metrics.value("mp_result_wait_seconds") >= 0.0
        finally:
            executor.close()
            device.shutdown()

    def test_busy_workers_probe(self, setup):
        executor, device = mp_executor(setup, num_workers=1)
        try:
            assert executor.client.busy_workers() == 0.0
            assert executor.client.utilization() == 0.0
        finally:
            executor.close()
            device.shutdown()


class TestCapacityBound:
    def test_bound_covers_sampled_batches(self, setup):
        dataset, _, batches = setup
        sampler = FastNeighborSampler(dataset.graph, FANOUTS)
        max_rows = estimate_max_rows(FANOUTS, 32, dataset.num_nodes)
        capacity = estimate_mfg_capacity(dataset.graph, FANOUTS, 32, max_rows)
        for i, nodes in enumerate(batches):
            mfg = sampler.sample(nodes, np.random.default_rng(i))
            assert mfg_ints_needed(mfg) <= capacity
            assert len(mfg.n_id) <= max_rows

    def test_none_fanout_caps_at_graph_edges(self, setup):
        dataset, _, _ = setup
        capacity = estimate_mfg_capacity(dataset.graph, [None, 3], 32, 512)
        assert capacity >= 512 + 2 * dataset.graph.num_edges
