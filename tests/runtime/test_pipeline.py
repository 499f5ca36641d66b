"""Executors: serial-vs-pipelined equivalence and stats accounting."""

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.models import GraphSAGE
from repro.nn import Adam
from repro.runtime import (
    Device,
    PipelinedExecutor,
    SerialExecutor,
    Tracer,
    render_timeline,
)
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore
from repro.tensor import Tensor, functional as F


@pytest.fixture(scope="module")
def setup():
    dataset = generate_dataset("arxiv", scale=0.25, seed=3)
    store = FeatureStore(dataset.features, dataset.labels)
    rng = np.random.default_rng(0)
    batches = [
        rng.choice(dataset.split.train, size=32, replace=False) for _ in range(6)
    ]
    return dataset, store, batches


def make_train_fn(dataset, seed=0):
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

    return train_fn, model


class TestSerialExecutor:
    def test_epoch_runs_all_batches(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = SerialExecutor(
            FastNeighborSampler(dataset.graph, [5, 3]), store, device, seed=0
        )
        train_fn, _ = make_train_fn(dataset)
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert stats.num_batches == len(batches)
        assert len(stats.losses) == len(batches)
        assert stats.epoch_time > 0
        # serial: every stage accounted on the main thread
        assert stats.sample_time > 0 and stats.slice_time > 0
        assert stats.train_time > 0

    def test_breakdown_fractions_sum_below_one(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = SerialExecutor(
            FastNeighborSampler(dataset.graph, [5, 3]), store, device, seed=0
        )
        train_fn, _ = make_train_fn(dataset)
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        fractions = stats.breakdown()
        assert 0.5 < sum(fractions.values()) <= 1.01

    def test_bytes_transferred_reset_per_epoch(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = SerialExecutor(
            FastNeighborSampler(dataset.graph, [5, 3]), store, device, seed=0
        )
        train_fn, _ = make_train_fn(dataset)
        s1 = executor.run_epoch(batches, train_fn)
        s2 = executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert abs(s1.bytes_transferred - s2.bytes_transferred) < 0.2 * s1.bytes_transferred


class TestPipelinedExecutor:
    def test_losses_match_serial_with_one_worker(self, setup):
        """Single prep worker preserves batch order, so the pipelined run is
        numerically identical to the serial baseline (same RNG per batch)."""
        dataset, store, batches = setup

        device_a = Device()
        serial = SerialExecutor(
            FastNeighborSampler(dataset.graph, [5, 3]), store, device_a, seed=9
        )
        fn_a, model_a = make_train_fn(dataset, seed=4)
        stats_a = serial.run_epoch(batches, fn_a)
        device_a.shutdown()

        device_b = Device()
        pipelined = PipelinedExecutor(
            lambda: FastNeighborSampler(dataset.graph, [5, 3]),
            store,
            device_b,
            num_workers=1,
            max_batch_hint=32,
            seed=9,
        )
        fn_b, model_b = make_train_fn(dataset, seed=4)
        stats_b = pipelined.run_epoch(batches, fn_b)
        device_b.shutdown()

        np.testing.assert_allclose(stats_a.losses, stats_b.losses, rtol=1e-5)
        for (na, pa), (nb, pb) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert na == nb
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-5)

    def test_multi_worker_processes_all_batches(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = PipelinedExecutor(
            lambda: FastNeighborSampler(dataset.graph, [5, 3]),
            store,
            device,
            num_workers=3,
            max_batch_hint=32,
            seed=0,
        )
        train_fn, _ = make_train_fn(dataset)
        stats = executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert stats.num_batches == len(batches)

    def test_pinned_buffers_recycled_across_epochs(self, setup):
        dataset, store, batches = setup
        device = Device()
        executor = PipelinedExecutor(
            lambda: FastNeighborSampler(dataset.graph, [5, 3]),
            store,
            device,
            num_workers=2,
            pinned_slots=2,
            max_batch_hint=32,
            seed=0,
        )
        train_fn, _ = make_train_fn(dataset)
        for _ in range(3):
            executor.run_epoch(batches, train_fn)
        device.shutdown()
        assert executor.pinned_pool.free_slots() == executor.pinned_pool.total_slots

    def test_trace_records_all_stages(self, setup):
        dataset, store, batches = setup
        tracer = Tracer()
        device = Device()
        executor = PipelinedExecutor(
            lambda: FastNeighborSampler(dataset.graph, [5, 3]),
            store,
            device,
            num_workers=2,
            max_batch_hint=32,
            tracer=tracer,
            seed=0,
        )
        train_fn, _ = make_train_fn(dataset)
        executor.run_epoch(batches, train_fn)
        device.shutdown()
        stages = {e.name for e in tracer.events}
        assert stages == {"sample", "slice", "plan_build", "transfer", "train"}
        rendered = render_timeline(tracer)
        assert "gpu" in rendered and "dma" in rendered

    def test_transfer_overlaps_compute(self, setup):
        """The transfer of batch i+1 runs while batch i computes (the
        Figure 1(b) overlap), read from trace spans rather than wall-clock
        so that CPU contention cannot flip it.  The serial policy, which
        transfers inline on the caller, shows no such overlap.  The
        wall-clock speedup claim lives in BENCH_pipeline.json."""
        dataset, store, batches = setup
        # A metered transfer of tens of milliseconds per batch: far longer
        # than the caller's wake-up between "transfer i done" and "compute
        # i starts", which is the only window in which i+1 could finish.
        bandwidth = 5e6

        def overlapping_pairs(executor_cls, **kwargs):
            tracer = Tracer()
            device = Device(transfer_bandwidth=bandwidth)
            executor = executor_cls(store=store, device=device, tracer=tracer,
                                    seed=0, **kwargs)
            fn, _ = make_train_fn(dataset)
            executor.run_epoch(batches, fn)
            device.shutdown()
            spans = {(e.name, e.batch): e for e in tracer.events}
            pairs = 0
            for i in range(len(batches) - 1):
                train, transfer = spans[("train", i)], spans[("transfer", i + 1)]
                if transfer.start < train.end and train.start < transfer.end:
                    pairs += 1
            return pairs

        serial = overlapping_pairs(
            SerialExecutor, sampler=FastNeighborSampler(dataset.graph, [5, 3])
        )
        # One prepare worker: batches arrive, and so are submitted to the
        # transfer stream, in index order (with more workers a later batch
        # may legitimately be the one in flight during compute i).
        pipelined = overlapping_pairs(
            PipelinedExecutor,
            sampler_factory=lambda: FastNeighborSampler(dataset.graph, [5, 3]),
            num_workers=1,
            max_batch_hint=32,
        )
        assert serial == 0
        assert pipelined == len(batches) - 1
