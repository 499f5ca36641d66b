"""Tier-parity contract: the storage tier must never change training.

The tiered feature store (ISSUE 10) swaps where feature bytes live — RAM,
an on-disk memmap slab, or uint8 codes — behind the same slicing contract.
These tests pin the guarantee the BENCH_feature_tier parity section
records: per seed, ram and mmap produce byte-identical loss traces under
every thread policy (``serial``, the default ``pipelined``, ``staged``)
and the multiprocess executor, quantized drift stays bounded, and worker
processes reopen the slab read-only without copy-on-write growth.
"""

import numpy as np
import pytest

from repro.datasets import write_dataset_slab
from repro.datasets.slab import dataset_slab_path
from repro.runtime import SharedDataset
from repro.slicing import FeatureStore, MemmapFeatureStore
from repro.train import Trainer
from repro.train.config import ExperimentConfig


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset="arxiv",
        model="sage",
        num_layers=2,
        hidden_channels=16,
        train_fanouts=(6, 4),
        infer_fanouts=(6, 6),
        batch_size=64,
    )


def _losses(dataset, slab_dir, **kw):
    trainer = Trainer(
        dataset, _config(), seed=11, slab_dir=slab_dir / "slabs", **kw
    )
    try:
        stats = trainer.train_epoch(0)
        assert stats.num_batches > 1
        return stats.losses
    finally:
        trainer.shutdown()


@pytest.fixture(scope="module")
def ram_losses(tiny_dataset, tmp_path_factory):
    return _losses(tiny_dataset, tmp_path_factory.mktemp("ram"))


class TestTrainingParity:
    @pytest.mark.parametrize("executor", ["serial", "pipelined", "staged"])
    def test_mmap_matches_ram_bitwise(self, tiny_dataset, tmp_path, executor):
        ram = _losses(tiny_dataset, tmp_path, executor=executor)
        mmap = _losses(tiny_dataset, tmp_path, feature_tier="mmap", executor=executor)
        assert mmap == ram

    def test_tiered_hot_rows_do_not_change_losses(
        self, tiny_dataset, tmp_path, ram_losses
    ):
        losses = _losses(
            tiny_dataset, tmp_path, feature_tier="mmap", hot_rows=100
        )
        assert losses == ram_losses

    def test_mmap_matches_ram_bitwise_multiprocess(
        self, tiny_dataset, tmp_path, ram_losses
    ):
        losses = _losses(
            tiny_dataset,
            tmp_path,
            feature_tier="mmap",
            executor="multiprocess",
            prepare_workers=2,
            mp_start_method="fork",
        )
        assert losses == ram_losses

    def test_quantized_loss_drift_bounded(self, tiny_dataset, tmp_path, ram_losses):
        """Quantization perturbs the loss, but only slightly.

        This 6-batch tiny-dataset epoch is noisier than the bench scale;
        the strict 1e-2 bound lives in the committed artifact's parity
        section, enforced by ``check_bench_json`` and the bench contract.
        """
        losses = _losses(tiny_dataset, tmp_path, feature_tier="mmap-quant")
        delta = abs(float(np.mean(losses)) - float(np.mean(ram_losses)))
        assert 0 < delta < 0.1

    def test_unknown_tier_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="feature tier"):
            Trainer(tiny_dataset, _config(), feature_tier="ssd")

    def test_stale_slab_detected(self, tiny_dataset, small_products, tmp_path):
        """Slab paths key on dataset name; reusing a directory holding the
        same name at another scale must fail loudly, not train on stale
        features."""
        slab_dir = tmp_path / "slabs"
        slab_dir.mkdir()
        write_dataset_slab(
            small_products, dataset_slab_path(slab_dir, tiny_dataset.name, "raw")
        )
        with pytest.raises(ValueError, match="nodes"):
            Trainer(
                tiny_dataset,
                _config(),
                feature_tier="mmap",
                slab_dir=slab_dir,
            )


class TestWorkerAttach:
    @pytest.fixture()
    def slab_store(self, tmp_path, tiny_dataset):
        path = dataset_slab_path(tmp_path, tiny_dataset.name, "raw")
        write_dataset_slab(tiny_dataset, path)
        return MemmapFeatureStore(path)

    def test_shared_dataset_spec_carries_store_spec(self, tiny_dataset, slab_store):
        shared = SharedDataset.create(tiny_dataset.graph, slab_store)
        try:
            spec = shared.spec()
            assert spec["store"] == slab_store.mmap_spec()
        finally:
            shared.close()
            shared.unlink()

    def test_reopened_worker_store_is_read_only(self, tiny_dataset, slab_store):
        """Workers map the slab ``mode="r"``: the pages are shared with
        every other process and can never be copied on write."""
        shared = SharedDataset.create(tiny_dataset.graph, slab_store)
        try:
            attached = SharedDataset.attach(shared.spec())
            worker_store = attached.store
            assert isinstance(worker_store, MemmapFeatureStore)
            assert worker_store._features.mode == "r"
            with pytest.raises(ValueError):
                worker_store._features[0, 0] = 1.0
            ids = np.arange(16)
            np.testing.assert_array_equal(
                worker_store.slice_features(ids), slab_store.slice_features(ids)
            )
        finally:
            shared.close()
            shared.unlink()

    def test_ram_store_still_travels_through_shm(self, tiny_dataset):
        """The pre-tier path is unchanged: an in-RAM store copies its
        arrays into the shared arena and attaches without a spec."""
        store = FeatureStore(tiny_dataset.features, tiny_dataset.labels)
        shared = SharedDataset.create(tiny_dataset.graph, store)
        try:
            assert shared.spec()["store"] is None
            attached = SharedDataset.attach(shared.spec())
            np.testing.assert_array_equal(
                attached.store.slice_features(np.arange(8)),
                store.slice_features(np.arange(8)),
            )
        finally:
            shared.close()
            shared.unlink()
