"""The seams the frozen ``perfbench`` harness reads stay in place.

``perfbench`` drives the real :class:`Trainer` and reads it from outside:
``tracing.registry_view(trainer.metrics, trainer.counters)`` for the
registry-backed layers, and attribute patches for the traced ones.  These
tests pin both, so a ``src/`` refactor that breaks the benchmark fails here
instead of only in a benchmark run.
"""

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402

from repro.runtime import mp_prepare  # noqa: E402
from repro.runtime.device import Device  # noqa: E402
from repro.runtime.pinned import PinnedBufferPool  # noqa: E402
from repro.train import Trainer, loop  # noqa: E402
from repro.train.config import ExperimentConfig  # noqa: E402


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


def _one_epoch_view(trainer):
    try:
        stats = trainer.train_epoch(0)
        return stats, tracing.registry_view(trainer.metrics, trainer.counters)
    finally:
        trainer.shutdown()


def test_pipelined_counters_view(tiny_dataset):
    trainer = Trainer(tiny_dataset, _config(), executor="pipelined", seed=3)
    stats, view = _one_epoch_view(trainer)
    assert stats.num_batches > 1
    assert view["counters.pipeline_batches"] == stats.num_batches
    assert view["counters.pinned_acquires"] == view["counters.pinned_releases"]


def test_multiprocess_spill_counters_view(tiny_dataset, monkeypatch):
    # Slots too small for any batch: every batch spills through the
    # counted pickle fallback (sizing happens in the parent).
    monkeypatch.setattr(mp_prepare, "estimate_max_rows", lambda *args: 8)
    trainer = Trainer(
        tiny_dataset,
        _config(),
        executor="multiprocess",
        prepare_workers=2,
        mp_start_method="fork",
        seed=3,
    )
    stats, view = _one_epoch_view(trainer)
    assert view["counters.pipeline_batches"] == stats.num_batches
    assert view["counters.mp_slot_overflow_batches"] > 0


def test_patch_targets_exist(tiny_dataset):
    assert "metrics" in inspect.signature(loop.sampled_inference).parameters
    assert callable(mp_prepare.decode_mfg)
    assert callable(PinnedBufferPool.acquire)
    assert callable(Device.transfer_batch)
    trainer = Trainer(tiny_dataset, _config(), executor="pipelined", seed=3)
    patches = tracing.Patches()
    rec = tracing.SpanRecorder()
    try:
        tracing.install_layer_wrappers(rec, trainer, patches)
        rec.epoch = "0"
        trainer.train_epoch(0)
        trainer.predict(tiny_dataset.split.val[:32])
    finally:
        patches.undo()
        trainer.shutdown()
    names = {span.name for span in rec.spans}
    for name in ("sampling.sample", "pinned.acquire", "transfer.transfer_batch",
                 "model.forward", "optim.step", "infer.pass"):
        assert name in names, name
    assert rec.infer_metrics.value("pipeline_batches") == pytest.approx(1)
    assert rec.counts["sampling.nodes"] > 0
