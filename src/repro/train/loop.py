"""Training entry point wiring datasets, samplers, pipelines and models.

``Trainer`` is the single-GPU workflow of Listing 1 / Figure 1 under any
executor policy of :func:`~repro.runtime.pipeline.build_pipeline`;
``repro.train.ddp`` scales it to multiple simulated GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from ..datasets.synthetic import Dataset
from ..models.architectures import build_model
from ..nn.module import Module
from ..nn.optim import Adam, Optimizer
from ..runtime.device import Device, DeviceBatch
from ..runtime.mp_prepare import MultiprocessExecutor
from ..runtime.pipeline import EXECUTORS, build_pipeline
from ..runtime.stages import EpochStats
from ..telemetry.monitor import ProbeSampler
from ..telemetry.tracer import Tracer
from ..sampling.base import BatchIterator, NeighborSamplerBase
from ..sampling.fast_sampler import FastNeighborSampler
from ..sampling.pyg_sampler import PyGNeighborSampler
from ..slicing.store import FeatureStore
from ..telemetry import MetricsRegistry, RunReport
from ..tensor import Tensor, Workspace, functional as F, workspace_scope
from .config import ExperimentConfig
from .inference import sampled_inference
from .metrics import accuracy

__all__ = ["Trainer", "TrainResult"]


@dataclass
class TrainResult:
    """History of one training run."""

    epoch_stats: list[EpochStats] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(s.epoch_time for s in self.epoch_stats)

    def final_loss(self) -> float:
        losses = self.epoch_stats[-1].losses if self.epoch_stats else []
        return float(np.mean(losses)) if losses else float("nan")


class Trainer:
    """Mini-batch GNN training with neighborhood sampling.

    Parameters
    ----------
    dataset:
        A :class:`repro.datasets.Dataset`.
    config:
        Hyperparameters (Table 5 row).
    executor:
        ``"serial"`` — the baseline PyG workflow; ``"pipelined"`` — SALIENT
        (fused prepare workers); ``"staged"`` — split sample/slice stages;
        ``"multiprocess"`` — prepare runs in worker *processes* over shared
        memory (true multi-core batch prep, Section 4.2 / Table 2).
    sampler:
        ``"fast"`` (SALIENT's sampler) or ``"pyg"`` (the reference one).
    prepare_workers:
        Worker-process count for the multiprocess executor (defaults to
        ``num_workers``); ignored by the thread-based executors.
    infer_executor:
        Executor policy for :meth:`predict`/:meth:`evaluate` (Section 5.4's
        pipelined inference when set to ``"pipelined"``/``"staged"``).
    feature_tier:
        ``"ram"`` (default) — the in-RAM fp16 :class:`FeatureStore`;
        ``"mmap"`` — features live in an on-disk slab opened through a
        :class:`~repro.slicing.memmap_store.TieredFeatureStore` (RAM-hot
        rows for the ``hot_rows`` highest-degree nodes, mmap-cold rest) —
        training results are byte-identical to ``"ram"`` per seed;
        ``"mmap-quant"`` — same hierarchy over uint8 per-channel codes
        with fused dequantize-on-slice (bounded loss delta).
    hot_rows:
        Hot-tier size for the mmap tiers (default ``num_nodes // 8``;
        0 disables the hot tier entirely).  Ignored by ``"ram"``.
    slab_dir:
        Directory holding (or receiving) the feature slab for the mmap
        tiers.  Defaults to a temporary directory removed on
        :meth:`shutdown`; pass an explicit path to reuse slabs across
        runs.
    """

    def __init__(
        self,
        dataset: Dataset,
        config: ExperimentConfig,
        executor: str = "pipelined",
        sampler: str = "fast",
        device: Optional[Device] = None,
        num_workers: int = 2,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        infer_executor: str = "serial",
        probes: Optional[ProbeSampler] = None,
        prepare_workers: Optional[int] = None,
        mp_start_method: str = "spawn",
        feature_tier: str = "ram",
        hot_rows: Optional[int] = None,
        slab_dir=None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}")
        if sampler not in ("fast", "pyg"):
            raise ValueError(f"unknown sampler {sampler!r}")
        if infer_executor not in ("serial", "pipelined", "staged"):
            raise ValueError(f"unknown infer_executor {infer_executor!r}")
        if feature_tier not in ("ram", "mmap", "mmap-quant"):
            raise ValueError(f"unknown feature tier {feature_tier!r}")
        self.dataset = dataset
        self.config = config
        self.seed = seed
        self.device = device or Device()
        self.tracer = tracer or Tracer(enabled=False)
        self.probes = probes if probes is not None and probes.enabled else None
        self.infer_executor = infer_executor
        self.num_workers = num_workers
        self.prepare_workers = prepare_workers or num_workers
        self.feature_tier = feature_tier
        self._slab_tmpdir = None
        if feature_tier == "ram":
            self.store = FeatureStore(dataset.features, dataset.labels)
        else:
            self.store = self._build_tiered_store(
                feature_tier, hot_rows, slab_dir
            )

        model_rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
        self.model: Module = build_model(
            config.model,
            dataset.num_features,
            config.hidden_channels,
            dataset.num_classes,
            num_layers=config.num_layers,
            rng=model_rng,
        )
        self.optimizer: Optimizer = Adam(
            self.model.parameters(), lr=config.lr, weight_decay=config.weight_decay
        )

        self.executor = executor
        self.sampler = sampler
        sampler_cls = FastNeighborSampler if sampler == "fast" else PyGNeighborSampler
        fanouts = list(config.train_fanouts)
        # Multiprocess prepare stages into shared memory this trainer owns
        # (closed by :meth:`shutdown`).
        self._shared = (
            MultiprocessExecutor(
                dataset.graph,
                self.store,
                fanouts,
                num_workers=self.prepare_workers,
                sampler=sampler,
                max_batch_hint=config.batch_size,
                start_method=mp_start_method,
            )
            if executor == "multiprocess"
            else None
        )
        self._pipeline = build_pipeline(
            executor,
            lambda: sampler_cls(dataset.graph, fanouts),
            fanouts,
            self.store,
            self.device,
            num_workers=num_workers,
            max_batch=config.batch_size,
            seed=seed,
            tracer=self.tracer,
            probes=self.probes,
            shared=self._shared,
        )
        # One pool per trainer, shared across batches/epochs; counters land
        # in the pipeline's cumulative registry.
        self._workspace = Workspace(metrics=self.metrics)
        if self.probes is not None:
            self._workspace.register_probes(self.probes)
        # Tiered stores report hit/miss/bytes and mmap-wait into the
        # pipeline's registry (so EpochStats attribution sees them) and
        # expose tier-health probes to the monitor.
        attach = getattr(self.store, "attach_metrics", None)
        if attach is not None:
            attach(self.metrics)
        if self.probes is not None and hasattr(self.store, "register_probes"):
            self.store.register_probes(self.probes)

    def _build_tiered_store(self, feature_tier, hot_rows, slab_dir):
        """Write/reuse the dataset slab and open the tier hierarchy."""
        import tempfile

        from ..datasets.slab import dataset_slab_path, write_dataset_slab
        from ..runtime.feature_cache import hottest_nodes
        from ..slicing.memmap_store import MemmapFeatureStore, TieredFeatureStore

        if slab_dir is None:
            self._slab_tmpdir = tempfile.TemporaryDirectory(prefix="repro-slab-")
            slab_dir = self._slab_tmpdir.name
        encoding = "uint8" if feature_tier == "mmap-quant" else "raw"
        slab_path = dataset_slab_path(slab_dir, self.dataset.name, encoding)
        if not slab_path.exists():
            write_dataset_slab(self.dataset, slab_path, encoding=encoding)
        cold = MemmapFeatureStore(slab_path)
        # Slab paths key on dataset *name*; a reused slab_dir holding the
        # same dataset at a different scale would silently train on stale
        # features. Shape mismatch is the cheap tell.
        if cold.num_nodes != self.dataset.num_nodes:
            raise ValueError(
                f"slab {slab_path} holds {cold.num_nodes} nodes but dataset "
                f"{self.dataset.name!r} has {self.dataset.num_nodes}; "
                "point slab_dir at a fresh directory"
            )
        if hot_rows is None:
            hot_rows = cold.num_nodes // 8
        hot_rows = min(int(hot_rows), cold.num_nodes)
        hot_ids = (
            hottest_nodes(self.dataset.graph, hot_rows)
            if hot_rows > 0
            else np.empty(0, dtype=np.int64)
        )
        return TieredFeatureStore(cold, hot_ids)

    # ------------------------------------------------------------------
    def _train_fn(self) -> Callable[[DeviceBatch], float]:
        model, optimizer, workspace = self.model, self.optimizer, self._workspace

        def step(batch: DeviceBatch) -> float:
            model.train()
            optimizer.zero_grad()
            x = Tensor(batch.xs.data)
            # Forward/backward draw kernel outputs from the step's pool
            # (released on scope exit — nothing on the tape outlives the
            # step: parameter grads are copies).
            with workspace_scope(workspace):
                out = model(x, batch.mfg.adjs)
                loss = F.nll_loss(out, batch.ys.data)
                loss.backward()
            optimizer.step()
            return loss.item()

        return step

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        """Shuffled train-set mini-batches for one epoch (deterministic)."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7, epoch]))
        return list(
            BatchIterator(
                self.dataset.split.train,
                self.config.batch_size,
                shuffle=True,
                rng=rng,
            )
        )

    def train_epoch(self, epoch: int = 0) -> EpochStats:
        return self._pipeline.run_epoch(self.epoch_batches(epoch), self._train_fn())

    @property
    def metrics(self) -> MetricsRegistry:
        """The pipeline's cumulative metric registry (all epochs merged)."""
        return self._pipeline.ctx.metrics

    @property
    def counters(self) -> SimpleNamespace:
        """Read-only view of :attr:`metrics`' unlabelled counters:
        ``counters.snapshot()`` is ``{name: value}``.  Kept for callers
        that read the flat counter ledger through this seam (the
        ``perfbench`` harness reads its ``mp_*_overflow_batches``)."""
        return SimpleNamespace(snapshot=self.metrics.counter_values)

    def build_report(self, result: TrainResult, command: str = "train") -> RunReport:
        """A :class:`RunReport` document for a finished :meth:`fit` run."""
        from dataclasses import asdict

        report = RunReport(
            command=command,
            config={
                **asdict(self.config),
                "executor": self.executor,
                "sampler": self.sampler,
                "num_workers": self.num_workers,
                "prepare_workers": self.prepare_workers,
                "seed": self.seed,
                "feature_tier": self.feature_tier,
            },
        )
        for epoch, stats in enumerate(result.epoch_stats):
            report.add_epoch(stats, epoch)
        if result.val_accuracy:
            report.add_evaluation("val", result.val_accuracy[-1])
        report.attach_metrics(self.metrics)
        report.attach_probes(self.probes)
        return report

    def predict(
        self,
        nodes: np.ndarray,
        fanouts: Optional[Sequence[Optional[int]]] = None,
        seed: int = 1234,
    ) -> np.ndarray:
        """Sampled-inference log-probabilities for ``nodes``."""
        fanouts = list(fanouts) if fanouts is not None else list(self.config.infer_fanouts)
        overlapped = self.infer_executor != "serial"
        return sampled_inference(
            self.model,
            # Tiered stores have no flat ``.features``; sampled_inference
            # accepts store-like objects and slices through the hierarchy.
            getattr(self.store, "features", self.store),
            self.dataset.graph,
            nodes,
            fanouts,
            batch_size=self.config.batch_size,
            seed=seed,
            executor=self.infer_executor,
            # Overlapped inference stages batches through the trainer's
            # device (pinned staging + transfer stream); serial inference
            # keeps the historical host-only path.
            device=self.device if overlapped else None,
            num_workers=self.num_workers,
        )

    def evaluate(
        self,
        split: str = "val",
        fanouts: Optional[Sequence[Optional[int]]] = None,
        seed: int = 1234,
    ) -> float:
        nodes = getattr(self.dataset.split, split)
        log_probs = self.predict(nodes, fanouts=fanouts, seed=seed)
        return accuracy(log_probs, self.dataset.labels[nodes])

    def fit(
        self,
        epochs: Optional[int] = None,
        evaluate_every: int = 0,
        early_stopping_patience: int = 0,
    ) -> TrainResult:
        """Train for up to ``epochs`` epochs.

        Parameters
        ----------
        evaluate_every:
            Evaluate validation accuracy every N epochs (0 disables).
        early_stopping_patience:
            Stop once validation accuracy has not improved for this many
            consecutive evaluations (requires ``evaluate_every > 0``); the
            best-performing parameters are restored before returning.
        """
        if early_stopping_patience and not evaluate_every:
            raise ValueError("early stopping requires evaluate_every > 0")
        epochs = epochs if epochs is not None else self.config.epochs
        result = TrainResult()
        best_accuracy = -1.0
        best_state: Optional[dict] = None
        stale = 0
        for epoch in range(epochs):
            result.epoch_stats.append(self.train_epoch(epoch))
            if evaluate_every and (epoch + 1) % evaluate_every == 0:
                acc = self.evaluate("val")
                result.val_accuracy.append(acc)
                if early_stopping_patience:
                    if acc > best_accuracy:
                        best_accuracy = acc
                        best_state = self.model.state_dict()
                        stale = 0
                    else:
                        stale += 1
                        if stale >= early_stopping_patience:
                            break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return result

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Persist model parameters/buffers and optimizer state to ``path``.

        Stored as a compressed ``.npz``; keys are the model's dotted state
        names plus ``__optimizer__/...`` entries.
        """
        payload: dict = {f"model/{k}": v for k, v in self.model.state_dict().items()}
        opt_state = self.optimizer.state_dict()
        payload["optimizer/lr"] = np.asarray(opt_state["lr"])
        if "step" in opt_state:  # Adam
            payload["optimizer/step"] = np.asarray(opt_state["step"])
            for i, (m, v) in enumerate(zip(opt_state["m"], opt_state["v"])):
                if m is not None:
                    payload[f"optimizer/m/{i}"] = m
                    payload[f"optimizer/v/{i}"] = v
        np.savez_compressed(path, **payload)

    def load_checkpoint(self, path) -> None:
        """Restore model and optimizer state saved by :meth:`save_checkpoint`."""
        archive = np.load(path)
        model_state = {
            key[len("model/") :]: archive[key]
            for key in archive.files
            if key.startswith("model/")
        }
        self.model.load_state_dict(model_state)
        if "optimizer/step" in archive.files:
            n_params = len(self.optimizer.params)
            m = [None] * n_params
            v = [None] * n_params
            for i in range(n_params):
                if f"optimizer/m/{i}" in archive.files:
                    m[i] = archive[f"optimizer/m/{i}"]
                    v[i] = archive[f"optimizer/v/{i}"]
            self.optimizer.load_state_dict(
                {
                    "lr": float(archive["optimizer/lr"]),
                    "step": int(archive["optimizer/step"]),
                    "m": m,
                    "v": v,
                }
            )
        else:
            self.optimizer.load_state_dict({"lr": float(archive["optimizer/lr"])})

    def shutdown(self) -> None:
        if self._shared is not None:  # multiprocess: stop workers, free shm
            self._shared.close()
        self.device.shutdown()
        if self._slab_tmpdir is not None:  # trainer-owned slab scratch dir
            self._slab_tmpdir.cleanup()
            self._slab_tmpdir = None
