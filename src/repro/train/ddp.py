"""Distributed data-parallel (DDP) training, simulated.

SALIENT "straightforwardly applies the PyTorch DDP module" (Section 6):
each of K ranks holds a model replica, trains on its own shard of each
global batch, and gradients are averaged with an all-reduce before every
optimizer step, keeping replicas bit-identical.

Without multiple machines we *execute* the ranks sequentially but preserve
DDP's exact semantics: per-rank samplers and batches, gradient averaging,
replicated optimizer state. ``allreduce_seconds`` provides the ring
all-reduce cost model that the perf simulator uses for Figure 5's scaling
curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..datasets.synthetic import Dataset
from ..models.architectures import build_model
from ..nn.optim import Adam
from ..runtime.stages import PrepareStage, StagedPipeline
from ..sampling.fast_sampler import FastNeighborSampler
from ..slicing.slicer import SlicedBatch
from ..slicing.store import FeatureStore
from ..tensor import Tensor, functional as F
from ..telemetry import MetricsRegistry
from .config import ExperimentConfig
from .inference import sampled_inference
from .metrics import accuracy

__all__ = ["DDPTrainer", "allreduce_seconds"]


def allreduce_seconds(
    param_bytes: int,
    num_ranks: int,
    bandwidth: float = 1.25e9,  # 10GigE in bytes/s (the paper's network)
    latency: float = 50e-6,
    steps_latency_factor: int = 2,
) -> float:
    """Ring all-reduce time: 2(K-1)/K of the buffer over the slowest link."""
    if num_ranks <= 1:
        return 0.0
    volume = 2.0 * (num_ranks - 1) / num_ranks * param_bytes
    return volume / bandwidth + steps_latency_factor * (num_ranks - 1) * latency


@dataclass
class DDPStepStats:
    loss: float
    grad_norm: float


class DDPTrainer:
    """K-rank data-parallel trainer with exact gradient-averaging semantics."""

    def __init__(
        self,
        dataset: Dataset,
        config: ExperimentConfig,
        num_ranks: int = 2,
        seed: int = 0,
        prefetch_depth: int = 2,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.dataset = dataset
        self.config = config
        self.num_ranks = num_ranks
        self.seed = seed
        self.prefetch_depth = prefetch_depth
        #: raw-dtype store shared by every rank's prepare pipeline
        #: (half_precision=None keeps DDP numerics identical to slicing
        #: the dataset arrays directly)
        self.store = FeatureStore(
            dataset.features, dataset.labels, half_precision=None
        )
        self.metrics = MetricsRegistry()

        # All replicas start from identical parameters (DDP broadcast).
        self.replicas = []
        self.optimizers = []
        for _ in range(num_ranks):
            model = build_model(
                config.model,
                dataset.num_features,
                config.hidden_channels,
                dataset.num_classes,
                num_layers=config.num_layers,
                rng=np.random.default_rng(np.random.SeedSequence([seed, 101])),
            )
            self.replicas.append(model)
            self.optimizers.append(Adam(model.parameters(), lr=config.lr))
        reference = self.replicas[0].state_dict()
        for model in self.replicas[1:]:
            model.load_state_dict(reference)

        self.samplers = [
            FastNeighborSampler(dataset.graph, list(config.train_fanouts))
            for _ in range(num_ranks)
        ]

    # ------------------------------------------------------------------
    def param_bytes(self) -> int:
        return sum(p.data.nbytes for p in self.replicas[0].parameters())

    def _rank_shards(self, epoch: int) -> list[list[np.ndarray]]:
        """Per-rank mini-batch node lists; effective batch = K * per-GPU.

        Matches the paper's scaling protocol: "the effective batch size is
        proportional to the number of GPUs" — each rank keeps the per-GPU
        batch size and the train set is sharded across ranks.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 7, epoch]))
        order = rng.permutation(self.dataset.split.train)
        shards: list[list[np.ndarray]] = [[] for _ in range(self.num_ranks)]
        per_global = self.config.batch_size * self.num_ranks
        for start in range(0, len(order), per_global):
            window = order[start : start + per_global]
            pieces = np.array_split(window, self.num_ranks)
            for rank, piece in enumerate(pieces):
                if len(piece):
                    shards[rank].append(piece)
        return shards

    def _start_rank_run(
        self,
        rank: int,
        batches: list[np.ndarray],
        first_step: int = 0,
        prefetch_depth: Optional[int] = None,
    ):
        """Start a prepare pipeline over ``batches`` for one replica.

        Batch ``i`` of the run corresponds to global step ``first_step+i``
        and is seeded ``[seed, 11, step, rank]`` — the DDP convention:
        every (step, rank) pair owns one RNG stream regardless of which
        thread prepares it or how the epoch is chunked.
        """
        depth = self.prefetch_depth if prefetch_depth is None else prefetch_depth
        pipeline = StagedPipeline(
            [PrepareStage(lambda r=rank: self.samplers[r], self.store)],
            prefetch_depth=depth,
            seed=self.seed,
            rng_entries=lambda i: [self.seed, 11, first_step + i, rank],
            metrics=self.metrics,
        )
        return pipeline.start(batches)

    def _replica_step(
        self, rank: int, sliced: SlicedBatch
    ) -> tuple[list[np.ndarray], float]:
        """Forward/backward on one replica from a prepared batch."""
        model = self.replicas[rank]
        model.train()
        x = Tensor(np.asarray(sliced.xs, dtype=np.float32))
        y = sliced.ys
        model.zero_grad()
        loss = F.nll_loss(model(x, sliced.mfg.adjs), y)
        loss.backward()
        grads = [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in model.parameters()
        ]
        return grads, loss.item()

    def _rank_grads(
        self, rank: int, nodes: np.ndarray, step_index: int
    ) -> tuple[list[np.ndarray], float]:
        """Gradients for one (rank, step) pair, prepared inline (depth 0)."""
        run = self._start_rank_run(
            rank, [nodes], first_step=step_index, prefetch_depth=0
        )
        env = run.next_envelope()
        run.drain()
        return self._replica_step(rank, env.sliced)

    def train_epoch(self, epoch: int = 0) -> list[DDPStepStats]:
        """One epoch of synchronized data-parallel steps.

        Each rank's batches are prepared by its own staged pipeline
        (sampling + slicing run ahead under bounded prefetch); the
        all-reduce barrier below consumes them in strict step order, so
        replica updates are identical to fully serial execution.
        """
        shards = self._rank_shards(epoch)
        num_steps = max(len(s) for s in shards)
        runs = [
            self._start_rank_run(rank, shards[rank])
            for rank in range(self.num_ranks)
        ]
        try:
            history = self._drive_steps(shards, num_steps, runs)
        except BaseException:
            for run in runs:
                run.close()
            raise
        for run in runs:
            run.drain()
        return history

    def _drive_steps(self, shards, num_steps: int, runs) -> list[DDPStepStats]:
        history: list[DDPStepStats] = []
        for step in range(num_steps):
            all_grads: list[list[np.ndarray]] = []
            losses: list[float] = []
            for rank in range(self.num_ranks):
                if step >= len(shards[rank]):
                    continue  # rank has no batch this step (tail of epoch)
                env = runs[rank].next_envelope()
                # Prepare-stage busy seconds, per rank (worker-thread view).
                for stage_name, seconds in env.timings.items():
                    self.metrics.histogram(
                        "stage_seconds", stage=stage_name, rank=str(rank)
                    ).observe(seconds)
                with self.metrics.timer(
                    "caller_seconds", stage="train", rank=str(rank)
                ).time():
                    grads, loss = self._replica_step(rank, env.sliced)
                all_grads.append(grads)
                losses.append(loss)
            self.metrics.counter("ddp_steps").inc()
            # All-reduce: average gradients across participating ranks.
            averaged = [
                np.mean([grads[i] for grads in all_grads], axis=0)
                for i in range(len(all_grads[0]))
            ]
            grad_norm = float(
                np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in averaged))
            )
            # Identical update on every replica (optimizer states stay in sync).
            for model, optimizer in zip(self.replicas, self.optimizers):
                for param, grad in zip(model.parameters(), averaged):
                    param.grad = grad.copy()
                optimizer.step()
                model.zero_grad()
            history.append(DDPStepStats(loss=float(np.mean(losses)), grad_norm=grad_norm))
        return history

    def max_replica_divergence(self) -> float:
        """Max abs parameter difference across replicas (0 when in sync)."""
        reference = self.replicas[0].state_dict()
        worst = 0.0
        for model in self.replicas[1:]:
            for name, value in model.state_dict().items():
                worst = max(worst, float(np.abs(reference[name] - value).max()))
        return worst

    def evaluate(self, split: str = "val", seed: int = 1234) -> float:
        nodes = getattr(self.dataset.split, split)
        log_probs = self.distributed_inference(nodes, seed=seed)
        return accuracy(log_probs, self.dataset.labels[nodes])

    def distributed_inference(
        self, nodes: np.ndarray, seed: int = 1234, executor: str = "serial"
    ) -> np.ndarray:
        """Sampled inference sharded across ranks (Section 5: "mini-batch
        inference ... can be executed in a distributed data parallel
        context"). Each rank predicts a contiguous shard with its own
        replica; results are gathered in order. Because replicas are kept
        identical, the gathered output equals single-rank inference up to
        sampling seeds.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        shards = np.array_split(nodes, self.num_ranks)
        pieces: list[np.ndarray] = []
        for rank, shard in enumerate(shards):
            if len(shard) == 0:
                continue
            pieces.append(
                sampled_inference(
                    self.replicas[rank],
                    self.dataset.features,
                    self.dataset.graph,
                    shard,
                    list(self.config.infer_fanouts),
                    batch_size=self.config.batch_size,
                    seed=seed + rank,
                    executor=executor,
                )
            )
        return np.concatenate(pieces, axis=0)
