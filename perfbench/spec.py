"""Workloads, metrics and the ``BENCHMARK.json`` they generate.

This module is the single source of truth for what the benchmark runs and
reports.  ``python3 perfbench/spec.py --write`` regenerates
``BENCHMARK.json`` (the benchmark manifest) and ``perfbench/PROVENANCE.json``
(per-workload config, why it was chosen, heavy/light layers, and which
end-to-end metric each per-layer metric should move); ``--check`` exits 1
when either committed file is stale.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_PATH = Path(__file__).resolve().parent / "PROVENANCE.json"

#: Seconds one run measures (``--seconds``).  Work is sized from it at a
#: nominal rate (see :class:`Workload`), so a faster commit finishes the
#: same work sooner instead of training further.
RUN_SECONDS = 10

#: Table-5 GraphSAGE row (3 layers, hidden 64, batch 256, train fanouts
#: (15, 10, 5), infer fanouts (20, 20, 20)) at dataset scale 4.
MODEL = "sage"
SCALE = 4.0
#: preparation workers (threads or processes), fixed so every machine runs
#: the same workload; 2 matches the core count the benchmark was sized on
WORKERS = 2
#: dataset + Trainer constructions per run; setup_s reports their median
SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    dataset: str
    executor: str
    why: str
    heavy: tuple
    light: tuple
    feature_tier: str = "ram"
    infer_executor: str = "staged"
    #: train: batches per second the timed epochs are sized at;
    #: infer: nodes per second the predict passes are sized at
    nominal_rate: float = 5.0
    #: infer only: training epochs run during setup
    setup_epochs: int = 0
    #: None when listed in BENCHMARK.json, else why it is left out
    unregistered_reason: Optional[str] = None

    def config(self) -> dict:
        out = {
            "kind": self.kind,
            "dataset": self.dataset,
            "scale": SCALE,
            "model": MODEL,
            "num_layers": 3,
            "hidden_channels": 64,
            "batch_size": 256,
            "train_fanouts": [15, 10, 5],
            "infer_fanouts": [20, 20, 20],
            "executor": self.executor,
            "prepare_workers": WORKERS,
            "feature_tier": self.feature_tier,
            "infer_executor": self.infer_executor,
            "setup_reps": SETUP_REPS,
            "nominal_rate": self.nominal_rate,
        }
        if self.feature_tier != "ram":
            out["hot_rows"] = "num_nodes // 8 (Trainer default)"
        if self.kind == "infer":
            out["setup_epochs"] = self.setup_epochs
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="train-products",
            kind="train",
            dataset="products",
            executor="pipelined",
            nominal_rate=4.0,
            why=(
                "products, pipelined threads, RAM fp16 store: sampling is the "
                "largest share and slicing small, so sampler and pipeline "
                "changes show here and storage changes should not"
            ),
            heavy=("sampling", "runtime.stages", "models", "tensor", "nn.optim"),
            light=("slicing", "runtime.mp_prepare", "train.inference"),
        ),
        Workload(
            name="train-products-mp",
            kind="train",
            dataset="products",
            executor="multiprocess",
            nominal_rate=4.0,
            why=(
                "train-products inputs with 2 spawned prepare processes over "
                "shared memory: the only workload on mp_prepare/shm, so next "
                "to train-products it separates process from thread effects"
            ),
            heavy=("runtime.mp_prepare", "runtime.shm", "train.loop (spawn)"),
            light=("sampling (in workers, registry only)", "train.inference"),
        ),
        Workload(
            name="infer-products",
            kind="infer",
            dataset="products",
            executor="pipelined",
            nominal_rate=205.0,
            setup_epochs=7,
            why=(
                "forward-only Trainer.predict over a seed-derived test subset "
                "with the staged executor: unfused aggregation, inference "
                "fanouts and the split sample/slice stages"
            ),
            heavy=("train.inference", "models (unfused scatter)", "sampling"),
            light=("tensor (no backward)", "nn.optim", "tensor.plan"),
        ),
        Workload(
            name="train-papers-quant",
            kind="train",
            dataset="papers",
            executor="pipelined",
            feature_tier="mmap-quant",
            nominal_rate=2.6,
            why=(
                "papers, pipelined threads, mmap slab of uint8 codes with a "
                "RAM-hot tier: dequantize-on-slice plus memmap gather, the "
                "only workload on the tier hierarchy and hot cache"
            ),
            heavy=("slicing", "datasets (slab write)"),
            light=("runtime.mp_prepare", "train.inference"),
            unregistered_reason=(
                "its pipelined mmap-quant batches race on the stores' shared "
                "slicing scratch, so losses differ from the serial reference "
                "and ops fail; BENCHMARK.json lists only workloads "
                "on which no op fails. Runnable with --workload; register it "
                "once the race is fixed."
            ),
        ),
    ]
}

REGISTERED = [w for w in WORKLOADS.values() if w.unregistered_reason is None]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  # end-to-end only
    doc: str = ""
    #: per-layer only: the end-to-end metrics this layer metric should move
    moves: tuple = field(default=())
    layer: str = ""


#: End-to-end metrics.  Each applies to both kinds of workload: for train-*
#: the timed region is training (batches are optimizer steps, accuracy is
#: Trainer.evaluate("val")), for infer-* it is Trainer.predict (batches are
#: predicted batches, accuracy is on the predicted nodes).
E2E = [
    Metric("nodes_per_s", "nodes/s", "higher", 0.25,
           "seed nodes trained (train) or predicted (infer) per second in the "
           "timed region; train reports the median epoch"),
    Metric("batch_s_mean", "s", "lower", 0.25,
           "mean interval between consecutive batch completions: optimizer "
           "steps across the timed epochs (epoch-boundary refills included), "
           "or predicted batches within each predict call"),
    Metric("batch_s_p90", "s", "lower", 0.25,
           "90th percentile (Harrell-Davis) of the same intervals"),
    Metric("final_loss", "nats", "lower", 0.15,
           "mean loss of the last training epoch (timed for train, setup for "
           "infer)"),
    Metric("accuracy", "fraction", "higher", 0.25,
           "train: Trainer.evaluate('val') after the timed epochs; infer: "
           "accuracy of the timed predictions on the nodes predicted"),
    Metric("setup_s", "s", "lower", 0.25,
           "dataset generation + Trainer construction (median of reps) + "
           "latency to the first optimizer step; infer: + its setup training"),
    Metric("peak_rss_mb", "MB", "lower", 0.2,
           "peak resident memory through the timed region, of the process "
           "plus its live prepare workers"),
]

_SETUP = ("setup_s",)
_RATE = ("nodes_per_s",)
_TAIL = ("batch_s_p90",)

PER_LAYER = [
    Metric("datasets.generate_s", "s", "lower", moves=_SETUP, layer="datasets"),
    Metric("datasets.slab_write_s", "s", "lower", moves=_SETUP, layer="datasets"),
    Metric("train.trainer_init_s", "s", "lower", moves=_SETUP, layer="train.loop"),
    Metric("sampling.calls", "count", "lower", moves=_RATE, layer="sampling"),
    Metric("sampling.busy_s", "s", "lower", moves=_RATE, layer="sampling"),
    Metric("sampling.edges", "count", "lower", moves=_RATE, layer="sampling"),
    Metric("sampling.nodes", "count", "lower", moves=_RATE, layer="sampling"),
    Metric("sampling.unique_ratio", "fraction", "higher", moves=_RATE, layer="sampling"),
    Metric("slicing.calls", "count", "lower", moves=_RATE, layer="slicing"),
    Metric("slicing.busy_s", "s", "lower", moves=_RATE, layer="slicing"),
    Metric("slicing.rows", "count", "lower", moves=_RATE, layer="slicing"),
    Metric("slicing.bytes", "bytes", "lower", moves=_RATE, layer="slicing"),
    Metric("slicing.dequant_s", "s", "lower", moves=_RATE, layer="slicing"),
    Metric("slicing.mmap_wait_s", "s", "lower", moves=_RATE, layer="slicing"),
    Metric("slicing.hot_hit_ratio", "fraction", "higher", moves=_RATE, layer="slicing"),
    Metric("plan.busy_s", "s", "lower", moves=_RATE, layer="tensor.plan"),
    Metric("plan.edges", "count", "lower", moves=_RATE, layer="tensor.plan"),
    Metric("transfer.calls", "count", "lower", moves=("batch_s_mean",), layer="runtime.device"),
    Metric("transfer.bytes", "bytes", "lower", moves=("batch_s_mean",), layer="runtime.device"),
    Metric("transfer.busy_s", "s", "lower", moves=("batch_s_mean",), layer="runtime.device"),
    Metric("pinned.acquire_wait_s", "s", "lower", moves=("batch_s_mean",), layer="runtime.pinned"),
    Metric("pipeline.prep_wait_s", "s", "lower", moves=_TAIL, layer="runtime.stages"),
    Metric("pipeline.first_step_wait_s", "s", "lower", moves=_TAIL, layer="runtime.stages"),
    Metric("mp.worker_busy_s", "s", "lower", moves=("nodes_per_s", "peak_rss_mb"), layer="runtime.mp_prepare"),
    Metric("mp.result_wait_s", "s", "lower", moves=("nodes_per_s", "peak_rss_mb"), layer="runtime.mp_prepare"),
    Metric("mp.spills", "count", "lower", moves=("nodes_per_s", "peak_rss_mb"), layer="runtime.mp_prepare"),
    Metric("shm.decode_s", "s", "lower", moves=("nodes_per_s", "peak_rss_mb"), layer="runtime.shm"),
    Metric("model.forward_s", "s", "lower", moves=_RATE, layer="models"),
    Metric("model.conv0.forward_s", "s", "lower", moves=_RATE, layer="models"),
    Metric("model.conv1.forward_s", "s", "lower", moves=_RATE, layer="models"),
    Metric("model.conv2.forward_s", "s", "lower", moves=_RATE, layer="models"),
    Metric("tensor.backward_s", "s", "lower", moves=_RATE, layer="tensor"),
    Metric("loss.busy_s", "s", "lower", moves=_RATE, layer="tensor"),
    Metric("workspace.hit_ratio", "fraction", "higher", moves=_RATE, layer="tensor"),
    Metric("optim.step_s", "s", "lower", moves=_RATE, layer="nn.optim"),
    Metric("infer.pass_s", "s", "lower", moves=_RATE, layer="train.inference"),
    Metric("caller.unattributed_s", "s", "lower", layer="accounting"),
    Metric("trace.overhead_frac", "fraction", "lower", layer="accounting"),
    Metric("baseline.serial_nodes_per_s", "nodes/s", "higher", layer="accounting"),
    Metric("pipeline.speedup_vs_serial", "x", "higher", layer="accounting"),
]

E2E_NAMES = [m.name for m in E2E]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS = {m.name: m.unit for m in E2E + PER_LAYER}


def benchmark_json() -> dict:
    """The benchmark manifest: exactly the keys its format allows."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in REGISTERED],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in E2E
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def provenance() -> dict:
    """Everything about the workloads that BENCHMARK.json has no keys for."""
    return {
        "load": (
            "closed loop, one client (the training or inference loop on the "
            "main thread); the next batch is consumed when the previous step "
            "finishes; one generating process; 2 prepare workers = nproc"
        ),
        "seed": (
            "--seed N seeds dataset generation (generate_dataset(..., seed=N)), "
            "the Trainer (seed=N) and, for infer-products, the predicted "
            "test subset; the program receives only the generated dataset "
            "and config"
        ),
        "sizing": (
            "timed work = --seconds x the workload's nominal_rate: whole "
            "epochs for train (one untimed warm-up epoch first), or whole "
            "256-node batches split over 3 predict passes of the same nodes "
            "for infer (one untimed 1-batch warm-up pass first); so a faster "
            "commit does the same work sooner instead of training further"
        ),
        "timing": (
            "nodes_per_s is the median epoch (train) or median pass (infer), "
            "so a burst of outside load in one of them does not move it; "
            "percentiles use the Harrell-Davis estimator because step times "
            "are multimodal (refill, prep-bound, compute-bound steps)"
        ),
        "ops": (
            "attempted/failed count training batches (train) or predicted "
            "batches (infer); a batch fails on an exception, a non-finite "
            "loss, or a loss / log-prob row block not byte-identical to a "
            "serial-executor run with the same seed, dataset and tier"
        ),
        "workloads": {
            w.name: {
                "config": w.config(),
                "why": w.why,
                "heavy_layers": list(w.heavy),
                "light_layers": list(w.light),
                "registered": w.unregistered_reason is None,
                **(
                    {"unregistered_reason": w.unregistered_reason}
                    if w.unregistered_reason
                    else {}
                ),
            }
            for w in WORKLOADS.values()
        },
        "end_to_end": {m.name: {"unit": m.unit, "doc": m.doc} for m in E2E},
        "per_layer_moves": {
            m.name: {"layer": m.layer, "moves": list(m.moves)} for m in PER_LAYER
        },
    }


def _render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", action="store_true", help="regenerate both files")
    group.add_argument("--check", action="store_true", help="exit 1 if stale")
    args = parser.parse_args(argv)
    targets = {
        ROOT / "BENCHMARK.json": _render(benchmark_json()),
        PROVENANCE_PATH: _render(provenance()),
    }
    stale = []
    for path, text in targets.items():
        if args.write:
            path.write_text(text)
        elif not path.is_file() or path.read_text() != text:
            stale.append(path.name)
    if stale:
        print(f"stale: {', '.join(stale)} (run perfbench/spec.py --write)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
