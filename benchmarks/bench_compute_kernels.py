"""Compute-kernel benchmark: fused aggregation plans + workspace pool.

Three row groups per dataset, validated by ``check_bench_json.py``:

- ``aggregation`` — one sampled bottom MFG layer's gather→segment-sum
  forward, through three kernel generations: ``legacy`` (the per-call
  reference kernel of ``benchmarks/reference.py``: per-call setup,
  materialized ``(E, F)`` messages), ``plan_reuse`` (the batch's prebuilt
  :class:`AggregationPlan` replaces per-call setup, messages still
  materialized) and ``fused`` (the plan's cached CSR operator collapses
  gather and reduce — no message array at all);
- ``alloc`` — the workspace buffer pool's contribution in context:
  fused-compute epochs with ``fresh`` (pool disabled, every activation/
  gradient array freshly allocated) vs ``pooled`` (checked out of the
  :class:`Workspace` and recycled across steps).  The pool's win comes
  from avoiding large-allocation mmap/munmap churn while the pipeline's
  worker threads are live, so it is measured in the loop it serves
  rather than in a synthetic single-threaded alloc microbench;
- ``epoch`` — full training epochs on the paper's products-scale
  configuration (fanouts 15/10/5, batch 256, hidden 64) through the
  pipelined executor, with the model running on the reference ops
  (``legacy``: ``reference.legacy_compute()``, unfused gather→reduce and
  linear chains) vs the production ops (``fused``).  Both executors build
  aggregation plans in their prepare stage; only the compute differs.
  The two variants must produce **byte-identical** losses — the bench
  asserts it — so the epoch speedup is a pure systems win.

Like the sibling benches, a plain script writing machine-readable
``BENCH_compute_kernels.json`` at the repo root.  ``--smoke`` runs a
seconds-scale configuration used by the tier-1 contract test.

Usage::

    PYTHONPATH=src python benchmarks/bench_compute_kernels.py [--smoke]
        [--reps N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_SCALES  # noqa: E402
from reference import legacy_compute, segment_sum  # noqa: E402

from repro.datasets import get_dataset  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.nn import Adam  # noqa: E402
from repro.runtime import Device, build_pipeline  # noqa: E402
from repro.sampling import FastNeighborSampler  # noqa: E402
from repro.slicing import FeatureStore  # noqa: E402
from repro.tensor import (  # noqa: E402
    Tensor,
    Workspace,
    functional as F,
    kernels,
    workspace_scope,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_compute_kernels.json"

AGG_VARIANTS = ("legacy", "plan_reuse", "fused")
EPOCH_VARIANTS = ("legacy", "fused")

#: the paper's products training configuration (Table 3 shape)
FANOUTS = [15, 10, 5]
HIDDEN = 64
BATCH_SIZE = 256
NUM_WORKERS = 2
TRANSFER_BANDWIDTH = 4e8

FULL = {"reps": 7, "num_batches": 8, "inner": 20, "scales": BENCH_SCALES}
SMOKE = {
    "reps": 2,
    "num_batches": 3,
    "inner": 3,
    "scales": {"arxiv": BENCH_SCALES["arxiv"]},
}


def _train_batches(dataset, num_batches: int) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    train = dataset.split.train
    size = min(BATCH_SIZE, len(train))
    return [rng.choice(train, size=size, replace=False) for _ in range(num_batches)]


def _percentiles(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), float(np.percentile(times, 90))


def _sample_layer(dataset):
    """The bottom (largest) MFG layer of one sampled training batch."""
    sampler = FastNeighborSampler(dataset.graph, FANOUTS)
    batch = _train_batches(dataset, 1)[0]
    mfg = sampler.sample(batch, np.random.default_rng(0))
    return mfg.adjs[0]


# ----------------------------------------------------------------------
# aggregation: gather → segment-sum forward, three kernel generations
# ----------------------------------------------------------------------
def _time_aggregation(dataset, variant: str, mode: dict) -> tuple[float, float, int]:
    adj = _sample_layer(dataset)
    src, dst = adj.edge_index[0], adj.edge_index[1]
    n_src, n_dst = adj.size
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n_src, HIDDEN)).astype(np.float32)
    plan = adj.build_plan()
    plan.gather_matrix()  # prebuild, as the prepare stage does
    inner = mode["inner"]

    def legacy():
        segment_sum(x[src], dst, n_dst)

    def plan_reuse():
        kernels.plan_segment_sum(x[src], plan)

    def fused():
        kernels.fused_gather_segment_sum(x, plan)

    fn = {"legacy": legacy, "plan_reuse": plan_reuse, "fused": fused}[variant]
    times = []
    for rep in range(mode["reps"] + 1):  # rep 0 is the warm-up
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        if rep > 0:
            times.append(time.perf_counter() - start)
    median, p90 = _percentiles(times)
    return median, p90, adj.num_edges * inner


# ----------------------------------------------------------------------
# epoch: full training epochs (reference vs production ops) — also reused
# by the alloc group (production ops, pool off vs on)
# ----------------------------------------------------------------------
def _make_train_fn(dataset, use_reference: bool, workspace):
    model = build_model(
        "sage",
        dataset.num_features,
        HIDDEN,
        dataset.num_classes,
        num_layers=len(FANOUTS),
        rng=np.random.default_rng(0),
    )
    optimizer = Adam(model.parameters(), lr=3e-3)

    def fn(batch):
        model.train()
        optimizer.zero_grad()
        ops = legacy_compute() if use_reference else nullcontext()
        with ops, workspace_scope(workspace):
            out = model(Tensor(batch.xs.data), batch.mfg.adjs)
            loss = F.nll_loss(out, batch.ys.data)
            loss.backward()
        optimizer.step()
        return loss.item()

    return fn


#: epoch configurations: key -> (reference ops?, workspace pool on?)
EPOCH_CONFIGS = {
    "legacy": (True, False),
    "fused_nopool": (False, False),
    "fused_pool": (False, True),
}


def _time_epochs(dataset, store, mode: dict) -> dict[str, tuple[float, float]]:
    """Median/p90 epoch time for every :data:`EPOCH_CONFIGS` entry.

    The configurations' reps are **interleaved** (legacy, then fused, …
    within each rep) so machine-speed drift over the run cancels out of
    the ratios instead of biasing one variant.  Each rep rebuilds the
    model/optimizer (identical work per epoch); each configuration's
    executor — and, when enabled, its workspace pool — persists across
    reps like a real multi-epoch run.  Also asserts byte identity: every
    configuration's loss trajectory is the same.
    """
    batches = _train_batches(dataset, mode["num_batches"])
    devices, runs = [], {}
    for key, (use_reference, use_pool) in EPOCH_CONFIGS.items():
        device = Device(transfer_bandwidth=TRANSFER_BANDWIDTH)
        devices.append(device)
        executor = build_pipeline(
            "pipelined",
            lambda: FastNeighborSampler(dataset.graph, FANOUTS),
            FANOUTS,
            store,
            device,
            num_workers=NUM_WORKERS,
            max_batch=BATCH_SIZE,
        )
        workspace = Workspace(metrics=executor.ctx.metrics) if use_pool else None
        runs[key] = (executor, use_reference, workspace, [], [])
    try:
        for rep in range(mode["reps"] + 1):  # rep 0 is the warm-up
            for executor, use_reference, workspace, times, losses in runs.values():
                stats = executor.run_epoch(
                    batches, _make_train_fn(dataset, use_reference, workspace)
                )
                if rep > 0:
                    times.append(stats.epoch_time)
                    losses.append(list(stats.losses))
    finally:
        for device in devices:
            device.shutdown()
    reference = runs["legacy"][4]
    for key, (_, _, _, _, losses) in runs.items():
        if losses != reference:
            raise AssertionError(f"losses for {key!r} diverged from legacy")
    return {
        key: _percentiles(times) for key, (_, _, _, times, _) in runs.items()
    }


def run_bench(mode: dict, datasets: dict) -> dict:
    rows = []
    for name, dataset in datasets.items():
        store = FeatureStore(dataset.features, dataset.labels)
        for variant in AGG_VARIANTS:
            median, p90, items = _time_aggregation(dataset, variant, mode)
            rows.append(
                {
                    "bench": "aggregation",
                    "dataset": name,
                    "variant": variant,
                    "median_s": median,
                    "p90_s": p90,
                    "items_per_s": items / median,
                }
            )
            print(
                f"{'aggregation':12s} {name:10s} {variant:10s} "
                f"median {median * 1e3:9.2f} ms   "
                f"{items / median:12.0f} items/s"
            )
        # Interleaved epoch timings feed both groups; "epoch/fused" and
        # "alloc/pooled" are the same configuration (fused + pool), so
        # they share one measurement.  Byte-identical losses are asserted
        # inside _time_epochs — the speedups are pure systems wins.
        epoch_stats = _time_epochs(dataset, store, mode)
        items = mode["num_batches"]
        for bench, variant, key in (
            ("epoch", "legacy", "legacy"),
            ("epoch", "fused", "fused_pool"),
            ("alloc", "fresh", "fused_nopool"),
            ("alloc", "pooled", "fused_pool"),
        ):
            median, p90 = epoch_stats[key]
            rows.append(
                {
                    "bench": bench,
                    "dataset": name,
                    "variant": variant,
                    "median_s": median,
                    "p90_s": p90,
                    "items_per_s": items / median,
                }
            )
            print(
                f"{bench:12s} {name:10s} {variant:10s} "
                f"median {median * 1e3:9.2f} ms   "
                f"{items / median:12.2f} items/s"
            )
        print(f"{'':12s} {name:10s} losses byte-identical across all variants")

    def _median(bench: str, dataset: str, variant: str) -> float:
        for row in rows:
            if (row["bench"], row["dataset"], row["variant"]) == (
                bench,
                dataset,
                variant,
            ):
                return row["median_s"]
        raise KeyError((bench, dataset, variant))

    summary = {}
    for name in datasets:
        summary[name] = {
            "plan_reuse_speedup": _median("aggregation", name, "legacy")
            / _median("aggregation", name, "plan_reuse"),
            "fused_speedup": _median("aggregation", name, "legacy")
            / _median("aggregation", name, "fused"),
            "pooled_alloc_speedup": _median("alloc", name, "fresh")
            / _median("alloc", name, "pooled"),
            "fused_epoch_speedup": _median("epoch", name, "legacy")
            / _median("epoch", name, "fused"),
        }
    return {
        "bench": "compute_kernels",
        "fanouts": FANOUTS,
        "hidden": HIDDEN,
        "batch_size": BATCH_SIZE,
        "num_workers": NUM_WORKERS,
        "transfer_bandwidth": TRANSFER_BANDWIDTH,
        "reps": mode["reps"],
        "num_batches": mode["num_batches"],
        "inner": mode["inner"],
        "mode": mode["name"],
        "rows": rows,
        "summary": summary,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale configuration for the tier-1 contract test",
    )
    parser.add_argument("--reps", type=int, default=None, help="override rep count")
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    mode = dict(SMOKE if args.smoke else FULL)
    mode["name"] = "smoke" if args.smoke else "full"
    if args.reps is not None:
        if args.reps < 1:
            parser.error("--reps must be >= 1")
        mode["reps"] = args.reps

    datasets = {
        name: get_dataset(name, scale=scale, seed=0)
        for name, scale in mode["scales"].items()
    }
    doc = run_bench(mode, datasets)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[written to {args.output}]")
    for name, entry in doc["summary"].items():
        print(
            f"{name:10s} aggregation plan/fused "
            f"{entry['plan_reuse_speedup']:.2f}x/{entry['fused_speedup']:.2f}x   "
            f"alloc pooled {entry['pooled_alloc_speedup']:.2f}x   "
            f"epoch fused {entry['fused_epoch_speedup']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
