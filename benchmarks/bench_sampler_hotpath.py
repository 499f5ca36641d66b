"""Batch-preparation hot-path benchmark: sampler and slicing paths.

Times the three sampler implementations that share one RNG contract —

- ``reference``: :class:`PyGNeighborSampler`, per-node dict/set loops;
- ``fast``: :class:`reference.LegacyFastSampler`, the pre-arena vectorized
  kernels (``np.unique`` dedup + all-edges lexsort, fresh allocations
  every hop), kept in ``benchmarks/reference.py``;
- ``arena``: :class:`FastNeighborSampler`, the production
  arena-allocated O(D) path (persistent scratch buffers, first-occurrence
  dedup via the ID map, split under/over-degree fanout selection) —

plus the two slicing paths (``reference`` double-copy vs ``fused_pinned``
direct gather into a pinned slot) on the MFGs the sampler produced.

Unlike the pytest benches, this one is a plain script: it writes a
machine-readable ``BENCH_sampler_hotpath.json`` at the repo root (the
perf-trajectory artifact future PRs diff against) and is validated by
``benchmarks/check_bench_json.py``.  ``--smoke`` runs a seconds-scale
configuration used by the tier-1 contract test.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampler_hotpath.py [--smoke]
        [--reps N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_SCALES  # noqa: E402
from reference import LegacyFastSampler  # noqa: E402

from repro.datasets import get_dataset  # noqa: E402
from repro.runtime.pinned import PinnedBufferPool  # noqa: E402
from repro.runtime.pinned import estimate_max_rows  # noqa: E402
from repro.sampling import FastNeighborSampler, PyGNeighborSampler  # noqa: E402
from repro.slicing import FeatureStore, slice_batch_fused, slice_batch_reference  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sampler_hotpath.json"

FANOUTS = [15, 10, 5]

#: full-mode configuration (smoke shrinks everything to seconds-scale)
FULL = {"reps": 7, "num_batches": 6, "batch_size": 512}
SMOKE = {"reps": 2, "num_batches": 2, "batch_size": 128}


def _make_batches(dataset, num_batches: int, batch_size: int) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    train = dataset.split.train
    size = min(batch_size, len(train))
    return [rng.choice(train, size=size, replace=False) for _ in range(num_batches)]


def _mfg_edges(mfg) -> int:
    return sum(adj.edge_index.shape[1] for adj in mfg.adjs)


def _percentiles(times: list[float]) -> tuple[float, float]:
    median = statistics.median(times)
    p90 = float(np.percentile(times, 90))
    return median, p90


def _time_sampler(make_sampler, batches, reps: int) -> tuple[float, float, int]:
    """Per-rep wall time over all batches; returns (median, p90, edges/rep).

    Every rep replays the identical per-batch RNG streams, so the work (and
    the edge count) is rep-invariant and the samplers are directly
    comparable under their shared-stream equivalence contract.
    """
    sampler = make_sampler()
    edges = 0
    # Warm-up rep: grows arena buffers / settles the allocator, and counts
    # the per-rep edge total used as the throughput numerator.
    for index, nodes in enumerate(batches):
        rng = np.random.default_rng(np.random.SeedSequence([0, index]))
        edges += _mfg_edges(sampler.sample(nodes, rng))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for index, nodes in enumerate(batches):
            rng = np.random.default_rng(np.random.SeedSequence([0, index]))
            sampler.sample(nodes, rng)
        times.append(time.perf_counter() - start)
    median, p90 = _percentiles(times)
    return median, p90, edges


def _time_slicing(dataset, mfgs, variant: str, reps: int) -> tuple[float, float]:
    store = FeatureStore(dataset.features, dataset.labels)
    if variant == "fused_pinned":
        max_rows = max(len(m.n_id) for m in mfgs)
        max_batch = max(m.batch_size for m in mfgs)
        pool = PinnedBufferPool(
            num_slots=1,
            max_rows=max_rows,
            num_features=store.num_features,
            max_batch=max_batch,
            feature_dtype=store.feature_dtype,
        )
        buffer = pool.acquire()

        def run() -> None:
            for mfg in mfgs:
                slice_batch_fused(
                    store,
                    mfg,
                    xs_out=buffer.features,
                    ys_out=buffer.labels,
                    pinned_slot=buffer.slot,
                )

    else:

        def run() -> None:
            for mfg in mfgs:
                slice_batch_reference(store, mfg)

    run()  # warm-up
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return _percentiles(times)


def run_bench(mode: dict, datasets: dict) -> dict:
    rows = []
    for name, dataset in datasets.items():
        batches = _make_batches(dataset, mode["num_batches"], mode["batch_size"])
        sampler_makers = {
            "reference": lambda d=dataset: PyGNeighborSampler(d.graph, FANOUTS),
            "fast": lambda d=dataset: LegacyFastSampler(d.graph, FANOUTS),
            "arena": lambda d=dataset: FastNeighborSampler(d.graph, FANOUTS),
        }
        for variant, maker in sampler_makers.items():
            median, p90, edges = _time_sampler(maker, batches, mode["reps"])
            rows.append(
                {
                    "bench": "sampler",
                    "dataset": name,
                    "variant": variant,
                    "median_s": median,
                    "p90_s": p90,
                    "edges_per_s": edges / median,
                }
            )
            print(
                f"sampler  {name:10s} {variant:12s} "
                f"median {median * 1e3:9.2f} ms   {edges / median:12.0f} edges/s"
            )

        # Slicing twins consume the arena sampler's MFGs (identical across
        # samplers anyway, by the equivalence contract).
        sampler = FastNeighborSampler(dataset.graph, FANOUTS)
        mfgs = [
            sampler.sample(nodes, np.random.default_rng(np.random.SeedSequence([0, i])))
            for i, nodes in enumerate(batches)
        ]
        slice_edges = sum(_mfg_edges(m) for m in mfgs)
        for variant in ("reference", "fused_pinned"):
            median, p90 = _time_slicing(dataset, mfgs, variant, mode["reps"])
            rows.append(
                {
                    "bench": "slicing",
                    "dataset": name,
                    "variant": variant,
                    "median_s": median,
                    "p90_s": p90,
                    # work measure: MFG edges of the batches sliced per
                    # second, keeping one throughput unit across the file
                    "edges_per_s": slice_edges / median,
                }
            )
            print(
                f"slicing  {name:10s} {variant:12s} "
                f"median {median * 1e3:9.2f} ms"
            )

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
            "arena_vs_fast_speedup": _median("sampler", name, "fast")
            / _median("sampler", name, "arena"),
            "arena_vs_reference_speedup": _median("sampler", name, "reference")
            / _median("sampler", name, "arena"),
            "fused_vs_reference_slicing_speedup": _median(
                "slicing", name, "reference"
            )
            / _median("slicing", name, "fused_pinned"),
        }
    return {
        "bench": "sampler_hotpath",
        "fanouts": FANOUTS,
        "reps": mode["reps"],
        "num_batches": mode["num_batches"],
        "batch_size": mode["batch_size"],
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
        for name, scale in BENCH_SCALES.items()
    }
    doc = run_bench(mode, datasets)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\n[written to {args.output}]")
    for name, entry in doc["summary"].items():
        print(
            f"{name:10s} arena/fast {entry['arena_vs_fast_speedup']:.2f}x   "
            f"arena/reference {entry['arena_vs_reference_speedup']:.2f}x   "
            f"fused/reference slicing "
            f"{entry['fused_vs_reference_slicing_speedup']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
