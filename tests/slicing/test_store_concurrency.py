"""Concurrency contract: every feature store slices correctly from N threads.

The default ``pipelined`` executor (and pipelined/staged inference) slices
one shared store from several prepare-worker threads with no lock.  Each
store implementation here is driven from ``THREADS`` threads at once, and
every batch must be byte-identical to a serial slice of the same ids.
"""

import sys
import threading

import numpy as np
import pytest

from repro.slicing import FeatureStore
from repro.slicing.memmap_store import (
    MemmapFeatureStore,
    TieredFeatureStore,
    write_slab,
)

THREADS = 4
BATCHES = 160
NUM_NODES = 20_000
NUM_FEATURES = 64


@pytest.fixture(scope="module")
def features():
    rng = np.random.default_rng(0)
    return rng.standard_normal((NUM_NODES, NUM_FEATURES)).astype(np.float32)


@pytest.fixture(scope="module")
def slabs(features, tmp_path_factory):
    root = tmp_path_factory.mktemp("concurrency")
    return {
        encoding: write_slab(root / f"{encoding}.slab", features, encoding=encoding)
        for encoding in ("raw", "uint8")
    }


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _make_store(kind, features, slabs):
    if kind == "ram":
        return FeatureStore(features)
    if kind.startswith("mmap-"):
        return MemmapFeatureStore(slabs[kind[len("mmap-"):]])
    # "tiered-<encoding>": every third node hot, so batches mix hits and
    # misses and exercise the scatter path, not the all-cold fast path.
    cold = MemmapFeatureStore(slabs[kind[len("tiered-"):]])
    return TieredFeatureStore(cold, np.arange(0, NUM_NODES, 3))


def _batches():
    rng = np.random.default_rng(1)
    return [
        rng.integers(0, NUM_NODES, size=int(rng.integers(1_000, 4_000)))
        for _ in range(BATCHES)
    ]


def _slice_concurrently(store, batches):
    """Slice every batch from ``THREADS`` threads started together;
    odd batches go through a caller-owned ``out`` buffer (the pinned-slot
    path), even ones let the store allocate."""
    results = [None] * len(batches)
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(tid):
        try:
            barrier.wait(timeout=30)
            for i in range(tid, len(batches), THREADS):
                n_id = batches[i]
                if i % 2:
                    shape = (len(n_id), store.num_features)
                    out = np.empty(shape, dtype=store.feature_dtype)
                    store.slice_features(n_id, out=out)
                else:
                    out = store.slice_features(n_id)
                results[i] = np.array(out, copy=True)
        except Exception as exc:  # surfaced on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    # Frequent GIL hand-offs interleave the threads inside each slice.
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


@pytest.mark.parametrize(
    "kind", ["ram", "mmap-raw", "mmap-uint8", "tiered-raw", "tiered-uint8"]
)
def test_concurrent_slices_match_serial_reference(kind, features, slabs):
    batches = _batches()
    reference = [
        np.array(_make_store(kind, features, slabs).slice_features(n_id), copy=True)
        for n_id in batches
    ]
    got = _slice_concurrently(_make_store(kind, features, slabs), batches)
    corrupted = [
        i for i, (a, b) in enumerate(zip(got, reference)) if not _same_bytes(a, b)
    ]
    assert not corrupted, f"{len(corrupted)}/{BATCHES} batches differ: {corrupted[:10]}"
