"""Concurrency contract: every slicing path is correct from N threads.

The default ``pipelined`` executor (and pipelined/staged inference) slices
one shared store from several prepare-worker threads with no lock, through
``slice_batch_fused`` (or ``slice_batch_reference`` on the serial
baseline), and a :class:`DeviceFeatureCache` may serve transfers from
several threads.  Each is driven here from ``THREADS`` threads at once,
and every batch must be byte-identical to a serial run of the same input;
the cache's hit/miss/byte totals must equal the serial totals.
"""

import sys
import threading

import numpy as np
import pytest

from repro.runtime import (
    Device,
    DeviceFeatureCache,
    estimate_max_rows,
    hottest_nodes,
    transfer_batch_with_cache,
)
from repro.sampling import FastNeighborSampler
from repro.slicing import FeatureStore, slice_batch_fused, slice_batch_reference
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


def _run_concurrently(task, count):
    """Run ``task(i)`` for every ``i < count`` from ``THREADS`` threads
    started together (striped), returning the results in index order."""
    results = [None] * count
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(tid):
        try:
            barrier.wait(timeout=30)
            for i in range(tid, count, THREADS):
                results[i] = task(i)
        except Exception as exc:  # surfaced on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    # Frequent GIL hand-offs interleave the threads inside each call.
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


def _slice_concurrently(store, batches):
    """Slice every batch concurrently; odd batches go through a
    caller-owned ``out`` buffer (the pinned-slot path), even ones let the
    store allocate."""

    def task(i):
        n_id = batches[i]
        if i % 2:
            shape = (len(n_id), store.num_features)
            out = np.empty(shape, dtype=store.feature_dtype)
            store.slice_features(n_id, out=out)
        else:
            out = store.slice_features(n_id)
        return np.array(out, copy=True)

    return _run_concurrently(task, len(batches))


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


# ----------------------------------------------------------------------
# Slicer functions and the device feature cache
# ----------------------------------------------------------------------
FANOUTS = [8, 5]
MFG_BATCHES = 48


@pytest.fixture(scope="module")
def sampled(small_products):
    store = FeatureStore(small_products.features, small_products.labels)
    sampler = FastNeighborSampler(small_products.graph, FANOUTS)
    rng = np.random.default_rng(2)
    mfgs = [
        sampler.sample(
            rng.choice(small_products.num_nodes, size=64, replace=False),
            np.random.default_rng([2, i]),
        )
        for i in range(MFG_BATCHES)
    ]
    return store, mfgs


def _fused_into_own_buffer(store, mfg, max_rows):
    """Fused slice into a distinct pinned-slot-sized buffer (as a prepare
    worker does), returning copies of the filled rows."""
    xs_out = np.empty((max_rows, store.num_features), store.feature_dtype)
    ys_out = np.empty(mfg.batch_size, np.int64)
    sliced = slice_batch_fused(store, mfg, xs_out=xs_out, ys_out=ys_out, pinned_slot=0)
    return sliced.xs.copy(), sliced.ys.copy()


@pytest.mark.parametrize("path", ["fused", "reference"])
def test_slicer_functions_match_serial_reference(path, sampled, small_products):
    store, mfgs = sampled
    max_rows = estimate_max_rows(FANOUTS, 64, small_products.num_nodes)
    if path == "fused":
        run = lambda i: _fused_into_own_buffer(store, mfgs[i], max_rows)  # noqa: E731
    else:
        def run(i):
            sliced = slice_batch_reference(store, mfgs[i])
            return sliced.xs, sliced.ys
    reference = [run(i) for i in range(MFG_BATCHES)]
    got = _run_concurrently(run, MFG_BATCHES)
    corrupted = [
        i
        for i, ((xs, ys), (ref_xs, ref_ys)) in enumerate(zip(got, reference))
        if not (_same_bytes(xs, ref_xs) and _same_bytes(ys, ref_ys))
    ]
    assert not corrupted, f"{len(corrupted)}/{MFG_BATCHES} batches differ: {corrupted[:10]}"


def _cache_run(store, hot, batches, concurrent):
    """Every batch through ``transfer_batch_with_cache`` on a fresh cache;
    returns (cache, device, assembled feature matrices)."""
    device = Device()
    cache = DeviceFeatureCache(device, store, hot)
    task = lambda i: transfer_batch_with_cache(device, cache, batches[i]).xs.data  # noqa: E731
    if concurrent:
        xs = _run_concurrently(task, len(batches))
    else:
        xs = [task(i) for i in range(len(batches))]
    device.shutdown()
    return cache, device, xs


def test_feature_cache_totals_match_serial(sampled, small_products):
    store, mfgs = sampled
    batches = [slice_batch_fused(store, mfg) for mfg in mfgs]
    hot = hottest_nodes(small_products.graph, small_products.num_nodes // 4)
    serial, serial_dev, serial_xs = _cache_run(store, hot, batches, False)
    threaded, threaded_dev, threaded_xs = _cache_run(store, hot, batches, True)
    assert serial.hits > 0 and serial.misses > 0
    assert (threaded.hits, threaded.misses, threaded.bytes_saved) == (
        serial.hits,
        serial.misses,
        serial.bytes_saved,
    )
    assert threaded_dev.bytes_transferred == serial_dev.bytes_transferred
    assert all(_same_bytes(a, b) for a, b in zip(threaded_xs, serial_xs))
