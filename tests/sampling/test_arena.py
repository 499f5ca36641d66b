"""Arena hot-path tests: buffer semantics, equivalence, allocation telemetry.

Equivalence is checked against the pre-arena reference sampler in
``benchmarks/reference.py`` (full-edge lexsort, ``np.unique`` dedup).
"""

import numpy as np
import pytest

import reference

from repro.datasets import available_datasets, get_dataset
from repro.sampling import FastNeighborSampler, SamplerArena
from repro.sampling.arena import (
    expand_frontier_arena,
    first_occurrence_dedup,
    gather_frontier_edges,
)
from repro.telemetry import MetricsRegistry


def assert_mfgs_identical(a, b):
    np.testing.assert_array_equal(a.n_id, b.n_id)
    assert len(a.adjs) == len(b.adjs)
    for adj_a, adj_b in zip(a.adjs, b.adjs):
        assert adj_a.size == adj_b.size
        np.testing.assert_array_equal(adj_a.edge_index, adj_b.edge_index)


def random_batches(dataset, count, size, seed=0):
    rng = np.random.default_rng(seed)
    train = dataset.split.train
    return [
        rng.choice(train, size=min(size, len(train)), replace=False)
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# SamplerArena buffer semantics
# ----------------------------------------------------------------------
class TestSamplerArena:
    def test_request_returns_view_of_requested_size(self):
        arena = SamplerArena()
        buf = arena.request("scratch", 10)
        assert buf.shape == (10,)
        assert buf.dtype == np.int64

    def test_same_name_reuses_backing_buffer(self):
        arena = SamplerArena()
        first = arena.request("scratch", 10)
        first[:] = 7
        again = arena.request("scratch", 5)
        # Same storage: the smaller request is a prefix view of it.
        assert np.shares_memory(first, again)
        np.testing.assert_array_equal(again, 7)

    def test_growth_is_amortized_doubling(self):
        arena = SamplerArena()
        arena.request("scratch", 10)
        grows = arena.grow_count
        arena.request("scratch", 11)  # exceeds capacity -> doubles to 20
        assert arena.grow_count == grows + 1
        arena.request("scratch", 20)  # fits the doubled buffer -> no grow
        assert arena.grow_count == grows + 1
        arena.request("scratch", 1000)
        assert arena.grow_count == grows + 2

    def test_grow_counters_recorded(self):
        metrics = MetricsRegistry()
        arena = SamplerArena(metrics)
        arena.request("a", 100)
        arena.request("b", 100, dtype=np.float64)
        assert metrics.value("arena_grows") == 2
        assert metrics.value("arena_grow_bytes") >= 100 * 8
        assert arena.nbytes() > 0
        assert set(arena.buffer_names()) == {"a", "b"}

    def test_iota_prefix(self):
        arena = SamplerArena()
        np.testing.assert_array_equal(arena.iota(5), np.arange(5))
        big = arena.iota(50)
        np.testing.assert_array_equal(big, np.arange(50))
        # prefix view of the same persistent buffer
        assert np.shares_memory(arena.iota(5), big)

    def test_dtype_mismatch_reallocates(self):
        arena = SamplerArena()
        as_int = arena.request("keys", 8)
        as_float = arena.request("keys", 8, dtype=np.float64)
        assert as_int.dtype == np.int64
        assert as_float.dtype == np.float64


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------
class TestArenaKernels:
    def test_gather_matches_csr(self, small_products):
        graph = small_products.graph
        arena = SamplerArena()
        frontier = np.array([0, 5, 17, 3], dtype=np.int64)
        src, dst, degrees, total = gather_frontier_edges(graph, frontier, arena)
        assert total == int(degrees.sum())
        for local, node in enumerate(frontier):
            mask = dst[:total] == local
            np.testing.assert_array_equal(
                np.sort(src[:total][mask]), np.sort(graph.neighbors(int(node)))
            )

    def test_first_occurrence_dedup_discovery_order(self):
        arena = SamplerArena()
        local_of = np.full(100, -1, dtype=np.int64)
        src_sel = np.array([42, 7, 42, 13, 7, 99], dtype=np.int64)
        src_local, ordered_new = first_occurrence_dedup(src_sel, local_of, 3, arena)
        np.testing.assert_array_equal(ordered_new, [42, 7, 13, 99])
        np.testing.assert_array_equal(src_local, [3, 4, 3, 5, 4, 6])
        local_of[ordered_new] = -1
        assert (local_of == -1).all()

    def test_dedup_with_no_new_nodes(self):
        arena = SamplerArena()
        local_of = np.full(10, -1, dtype=np.int64)
        local_of[[4, 6]] = [0, 1]
        src_sel = np.array([4, 6, 4], dtype=np.int64)
        src_local, ordered_new = first_occurrence_dedup(src_sel, local_of, 2, arena)
        assert ordered_new is None
        np.testing.assert_array_equal(src_local, [0, 1, 0])

    def test_split_and_copy_paths_match_legacy_kernel(self, small_products):
        graph = small_products.graph
        arena = SamplerArena()
        rng_state = np.random.default_rng(3)
        frontier = rng_state.choice(
            graph.num_nodes, size=200, replace=False
        ).astype(np.int64)
        for fanout in (None, 1, 5, 50):
            old = reference.expand_frontier_vectorized(
                graph, frontier, fanout, np.random.default_rng(11)
            )
            new = expand_frontier_arena(
                graph, frontier, fanout, np.random.default_rng(11), arena
            )
            np.testing.assert_array_equal(old[0], new[0])
            np.testing.assert_array_equal(old[1], new[1])


# ----------------------------------------------------------------------
# Determinism: reference (pre-arena) vs arena sampler, byte-identical MFGs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_datasets())
def test_arena_and_legacy_mfgs_byte_identical(name):
    dataset = get_dataset(name, scale=0.2, seed=0)
    legacy = reference.LegacyFastSampler(dataset.graph, [10, 5])
    arena = FastNeighborSampler(dataset.graph, [10, 5])
    for index, nodes in enumerate(random_batches(dataset, 50, 64, seed=5)):
        seed = np.random.SeedSequence([9, index])
        mfg_legacy = legacy.sample(nodes, np.random.default_rng(seed))
        mfg_arena = arena.sample(nodes, np.random.default_rng(seed))
        assert_mfgs_identical(mfg_legacy, mfg_arena)
    assert (legacy._local_of == -1).all()
    assert (arena._local_of == -1).all()


# ----------------------------------------------------------------------
# Exception safety (satellite a)
# ----------------------------------------------------------------------
class TestExceptionSafety:
    def test_out_of_range_batch_raises_and_leaves_map_clean(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5, 5])
        bad = np.array([0, small_products.graph.num_nodes + 3], dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            sampler.sample(bad, np.random.default_rng(0))
        assert (sampler._local_of == -1).all()

    def test_negative_ids_rejected_before_map_write(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5])
        with pytest.raises(ValueError, match="out of range"):
            sampler.sample(np.array([-1, 2]), np.random.default_rng(0))
        assert (sampler._local_of == -1).all()

    @pytest.mark.parametrize("use_arena", [False, True])
    def test_mid_hop_failure_leaves_sampler_reusable(self, small_products, use_arena):
        # The reset logic is shared; the reference hop loop exercises it
        # with a different failure point inside the hop.
        cls = FastNeighborSampler if use_arena else reference.LegacyFastSampler
        sampler = cls(small_products.graph, [10, 5])
        nodes = small_products.split.train[:32]

        class ExplodingRng:
            """Fails on the second hop, after the map already has entries."""

            def __init__(self):
                self.calls = 0
                self._real = np.random.default_rng(0)

            def random(self, *args, **kwargs):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("injected failure")
                return self._real.random(*args, **kwargs)

        with pytest.raises(RuntimeError, match="injected failure"):
            sampler.sample(nodes, ExplodingRng())
        assert (sampler._local_of == -1).all()
        # and the sampler still produces correct batches afterwards
        mfg = sampler.sample(nodes, np.random.default_rng(1))
        mfg.validate()
        assert (sampler._local_of == -1).all()


# ----------------------------------------------------------------------
# Allocation telemetry: O(1) array allocations per batch after warm-up
# ----------------------------------------------------------------------
class TestAllocationTelemetry:
    def test_arena_stops_growing_after_warmup(self, small_products):
        metrics = MetricsRegistry()
        sampler = FastNeighborSampler(small_products.graph, [15, 10, 5])
        sampler.attach_metrics(metrics)
        batches = random_batches(small_products, 25, 256, seed=2)
        # Warm-up on the first few batches grows buffers to steady state.
        for index, nodes in enumerate(batches[:5]):
            sampler.sample(nodes, np.random.default_rng([1, index]))
        grows_after_warmup = metrics.value("arena_grows")
        assert grows_after_warmup > 0  # warm-up really did allocate
        for index, nodes in enumerate(batches[5:]):
            sampler.sample(nodes, np.random.default_rng([2, index]))
        # O(1) allocations per batch in steady state: the arena performs
        # ZERO further scratch allocations; only fixed-count outputs
        # (edge_index, n_id, MFG wrappers) are created per batch.
        assert metrics.value("arena_grows") == grows_after_warmup
        assert metrics.value("sampler_batches") == 25

    def test_copy_and_sort_path_counters(self, small_products):
        metrics = MetricsRegistry()
        # Fanouts sized against the products degree distribution so both
        # sub-paths engage (tiny fanouts push every segment over-degree,
        # which takes the whole-array sort fallback instead).
        sampler = FastNeighborSampler(small_products.graph, [25, 20])
        sampler.attach_metrics(metrics)
        for index, nodes in enumerate(random_batches(small_products, 5, 256)):
            sampler.sample(nodes, np.random.default_rng([3, index]))
        # Heavy-tail degrees: both the verbatim-copy path (under-degree
        # segments) and the sort path (over-degree remainder) must engage.
        assert metrics.value("sampler_edges_copy_path") > 0
        assert metrics.value("sampler_edges_sort_path") > 0

    def test_attach_metrics_redirects_arena(self, small_products):
        sampler = FastNeighborSampler(small_products.graph, [5])
        shared = MetricsRegistry()
        sampler.attach_metrics(shared)
        sampler.sample(small_products.split.train[:16], np.random.default_rng(0))
        assert shared.value("sampler_batches") == 1
        assert shared.value("arena_grows") > 0
