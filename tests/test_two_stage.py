"""Tests for the two-stage memory strategy and its helpers (Section 5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import build_tree
from repro.core.search import batch_knn_query, batch_range_query
from repro.core.searchcommon import (
    ENTRY_BYTES,
    IntermediateTable,
    PruneMode,
    level_pair_limit,
    split_into_groups,
)
from repro.exceptions import MemoryDeadlockError, QueryError
from repro.gpusim import Device, DeviceSpec
from repro.metrics import EuclideanDistance


class TestPruneMode:
    def test_from_name_variants(self):
        assert PruneMode.from_name("two-sided").two_sided
        assert PruneMode.from_name("both").two_sided
        assert not PruneMode.from_name("one-sided").two_sided
        assert not PruneMode.from_name("paper").two_sided

    def test_unknown_name_rejected(self):
        with pytest.raises(QueryError):
            PruneMode.from_name("three-sided")


class TestLevelPairLimit:
    def test_limit_shrinks_with_memory(self):
        big = Device(DeviceSpec(memory_bytes=1024 * 1024 * 1024))
        small = Device(DeviceSpec(memory_bytes=64 * 1024))
        assert level_pair_limit(big, 3, 0, 20) > level_pair_limit(small, 3, 0, 20)

    def test_limit_grows_with_depth(self):
        """Deeper layers have fewer remaining levels, hence a larger budget."""
        device = Device(DeviceSpec(memory_bytes=1024 * 1024))
        assert level_pair_limit(device, 4, 3, 20) > level_pair_limit(device, 4, 0, 20)

    def test_limit_at_least_one(self):
        device = Device(DeviceSpec(memory_bytes=1024))
        device.allocate(1000)
        assert level_pair_limit(device, 5, 0, 320) == 1

    def test_limit_respects_existing_allocations(self):
        device = Device(DeviceSpec(memory_bytes=1024 * 1024))
        before = level_pair_limit(device, 3, 0, 20)
        device.allocate(512 * 1024)
        after = level_pair_limit(device, 3, 0, 20)
        assert after < before


class TestSplitIntoGroups:
    def test_no_split_needed_single_group(self):
        cand_q = np.array([0, 0, 1, 1, 2])
        groups = split_into_groups(cand_q, limit_pairs=10)
        assert len(groups) == 1
        assert sorted(np.concatenate(groups).tolist()) == [0, 1, 2, 3, 4]

    def test_groups_respect_limit(self):
        cand_q = np.repeat(np.arange(8), 3)  # 8 queries x 3 pairs
        groups = split_into_groups(cand_q, limit_pairs=7)
        assert all(len(g) <= 7 for g in groups)
        assert sorted(np.concatenate(groups).tolist()) == list(range(24))

    def test_queries_kept_together_when_possible(self):
        cand_q = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        groups = split_into_groups(cand_q, limit_pairs=6)
        for group in groups:
            queries_in_group = set(cand_q[group].tolist())
            # each group holds whole queries (no query is split across groups
            # unless it alone exceeds the limit)
            for q in queries_in_group:
                assert np.sum(cand_q[np.concatenate(groups)] == q) == 3

    def test_oversized_single_query_is_chunked(self):
        cand_q = np.zeros(25, dtype=np.int64)
        groups = split_into_groups(cand_q, limit_pairs=10)
        assert all(len(g) <= 10 for g in groups)
        assert sum(len(g) for g in groups) == 25

    def test_invalid_limit_rejected(self):
        with pytest.raises(QueryError):
            split_into_groups(np.array([0]), limit_pairs=0)

    def test_every_pair_appears_exactly_once(self, rng):
        cand_q = rng.integers(0, 20, size=200)
        groups = split_into_groups(cand_q, limit_pairs=17)
        combined = sorted(np.concatenate(groups).tolist())
        assert combined == list(range(200))


class TestIntermediateTable:
    def test_allocates_and_frees(self, device):
        used = device.used_bytes
        with IntermediateTable(device, 100):
            assert device.used_bytes == used + 100 * ENTRY_BYTES
        assert device.used_bytes == used

    def test_raises_memory_deadlock_when_too_large(self):
        device = Device(DeviceSpec(memory_bytes=1024))
        with pytest.raises(MemoryDeadlockError):
            IntermediateTable(device, 10_000)

    def test_frees_on_exception(self, device):
        used = device.used_bytes
        with pytest.raises(RuntimeError):
            with IntermediateTable(device, 10):
                raise RuntimeError("boom")
        assert device.used_bytes == used


#: Both batch searches share the two-stage descent; each runs with its own
#: parameter (radius or ``k``), a wide and a narrow one.
SEARCHES = {
    "range": (batch_range_query, 0.5, 0.3),
    "knn": (batch_knn_query, 8, 4),
}


class TestTwoStageBehaviour:
    """Every check runs over both query kinds: the group split is shared."""

    def _tree(self, n=800, nc=8, seed=0):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        metric = EuclideanDistance()
        build_device = Device(DeviceSpec())
        tree = build_tree(pts, np.arange(n), metric, nc, build_device).tree
        return pts, metric, tree

    def test_constrained_memory_gives_same_answers_with_more_kernels(self):
        pts, metric, tree = self._tree()
        queries = [pts[i] for i in range(64)]
        for kind, (search, param, _) in SEARCHES.items():
            roomy = Device(DeviceSpec())
            tight = Device(DeviceSpec(memory_bytes=96 * 1024))
            res_roomy = search(tree, pts, metric, roomy, queries, param)
            res_tight = search(tree, pts, metric, tight, queries, param)
            for a, b in zip(res_roomy, res_tight):
                assert {o for o, _ in a} == {o for o, _ in b}, kind
                assert [d for _, d in a] == [d for _, d in b], kind
            # grouping means strictly more kernel launches under memory pressure
            assert tight.stats.kernel_launches > roomy.stats.kernel_launches, kind

    def test_constrained_memory_costs_more_simulated_time(self):
        pts, metric, tree = self._tree()
        queries = [pts[i] for i in range(64)]
        for kind, (search, param, _) in SEARCHES.items():
            roomy = Device(DeviceSpec())
            tight = Device(DeviceSpec(memory_bytes=96 * 1024))
            search(tree, pts, metric, roomy, queries, param)
            search(tree, pts, metric, tight, queries, param)
            assert tight.stats.sim_time > roomy.stats.sim_time, kind

    def test_peak_memory_stays_below_capacity(self):
        pts, metric, tree = self._tree()
        queries = [pts[i] for i in range(64)]
        for kind, (search, param, _) in SEARCHES.items():
            tight = Device(DeviceSpec(memory_bytes=96 * 1024))
            search(tree, pts, metric, tight, queries, param)
            assert tight.stats.peak_memory_bytes <= tight.capacity_bytes, kind

    def test_extremely_small_memory_still_completes(self):
        """Even a few-KB device completes thanks to per-query chunking."""
        pts, metric, tree = self._tree(n=300)
        queries = [pts[i] for i in range(8)]
        for kind, (search, _, param) in SEARCHES.items():
            tiny = Device(DeviceSpec(memory_bytes=8 * 1024))
            res = search(tree, pts, metric, tiny, queries, param)
            assert len(res) == 8, kind
