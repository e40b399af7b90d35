"""Tests for the level-synchronous GTS construction (Algorithms 1-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import TreeBuild, build_tree, objects_nbytes, take_objects
from repro.core.nodes import NO_PIVOT, tree_height
from repro.core.objectstore import make_object_store
from repro.exceptions import ConstructionError
from repro.gpusim import Device, DeviceSpec
from repro.metrics import EditDistance, EuclideanDistance
from repro.tier import BlockPager, PagedObjects, TierConfig, TieredObjectStore


def _build(objects, metric, nc=8, device=None, **kwargs):
    device = device or Device(DeviceSpec())
    ids = np.arange(len(objects))
    return build_tree(objects, ids, metric, nc, device, **kwargs), device


class TestBuildBasics:
    def test_empty_dataset_rejected(self, l2_metric, device):
        with pytest.raises(ConstructionError):
            build_tree(np.zeros((0, 2)), np.zeros(0, dtype=int), l2_metric, 4, device)

    def test_invalid_node_capacity_rejected(self, points_2d, l2_metric, device):
        with pytest.raises(ConstructionError):
            build_tree(points_2d, np.arange(len(points_2d)), l2_metric, 1, device)

    def test_height_matches_formula(self, points_2d, l2_metric):
        result, _ = _build(points_2d, l2_metric, nc=8)
        assert result.tree.height == tree_height(len(points_2d), 8)

    def test_invariants_hold(self, points_2d, l2_metric):
        result, _ = _build(points_2d, l2_metric, nc=8)
        result.tree.check_invariants()

    def test_invariants_hold_for_strings(self, word_list, edit_metric):
        result, _ = _build(word_list, edit_metric, nc=4)
        result.tree.check_invariants()

    def test_table_list_is_permutation(self, points_2d, l2_metric):
        result, _ = _build(points_2d, l2_metric, nc=8)
        assert sorted(result.tree.obj_ids.tolist()) == list(range(len(points_2d)))

    def test_single_object_dataset(self, l2_metric):
        result, _ = _build(np.array([[1.0, 2.0]]), l2_metric, nc=4)
        assert result.tree.height == 0
        assert result.tree.size[0] == 1

    def test_tiny_dataset_fits_in_root(self, l2_metric, rng):
        pts = rng.normal(size=(3, 2))
        result, _ = _build(pts, l2_metric, nc=8)
        assert result.tree.height == 0
        result.tree.check_invariants()

    def test_duplicate_objects_allowed(self, l2_metric):
        pts = np.tile(np.array([[1.0, 1.0]]), (40, 1))
        result, _ = _build(pts, l2_metric, nc=4)
        result.tree.check_invariants()
        assert result.tree.size[0] == 40

    def test_build_deterministic_given_seed(self, points_2d, l2_metric):
        r1, _ = _build(points_2d, l2_metric, nc=8, rng=np.random.default_rng(3))
        r2, _ = _build(points_2d, l2_metric, nc=8, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(r1.tree.obj_ids, r2.tree.obj_ids)
        np.testing.assert_array_equal(r1.tree.pivot, r2.tree.pivot)


class TestStructureSemantics:
    def test_internal_nodes_have_pivots_from_their_objects(self, points_2d, l2_metric):
        result, _ = _build(points_2d, l2_metric, nc=8)
        tree = result.tree
        for level in range(tree.height):
            for node in tree.active_nodes(level):
                pivot = int(tree.pivot[node])
                assert pivot != NO_PIVOT
                assert pivot in set(tree.node_objects(int(node)).tolist())

    def test_leaves_have_no_pivot(self, points_2d, l2_metric):
        result, _ = _build(points_2d, l2_metric, nc=8)
        tree = result.tree
        for node in tree.leaves():
            assert tree.pivot[node] == NO_PIVOT

    def test_child_distance_bounds_are_correct(self, points_2d, l2_metric):
        """min_dis / max_dis of a child really bound d(parent pivot, child objects)."""
        result, _ = _build(points_2d, l2_metric, nc=8)
        tree = result.tree
        metric = l2_metric
        for level in range(tree.height):
            for node in tree.active_nodes(level):
                pivot_obj = points_2d[int(tree.pivot[node])]
                for child in tree.children_of(int(node)):
                    child = int(child)
                    if tree.size[child] == 0:
                        continue
                    dists = metric.pairwise(pivot_obj, points_2d[tree.node_objects(child)])
                    assert dists.min() >= tree.min_dis[child] - 1e-9
                    assert dists.max() <= tree.max_dis[child] + 1e-9

    def test_children_sorted_by_distance_ranges(self, points_2d, l2_metric):
        """Sibling distance ranges are non-decreasing (the global sort worked)."""
        result, _ = _build(points_2d, l2_metric, nc=8)
        tree = result.tree
        for level in range(tree.height):
            for node in tree.active_nodes(level):
                last_max = -np.inf
                for child in tree.children_of(int(node)):
                    child = int(child)
                    if tree.size[child] == 0:
                        continue
                    assert tree.min_dis[child] >= last_max - 1e-9
                    last_max = tree.min_dis[child]

    def test_balanced_partitioning(self, l2_metric, rng):
        """Children of one node differ in size by at most the remainder rule."""
        pts = rng.normal(size=(640, 2))
        result, _ = _build(pts, l2_metric, nc=8)
        tree = result.tree
        for node in tree.active_nodes(0):
            sizes = tree.size[tree.children_of(int(node))]
            sizes = sizes[sizes > 0]
            avg = int(tree.size[node]) // 8
            assert np.all(sizes[:-1] == avg)

    def test_pivot_strategy_selectable(self, points_2d, l2_metric):
        r_fft, _ = _build(points_2d, l2_metric, nc=8, pivot_strategy="fft")
        r_rand, _ = _build(points_2d, l2_metric, nc=8, pivot_strategy="random")
        r_center, _ = _build(points_2d, l2_metric, nc=8, pivot_strategy="center")
        for r in (r_fft, r_rand, r_center):
            r.tree.check_invariants()

    def test_unknown_pivot_strategy_rejected(self, points_2d, l2_metric, device):
        with pytest.raises(ConstructionError):
            build_tree(points_2d, np.arange(len(points_2d)), l2_metric, 8, device, pivot_strategy="nope")

    def test_subset_of_ids_indexed(self, points_2d, l2_metric, device):
        ids = np.arange(0, len(points_2d), 2)
        result = build_tree(points_2d, ids, l2_metric, 8, device)
        assert sorted(result.tree.obj_ids.tolist()) == ids.tolist()
        result.tree.check_invariants()


class TestBuildAccounting:
    def test_distance_computations_roughly_n_per_level(self, points_2d, l2_metric):
        result, _ = _build(points_2d, l2_metric, nc=8)
        n = len(points_2d)
        h = result.tree.height
        assert result.distance_computations == n * h

    def test_device_memory_charged_and_released(self, points_2d, l2_metric):
        device = Device(DeviceSpec())
        result = build_tree(points_2d, np.arange(len(points_2d)), l2_metric, 8, device)
        assert device.used_bytes > 0
        for alloc in result.allocations:
            device.free(alloc)
        assert device.used_bytes == 0

    def test_no_storage_allocation_mode(self, points_2d, l2_metric):
        device = Device(DeviceSpec())
        result = build_tree(
            points_2d, np.arange(len(points_2d)), l2_metric, 8, device, allocate_storage=False
        )
        assert result.allocations == []
        assert device.used_bytes == 0

    def test_sim_time_positive_and_scales(self, l2_metric, rng):
        small, _ = _build(rng.normal(size=(100, 2)), EuclideanDistance(), nc=8)
        large, _ = _build(rng.normal(size=(3000, 2)), EuclideanDistance(), nc=8)
        assert 0 < small.sim_time
        assert small.sim_time < large.sim_time

    def test_kernel_launches_scale_with_levels_not_objects(self, l2_metric, rng):
        d1 = Device(DeviceSpec())
        d2 = Device(DeviceSpec())
        build_tree(rng.normal(size=(500, 2)), np.arange(500), EuclideanDistance(), 8, d1)
        build_tree(rng.normal(size=(4000, 2)), np.arange(4000), EuclideanDistance(), 8, d2)
        # one extra level at most => launch counts stay within a small factor
        assert d2.stats.kernel_launches <= d1.stats.kernel_launches * 3


def _build_store(points, tiered, device):
    """The objects a build reads: resident rows, or a view paged through ``device``."""
    objects = make_object_store(points)
    if not tiered:
        return objects
    store = TieredObjectStore(objects, block_bytes=256)
    pager = BlockPager(device, store, TierConfig(memory_budget_bytes=1024, block_bytes=256))
    return PagedObjects(store, pager)


class TestTreeBuild:
    @pytest.mark.parametrize("tiered", [False, True], ids=["resident", "tiered"])
    def test_one_level_per_run_matches_build_tree(self, points_2d, tiered):
        ids = np.arange(0, len(points_2d), 2)  # a subset, as a rebuild after deletes folds
        outcomes = []
        for stepped in (False, True):
            device = Device(DeviceSpec())
            args = (_build_store(points_2d, tiered, device), ids, EuclideanDistance(), 4, device)
            options = dict(rng=np.random.default_rng(3), allocate_storage=not tiered)
            if stepped:
                build = TreeBuild(*args, **options)
                levels = []
                while not build.finished:
                    levels.append(build.run(1))
                assert levels == [1] * build.tree.height
                result = build.result()
            else:
                result = build_tree(*args, **options)
            outcomes.append((result, device))
        (whole, whole_device), (stepped, stepped_device) = outcomes
        for name in ("pivot", "pos", "size", "min_dis", "max_dis", "obj_ids", "obj_dis"):
            np.testing.assert_array_equal(getattr(stepped.tree, name), getattr(whole.tree, name))
        assert stepped.sim_time == whole.sim_time
        assert stepped.distance_computations == whole.distance_computations
        assert stepped_device.stats.pool_peak_bytes == whole_device.stats.pool_peak_bytes
        for pool in whole_device.stats.pool_peak_bytes:
            assert stepped_device.pool_used_bytes(pool) == whole_device.pool_used_bytes(pool)

    def test_result_requires_every_level(self, points_2d, l2_metric, device):
        build = TreeBuild(points_2d, np.arange(len(points_2d)), l2_metric, 4, device)
        assert build.run(1) == 1 and not build.finished
        with pytest.raises(ConstructionError):
            build.result()

    def test_stage_runs_once_and_abort_frees_it(self, points_2d, l2_metric, device):
        build = TreeBuild(points_2d, np.arange(len(points_2d)), l2_metric, 4, device)
        build.stage()
        used = device.used_bytes
        build.stage()
        assert device.used_bytes == used > 0
        build.abort()
        assert device.used_bytes == 0


class TestHelpers:
    def test_take_objects_array(self, rng):
        pts = rng.normal(size=(10, 2))
        out = take_objects(pts, [1, 3])
        np.testing.assert_array_equal(out, pts[[1, 3]])

    def test_take_objects_list(self):
        assert take_objects(["a", "b", "c"], [2, 0]) == ["c", "a"]

    def test_objects_nbytes_vectors(self, rng):
        pts = rng.normal(size=(10, 4))
        assert objects_nbytes(pts) == 10 * 4 * 8
        assert objects_nbytes(pts, ids=[0, 1]) == 2 * 4 * 8

    def test_objects_nbytes_strings(self):
        assert objects_nbytes(["ab", "cde"]) == 5
        assert objects_nbytes(["ab", "cde"], ids=[1]) == 3
