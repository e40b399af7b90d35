"""Tests for the level-synchronous GTS construction (Algorithms 1-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.construction import (
    TreeBuild,
    _partition_level,
    _select_pivots,
    build_tree,
    objects_nbytes,
)
from repro.core.encoding import encode_distances
from repro.core.nodes import NO_PIVOT, TreeStructure, level_size, level_start, tree_height
from repro.core.pivots import PivotSelector, available_pivot_strategies, get_pivot_selector
from repro.core.objectstore import gather_rows, make_object_store
from repro.exceptions import ConstructionError
from repro.gpusim import Device, DeviceSpec
from repro.gpusim.kernels import sort_kernel
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
    """The host rows a build reads and its read port: None, or one paging through ``device``."""
    objects = make_object_store(points)
    if not tiered:
        return objects, None
    store = TieredObjectStore(objects, block_bytes=256)
    pager = BlockPager(device, store, TierConfig(memory_budget_bytes=1024, block_bytes=256))
    return objects, PagedObjects(store, pager)


class TestTreeBuild:
    @pytest.mark.parametrize("tiered", [False, True], ids=["resident", "tiered"])
    def test_one_level_per_run_matches_build_tree(self, points_2d, tiered):
        ids = np.arange(0, len(points_2d), 2)  # a subset, as a rebuild after deletes folds
        outcomes = []
        for stepped in (False, True):
            device = Device(DeviceSpec())
            objects, port = _build_store(points_2d, tiered, device)
            args = (objects, ids, EuclideanDistance(), 4, device)
            options = dict(rng=np.random.default_rng(3), allocate_storage=not tiered, port=port)
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


def _random_level(seed: int, nc: int = 4, n: int = 300) -> tuple[TreeStructure, np.ndarray]:
    """A tree whose level 1 holds random node sizes (zeros and sizes below
    ``nc`` included) and whose stored distances repeat, so ties are common."""
    rng = np.random.default_rng(seed)
    tree = TreeStructure.empty(n, nc)
    assert tree.height >= 2
    nodes = np.arange(level_start(1, nc), level_start(1, nc) + level_size(1, nc))
    cuts = np.sort(rng.integers(0, n + 1, size=len(nodes) - 1))
    sizes = np.diff(np.concatenate(([0], cuts, [n])))
    sizes[0], sizes[-1] = 0, sizes[-1] + sizes[0]  # at least one empty node
    tree.pos[nodes] = np.cumsum(sizes) - sizes
    tree.size[nodes] = sizes
    tree.obj_ids[:] = rng.permutation(n)
    tree.obj_dis[:] = rng.integers(0, 6, size=n) / 4.0
    return tree, nodes[sizes > 0]


def _reference_partition(tree, node_ids, device):
    """The per-node partitioning loop the array kernel replaced."""
    nc = tree.node_capacity
    n = tree.num_objects
    segment_ids = np.zeros(n, dtype=np.int64)
    for seg, node_id in enumerate(node_ids):
        p, s = int(tree.pos[node_id]), int(tree.size[node_id])
        segment_ids[p : p + s] = seg
    order = sort_kernel(
        device, encode_distances(tree.obj_dis, segment_ids, float(tree.obj_dis.max())), 1.0
    )
    tree.obj_ids[:] = tree.obj_ids[order]
    tree.obj_dis[:] = tree.obj_dis[order]
    for node_id in node_ids:
        p, s = int(tree.pos[node_id]), int(tree.size[node_id])
        avg = s // nc
        for j, child in enumerate(tree.children_of(int(node_id))):
            if j < nc - 1:
                c_pos, c_size = p + j * avg, avg
            else:
                c_pos, c_size = p + (nc - 1) * avg, s - avg * (nc - 1)
            tree.pos[child] = c_pos
            tree.size[child] = c_size
            if c_size > 0:
                tree.min_dis[child] = tree.obj_dis[c_pos]
                tree.max_dis[child] = tree.obj_dis[c_pos + c_size - 1]


def _reference_pivots(tree, node_ids, is_root, selector, rng):
    """The per-node pivot loop the level-wide selection replaced."""
    for node_id in node_ids:
        p, s = int(tree.pos[node_id]), int(tree.size[node_id])
        tree.pivot[node_id] = tree.obj_ids[p + selector(tree.obj_dis[p : p + s], is_root, rng)]


class _LastPivot(PivotSelector):
    """A custom selector that defines only ``__call__``."""

    name = "last"

    def __call__(self, local_dis, is_root, rng):
        return len(local_dis) - 1


_TREE_FIELDS = ("pivot", "pos", "size", "min_dis", "max_dis", "obj_ids", "obj_dis")


class TestLevelKernels:
    """The array level kernels equal the per-node loops they replaced."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nc", [2, 4, 7])
    def test_partition_matches_per_node_loop(self, seed, nc):
        tree, active = _random_level(seed, nc=nc, n=30 * nc * nc)
        reference = TreeStructure(**{f: getattr(tree, f).copy() for f in _TREE_FIELDS},
                                  node_capacity=nc, height=tree.height,
                                  num_objects=tree.num_objects)
        _partition_level(tree, active, Device(DeviceSpec()))
        _reference_partition(reference, active, Device(DeviceSpec()))
        for name in _TREE_FIELDS:
            np.testing.assert_array_equal(getattr(tree, name), getattr(reference, name))
        # small nodes leave empty children behind, which stay unbounded
        children = tree.size[level_start(2, nc) : level_start(2, nc) + level_size(2, nc)]
        assert (children == 0).any()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("is_root", [False, True])
    @pytest.mark.parametrize("strategy", [*available_pivot_strategies(), "custom"])
    def test_pivots_match_per_node_loop(self, seed, is_root, strategy):
        tree, active = _random_level(seed)
        selector = _LastPivot() if strategy == "custom" else get_pivot_selector(strategy)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = tree.pivot.copy()
        reference = TreeStructure(**{f: getattr(tree, f) for f in _TREE_FIELDS if f != "pivot"},
                                  pivot=expected, node_capacity=tree.node_capacity,
                                  height=tree.height, num_objects=tree.num_objects)
        _select_pivots(tree, active, is_root, selector, ours)
        _reference_pivots(reference, active, is_root, selector, theirs)
        np.testing.assert_array_equal(tree.pivot, expected)
        # the same random draws were consumed
        assert ours.integers(1 << 30) == theirs.integers(1 << 30)

    def test_fft_ties_and_nan_follow_argmax(self):
        selector = get_pivot_selector("fft")
        level = np.array([1.0, 3.0, 3.0, 0.0, np.nan, 2.0, np.nan, 0.5, 0.5])
        sizes = np.array([3, 4, 2])
        expected = [int(np.argmax(level[s : s + n])) for s, n in ((0, 3), (3, 4), (7, 2))]
        offsets = selector.select_level(level, sizes, False, np.random.default_rng(0))
        assert offsets.tolist() == expected == [1, 1, 0]

    @pytest.mark.parametrize("strategy", available_pivot_strategies())
    def test_empty_node_rejected_by_every_strategy(self, strategy):
        selector = get_pivot_selector(strategy)
        with pytest.raises(ConstructionError):
            selector.select_level(np.ones(3), np.array([3, 0]), False, np.random.default_rng(0))


class TestHelpers:
    def test_object_sizes_match_objects_nbytes_of_each(self, points_2d, word_list):
        """A store's row sizes are each row's objects_nbytes, at least 1 B."""
        for objects in (
            points_2d,
            points_2d.astype(np.float32),
            word_list + [""],
            [points_2d[0], "ab", 7],
            np.array(word_list[:5]),
        ):
            store = make_object_store(objects)
            sizes = store.row_sizes()
            assert sizes.dtype == np.int64
            expected = [max(1, objects_nbytes([objects[i]])) for i in range(len(objects))]
            assert sizes.tolist() == expected
            assert store.nbytes() == sum(expected)
            ids = np.arange(0, len(objects), 2)
            assert store.nbytes(ids) == store.nbytes(ids.tolist()) == sum(expected[0::2])
            assert store.nbytes(set(ids.tolist())) == sum(expected[0::2])
            assert store.nbytes([]) == 0

    def test_gather_rows_array(self, rng):
        pts = rng.normal(size=(10, 2))
        out = gather_rows(pts, [1, 3])
        np.testing.assert_array_equal(out, pts[[1, 3]])

    def test_gather_rows_list(self):
        assert gather_rows(["a", "b", "c"], [2, 0]) == ["c", "a"]

    def test_stored_nbytes_sizes_the_row_the_store_holds(self):
        store = make_object_store(np.zeros((3, 2)))
        assert store.stored_nbytes([1.0, 2.0]) == 16
        assert store.stored_nbytes((1, 2)) == 16
        assert store.stored_nbytes(np.array([1, 2], dtype=np.int8)) == 16
        assert store.stored_nbytes(np.zeros(100)) == 800  # no row: its own size
        narrow = make_object_store(np.zeros((3, 2), dtype=np.float32))
        assert narrow.stored_nbytes([1.0, 2.0]) == 8  # exact in float32
        assert narrow.stored_nbytes([0.1, 2.0]) == 16  # promotes the store
        words = make_object_store(["ab"])
        assert words.stored_nbytes("cde") == 3
        assert words.stored_nbytes("") == 1
        assert not words.append("")
        assert words.nbytes() == 2 + 1

    def test_objects_nbytes_vectors(self, rng):
        pts = rng.normal(size=(10, 4))
        assert objects_nbytes(pts) == 10 * 4 * 8
        assert objects_nbytes(pts, ids=[0, 1]) == 2 * 4 * 8

    def test_objects_nbytes_strings(self):
        assert objects_nbytes(["ab", "cde"]) == 5
        assert objects_nbytes(["ab", "cde"], ids=[1]) == 3
