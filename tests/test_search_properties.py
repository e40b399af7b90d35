"""Property-based tests: GTS answers always equal brute-force answers.

These are the strongest correctness guarantees in the suite: for random
datasets, random queries, random node capacities and random radii / k, the
index must return exactly the brute-force result (distance multisets for kNN,
id sets for MRQ).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.construction import build_tree
from repro.core.search import batch_knn_query, batch_range_query
from repro.gpusim import Device, DeviceSpec
from repro.metrics import EditDistance, EuclideanDistance, ManhattanDistance
from tests.conftest import brute_force_knn, brute_force_range


def _build(objects, metric, nc):
    device = Device(DeviceSpec())
    tree = build_tree(objects, np.arange(len(objects)), metric, nc, device).tree
    return tree, device


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=300),
    nc=st.sampled_from([2, 3, 5, 10, 20]),
    radius=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_mrq_matches_brute_force_on_random_points(seed, n, nc, radius):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    metric = EuclideanDistance()
    tree, device = _build(pts, metric, nc)
    queries = [pts[int(rng.integers(0, n))] + rng.normal(scale=0.1, size=3) for _ in range(3)]
    got = batch_range_query(tree, pts, metric, device, queries, radius)
    for qi, query in enumerate(queries):
        expected = brute_force_range(pts, metric, query, radius)
        assert {o for o, _ in got[qi]} == {o for o, _ in expected}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=300),
    nc=st.sampled_from([2, 4, 16]),
    k=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_mknn_matches_brute_force_on_random_points(seed, n, nc, k):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    metric = ManhattanDistance()
    tree, device = _build(pts, metric, nc)
    query = pts[int(rng.integers(0, n))] + rng.normal(scale=0.05, size=3)
    got = batch_knn_query(tree, pts, metric, device, [query], k)[0]
    expected = brute_force_knn(pts, metric, query, k)
    assert len(got) == len(expected)
    np.testing.assert_allclose(
        sorted(d for _, d in got), sorted(d for _, d in expected), atol=1e-9
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=120),
    nc=st.sampled_from([2, 4, 8]),
    radius=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_mrq_matches_brute_force_on_random_strings(seed, n, nc, radius):
    rng = np.random.default_rng(seed)
    alphabet = list("abcd")
    words = ["".join(rng.choice(alphabet, size=int(rng.integers(1, 10)))) for _ in range(n)]
    metric = EditDistance(expected_length=6)
    tree, device = _build(words, metric, nc)
    query = "".join(rng.choice(alphabet, size=int(rng.integers(1, 10))))
    got = batch_range_query(tree, words, metric, device, [query], float(radius))[0]
    expected = brute_force_range(words, metric, query, float(radius))
    assert {o for o, _ in got} == {o for o, _ in expected}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    duplicates=st.integers(min_value=2, max_value=30),
    k=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_mknn_correct_with_heavy_duplicates(seed, duplicates, k):
    """Duplicate keys may straddle node boundaries (Fig. 10); answers stay exact."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(8, 2))
    pts = np.repeat(base, duplicates, axis=0)
    metric = EuclideanDistance()
    tree, device = _build(pts, metric, 4)
    query = base[0] + 0.01
    got = batch_knn_query(tree, pts, metric, device, [query], k)[0]
    expected = brute_force_knn(pts, metric, query, k)
    np.testing.assert_allclose(
        sorted(d for _, d in got), sorted(d for _, d in expected), atol=1e-9
    )


@given(
    seed=st.integers(min_value=0, max_value=1_000),
    n=st.integers(min_value=10, max_value=200),
    radius=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
)
@settings(max_examples=25, deadline=None)
def test_mrq_exact_under_memory_pressure(seed, n, radius):
    """Tiny device memory forces the two-stage grouping; answers must not change."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    metric = EuclideanDistance()
    big = Device(DeviceSpec())
    tree = build_tree(pts, np.arange(n), metric, 4, big).tree
    small = Device(DeviceSpec(memory_bytes=64 * 1024))
    queries = [pts[i] for i in range(min(16, n))]
    got_small = batch_range_query(tree, pts, metric, small, queries, radius)
    got_big = batch_range_query(tree, pts, metric, big, queries, radius)
    for a, b in zip(got_small, got_big):
        assert {o for o, _ in a} == {o for o, _ in b}


@given(seed=st.integers(min_value=0, max_value=1_000), k=st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_knn_subset_of_large_enough_range_query(seed, k):
    """The k-th NN distance defines a radius whose MRQ contains the kNN answer."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(150, 2))
    metric = EuclideanDistance()
    tree, device = _build(pts, metric, 8)
    query = pts[0] + 0.02
    knn = batch_knn_query(tree, pts, metric, device, [query], k)[0]
    kth = max(d for _, d in knn)
    mrq = batch_range_query(tree, pts, metric, device, [query], kth)[0]
    assert {o for o, _ in knn} <= {o for o, _ in mrq} | set()
