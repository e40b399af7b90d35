"""Shared fixtures for the test suite.

Fixtures deliberately use small cardinalities: correctness is what the tests
establish; performance shapes are the benchmarks' job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_color, generate_dna, generate_tloc, generate_vector, generate_words
from repro.gpusim import Device, DeviceSpec
from repro.metrics import EditDistance, EuclideanDistance, ManhattanDistance


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def device() -> Device:
    return Device(DeviceSpec())


@pytest.fixture
def guarded_device():
    """A device that fails the test if it ends with live allocations.

    Use for code paths that own their cleanup (index ``close()``, pager
    ``release()``); the teardown assertion turns a forgotten ``free`` into a
    :class:`~repro.exceptions.MemoryLeakError` test failure.
    """
    device = Device(DeviceSpec())
    yield device
    device.assert_no_leaks()


@pytest.fixture
def small_device() -> Device:
    """A device with very little memory, for memory-pressure tests."""
    return Device(DeviceSpec(memory_bytes=256 * 1024))


@pytest.fixture
def points_2d(rng) -> np.ndarray:
    """Clustered 2-d points (T-Loc-like)."""
    centers = rng.normal(scale=10.0, size=(6, 2))
    assignment = rng.integers(0, 6, size=600)
    return centers[assignment] + rng.normal(scale=0.5, size=(600, 2))


@pytest.fixture
def points_highdim(rng) -> np.ndarray:
    """Clustered 20-d points (Color-like, but small for speed)."""
    centers = rng.normal(scale=3.0, size=(4, 20))
    assignment = rng.integers(0, 4, size=300)
    return centers[assignment] + rng.normal(scale=0.3, size=(300, 20))


@pytest.fixture
def word_list(rng) -> list[str]:
    """A small word-like string collection for edit-distance tests."""
    roots = ["metric", "space", "index", "tree", "pivot", "query", "batch", "gpu"]
    suffixes = ["", "s", "ing", "ed", "er"]
    words = []
    for i in range(250):
        w = roots[int(rng.integers(0, len(roots)))] + suffixes[int(rng.integers(0, len(suffixes)))]
        if rng.random() < 0.3:
            w += "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=int(rng.integers(1, 4))))
        words.append(w)
    return words


@pytest.fixture
def l2_metric() -> EuclideanDistance:
    return EuclideanDistance()


@pytest.fixture
def l1_metric() -> ManhattanDistance:
    return ManhattanDistance()


@pytest.fixture
def edit_metric() -> EditDistance:
    return EditDistance(expected_length=8)


def brute_force_range(objects, metric, query, radius):
    """Reference range query used for correctness checks."""
    dists = metric.pairwise(query, objects)
    hits = [(int(i), float(d)) for i, d in enumerate(dists) if d <= radius]
    return sorted(hits, key=lambda p: (p[1], p[0]))


def brute_force_knn(objects, metric, query, k):
    """Reference kNN query used for correctness checks."""
    dists = metric.pairwise(query, objects)
    order = np.lexsort((np.arange(len(dists)), dists))[:k]
    return [(int(i), float(dists[i])) for i in order]


@pytest.fixture
def oracles():
    """Expose the brute-force reference implementations to tests."""
    return brute_force_range, brute_force_knn


@pytest.fixture
def spy_batch_calls(monkeypatch):
    """Record the query-batch calls an index receives.

    ``spy_batch_calls(index)`` wraps the instance's ``range_query_batch`` and
    ``knn_query_batch`` and returns a list that gets one
    ``(method name, number of queries)`` entry per call.
    """

    def install(index):
        calls = []
        for name in ("range_query_batch", "knn_query_batch"):

            def spy(queries, params, _real=getattr(index, name), _name=name):
                calls.append((_name, len(queries)))
                return _real(queries, params)

            monkeypatch.setattr(index, name, spy)
        return calls

    return install


def replay_ops(index, ops) -> list:
    """Run a mixed op batch one operation at a time (the sequential reference)."""
    calls = {
        "range": index.range_query,
        "knn": index.knn_query,
        "insert": index.insert,
        "delete": index.delete,
    }
    return [calls[kind](*args) for kind, *args in ops]


def random_op_batch(index, points, insertable, seed, size=40) -> list:
    """A seeded random interleaving of range, kNN, insert and delete ops.

    Query payloads come from six points, so queries repeat.  The first op is
    a 1-NN query; its answer is deleted later in the same batch and queried
    again right after the delete.
    """
    rng = np.random.default_rng(seed)
    hot = list(points[rng.choice(len(points), 6, replace=False)])
    target = index.knn_query(hot[0], 1)[0][0]
    victims = iter(int(i) for i in rng.permutation(len(points)) if i != target)
    fresh = iter(insertable)
    ops = [("knn", hot[0], 1)]
    for kind in rng.choice(["range", "knn", "insert", "delete"], size=size, p=[0.35, 0.35, 0.15, 0.15]):
        if kind == "range":
            ops.append(("range", hot[rng.integers(6)], float(rng.choice([0.5, 0.9]))))
        elif kind == "knn":
            ops.append(("knn", hot[rng.integers(6)], int(rng.choice([1, 4, 6]))))
        elif kind == "insert":
            ops.append(("insert", next(fresh)))
        else:
            ops.append(("delete", next(victims)))
    at = int(rng.integers(2, len(ops)))
    ops[at:at] = [("delete", target), ("knn", hot[0], 1)]
    return ops


@pytest.fixture
def mixed_batches():
    """Expose the sequential replay and the random mixed-batch builder."""
    return replay_ops, random_op_batch
