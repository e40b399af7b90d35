"""Certified leaf verification against the exact path (DESIGN.md §8).

Leaf verification filters candidate pairs with ``Metric.distance_bounds``
(for the angular metric: one BLAS product plus a proven error bound) and
recomputes only the survivors with the exact row-wise kernel.  These tests
run adversarial data through both the certified path and the exact path —
forced by making ``distance_bounds`` return None — and require identical
answers, identical ``metric.pair_count`` and identical ``ExecutionStats``
(host wall-clock excluded).  The last test shows they have teeth: with the
cosine error bound set to zero the certified path goes wrong on at least one
case.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import GTS
from repro.gpusim import Device, DeviceSpec
from repro.metrics import AngularDistance

DIM = 48


def _spy_bounds(mp: pytest.MonkeyPatch) -> list:
    """Record the row side of every ``AngularDistance.distance_bounds`` call.

    ``"view"`` when the rows are the store matrix itself (a view owns no
    data), ``"gather"`` when they are a gathered copy of the distinct
    candidate rows.
    """
    calls = []
    original = AngularDistance.distance_bounds

    def spied(self, query_matrix, row_matrix, *args, **kwargs):
        calls.append("gather" if row_matrix.flags.owndata else "view")
        return original(self, query_matrix, row_matrix, *args, **kwargs)

    mp.setattr(AngularDistance, "distance_bounds", spied)
    return calls


def _stats(stats) -> dict:
    fields = dataclasses.asdict(stats)
    del fields["host_time"]
    return fields


def _serve(data, queries, radii, k, inserts=(), deletes=()):
    """Range and kNN batches, with a deletion in between; everything observable.

    ``inserts`` are appended (to the cache table, outside the tree) and
    ``deletes`` tombstoned before the first batch.
    """
    index = GTS.build(data, AngularDistance(), node_capacity=6, seed=5, device=Device(DeviceSpec()))
    index.metric.reset_counter()
    before = index.device.snapshot()
    for row in inserts:
        index.insert(row)
    for obj_id in deletes:
        index.delete(obj_id)
    answers = [index.range_query_batch(queries, radii), index.knn_query_batch(queries, k)]
    index.delete(1)
    answers += [index.range_query_batch(queries, radii), index.knn_query_batch(queries, k)]
    observed = answers, index.metric.pair_count, _stats(index.device.stats.delta_since(before))
    index.close()
    return observed


def _exact_and_certified(*case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AngularDistance, "distance_bounds", lambda self, *args, **kwargs: None)
        exact = _serve(*case)
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_bounds(mp)
        certified = _serve(*case)
    return exact, certified, len(calls)


def _reference_distances(query, data) -> np.ndarray:
    """The exact kernel's distances from one query to every row."""
    return AngularDistance().pairwise(query, data)


def _near_duplicates(rng, count=120):
    """Rows whose pairwise cosines lie within a few ulps of 1."""
    base = rng.normal(size=DIM)
    noise = rng.integers(-4, 5, size=(count, DIM)) * np.spacing(np.abs(base))
    return base + noise


def _case_near_duplicates(rng):
    data = np.vstack([_near_duplicates(rng), rng.normal(size=(60, DIM))])
    queries = [data[i] + np.spacing(data[i]) for i in range(0, 40, 3)]
    # every query's radius ties one of its near-duplicate distances exactly
    radii = [float(np.sort(_reference_distances(q, data))[7]) for q in queries]
    return data, queries, radii, 6


def _case_query_is_indexed_row(rng):
    data = rng.normal(size=(150, DIM))
    queries = [data[i].copy() for i in (0, 7, 33, 149)]
    return data, queries, 0.3, 5


def _case_zero_rows_and_query(rng):
    data = rng.normal(size=(140, DIM))
    data[[3, 50, 51, 97]] = 0.0
    queries = [np.zeros(DIM), data[3].copy(), data[10], -data[10]]
    return data, queries, 0.45, 7


def _case_antipodal(rng):
    half = rng.normal(size=(70, DIM))
    data = np.vstack([half, -half])
    queries = [-half[i] for i in range(0, 70, 9)]
    return data, queries, 0.35, 4


def _case_ties_at_radius_and_kth(rng):
    base = rng.normal(size=(90, DIM))
    # each row appears three times, scaled: equal angular distance to any query
    data = np.vstack([base, 2.0 * base, 0.5 * base])
    queries = [base[i] + 0.01 * rng.normal(size=DIM) for i in range(0, 90, 11)]
    radii = [float(np.sort(_reference_distances(q, data))[4]) for q in queries]
    return data, queries, radii, 4


def _case_tiny_magnitude_rows(rng):
    """Rows whose squares underflow, so their computed norms are inexact."""
    data = np.vstack([rng.normal(size=(100, DIM)), 1e-160 * rng.normal(size=(30, DIM))])
    # a huge query keeps |q| * |x| in the normal range for the tiny rows
    queries = [data[0], 1e40 * data[105], 1e140 * rng.normal(size=DIM), data[110]]
    radii = [float(_reference_distances(q, data)[104]) for q in queries]
    return data, queries, radii, 6


def _case_duplicate_payloads(rng):
    base = rng.normal(size=(60, DIM))
    data = np.vstack([base, base, base[:20]])
    queries = [base[i] for i in range(0, 60, 7)]
    return data, queries, 0.4, 5


def _case_selective_over_clusters(rng):
    """Few distinct candidates in a larger store: the filter gathers them."""
    centres = rng.normal(size=(12, DIM))
    clusters = [c + 0.05 * rng.normal(size=(45, DIM)) for c in centres]
    # near-duplicates and scaled copies: ties within ulps and exact ties
    data = np.vstack([_near_duplicates(rng, 40)] + clusters + [2.0 * clusters[0][:5]])
    queries = [data[3] + np.spacing(data[3]), clusters[0][2].copy()]
    radii = [float(np.sort(_reference_distances(q, data))[6]) for q in queries]
    return data, queries, radii, 3


def _case_inserts_tombstones_large_k(rng):
    """Rows outside the tree, spare store capacity, tombstones and ``k`` above the live count."""
    data = rng.normal(size=(150, DIM))
    inserts = [data[4].copy(), data[9] + np.spacing(data[9]), -data[20]]
    inserts += list(rng.normal(size=(7, DIM)))
    queries = [data[4], data[9], inserts[-1], rng.normal(size=DIM)]
    return data, queries, 0.45, 200, inserts, [0, 4, 33, 148]


CASES = {
    "near-duplicates": _case_near_duplicates,
    "query-is-indexed-row": _case_query_is_indexed_row,
    "zero-rows-and-query": _case_zero_rows_and_query,
    "antipodal": _case_antipodal,
    "ties-at-radius-and-kth": _case_ties_at_radius_and_kth,
    "duplicate-payloads": _case_duplicate_payloads,
    "tiny-magnitude-rows": _case_tiny_magnitude_rows,
    "selective-over-clusters": _case_selective_over_clusters,
    "inserts-tombstones-large-k": _case_inserts_tombstones_large_k,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_certified_path_matches_exact_path(case):
    exact, certified, bound_calls = _exact_and_certified(*CASES[case](np.random.default_rng(7)))
    assert bound_calls > 0  # the certified path ran
    assert certified[0] == exact[0]  # byte-identical answers
    assert certified[1] == exact[1]  # metric.pair_count
    assert certified[2] == exact[2]  # ExecutionStats without host_time


def _sides(case: str) -> list:
    """The row side of every certified filter call of one case."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_bounds(mp)
        _serve(*CASES[case](np.random.default_rng(7)))
    return calls


def test_both_row_selection_sides_run():
    """Distinct candidates under half the store are gathered, else the store is used whole."""
    assert set(_sides("selective-over-clusters")) == {"gather"}
    # 160 stored rows (10 of them cached, outside the tree) in a 300-row buffer
    assert set(_sides("inserts-tombstones-large-k")) == {"view"}
    assert set(_sides("near-duplicates")) == {"view"}


def test_bounds_contain_the_exact_distances():
    rng = np.random.default_rng(3)
    data = np.vstack([_near_duplicates(rng, 40), np.zeros((2, DIM)), rng.normal(size=(40, DIM))])
    queries = np.vstack([data[:5], np.zeros((1, DIM)), -data[50:53]])
    metric = AngularDistance()
    lo, hi = metric.distance_bounds(queries, data, metric.store_digest(data))
    exact = np.array([_reference_distances(q, data) for q in queries])
    assert (lo <= exact).all() and (exact <= hi).all()
    assert (lo >= 0.0).all()
    zero = np.zeros(DIM)
    zlo, zhi = metric.distance_bounds(zero[None, :], data)
    assert (zlo == 0.0).all() and (zhi >= 1.0).all()


def test_inexact_norms_get_trivial_bounds():
    """A row whose squares underflow is never filtered, whatever the query."""
    rng = np.random.default_rng(4)
    tiny = 1e-160 * rng.normal(size=(6, DIM))
    data = np.vstack([rng.normal(size=(10, DIM)), tiny])
    queries = np.vstack([rng.normal(size=DIM), 1e40 * rng.normal(size=DIM), 1e40 * tiny[0]])
    metric = AngularDistance()
    lo, hi = metric.distance_bounds(queries, data, metric.store_digest(data))
    exact = np.array([_reference_distances(q, data) for q in queries])
    assert (lo <= exact).all() and (exact <= hi).all()
    assert (lo[:, 10:] == 0.0).all() and (hi[:, 10:] >= 1.0).all()


def test_the_comparison_has_teeth(monkeypatch):
    """Without the cosine error bound, at least one case answers wrongly."""
    monkeypatch.setattr(AngularDistance, "cosine_error", staticmethod(lambda dim: 0.0))
    mismatches = []
    for name, make in CASES.items():
        exact, certified, bound_calls = _exact_and_certified(*make(np.random.default_rng(7)))
        assert bound_calls > 0
        if certified[0] != exact[0]:
            mismatches.append(name)
    assert mismatches
