"""Answer oracles: every served answer is checked, outside the timed region.

* Query-only workloads are checked against
  :class:`repro.baselines.linear_scan.LinearScan` over the indexed objects,
  in the same ``(distance, id)`` order the index returns.  A kNN answer that
  differs only in which of several objects tied at the k-th distance it
  kept is accepted, because that is the index's documented contract.
* Workloads with updates are checked against
  :func:`repro.service.sequential_replay` on a bare (blocking) index built
  exactly like the served one: the answers a served stream receives must be
  identical to replaying it one request at a time.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.linear_scan import LinearScan
from repro.core.searchcommon import broadcast_query_param
from repro.service import KNN, RANGE, sequential_replay

from .workloads import K, Inputs, Stream, build_index

__all__ = ["MatrixLinearScan", "expected_answers", "failures"]


class MatrixLinearScan(LinearScan):
    """:class:`LinearScan` whose scan reads one contiguous matrix.

    The answers and their ``(distance, id)`` order are LinearScan's own.
    The per-query re-listing of every row is replaced by one matrix
    (identical rows, so identical distances), and a kNN query orders only
    the objects no farther than the k-th smallest distance instead of all
    of them, which keeps the oracle affordable at benchmark sizes.
    """

    def _build_impl(self) -> None:
        super()._build_impl()
        self._matrix = np.asarray(self._objects)

    def _scan(self, query):
        return self._live, self.executor.distances(self.metric, query, self._matrix, label="scan")

    def knn_query_batch(self, queries, k) -> list:
        self._require_built()
        out = []
        for query, kk in zip(queries, broadcast_query_param(k, len(queries), "k", np.int64)):
            ids, dists = self._scan(query)
            kk = int(kk)
            if 0 < kk < len(dists):
                # every object tied at the k-th distance stays, so the
                # (distance, id) order of the first k is the full scan's
                keep = dists <= np.partition(dists, kk - 1)[kk - 1]
                ids, dists = ids[keep], dists[keep]
            order = np.lexsort((ids, dists))[:kk]
            out.append([(int(ids[i]), float(dists[i])) for i in order])
        return out


def _replays(inputs: Inputs) -> bool:
    return any(kind not in (RANGE, KNN) for kind in inputs.config.mix)


def _scan(inputs: Inputs, stream: Stream) -> MatrixLinearScan:
    scan = MatrixLinearScan(inputs.new_metric())
    scan.build(stream.indexed)
    return scan


def expected_answers(inputs: Inputs, stream: Stream) -> list:
    """One expected result per request of ``stream``, in stream order."""
    if _replays(inputs):
        index = build_index(inputs, stream)
        try:
            return sequential_replay(index, stream.requests)
        finally:
            index.close()
    scan = _scan(inputs, stream)
    memo: dict = {}
    for request, target in zip(stream.requests, stream.targets):
        key = (request.kind, int(target))
        if key not in memo:
            if request.kind == RANGE:
                memo[key] = scan.range_query(request.payload, stream.radius)
            else:
                memo[key] = scan.knn_query(request.payload, K)
    return [memo[(r.kind, int(t))] for r, t in zip(stream.requests, stream.targets)]


def failures(inputs: Inputs, stream: Stream, got: list, expected: list) -> set:
    """Indices of the requests of ``stream`` whose answer in ``got`` is wrong."""
    bad = set(range(len(got), len(stream.requests)))
    scan = None
    for i, (request, answer, want) in enumerate(zip(stream.requests, got, expected)):
        if answer == want:
            continue
        if request.kind == KNN and not _replays(inputs):
            scan = scan or _scan(inputs, stream)
            if _ties_ok(scan, request, answer, want):
                continue
        bad.add(i)
    return bad


def _ties_ok(scan, request, answer, want) -> bool:
    """True when ``answer`` differs from ``want`` only among k-th-distance ties."""
    if not isinstance(answer, list) or len(answer) != len(want) or not want:
        return False
    if [d for _, d in answer] != [d for _, d in want]:
        return False
    kth = want[-1][1]
    if [p for p in answer if p[1] < kth] != [p for p in want if p[1] < kth]:
        return False
    tied = {i for i, d in scan.range_query(request.payload, kth) if d == kth}
    ids = [i for i, d in answer if d == kth]
    return len(set(ids)) == len(ids) and set(ids) <= tied
