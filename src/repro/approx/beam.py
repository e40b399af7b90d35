"""Beam-search approximate similarity queries over a built GTS index.

The exact batch search (Algorithms 4-5) expands *every* child that survives
the triangle-inequality pruning.  On hard workloads (large radii, high
intrinsic dimensionality) most children survive and the search degenerates
towards a scan.  :class:`ApproximateGTS` bounds that explosion: at every
level each query keeps only its ``beam_width`` most promising children,
ranked by the lower bound

``lb(child) = max(0, min_dis - d(q, pivot), d(q, pivot) - max_dis)``

— the closest the child's objects can possibly be to the query given the
stored distance interval.  The descent therefore touches at most
``beam_width`` nodes per level per query and verifies at most
``beam_width * Nc`` leaf objects, independent of how selective the query is.

The beam only chooses (query, node) pairs; everything else is the exact
search's (:mod:`repro.core.search`).  The batch descends level-synchronously:
per level one ``pivot-distances`` kernel over every query's beam, whose
pivots are offered as answers, and one ``approx-beam-select`` kernel for
the child bounds and the selection.  The chosen leaves go through the exact
leaf verification (its verify kernel and result buffer), the cache table is
scanned like the exact search's, and the answers come from the same
accumulator: cached objects are included, tombstoned ones dropped, and a
tiered index faults its blocks through its read port.  Only candidates
whose real distance has been computed are ever reported, so

* approximate range answers are a *subset* of the exact answers (perfect
  precision, recall <= 1);
* approximate kNN answers contain real objects at their true distances, but
  may miss some of the true k nearest (recall <= 1).

Its simulated cost is therefore directly comparable with the exact cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.gts import GTS, open_index_batch, scan_caches
from ..core.nodes import TreeStructure
from ..core.search import BoundedTriples, verify_leaves
from ..core.searchcommon import SearchBatch, pivot_distances_per_query, query_ks, query_radii
from ..exceptions import QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric

__all__ = ["ApproximateGTS"]


class ApproximateGTS:
    """Approximate batch MRQ / MkNNQ over an existing :class:`GTS` index.

    Parameters
    ----------
    index:
        A built GTS index; the approximate search reuses its tree, metric and
        simulated device and never modifies them.
    beam_width:
        Maximum number of tree nodes each query keeps per level.  ``1`` gives
        a greedy single-path descent, larger values converge to the exact
        answer (and cost).
    """

    def __init__(self, index: GTS, beam_width: int = 4):
        if beam_width < 1:
            raise QueryError(f"beam width must be at least 1, got {beam_width}")
        self.index = index
        self.beam_width = int(beam_width)

    # ------------------------------------------------------------ properties
    @property
    def tree(self) -> TreeStructure:
        return self.index.tree

    @property
    def metric(self) -> Metric:
        return self.index.metric

    @property
    def device(self) -> Device:
        return self.index.device

    # ------------------------------------------------------------ public API
    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Approximate single kNN query."""
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Approximate batch kNN: per query, the best k candidates the beam saw."""
        return self._search(queries, k=query_ks(k, len(queries))).answers()

    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Approximate single range query (subset of the exact answer)."""
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Approximate batch range query: verified hits within the beam only."""
        return self._search(queries, radii=query_radii(radii, len(queries))).answers()

    def cost_ratio_estimate(self) -> float:
        """Rough fraction of the exact leaf work the beam can touch.

        The exact search may verify every leaf; the beam verifies at most
        ``beam_width`` leaves per query.  This is the planning-time ratio the
        recall/cost experiment reports alongside the measured values.
        """
        num_leaves = max(1, len(self.tree.leaves()))
        return min(1.0, self.beam_width / num_leaves)

    # ---------------------------------------------------------------- search
    def _search(
        self, queries: Sequence, radii: Optional[np.ndarray] = None, k: Optional[np.ndarray] = None
    ) -> BoundedTriples:
        """Beam descent, exact verification of the chosen leaves, cache scan."""
        index = self.index
        tree = self.tree
        batch = open_index_batch([index], index._forest(), queries, radii=radii, k=k)
        if len(queries) and tree.num_objects:
            verify_leaves(batch, *self._descend(batch, tree, radii))
        scan_caches([index], batch)
        return batch.results

    def _descend(
        self, batch: SearchBatch, tree: TreeStructure, radii: Optional[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (query, leaf) pairs of every query's beam, sorted by query.

        Per internal level: the beam's pivot distances (one kernel) are
        offered as answers; every child with objects — for a range query,
        whose lower bound is within the radius — is a candidate, and one
        lexsort by (query, lower bound) keeps each query's ``beam_width``
        smallest, ties in frontier-then-child-slot order.
        """
        results, nc = batch.results, tree.node_capacity
        slots = np.arange(nc, dtype=np.int64)
        beam_q = np.arange(batch.num_queries, dtype=np.int64)
        beam = np.zeros(batch.num_queries, dtype=np.int64)
        for _ in range(tree.height):
            pivots = tree.pivot[beam]
            dists = pivot_distances_per_query(batch.members[0], beam_q, pivots)
            results.offer(beam_q, pivots, dists)
            children = beam[:, None] * nc + 1 + slots
            d = dists[:, None]
            lb = np.maximum(0.0, np.maximum(tree.min_dis[children] - d, d - tree.max_dis[children]))
            keep = tree.size[children] > 0
            if radii is not None:
                keep &= lb <= radii[beam_q][:, None]
            self.device.launch_kernel(
                work_items=max(1, children.size), op_cost=3.0, label="approx-beam-select"
            )
            # row-major: each query's children in frontier-then-slot order
            child_q = np.broadcast_to(beam_q[:, None], children.shape)[keep]
            children = children[keep]
            order = np.lexsort((lb[keep], child_q))
            beam_q = child_q[order]
            rank = np.arange(len(beam_q)) - np.searchsorted(beam_q, beam_q)
            order = order[rank < self.beam_width]
            beam_q, beam = child_q[order], children[order]
        return beam_q, beam

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ApproximateGTS(beam_width={self.beam_width}, index={self.index!r})"
