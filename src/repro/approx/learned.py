"""A learned leaf router: the paper's "learned index" future-work direction.

The idea sketched in the paper's conclusion is to use a learned component on
the GPU to steer approximate search.  This module implements the simplest
credible version of that idea on the simulated substrate:

* every leaf of a built GTS tree is described by cheap *pivot-space features*
  of the query — the distance from the query to the pivot of each of the
  leaf's ancestors, combined with the leaf's stored ``[min_dis, max_dis]``
  interval;
* a linear model (ordinary least squares, fitted once on a sample of training
  queries whose true leaf distances are computed exactly) predicts, from
  those features, how close the leaf's nearest object is to the query;
* at query time the model ranks all leaves with one matrix-vector product and
  only the ``leaf_budget`` best-ranked leaves are verified with real distance
  computations.

The router only chooses (query, leaf) pairs; everything else is the exact
search's (:mod:`repro.core.search`).  A batch's pivot distances are one
``pivot-distances`` kernel, each query's ranking one ``learned-rank``
kernel, and every query's chosen leaves go through the exact leaf
verification in one call (its verify kernel and result buffer).  The cache
table is scanned like the exact search's and the answers come from the same
accumulator: cached objects are included, tombstoned ones dropped, and a
tiered index faults its blocks through its read port.  Exactly like
:class:`~repro.approx.beam.ApproximateGTS`, reported candidates always carry
their true distance, so precision is perfect and only recall is traded.

The fit runs on the host: it reads the host object store, launches no
kernel and faults no block.  The features do not depend on the tree's
shape, so when the index's live tree changes (a rebuild, a generation swap,
``batch_update``) the router re-describes the new tree's leaves and keeps
its fitted weights.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.gts import GTS, open_index_batch, scan_caches
from ..core.nodes import TreeStructure
from ..core.objectstore import gather_rows
from ..core.search import BoundedTriples, verify_leaves
from ..core.searchcommon import TreeBatch, pivot_distances_per_query, query_ks, query_radii
from ..exceptions import QueryError
from ..metrics.base import Metric

__all__ = ["LearnedLeafRouter"]


class LearnedLeafRouter:
    """Learned approximate kNN / range search over the leaves of a GTS tree.

    Parameters
    ----------
    index:
        A built :class:`GTS` index.
    leaf_budget:
        How many leaves are verified per query (the knob trading recall for
        distance computations).
    training_queries:
        Objects used to fit the model; when omitted, ``fit`` must be called
        explicitly before querying.
    ridge:
        Small L2 regularisation added to the normal equations for stability.
    """

    def __init__(
        self,
        index: GTS,
        leaf_budget: int = 4,
        training_queries: Optional[Sequence] = None,
        ridge: float = 1e-6,
        seed: int = 23,
    ):
        if leaf_budget < 1:
            raise QueryError(f"leaf budget must be at least 1, got {leaf_budget}")
        self.index = index
        self.leaf_budget = int(leaf_budget)
        self.ridge = float(ridge)
        self._rng = np.random.default_rng(seed)
        #: the tree ``_leaf_ids``, ``_chains`` and ``_pivot_ids`` describe
        self._tree: Optional[TreeStructure] = None
        self._weights: Optional[np.ndarray] = None
        self._describe()
        if training_queries is not None:
            self.fit(training_queries)

    # -------------------------------------------------------------- plumbing
    @property
    def metric(self) -> Metric:
        return self.index.metric

    @property
    def is_fitted(self) -> bool:
        """Whether the routing model has been fitted."""
        return self._weights is not None

    def _describe(self) -> None:
        """Describe the leaves of the index's live tree, unless already done.

        Per leaf (``_leaf_ids``), its root-to-leaf chain of ``(pivot,
        min_dis, max_dis)`` triples: for every node on the path below the
        root, the pivot of its parent and the node's stored distance
        interval to that pivot, an infinite end read as 0.  ``_pivot_ids``
        lists the chains' pivots in first-seen order (leaf by leaf, root
        first).  ``_chains`` holds the chains as matrices, one group per
        chain length: ``(leaf rows, pivot columns, min_dis, max_dis)``, each
        matrix (leaves of the group × chain length), the pivot columns
        indexing ``_pivot_ids``.
        """
        tree = self.index.tree
        if tree is self._tree:
            return
        leaf_ids = tree.leaves()
        # walk every leaf up to the root at once: column j of the
        # (leaves × height) matrices is the level-(j + 1) node on the path
        height, nc = tree.height, tree.node_capacity
        pivots = np.empty((len(leaf_ids), height), dtype=np.int64)
        lo = np.empty((len(leaf_ids), height), dtype=np.float64)
        hi = np.empty((len(leaf_ids), height), dtype=np.float64)
        node = leaf_ids
        for level in range(height - 1, -1, -1):
            parent = (node - 1) // nc
            pivots[:, level] = tree.pivot[parent]
            lo[:, level], hi[:, level] = tree.min_dis[node], tree.max_dis[node]
            node = parent
        lo[~np.isfinite(lo)] = 0.0
        hi[~np.isfinite(hi)] = 0.0
        valid = pivots >= 0
        flat = pivots[valid]  # row-major: leaf by leaf, root first
        distinct, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        seen = np.argsort(first)  # the distinct pivots in first-seen order
        pivot_ids = distinct[seen]
        columns = np.zeros_like(pivots)
        columns[valid] = np.argsort(seen)[inverse]
        lengths = valid.sum(axis=1)
        chains = []
        for length in np.unique(lengths).tolist():
            rows = np.flatnonzero(lengths == length)
            keep = valid[rows]
            chains.append(
                (rows,)
                + tuple(m[rows][keep].reshape(len(rows), length) for m in (columns, lo, hi))
            )
        self._tree, self._leaf_ids, self._chains = tree, leaf_ids, chains
        self._pivot_ids = pivot_ids

    def _features(self, pivot_dists: np.ndarray) -> np.ndarray:
        """Feature tensor (queries × leaves × 6) from each query's distances
        to ``_pivot_ids`` (a queries × pivots matrix).

        Features per leaf (all derived from pivot-space quantities that cost
        only the ancestor-pivot distances already computed once per query):

        0. intercept;
        1. ``d(q, parent pivot)``;
        2. the root-to-leaf *chain lower bound*: the maximum, over every node
           on the leaf's path, of the Lemma 5.1 bound
           ``max(0, min_dis - d(q, p), d(q, p) - max_dis)`` — exactly the
           pruning bound the exact search accumulates while descending;
        3. mean distance from ``d(q, p)`` to the middle of each node's ring
           ``[min_dis, max_dis]`` along the path (how well the query sits in
           the leaf's rings even when the lower bounds are all zero);
        4. mean distance from the query to the leaf's ancestor pivots;
        5. minimum distance from the query to the leaf's ancestor pivots.

        A leaf without a chain has every feature but the intercept 0.  The
        means reduce each chain in path order, as ``np.mean`` of the chain
        alone does, so the features are bitwise those of one leaf at a time.
        """
        rows = np.zeros((len(pivot_dists), len(self._leaf_ids), 6), dtype=np.float64)
        rows[:, :, 0] = 1.0
        for leaves, columns, lo, hi in self._chains:
            if columns.shape[1] == 0:
                continue
            # queries × leaves of the group × chain, C-ordered: each chain is
            # then one contiguous run, which np.mean reduces pairwise exactly
            # as it reduces the chain alone
            d = np.ascontiguousarray(pivot_dists[:, columns])
            bound = np.maximum(lo - d, d - hi).max(axis=-1)
            rows[:, leaves, 1] = d[:, :, -1]
            rows[:, leaves, 2] = np.maximum(0.0, bound)
            rows[:, leaves, 3] = np.mean(np.abs(d - 0.5 * (lo + hi)), axis=-1)
            rows[:, leaves, 4] = np.mean(d, axis=-1)
            rows[:, leaves, 5] = d.min(axis=-1)
        return rows

    # -------------------------------------------------------------- training
    def fit(self, training_queries: Sequence) -> "LearnedLeafRouter":
        """Fit the leaf-distance model on the given training queries.

        The regression target for (query, leaf) is the true distance from the
        query to the leaf's nearest object.  Everything is computed on the
        host from the host object store: no kernel, no block fault.
        """
        if len(training_queries) == 0:
            raise QueryError("cannot fit the learned router on an empty training set")
        self._describe()
        tree = self._tree
        objects = self.index._objects
        pivot_rows = gather_rows(objects, self._pivot_ids)
        pivot_dists = np.zeros((len(training_queries), len(self._pivot_ids)), dtype=np.float64)
        if len(self._pivot_ids):
            for row, query in enumerate(training_queries):
                pivot_dists[row] = self.metric.pairwise(query, pivot_rows)
        features = []
        targets = []
        for query, rows in zip(training_queries, self._features(pivot_dists)):
            for i, leaf_id in enumerate(self._leaf_ids.tolist()):
                obj_ids = tree.node_objects(leaf_id)
                if len(obj_ids) == 0:
                    continue
                dists = self.metric.pairwise(query, gather_rows(objects, obj_ids))
                features.append(rows[i])
                targets.append(float(np.min(dists)))
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        gram = x.T @ x + self.ridge * np.eye(x.shape[1])
        self._weights = np.linalg.solve(gram, x.T @ y)
        return self

    # --------------------------------------------------------------- queries
    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise QueryError("the learned router has not been fitted; call fit() first")

    def _rank(self, member: TreeBatch) -> list[np.ndarray]:
        """Every query's leaf ids ranked by predicted distance (closest first).

        One ``pivot-distances`` kernel over every (query, pivot) pair of the
        batch, then per query one ``learned-rank`` kernel.
        """
        self._require_fitted()
        self._describe()
        num_queries, num_pivots = len(member.queries), len(self._pivot_ids)
        pivots = np.tile(self._pivot_ids, num_queries)
        pair_q = np.repeat(np.arange(num_queries, dtype=np.int64), num_pivots)
        dists = pivot_distances_per_query(member, pair_q, pivots).reshape(num_queries, num_pivots)
        ranked = []
        for rows in self._features(dists):
            predicted = rows @ self._weights
            self.index.device.launch_kernel(
                work_items=len(self._leaf_ids), op_cost=2.0, label="learned-rank"
            )
            ranked.append(self._leaf_ids[np.argsort(predicted, kind="stable")])
        return ranked

    def rank_leaves(self, query) -> np.ndarray:
        """Return leaf ids ranked by predicted distance (closest first)."""
        index = self.index
        member = TreeBatch(index._objects, index._port, index.device, self.metric, [query])
        return self._rank(member)[0]

    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Approximate kNN: verify the ``leaf_budget`` best-ranked leaves."""
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Approximate kNN for each query of the batch."""
        return self._search(queries, k=query_ks(k, len(queries))).answers()

    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Approximate range query over the ``leaf_budget`` best-ranked leaves."""
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Approximate range query for each query of the batch."""
        return self._search(queries, radii=query_radii(radii, len(queries))).answers()

    def _search(
        self, queries: Sequence, radii: Optional[np.ndarray] = None, k: Optional[np.ndarray] = None
    ) -> BoundedTriples:
        """Rank, verify every query's chosen leaves in one call, scan the cache."""
        index = self.index
        batch = open_index_batch([index], index._forest(), queries, radii=radii, k=k)
        if len(queries):
            chosen = [ranked[: self.leaf_budget] for ranked in self._rank(batch.members[0])]
            leaf_q = np.repeat(np.arange(len(queries), dtype=np.int64), [len(c) for c in chosen])
            verify_leaves(batch, leaf_q, np.concatenate(chosen))
        scan_caches([index], batch)
        return batch.results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fitted = "fitted" if self.is_fitted else "unfitted"
        leaves = len(self._leaf_ids)
        return f"LearnedLeafRouter({fitted}, leaf_budget={self.leaf_budget}, leaves={leaves})"
