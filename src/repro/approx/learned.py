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

Exactly like :class:`~repro.approx.beam.ApproximateGTS`, reported candidates
always carry their true distance, so precision is perfect and only recall is
traded.  The fit happens on the host; ranking and verification are charged to
the simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.gts import GTS
from ..core.objectstore import gather_rows
from ..core.searchcommon import query_ks, query_radii
from ..exceptions import QueryError
from ..metrics.base import Metric

__all__ = ["LearnedLeafRouter"]


@dataclass
class _LeafDescriptor:
    """Static description of one leaf used to build query features."""

    leaf_id: int
    #: pivot object ids of the leaf's ancestors, root first
    ancestor_pivots: list[int]
    #: stored distance interval of the leaf (to its parent's pivot)
    min_dis: float
    max_dis: float
    #: the root-to-leaf chain of (pivot id, min_dis, max_dis) triples: for every
    #: node on the path below the root, the pivot of its parent and the node's
    #: stored distance interval to that pivot
    chain: list[tuple[int, float, float]] = None


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
        self._leaves = self._describe_leaves()
        self._weights: Optional[np.ndarray] = None
        self._pivot_ids = self._collect_pivot_ids()
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

    def _describe_leaves(self) -> list[_LeafDescriptor]:
        tree = self.index.tree
        descriptors = []
        for leaf_id in tree.leaves():
            ancestors = []
            chain = []
            node = int(leaf_id)
            while node > 0:
                parent = tree.parent_of(node)
                pivot = int(tree.pivot[parent])
                if pivot >= 0:
                    ancestors.append(pivot)
                    lo = float(tree.min_dis[node]) if np.isfinite(tree.min_dis[node]) else 0.0
                    hi = float(tree.max_dis[node]) if np.isfinite(tree.max_dis[node]) else 0.0
                    chain.append((pivot, lo, hi))
                node = parent
            ancestors.reverse()
            chain.reverse()
            descriptors.append(
                _LeafDescriptor(
                    leaf_id=int(leaf_id),
                    ancestor_pivots=ancestors,
                    min_dis=float(tree.min_dis[leaf_id]) if np.isfinite(tree.min_dis[leaf_id]) else 0.0,
                    max_dis=float(tree.max_dis[leaf_id]) if np.isfinite(tree.max_dis[leaf_id]) else 0.0,
                    chain=chain,
                )
            )
        return descriptors

    def _collect_pivot_ids(self) -> list[int]:
        ids = []
        seen = set()
        for leaf in self._leaves:
            for pid in leaf.ancestor_pivots:
                if pid not in seen:
                    seen.add(pid)
                    ids.append(pid)
        return ids

    def _pivot_distances(self, query) -> dict[int, float]:
        if not self._pivot_ids:
            return {}
        pivot_ids = np.asarray(self._pivot_ids, dtype=np.int64)
        pivot_objs = gather_rows(self.index._kernel_rows, pivot_ids)
        dists = self.metric.pairwise(query, pivot_objs)
        self.index.device.launch_kernel(
            work_items=len(self._pivot_ids), op_cost=self.metric.unit_cost, label="learned-pivot-dist"
        )
        return {pid: float(d) for pid, d in zip(self._pivot_ids, dists)}

    def _features(self, query, pivot_dists: dict[int, float]) -> np.ndarray:
        """Feature matrix with one row per leaf.

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
        """
        rows = np.zeros((len(self._leaves), 6), dtype=np.float64)
        for i, leaf in enumerate(self._leaves):
            ancestor_d = [pivot_dists[p] for p in leaf.ancestor_pivots] or [0.0]
            parent_d = ancestor_d[-1]
            chain_lb = 0.0
            ring_dev = []
            for pivot, lo, hi in leaf.chain or []:
                d = pivot_dists[pivot]
                chain_lb = max(chain_lb, lo - d, d - hi)
                ring_dev.append(abs(d - 0.5 * (lo + hi)))
            rows[i] = (
                1.0,
                parent_d,
                max(0.0, chain_lb),
                float(np.mean(ring_dev)) if ring_dev else 0.0,
                float(np.mean(ancestor_d)),
                float(np.min(ancestor_d)),
            )
        return rows

    # -------------------------------------------------------------- training
    def fit(self, training_queries: Sequence) -> "LearnedLeafRouter":
        """Fit the leaf-distance model on the given training queries.

        The regression target for (query, leaf) is the true distance from the
        query to the leaf's nearest object, computed exactly on the host.
        """
        if len(training_queries) == 0:
            raise QueryError("cannot fit the learned router on an empty training set")
        tree = self.index.tree
        objects = self.index._objects
        features = []
        targets = []
        for query in training_queries:
            pivot_dists = self._pivot_distances(query)
            rows = self._features(query, pivot_dists)
            for i, leaf in enumerate(self._leaves):
                obj_ids = tree.node_objects(leaf.leaf_id)
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

    def rank_leaves(self, query) -> np.ndarray:
        """Return leaf ids ranked by predicted distance (closest first)."""
        self._require_fitted()
        pivot_dists = self._pivot_distances(query)
        rows = self._features(query, pivot_dists)
        predicted = rows @ self._weights
        self.index.device.launch_kernel(
            work_items=len(self._leaves), op_cost=2.0, label="learned-rank"
        )
        order = np.argsort(predicted, kind="stable")
        return np.asarray([self._leaves[i].leaf_id for i in order], dtype=np.int64)

    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Approximate kNN: verify the ``leaf_budget`` best-ranked leaves."""
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Approximate kNN for each query of the batch, one after another."""
        k_arr = query_ks(k, len(queries))
        out = []
        for query, kk in zip(queries, k_arr):
            ranked = sorted(self._pool(query).items(), key=lambda item: (item[1], item[0]))
            out.append([(int(o), float(d)) for o, d in ranked[: int(kk)]])
        return out

    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Approximate range query over the ``leaf_budget`` best-ranked leaves."""
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Approximate range query for each query of the batch, one after another."""
        radii_arr = query_radii(radii, len(queries))
        out = []
        for query, radius in zip(queries, radii_arr):
            hits = [(int(o), float(d)) for o, d in self._pool(query).items() if d <= radius]
            out.append(sorted(hits, key=lambda p: (p[1], p[0])))
        return out

    def _pool(self, query) -> dict[int, float]:
        return self._verify(query, self.rank_leaves(query)[: self.leaf_budget])

    def _verify(self, query, leaf_ids: np.ndarray) -> dict[int, float]:
        tree = self.index.tree
        objects = self.index._kernel_rows
        exclude = self.index._tombstones
        pool: dict[int, float] = {}
        total = 0
        for leaf_id in leaf_ids:
            obj_ids = tree.node_objects(int(leaf_id))
            if exclude:
                obj_ids = obj_ids[~np.isin(obj_ids, list(exclude))]
            if len(obj_ids) == 0:
                continue
            dists = self.metric.pairwise(query, gather_rows(objects, obj_ids))
            total += len(obj_ids)
            for oid, dist in zip(obj_ids, dists):
                prev = pool.get(int(oid))
                if prev is None or float(dist) < prev:
                    pool[int(oid)] = float(dist)
        self.index.device.launch_kernel(
            work_items=max(1, total), op_cost=self.metric.unit_cost, label="learned-verify"
        )
        return pool

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fitted = "fitted" if self.is_fitted else "unfitted"
        return f"LearnedLeafRouter({fitted}, leaf_budget={self.leaf_budget}, leaves={len(self._leaves)})"
