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

Only candidates whose real distance has been computed are ever reported, so

* approximate range answers are a *subset* of the exact answers (perfect
  precision, recall <= 1);
* approximate kNN answers contain real objects at their true distances, but
  may miss some of the true k nearest (recall <= 1).

The class runs on the same simulated device as the exact search and charges
kernels for pivot distances, pruning, beam selection and leaf verification,
so its simulated cost is directly comparable with the exact cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.gts import GTS
from ..core.nodes import TreeStructure
from ..core.objectstore import gather_rows
from ..core.searchcommon import query_ks, query_radii
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
        k_arr = query_ks(k, len(queries))
        pools = self._descend(queries, radii=None)
        results = []
        for qi in range(len(queries)):
            ranked = sorted(pools[qi].items(), key=lambda item: (item[1], item[0]))
            results.append([(int(o), float(d)) for o, d in ranked[: int(k_arr[qi])]])
        return results

    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Approximate single range query (subset of the exact answer)."""
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Approximate batch range query: verified hits within the beam only."""
        radii_arr = query_radii(radii, len(queries))
        pools = self._descend(queries, radii=radii_arr)
        results = []
        for qi in range(len(queries)):
            hits = [
                (int(o), float(d)) for o, d in pools[qi].items() if d <= float(radii_arr[qi])
            ]
            results.append(sorted(hits, key=lambda p: (p[1], p[0])))
        return results

    def cost_ratio_estimate(self) -> float:
        """Rough fraction of the exact leaf work the beam can touch.

        The exact search may verify every leaf; the beam verifies at most
        ``beam_width`` leaves per query.  This is the planning-time ratio the
        recall/cost experiment reports alongside the measured values.
        """
        num_leaves = max(1, len(self.tree.leaves()))
        return min(1.0, self.beam_width / num_leaves)

    # ---------------------------------------------------------------- descent
    def _descend(self, queries: Sequence, radii: Optional[np.ndarray]) -> list[dict[int, float]]:
        """Shared beam descent; returns one candidate pool per query."""
        tree = self.tree
        objects = self.index._kernel_rows
        exclude = self.index._tombstones
        num_queries = len(queries)
        pools: list[dict[int, float]] = [dict() for _ in range(num_queries)]
        if num_queries == 0 or tree.num_objects == 0:
            return pools

        # current frontier: per query, the node ids of the beam at this level
        frontier: list[np.ndarray] = [np.zeros(1, dtype=np.int64) for _ in range(num_queries)]

        for level in tree.iter_levels():
            if tree.is_leaf_level(level):
                break
            new_frontier: list[np.ndarray] = []
            total_children = 0
            for qi in range(num_queries):
                nodes = frontier[qi]
                if len(nodes) == 0:
                    new_frontier.append(nodes)
                    continue
                kept, children_seen = self._expand_query(
                    tree, objects, queries[qi], qi, nodes, pools[qi], radii, exclude
                )
                total_children += children_seen
                new_frontier.append(kept)
            # one level-wide kernel: pruning + beam selection over all children
            self.device.launch_kernel(
                work_items=max(1, total_children), op_cost=3.0, label="approx-beam-select"
            )
            frontier = new_frontier

        self._verify_leaves(queries, frontier, pools, radii, exclude)
        return pools

    def _expand_query(
        self,
        tree: TreeStructure,
        objects: Sequence,
        query,
        query_index: int,
        nodes: np.ndarray,
        pool: dict[int, float],
        radii: Optional[np.ndarray],
        exclude: set,
    ) -> tuple[np.ndarray, int]:
        """Expand one query's beam by one level; returns (kept children, #children)."""
        pivots = tree.pivot[nodes]
        valid = pivots >= 0
        if not np.any(valid):
            return np.zeros(0, dtype=np.int64), 0
        nodes = nodes[valid]
        pivots = pivots[valid]
        pivot_objs = gather_rows(objects, pivots)
        dists = self.metric.pairwise(query, pivot_objs)
        self.device.launch_kernel(
            work_items=len(pivots), op_cost=self.metric.unit_cost, label="approx-pivot-dist"
        )
        for pid, dist in zip(pivots, dists):
            self._offer(pool, int(pid), float(dist), exclude)

        nc = tree.node_capacity
        child_ids = nodes[:, None] * nc + 1 + np.arange(nc, dtype=np.int64)[None, :]
        lb = np.maximum(
            0.0,
            np.maximum(
                tree.min_dis[child_ids] - dists[:, None],
                dists[:, None] - tree.max_dis[child_ids],
            ),
        )
        flat_children = child_ids.ravel()
        flat_lb = lb.ravel()
        keep = tree.size[flat_children] > 0
        if radii is not None:
            keep &= flat_lb <= float(radii[query_index])
        flat_children = flat_children[keep]
        flat_lb = flat_lb[keep]
        if len(flat_children) == 0:
            return np.zeros(0, dtype=np.int64), int(child_ids.size)
        order = np.argsort(flat_lb, kind="stable")[: self.beam_width]
        return flat_children[order].astype(np.int64), int(child_ids.size)

    def _verify_leaves(
        self,
        queries: Sequence,
        frontier: list[np.ndarray],
        pools: list[dict[int, float]],
        radii: Optional[np.ndarray],
        exclude: set,
    ) -> None:
        """Compute the real distances of every object in the surviving leaves."""
        tree = self.tree
        objects = self.index._kernel_rows
        total = 0
        for qi, nodes in enumerate(frontier):
            if len(nodes) == 0:
                continue
            obj_ids = np.concatenate([tree.node_objects(int(n)) for n in nodes])
            if exclude:
                obj_ids = obj_ids[~np.isin(obj_ids, list(exclude))]
            if len(obj_ids) == 0:
                continue
            candidates = gather_rows(objects, obj_ids)
            dists = self.metric.pairwise(queries[qi], candidates)
            total += len(obj_ids)
            for oid, dist in zip(obj_ids, dists):
                self._offer(pools[qi], int(oid), float(dist), exclude)
        self.device.launch_kernel(
            work_items=max(1, total), op_cost=self.metric.unit_cost, label="approx-verify"
        )

    @staticmethod
    def _offer(pool: dict[int, float], obj_id: int, dist: float, exclude: set) -> None:
        if exclude and obj_id in exclude:
            return
        prev = pool.get(obj_id)
        if prev is None or dist < prev:
            pool[obj_id] = dist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ApproximateGTS(beam_width={self.beam_width}, index={self.index!r})"
