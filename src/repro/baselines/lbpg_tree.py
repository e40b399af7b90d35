"""LBPG-Tree — the GPU R-tree baseline for Lp-norm vector data.

The paper's LBPG-Tree competitor builds R-trees on the GPU and therefore
"supports similarity search only on vector data with Lp-norm distance"
(Section 6.1, Remark): it is evaluated only on T-Loc and Color, and its
high-dimensional behaviour is dominated by the *dimension curse* — minimum
bounding rectangles stop pruning anything in 282 dimensions, so its candidate
sets (and intermediate memory) blow up, which is why it runs out of memory on
Color at 80 % cardinality in Fig. 11.

Implementation:

* **Build** — Sort-Tile-Recursive (STR) bulk loading: objects are sorted by
  their first coordinate, cut into vertical slabs, each slab sorted by the
  second coordinate and packed into leaves of ``leaf_size`` entries; upper
  levels pack MBRs the same way.  Construction is cheap (matching the very
  low construction times of Table 4).
* **Queries** — level-synchronous batched traversal: for every level one
  kernel computes ``mindist(query, MBR)`` for all (query, node) candidates
  and keeps those within the radius / current k-th bound; leaves are verified
  with real distances.  Candidate lists are materialised on the device, so a
  poorly pruning tree exhausts memory.

Only ``MinkowskiDistance`` metrics (L1/L2/L∞) are supported; anything else
raises :class:`~repro.exceptions.UnsupportedMetricError`.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.searchcommon import broadcast_query_param
from ..exceptions import MemoryDeadlockError
from ..metrics.base import Metric
from ..metrics.vector import MinkowskiDistance
from .base import GPUSimilarityIndex

__all__ = ["LBPGTree"]

CANDIDATE_ENTRY_BYTES = 16


class LBPGTree(GPUSimilarityIndex):
    """STR-packed R-tree with level-synchronous batched GPU traversal (exact)."""

    name = "LBPG-Tree"
    supports_range = True

    def __init__(self, metric, device=None, leaf_size: int = 64, fanout: int = 16):
        super().__init__(metric, device)
        self.leaf_size = int(leaf_size)
        self.fanout = int(fanout)
        self._levels: list[dict] = []

    @classmethod
    def supports_metric(cls, metric: Metric) -> bool:
        return isinstance(metric, MinkowskiDistance) and metric.is_lp_norm

    # ---------------------------------------------------------------- build
    def _build_impl(self) -> None:
        # release allocations of any previous build (rebuild-on-update path)
        for attr in ("_data_alloc", "_index_alloc"):
            alloc = getattr(self, attr, None)
            if alloc is not None:
                self.device.free(alloc)
        live = self.live_ids()
        data = np.asarray([self._objects[int(i)] for i in live], dtype=np.float64)
        self._live = live
        self._data = data
        n, dim = data.shape
        self.device.transfer_to_device(data.nbytes)
        self._data_alloc = self.device.allocate(data.nbytes, "lbpg-objects")

        host_start = time.perf_counter()
        # --- leaf level via STR packing on the first two dimensions
        order = np.argsort(data[:, 0], kind="stable")
        slabs = max(1, int(np.ceil(np.sqrt(n / self.leaf_size))))
        slab_size = int(np.ceil(n / slabs))
        leaf_entries: list[np.ndarray] = []
        for s in range(slabs):
            slab = order[s * slab_size : (s + 1) * slab_size]
            if len(slab) == 0:
                continue
            key = data[slab, 1] if dim > 1 else data[slab, 0]
            slab = slab[np.argsort(key, kind="stable")]
            for start in range(0, len(slab), self.leaf_size):
                leaf_entries.append(slab[start : start + self.leaf_size])
        leaves = {
            "lo": np.stack([data[e].min(axis=0) for e in leaf_entries]),
            "hi": np.stack([data[e].max(axis=0) for e in leaf_entries]),
            "entries": leaf_entries,
            "is_leaf": True,
        }
        self._levels = [leaves]
        # --- internal levels: pack groups of `fanout` child MBRs
        while len(self._levels[0]["lo"]) > 1:
            child = self._levels[0]
            count = len(child["lo"])
            groups = [
                np.arange(start, min(start + self.fanout, count))
                for start in range(0, count, self.fanout)
            ]
            level = {
                "lo": np.stack([child["lo"][g].min(axis=0) for g in groups]),
                "hi": np.stack([child["hi"][g].max(axis=0) for g in groups]),
                "entries": groups,
                "is_leaf": False,
            }
            self._levels.insert(0, level)
        host = time.perf_counter() - host_start
        self.device.launch_kernel(
            work_items=n, op_cost=2.0, label="lbpg-build", host_time=host
        )
        self.device.sort_cost(n, label="lbpg-str-sort")
        self._index_alloc = self.device.allocate(self.storage_bytes, "lbpg-index")

    @property
    def storage_bytes(self) -> int:
        total = 0
        for level in self._levels:
            total += level["lo"].nbytes + level["hi"].nbytes
            total += sum(np.asarray(e).nbytes for e in level["entries"])
        return int(total)

    # --------------------------------------------------------------- helpers
    def _mindist(self, query: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Lp mindist from the query point to each MBR."""
        gap = np.maximum(np.maximum(lo - query[None, :], query[None, :] - hi), 0.0)
        p = self.metric.p
        if np.isinf(p):
            return gap.max(axis=1)
        return np.sum(gap ** p, axis=1) ** (1.0 / p)

    def _allocate_candidates(self, count: int, label: str):
        try:
            return self.device.allocate(count * CANDIDATE_ENTRY_BYTES, label)
        except Exception as exc:
            raise MemoryDeadlockError(
                f"LBPG-Tree candidate list of {count} entries does not fit in device memory: {exc}"
            ) from exc

    # --------------------------------------------------------------- queries
    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        self._require_built()
        queries_arr = np.asarray(queries, dtype=np.float64)
        radii_arr = broadcast_query_param(radii, len(queries_arr), "radii", np.float64)
        # candidate node lists per query, one level at a time
        cands = [np.arange(len(self._levels[0]["lo"])) for _ in range(len(queries_arr))]
        for depth, level in enumerate(self._levels):
            total = sum(len(c) for c in cands)
            alloc = self._allocate_candidates(max(total, 1), f"lbpg-level-{depth}")
            host_start = time.perf_counter()
            if level["is_leaf"]:
                out = []
                verified = 0
                for qi, query in enumerate(queries_arr):
                    hits: dict[int, float] = {}
                    nodes = np.asarray(cands[qi], dtype=np.int64)
                    if len(nodes):
                        leaf_md = self._mindist(query, level["lo"][nodes], level["hi"][nodes])
                        nodes = nodes[leaf_md <= radii_arr[qi]]
                    for node in nodes:
                        entries = level["entries"][int(node)]
                        dists = self.metric.pairwise(query, self._data[entries])
                        verified += len(entries)
                        within = dists <= radii_arr[qi]
                        for pos, dist in zip(entries[within], dists[within]):
                            hits[int(self._live[pos])] = float(dist)
                    out.append(sorted(hits.items(), key=lambda p: (p[1], p[0])))
                host = time.perf_counter() - host_start
                self.device.launch_kernel(
                    work_items=verified,
                    op_cost=self.metric.unit_cost,
                    label="lbpg-verify",
                    host_time=host,
                )
                self.device.free(alloc)
                return out
            next_cands = []
            tested = 0
            for qi, query in enumerate(queries_arr):
                nodes = cands[qi]
                md = self._mindist(query, level["lo"][nodes], level["hi"][nodes])
                tested += len(nodes)
                keep = nodes[md <= radii_arr[qi]]
                children = [level["entries"][int(nid)] for nid in keep]
                next_cands.append(
                    np.concatenate(children) if children else np.zeros(0, dtype=np.int64)
                )
            host = time.perf_counter() - host_start
            self.device.launch_kernel(
                work_items=tested, op_cost=4.0, label="lbpg-mindist", host_time=host
            )
            self.device.free(alloc)
            cands = next_cands
        return [[] for _ in range(len(queries_arr))]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        self._require_built()
        queries_arr = np.asarray(queries, dtype=np.float64)
        k_arr = broadcast_query_param(k, len(queries_arr), "k", np.int64)
        pools: list[dict[int, float]] = [dict() for _ in range(len(queries_arr))]
        # Seed pass: greedily descend to the most promising leaf per query and
        # verify it, so the level-synchronous sweep starts with a finite k-th
        # bound instead of scanning everything.
        seed_work = 0
        host_start = time.perf_counter()
        for qi, query in enumerate(queries_arr):
            node = 0
            for li, level in enumerate(self._levels):
                if level["is_leaf"]:
                    entries = level["entries"][int(node)]
                    dists = self.metric.pairwise(query, self._data[entries])
                    seed_work += len(entries)
                    for pos, dist in zip(entries, dists):
                        pools[qi][int(self._live[pos])] = float(dist)
                    break
                children = np.asarray(level["entries"][int(node)])
                nxt = self._levels[li + 1]
                md = self._mindist(query, nxt["lo"][children], nxt["hi"][children])
                seed_work += len(children)
                node = int(children[int(np.argmin(md))])
        host_seed = time.perf_counter() - host_start
        self.device.launch_kernel(
            work_items=seed_work,
            op_cost=self.metric.unit_cost,
            label="lbpg-knn-seed",
            host_time=host_seed,
        )
        cands = [np.arange(len(self._levels[0]["lo"])) for _ in range(len(queries_arr))]
        for depth, level in enumerate(self._levels):
            total = sum(len(c) for c in cands)
            alloc = self._allocate_candidates(max(total, 1), f"lbpg-knn-level-{depth}")
            host_start = time.perf_counter()
            if level["is_leaf"]:
                verified = 0
                for qi, query in enumerate(queries_arr):
                    kk = int(k_arr[qi])
                    nodes = np.asarray(cands[qi], dtype=np.int64)
                    if len(nodes):
                        bound = (
                            sorted(pools[qi].values())[kk - 1] if len(pools[qi]) >= kk else np.inf
                        )
                        leaf_md = self._mindist(query, level["lo"][nodes], level["hi"][nodes])
                        order = np.argsort(leaf_md, kind="stable")
                        nodes = nodes[order][leaf_md[order] <= bound]
                    for node in nodes:
                        entries = level["entries"][int(node)]
                        dists = self.metric.pairwise(query, self._data[entries])
                        verified += len(entries)
                        for pos, dist in zip(entries, dists):
                            oid = int(self._live[pos])
                            prev = pools[qi].get(oid)
                            if prev is None or dist < prev:
                                pools[qi][oid] = float(dist)
                host = time.perf_counter() - host_start
                self.device.launch_kernel(
                    work_items=verified,
                    op_cost=self.metric.unit_cost,
                    label="lbpg-knn-verify",
                    host_time=host,
                )
                self.device.free(alloc)
                break
            next_cands = []
            tested = 0
            for qi, query in enumerate(queries_arr):
                nodes = cands[qi]
                md = self._mindist(query, level["lo"][nodes], level["hi"][nodes])
                tested += len(nodes)
                kk = int(k_arr[qi])
                if len(pools[qi]) >= kk:
                    bound = sorted(pools[qi].values())[kk - 1]
                else:
                    bound = np.inf
                keep = nodes[md <= bound]
                # keep nodes ordered by mindist so deeper levels verify the
                # most promising leaves first
                keep = keep[np.argsort(md[md <= bound], kind="stable")]
                children = [level["entries"][int(nid)] for nid in keep]
                next_cands.append(
                    np.concatenate(children) if children else np.zeros(0, dtype=np.int64)
                )
            host = time.perf_counter() - host_start
            self.device.launch_kernel(
                work_items=tested, op_cost=4.0, label="lbpg-knn-mindist", host_time=host
            )
            self.device.free(alloc)
            cands = next_cands
        out = []
        for qi in range(len(queries_arr)):
            kk = int(k_arr[qi])
            ranked = sorted(pools[qi].items(), key=lambda p: (p[1], p[0]))[:kk]
            out.append([(int(i), float(d)) for i, d in ranked])
        return out
