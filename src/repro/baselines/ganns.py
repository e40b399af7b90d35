"""GANNS — GPU-accelerated proximity-graph ANN search (approximate, vectors only).

The paper compares GTS against GANNS [58], a GPU graph-based *approximate*
nearest-neighbour method.  Its profile in the evaluation:

* vector data only (T-Loc, Vector, Color), kNN only — no range queries and no
  exactness guarantee;
* very fast MkNNQ once built (it beats GTS on raw kNN latency, Section 6.3);
* expensive construction and a much larger index than GTS — the paper reports
  roughly 40× more storage and >10× longer build time (Table 4) — and
  out-of-memory failures on the largest datasets (Fig. 11);
* a full rebuild for any data update (Fig. 5).

The implementation builds a navigable proximity graph: every object is linked
to its ``degree`` (approximate) nearest neighbours, computed block-wise on the
device, then searched with best-first beam search (``ef`` candidates) from
several entry points.  Recall is high but not guaranteed — the evaluation
harness reports it separately.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.searchcommon import broadcast_query_param
from ..exceptions import BaselineError, MemoryDeadlockError
from ..gpusim.kernels import distance_matrix_kernel
from ..metrics.base import Metric
from .base import GPUSimilarityIndex

__all__ = ["GANNS"]


class GANNS(GPUSimilarityIndex):
    """Proximity-graph approximate kNN search on the simulated GPU."""

    name = "GANNS"
    is_exact = False
    supports_range = False

    def __init__(
        self,
        metric,
        device=None,
        degree: int = 16,
        ef_search: int = 48,
        num_entry_points: int = 8,
        long_range_links: int = 2,
        build_block: int = 1024,
        seed: int = 41,
    ):
        super().__init__(metric, device)
        self.degree = int(degree)
        self.ef_search = int(ef_search)
        self.num_entry_points = int(num_entry_points)
        self.long_range_links = int(long_range_links)
        self.build_block = int(build_block)
        self._rng = np.random.default_rng(seed)
        self._neighbors: np.ndarray | None = None

    @classmethod
    def supports_metric(cls, metric: Metric) -> bool:
        return bool(metric.supports_vectors)

    # ---------------------------------------------------------------- build
    def _build_impl(self) -> None:
        # release allocations of any previous build (rebuild-on-update path)
        for attr in ("_data_alloc", "_graph_alloc"):
            alloc = getattr(self, attr, None)
            if alloc is not None:
                self.device.free(alloc)
        live = self.live_ids()
        data = np.asarray([self._objects[int(i)] for i in live], dtype=np.float64)
        self._live = live
        self._data = data
        n = len(live)
        self.device.transfer_to_device(data.nbytes)
        self._data_alloc = self.device.allocate(data.nbytes, "ganns-objects")

        degree = min(self.degree, max(1, n - 1))
        neighbors = np.zeros((n, degree), dtype=np.int64)
        # The kNN graph is built block-against-all on the device; the block
        # distance tables are what make GANNS construction slow and memory
        # hungry compared with GTS.
        for start in range(0, n, self.build_block):
            stop = min(start + self.build_block, n)
            block_bytes = (stop - start) * n * 8
            try:
                alloc = self.device.allocate(block_bytes, "ganns-build-block")
            except Exception as exc:
                raise MemoryDeadlockError(
                    f"GANNS graph construction block of {block_bytes} bytes does not fit: {exc}"
                ) from exc
            table = distance_matrix_kernel(
                self.device, self.metric, data[start:stop], data, label="ganns-build"
            )
            for row in range(stop - start):
                table[row, start + row] = np.inf  # exclude self
                idx = np.argpartition(table[row], degree - 1)[:degree]
                idx = idx[np.argsort(table[row][idx], kind="stable")]
                neighbors[start + row] = idx
            self.device.sort_cost(n, label="ganns-build-select")
            self.device.free(alloc)
        # a few random long-range links per node keep the graph navigable
        # across clusters (the NSW-style shortcut edges real systems rely on)
        if self.long_range_links > 0 and n > degree + 1:
            shortcuts = self._rng.integers(0, n, size=(n, self.long_range_links))
            neighbors[:, -self.long_range_links:] = shortcuts
        self._neighbors = neighbors
        self._graph_alloc = self.device.allocate(neighbors.nbytes + n * 8 * 4, "ganns-graph")
        self._entry_points = self._rng.choice(n, size=min(self.num_entry_points, n), replace=False)

    @property
    def storage_bytes(self) -> int:
        if self._neighbors is None:
            return 0
        # adjacency lists plus per-node metadata (visited flags, priority slots)
        return int(self._neighbors.nbytes + len(self._neighbors) * 8 * 4)

    # --------------------------------------------------------------- queries
    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        raise BaselineError("GANNS supports only kNN queries (no metric range queries)")

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        self._require_built()
        queries_arr = np.asarray(queries, dtype=np.float64)
        k_arr = broadcast_query_param(k, len(queries_arr), "k", np.int64)
        out: list[list[tuple[int, float]]] = []
        total_work = 0
        host_start = time.perf_counter()
        for qi, query in enumerate(queries_arr):
            kk = int(k_arr[qi])
            result, work = self._beam_search(query, kk)
            total_work += work
            out.append(result)
        host = time.perf_counter() - host_start
        self.device.launch_kernel(
            work_items=total_work,
            op_cost=self.metric.unit_cost,
            label="ganns-search",
            host_time=host,
        )
        return out

    def _beam_search(self, query: np.ndarray, k: int) -> tuple[list[tuple[int, float]], int]:
        """Best-first beam search over the proximity graph."""
        ef = max(self.ef_search, k)
        dists_entry = self.metric.pairwise(query, self._data[self._entry_points])
        work = len(self._entry_points)
        visited = set(int(e) for e in self._entry_points)
        # candidate frontier and result beam, both kept small and sorted
        frontier = sorted(zip(dists_entry.tolist(), self._entry_points.tolist()))
        beam = list(frontier)
        while frontier:
            dist, node = frontier.pop(0)
            if len(beam) >= ef and dist > beam[min(ef, len(beam)) - 1][0]:
                break
            neigh = [int(x) for x in self._neighbors[int(node)] if int(x) not in visited]
            if not neigh:
                continue
            visited.update(neigh)
            nd = self.metric.pairwise(query, self._data[neigh])
            work += len(neigh)
            for d, nid in zip(nd.tolist(), neigh):
                beam.append((d, nid))
                frontier.append((d, nid))
            beam.sort()
            beam = beam[:ef]
            frontier.sort()
        top = beam[:k]
        return [(int(self._live[nid]), float(d)) for d, nid in top], work
