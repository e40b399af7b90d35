"""Multi-column similarity search over several GTS indexes (Section 5.2, Remark).

The paper notes that GTS "holds the potential to handle multi-column
scenarios": build one GTS index per attribute (column) and answer
multi-attribute queries by progressively combining the per-column results
with Fagin-style aggregation.  This module implements that extension.

A :class:`MultiColumnGTS` indexes records whose columns live in different
metric spaces (e.g. a 2-d location under L2 plus a text field under edit
distance).  The aggregate dissimilarity of a record to a query is the
weighted sum of the per-column distances.  Two query types are provided:

``range_query(query, radii)``
    conjunctive range query: records within ``radii[c]`` of the query in
    *every* column (the natural multi-column generalisation of MRQ; each
    column's GTS answers its own MRQ and the id sets are intersected);

``knn_query(query, k)``
    k nearest records under the weighted-sum aggregate, answered with the
    threshold-style algorithm the paper alludes to (Fagin's TA [21] adapted
    to index probes): per-column candidate lists are expanded round by round
    with growing per-column ``k``; the algorithm stops once ``k`` records have
    aggregate distances no larger than the threshold formed by the per-column
    expansion radii, which guarantees exactness.

Every per-column probe runs through the normal GTS batch machinery, so the
whole extension inherits the simulated-device accounting.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import IndexError_, QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from .gts import GTS

__all__ = ["MultiColumnGTS"]


class MultiColumnGTS:
    """Several GTS indexes, one per column, with weighted-sum aggregation.

    Parameters
    ----------
    metrics:
        One metric per column.
    weights:
        Non-negative aggregation weights (default: all ones).
    node_capacity, device, seed:
        Forwarded to every per-column :class:`GTS`.
    """

    def __init__(
        self,
        metrics: Sequence[Metric],
        weights: Optional[Sequence[float]] = None,
        node_capacity: int = 20,
        device: Optional[Device] = None,
        seed: int = 17,
    ):
        if len(metrics) == 0:
            raise IndexError_("at least one column metric is required")
        self.metrics = list(metrics)
        if weights is None:
            weights = [1.0] * len(metrics)
        if len(weights) != len(metrics):
            raise IndexError_("need exactly one weight per column")
        if any(w < 0 for w in weights):
            raise IndexError_("aggregation weights must be non-negative")
        self.weights = [float(w) for w in weights]
        self.device = device or Device()
        self._columns = [
            GTS(metric, node_capacity=node_capacity, device=self.device, seed=seed + i)
            for i, metric in enumerate(self.metrics)
        ]
        self._records: list[tuple] = []

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def build(
        cls,
        records: Sequence[Sequence],
        metrics: Sequence[Metric],
        weights: Optional[Sequence[float]] = None,
        node_capacity: int = 20,
        device: Optional[Device] = None,
        seed: int = 17,
    ) -> "MultiColumnGTS":
        """Build a multi-column index over ``records`` (one value per column each)."""
        index = cls(metrics, weights=weights, node_capacity=node_capacity, device=device, seed=seed)
        index.bulk_load(records)
        return index

    def bulk_load(self, records: Sequence[Sequence]) -> None:
        """Index ``records``; record ids are their positions."""
        if len(records) == 0:
            raise IndexError_("cannot bulk load an empty record collection")
        num_columns = len(self.metrics)
        for record in records:
            if len(record) != num_columns:
                raise IndexError_(
                    f"every record needs {num_columns} columns, got {len(record)}"
                )
        self._records = [tuple(record) for record in records]
        for column, gts in enumerate(self._columns):
            gts.bulk_load([record[column] for record in self._records])

    @property
    def num_records(self) -> int:
        """Number of indexed records."""
        return len(self._records)

    @property
    def num_columns(self) -> int:
        """Number of indexed columns."""
        return len(self.metrics)

    def get_record(self, record_id: int) -> tuple:
        """Return the record registered under ``record_id``."""
        if not 0 <= record_id < len(self._records):
            raise IndexError_(f"unknown record id {record_id}")
        return self._records[record_id]

    def column(self, index: int) -> GTS:
        """The per-column GTS index (read-only use)."""
        return self._columns[index]

    def __len__(self) -> int:
        return self.num_records

    # -------------------------------------------------------------- queries
    def aggregate_distance(self, query: Sequence, record_id: int) -> float:
        """Weighted-sum aggregate distance between ``query`` and a record."""
        record = self.get_record(record_id)
        total = 0.0
        for value, rec_value, metric, weight in zip(query, record, self.metrics, self.weights):
            total += weight * metric.distance(value, rec_value)
        return total

    def range_query(self, query: Sequence, radii: Sequence[float]) -> list[tuple[int, list[float]]]:
        """Conjunctive multi-column range query.

        Returns the records within ``radii[c]`` of the query in every column
        ``c``, as ``(record_id, [per-column distances])`` sorted by record id.
        """
        self._require_built()
        if len(query) != self.num_columns or len(radii) != self.num_columns:
            raise QueryError("query and radii must have one entry per column")
        surviving: Optional[dict[int, list[float]]] = None
        for column, (gts, value, radius) in enumerate(zip(self._columns, query, radii)):
            hits = dict(gts.range_query(value, float(radius)))
            if surviving is None:
                surviving = {oid: [dist] for oid, dist in hits.items()}
            else:
                surviving = {
                    oid: dists + [hits[oid]]
                    for oid, dists in surviving.items()
                    if oid in hits
                }
            if not surviving:
                return []
        return sorted(surviving.items())

    def knn_query(self, query: Sequence, k: int, initial_k: Optional[int] = None) -> list[tuple[int, float]]:
        """Exact k nearest records under the weighted-sum aggregate distance.

        Implements a threshold-algorithm style expansion: each column's GTS is
        probed with a growing per-column ``k``; after each round the threshold
        is ``sum_c weight_c * (k-th distance seen in column c)``.  Once ``k``
        fully-evaluated records have aggregates at or below the threshold (or
        every record has been seen) the answer is final.
        """
        self._require_built()
        if len(query) != self.num_columns:
            raise QueryError("query must have one value per column")
        if k <= 0:
            raise QueryError("k must be positive")
        k = min(int(k), self.num_records)
        probe_k = min(self.num_records, max(int(initial_k or 0), k, 4))
        evaluated: dict[int, float] = {}
        while True:
            thresholds = []
            candidate_ids: set[int] = set()
            for column, (gts, value, weight) in enumerate(zip(self._columns, query, self.weights)):
                hits = gts.knn_query(value, probe_k)
                candidate_ids.update(oid for oid, _ in hits)
                kth = hits[-1][1] if hits else 0.0
                thresholds.append(weight * kth)
            threshold = float(sum(thresholds))
            for oid in candidate_ids:
                if oid not in evaluated:
                    evaluated[oid] = self.aggregate_distance(query, oid)
            ranked = sorted(evaluated.items(), key=lambda item: (item[1], item[0]))
            have_enough = len(ranked) >= k and ranked[k - 1][1] <= threshold
            seen_everything = probe_k >= self.num_records
            if have_enough or seen_everything:
                return [(int(oid), float(dist)) for oid, dist in ranked[:k]]
            probe_k = min(self.num_records, probe_k * 2)

    def _require_built(self) -> None:
        if not self._records:
            raise IndexError_("the multi-column index has not been built yet")
