"""Query-workload construction for the evaluation harness.

The paper's search experiments are parameterised by

* the search radius ``r``, expressed as a multiple of 0.01 % — interpreted
  here as the target *selectivity* (the expected fraction of the dataset a
  range query returns), which is the property that actually drives index
  behaviour and transfers across dataset scales;
* ``k`` for MkNNQ;
* the number of queries in a batch (16-512, default 256 scaled down by the
  harness when the dataset is small).

:func:`radius_for_selectivity` converts a selectivity into a concrete radius
by sampling the pairwise-distance distribution of the dataset and taking the
corresponding quantile.  The same sample also feeds the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import QueryError
from ..metrics.base import Metric

__all__ = [
    "PAPER_RADIUS_STEPS",
    "PAPER_K_VALUES",
    "PAPER_BATCH_SIZES",
    "PAPER_NODE_CAPACITIES",
    "sample_pairwise_distances",
    "radius_for_selectivity",
    "Workload",
    "make_workload",
]

#: Table 3 of the paper: search radius steps (each step is 0.01 % selectivity).
PAPER_RADIUS_STEPS = (1, 2, 4, 8, 16, 32)
#: Table 3: k values for MkNNQ.
PAPER_K_VALUES = (1, 2, 4, 8, 16, 32)
#: Table 3: number of queries in a batch.
PAPER_BATCH_SIZES = (16, 32, 64, 128, 256, 512)
#: Table 3: node capacities.
PAPER_NODE_CAPACITIES = (10, 20, 40, 80, 160, 320)

#: One radius step corresponds to this selectivity (0.01 % of the dataset).
RADIUS_STEP_SELECTIVITY = 1e-4


def sample_pairwise_distances(
    objects: Sequence,
    metric: Metric,
    sample_size: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample pairwise distances between random objects of the dataset."""
    n = len(objects)
    if n < 2:
        raise QueryError("need at least two objects to sample distances")
    rng = rng or np.random.default_rng(11)
    sample_size = min(sample_size, n)
    idx = rng.choice(n, size=sample_size, replace=False)
    if isinstance(objects, np.ndarray):
        sample = objects[idx]
    else:
        sample = [objects[int(i)] for i in idx]
    anchors = min(20, sample_size)
    rows = []
    for a in range(anchors):
        row = metric.pairwise(sample[a], sample)
        rows.append(np.delete(row, a))
    return np.concatenate(rows)


def radius_for_selectivity(
    objects: Sequence,
    metric: Metric,
    selectivity: float,
    sample_size: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Radius whose range query returns roughly ``selectivity * n`` objects.

    The radius is the ``selectivity`` quantile of the sampled pairwise
    distance distribution, floored at a small positive value so that integer
    metrics (edit distance) still return the query's near-duplicates.
    """
    if not 0 < selectivity <= 1:
        raise QueryError(f"selectivity must be in (0, 1], got {selectivity}")
    dists = sample_pairwise_distances(objects, metric, sample_size=sample_size, rng=rng)
    radius = float(np.quantile(dists, selectivity))
    positive = dists[dists > 0]
    floor = float(positive.min()) if len(positive) else 0.0
    return max(radius, floor)


@dataclass
class Workload:
    """A concrete batch workload: queries plus MRQ radius / MkNNQ k."""

    queries: list
    radius: float
    k: int
    selectivity: float

    @property
    def batch_size(self) -> int:
        return len(self.queries)

    def measure(self, index) -> tuple:
        """Answer one MRQ batch and one MkNNQ batch on ``index``, timing each
        on ``index.device``: ``(range answers, MRQ seconds, kNN answers,
        MkNNQ seconds)``."""
        before = index.device.stats.sim_time
        range_answers = index.range_query_batch(self.queries, self.radius)
        mrq_time = index.device.stats.sim_time - before
        before = index.device.stats.sim_time
        knn_answers = index.knn_query_batch(self.queries, self.k)
        return range_answers, mrq_time, knn_answers, index.device.stats.sim_time - before


def make_workload(
    dataset,
    num_queries: int = 64,
    radius_step: int = 8,
    k: int = 8,
    seed: int = 53,
) -> Workload:
    """Build the default workload used across the benchmark harness.

    ``radius_step`` follows the paper's ``r (x0.01%)`` convention but is
    rescaled for the (much smaller) stand-in datasets so that range queries
    return a handful of objects rather than none: the effective selectivity is
    ``radius_step x 0.01% x (paper cardinality / generated cardinality)``
    capped at 5 %.
    """
    rng = np.random.default_rng(seed)
    queries = dataset.sample_queries(num_queries, seed=seed)
    scale_up = 1.0
    if dataset.paper_cardinality and dataset.cardinality:
        scale_up = max(1.0, dataset.paper_cardinality / dataset.cardinality / 50.0)
    selectivity = min(0.02, radius_step * RADIUS_STEP_SELECTIVITY * scale_up)
    radius = radius_for_selectivity(dataset.objects, dataset.metric, selectivity, rng=rng)
    return Workload(queries=queries, radius=radius, k=k, selectivity=selectivity)
