"""Approximate similarity search on top of the GTS tree.

The paper's concluding section names approximate search (optionally with a
learned component) on the GPU tree as its follow-up direction.  This package
provides that extension on the same simulated substrate:

* :class:`~repro.approx.beam.ApproximateGTS` — beam-search descent over a
  built :class:`~repro.core.gts.GTS` index: at every level only the
  ``beam_width`` most promising children per query survive, so the number of
  distance computations is bounded at the price of exactness;
* :class:`~repro.approx.learned.LearnedLeafRouter` — a learned ranking of the
  leaves (linear model over pivot-space features) that verifies only the
  ``leaf_budget`` leaves predicted closest to the query;
* :mod:`~repro.approx.recall` — recall / precision utilities for comparing
  approximate answers with exact ones.

Both strategies only choose (query, node) pairs: the pivot distances, leaf
verification, cache-table scan and answer accumulator are the exact
search's (:mod:`repro.core.search`), so their kernels are the exact
``pivot-distances`` and verify kernels with their result buffers, plus
``approx-beam-select`` and ``learned-rank``.  Answers include cached
objects and drop deleted ones exactly as the exact search does.  Only
verified candidates are reported, so the strategies never report false
positives for range queries and their kNN answers are always real objects
at their true distances — only completeness (recall) is traded away.
"""

from .beam import ApproximateGTS
from .learned import LearnedLeafRouter
from .recall import knn_recall, mean_knn_recall, mean_range_recall, range_recall

__all__ = [
    "ApproximateGTS",
    "LearnedLeafRouter",
    "knn_recall",
    "mean_knn_recall",
    "range_recall",
    "mean_range_recall",
]
