"""Distance metrics over set-valued and collection-valued objects.

The paper motivates metric-space search with "dynamic data of various types
with distinct measures" (cancer omics, text, images...).  Two additional
families of such measures are provided here:

* :class:`JaccardDistance` — ``1 - |A ∩ B| / |A ∪ B|`` over finite sets
  (tags, shingles, token sets).  It satisfies all metric axioms (it is the
  normalised symmetric-difference metric), so every exact index in this
  repository can use it unchanged.
* :class:`HausdorffDistance` — the classic two-sided Hausdorff distance
  between finite point sets, parameterised by any inner metric.  It is the
  standard way to compare shapes, trajectories or image feature sets in a
  metric space.

Both operate on Python collections rather than fixed-length vectors, which is
exactly the situation where coordinate-based indexes give up and pivot-based
metric indexes keep working.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

import numpy as np

from ..exceptions import MetricError
from .base import Metric
from .vector import EuclideanDistance

__all__ = ["JaccardDistance", "HausdorffDistance", "jaccard_distance", "hausdorff_distance"]


def jaccard_distance(a: Iterable, b: Iterable) -> float:
    """Jaccard distance ``1 - |A ∩ B| / |A ∪ B|`` between two collections.

    Two empty collections are identical (distance 0) by convention.
    """
    set_a, set_b = set(a), set(b)
    union = set_a | set_b
    if not union:
        return 0.0
    return 1.0 - len(set_a & set_b) / len(union)


class JaccardDistance(Metric):
    """Jaccard (normalised symmetric-difference) distance over finite sets."""

    name = "jaccard"
    unit_cost = 2.0
    supports_vectors = False
    is_lp_norm = False

    def _distance(self, a: Any, b: Any) -> float:
        return jaccard_distance(a, b)

    def distance_error(self) -> tuple[float, float]:
        """One rounded quotient and one rounded ``1 - q``: under ``2.01 u``
        absolute, reported as ``4u``."""
        return 0.0, 2.0 ** -51

    def validate_objects(self, objects: Sequence[Any]) -> None:
        super().validate_objects(objects)
        for obj in objects:
            if isinstance(obj, (str, bytes)) or not isinstance(obj, Iterable):
                raise MetricError(
                    "JaccardDistance expects set-like collections of hashable items; "
                    f"got {type(obj).__name__}"
                )


def hausdorff_distance(a: Sequence, b: Sequence, inner: Optional[Metric] = None) -> float:
    """Two-sided Hausdorff distance between the finite point sets ``a`` and ``b``.

    ``H(A, B) = max( max_a min_b d(a, b), max_b min_a d(a, b) )`` using
    ``inner`` as the ground metric (Euclidean when omitted).
    """
    inner = inner or EuclideanDistance()
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        raise MetricError("the Hausdorff distance between an empty and a non-empty set is undefined")
    cross = inner.matrix(list(a), list(b))
    forward = float(np.max(np.min(cross, axis=1)))
    backward = float(np.max(np.min(cross, axis=0)))
    return max(forward, backward)


class HausdorffDistance(Metric):
    """Hausdorff distance between finite point sets under an inner metric.

    Parameters
    ----------
    inner:
        Ground metric between set elements (Euclidean by default).  The
        Hausdorff construction preserves the metric axioms of the inner
        metric, so the result is again a proper metric.
    """

    supports_vectors = False
    is_lp_norm = False

    def __init__(self, inner: Optional[Metric] = None):
        super().__init__()
        self.inner = inner or EuclideanDistance()
        self.name = f"hausdorff({self.inner.name})"
        # one Hausdorff evaluation computes |A| x |B| inner distances; a
        # nominal set size of 8 keeps the simulated cost in a sensible range
        self.unit_cost = 8.0 * self.inner.unit_cost

    def _distance(self, a: Any, b: Any) -> float:
        return hausdorff_distance(a, b, inner=self.inner)

    def validate_objects(self, objects: Sequence[Any]) -> None:
        super().validate_objects(objects)
        for obj in objects:
            if len(obj) == 0:
                raise MetricError("HausdorffDistance cannot index empty point sets")
