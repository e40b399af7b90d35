"""Abstract distance metric interface for general metric spaces.

The paper (Section 3) defines a metric space as a pair ``(M, d)`` where the
distance ``d`` satisfies non-negativity, identity, symmetry and the triangle
inequality.  GTS only ever interacts with data through such a ``d``: there are
no coordinates, so every index and baseline in this repository is written
against the :class:`Metric` interface below.

A :class:`Metric` exposes three granularities of evaluation:

``distance(a, b)``
    a single pair — the canonical definition;
``pairwise(query, objects)``
    one object against a sequence of objects (the shape used by pivot
    mapping and query verification);
``matrix(xs, ys)``
    full cross-distance matrix (used by table-based baselines).

``pairwise`` and ``matrix`` have generic implementations in terms of
``distance`` but concrete metrics override them with vectorised NumPy code.

``pairwise_segmented(queries, objects, boundaries)``
    the **fused segmented kernel** shape: one flat candidate sequence shared
    by a whole query batch, partitioned into per-query segments by an offsets
    array.  This is how the batch MRQ/MkNNQ engine evaluates an entire tree
    level in one call — vector metrics answer it with a single gather +
    broadcast pass over all (query, candidate) pairs, while string/set
    metrics fall back to a per-segment loop.

``distance_bounds(query_matrix, row_matrix, row_digest, upper)``
    optional certified lower/upper bounds on a whole query × row block,
    which leaf verification uses to drop candidates before their exact
    evaluation (None when a metric has no such bound; the upper bounds only
    when ``upper`` asks for them).

``distance_error()``
    a certified bound on how far any reported distance lies from the exact
    one, which the tree's pruning tests widen by so floating-point rounding
    never prunes a child that holds an answer.

Every call is counted.  Distance computations are the currency of metric
similarity search — the paper's efficiency claims boil down to "GTS computes
far fewer distances and evaluates the rest with massive parallelism" — so the
counters feed both the test-suite assertions and the simulated-GPU cost model.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..exceptions import MetricError

__all__ = ["Metric", "MetricCounter"]


class MetricCounter:
    """Mutable counter of distance evaluations performed by a metric."""

    __slots__ = ("calls", "pairs")

    def __init__(self) -> None:
        self.calls = 0  # number of API invocations
        # object pairs evaluated, plus the verification pairs a certified
        # distance_bounds filter dropped without computing them
        self.pairs = 0

    def record(self, pairs: int) -> None:
        self.calls += 1
        self.pairs += int(pairs)

    def reset(self) -> None:
        self.calls = 0
        self.pairs = 0

    def snapshot(self) -> dict[str, int]:
        return {"calls": self.calls, "pairs": self.pairs}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricCounter(calls={self.calls}, pairs={self.pairs})"


class Metric:
    """Base class for distance metrics over arbitrary object domains.

    Subclasses must implement :meth:`_distance` and may override
    :meth:`_pairwise` / :meth:`_matrix` with vectorised versions.  They must
    also set :attr:`name` and :attr:`unit_cost`.

    Attributes
    ----------
    name:
        Human-readable metric name used in reports.
    unit_cost:
        Relative cost of one distance evaluation in abstract "operation"
        units.  The simulated GPU multiplies this by its per-operation time to
        model that, e.g., an edit distance on DNA strings is far more
        expensive than a 2-d Euclidean distance.  It does not affect
        correctness, only the timing model.
    supports_vectors:
        True when objects are fixed-length numeric vectors.  Special-purpose
        baselines (LBPG-Tree, GANNS) refuse metrics without vector support.
    is_lp_norm:
        True for L1/L2/L∞ metrics; LBPG-Tree additionally requires this.
    """

    name: str = "abstract"
    unit_cost: float = 1.0
    supports_vectors: bool = False
    is_lp_norm: bool = False

    def __init__(self) -> None:
        self.counter = MetricCounter()

    # ------------------------------------------------------------------ API
    def distance(self, a: Any, b: Any) -> float:
        """Return ``d(a, b)``."""
        self.counter.record(1)
        return float(self._distance(a, b))

    def pairwise(self, query: Any, objects: Sequence[Any]) -> np.ndarray:
        """Return the vector ``[d(query, o) for o in objects]``."""
        n = len(objects)
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        self.counter.record(n)
        return np.asarray(self._pairwise(query, objects), dtype=np.float64)

    def matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Return the ``len(xs) x len(ys)`` cross-distance matrix."""
        if len(xs) == 0 or len(ys) == 0:
            return np.zeros((len(xs), len(ys)), dtype=np.float64)
        self.counter.record(len(xs) * len(ys))
        return np.asarray(self._matrix(xs, ys), dtype=np.float64)

    def store_digest(self, matrix: np.ndarray):
        """Per-object auxiliary values reusable across every query batch.

        FAISS-style precomputation hook: called once per object store (and
        cached by the store), the result is gathered alongside the candidate
        rows and passed to :meth:`pairwise_segmented` as ``object_digest``.
        The digest must be a per-row function of the object data so that a
        gathered slice of the digest equals the digest of the gathered rows
        bit for bit — e.g. :class:`~repro.metrics.vector.AngularDistance`
        caches each row's L2 norm.  Returns None (no digest) by default.
        """
        return None

    def distance_bounds(self, query_matrix, row_matrix, row_digest=None, upper=True):
        """Certified ``(lo, hi)`` bounds on every (query, row) distance, or None.

        A cheap filter in front of :meth:`pairwise_segmented`: for query ``i``
        and row ``j``, ``lo[i, j] <= d <= hi[i, j]`` must hold for the
        distance ``d`` that :meth:`pairwise_segmented` would report, bit for
        bit — so a search may drop a pair whose ``lo`` exceeds its bound and
        evaluate only the rest exactly.  ``row_digest`` is the
        :meth:`store_digest` slice aligned with ``row_matrix`` (None when the
        caller has none).  With ``upper`` false only ``lo`` is needed (a
        range search reads no ``hi``) and ``hi`` may be None.  The base
        class has no such bound and returns None, which keeps every pair on
        the exact path.
        """
        return None

    def distance_error(self) -> tuple[float, float]:
        """Certified rounding bound ``(rel, abs)`` of the reported distances.

        Every distance this metric reports through :meth:`distance`,
        :meth:`pairwise` or :meth:`pairwise_segmented` lies within
        ``rel * d + abs`` of the exact distance ``d`` of the same pair.
        Pruning (Lemmas 5.1 and 5.2) widens its interval tests by this bound,
        so a child holding an object at distance exactly ``r`` survives
        whatever way its distances rounded.  The base class reports
        ``(0.0, 0.0)``: right for integer-valued metrics (edit, Hamming),
        whose distances are exact; a metric that rounds and does not
        override it is pruned in raw floating point.
        """
        return 0.0, 0.0

    def pairwise_segmented(
        self,
        queries: Sequence[Any],
        objects: Sequence[Any],
        segment_boundaries,
        object_digest=None,
        settled_pairs: int = 0,
    ) -> np.ndarray:
        """Evaluate per-query candidate segments of one flat object sequence.

        ``segment_boundaries`` is an int offsets array of length
        ``len(queries) + 1``: segment ``i`` is ``objects[b[i]:b[i + 1]]`` and
        is evaluated against ``queries[i]``.  Returns the flat distance
        vector aligned with ``objects`` — exactly
        ``concatenate([pairwise(q_i, segment_i)])``, but computed (for
        vector metrics) as a single gather + broadcast pass over every
        (query, candidate) pair, which is what makes level-wide batch
        evaluation run at NumPy speed.

        ``object_digest``, when given, is the :meth:`store_digest` slice
        aligned with ``objects`` — metrics that can exploit it (cached norms)
        do so without changing a single bit of the result; everyone else
        ignores it.

        The whole call counts as **one** metric invocation covering
        ``len(objects)`` pairs (``counter.pairs`` is unchanged relative to
        per-query evaluation; ``counter.calls`` counts the fused call).
        ``settled_pairs`` adds the pairs of the same kernel that a
        :meth:`distance_bounds` filter proved beyond their bound: they are
        counted as evaluated but not computed, so the pair count does not
        depend on whether the filter ran.
        """
        boundaries = np.asarray(segment_boundaries, dtype=np.int64)
        if boundaries.ndim != 1 or len(boundaries) != len(queries) + 1:
            raise MetricError(
                f"segment_boundaries must be a flat offsets array of length "
                f"len(queries) + 1 = {len(queries) + 1}, got shape {boundaries.shape}"
            )
        if len(boundaries) and (boundaries[0] != 0 or boundaries[-1] != len(objects)):
            raise MetricError(
                f"segment_boundaries must start at 0 and end at len(objects) = "
                f"{len(objects)}, got [{boundaries[0] if len(boundaries) else ''}, "
                f"{boundaries[-1] if len(boundaries) else ''}]"
            )
        if (boundaries[1:] < boundaries[:-1]).any():
            raise MetricError("segment_boundaries must be non-decreasing")
        n = len(objects)
        if n or settled_pairs:
            self.counter.record(n + int(settled_pairs))
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        return np.asarray(
            self._pairwise_segmented(queries, objects, boundaries, object_digest),
            dtype=np.float64,
        )

    def reset_counter(self) -> None:
        """Zero the distance-evaluation counters."""
        self.counter.reset()

    @property
    def pair_count(self) -> int:
        """Number of object pairs evaluated since the last reset."""
        return self.counter.pairs

    # ------------------------------------------------------- implementation
    def _distance(self, a: Any, b: Any) -> float:
        raise NotImplementedError

    def _pairwise(self, query: Any, objects: Sequence[Any]) -> Iterable[float]:
        return [self._distance(query, o) for o in objects]

    def _matrix(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        out = np.empty((len(xs), len(ys)), dtype=np.float64)
        for i, x in enumerate(xs):
            out[i, :] = self._pairwise(x, ys)
        return out

    def _pairwise_segmented(
        self, queries, objects, boundaries: np.ndarray, object_digest=None
    ) -> np.ndarray:
        # Generic fallback: one _pairwise call per non-empty segment.  String
        # and set metrics inherit this loop; vector metrics override it with
        # a single broadcast pass.  The digest is unused here.
        out = np.empty(int(boundaries[-1]), dtype=np.float64)
        for qi in range(len(queries)):
            start, end = int(boundaries[qi]), int(boundaries[qi + 1])
            if end > start:
                out[start:end] = self._pairwise(queries[qi], objects[start:end])
        return out

    # ----------------------------------------------------------- validation
    def validate_objects(self, objects: Sequence[Any]) -> None:
        """Hook for subclasses to reject malformed objects early.

        The default implementation only rejects empty datasets handed to
        vector metrics with inconsistent shapes; string metrics accept any
        sequence of strings.
        """
        if objects is None:
            raise MetricError("objects must not be None")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
