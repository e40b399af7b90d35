"""Vector-space distance metrics: L1, L2, L∞ norms and angular (word cosine).

The paper's datasets use three of these:

* **T-Loc** — 2-d Twitter-user locations, L2 norm;
* **Color** — 282-d image features, L1 norm;
* **Vector** — 300-d word embeddings, "word cosine distance".

Cosine *similarity* is not a metric (it violates the triangle inequality), so
following common practice for metric indexes over embeddings we use the
angular distance ``arccos(cos_sim) / pi`` which is a proper metric on the unit
sphere; the paper's reference [1] (word2vec) normalises embeddings, making the
two orderings identical.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..exceptions import MetricError
from .base import Metric

__all__ = [
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
    "MinkowskiDistance",
    "AngularDistance",
]


#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0 ** -53

#: Absolute slack, in distance units, that :meth:`AngularDistance.distance_bounds`
#: adds on both sides for the rounding of ``arccos(.) / pi`` — far more than
#: the few ulps by which a faithfully rounded ``arccos`` can fail to be
#: monotone.
_ARCCOS_SLACK = 2.0 ** -48


def _as_matrix(objects: Sequence) -> np.ndarray:
    arr = np.asarray(objects, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise MetricError(f"vector objects must be 1- or 2-dimensional, got shape {arr.shape}")
    return arr


def _as_vector(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 1:
        raise MetricError(f"a vector object must be 1-dimensional, got shape {arr.shape}")
    return arr


class _VectorMetric(Metric):
    """Shared validation for fixed-dimension vector metrics.

    ``unit_cost`` is proportional to the vector dimensionality (a 282-d L1
    distance costs ~300x more arithmetic than a 2-d one); the dimension is
    inferred lazily from the first objects seen.
    """

    supports_vectors = True
    #: abstract operations per coordinate of one distance evaluation
    ops_per_dimension = 2.0
    #: widest vector evaluated so far; sizes :meth:`distance_error`
    widest_dimension = 1

    def _observe_dimension(self, dim: int) -> None:
        self.unit_cost = max(1.0, self.ops_per_dimension * int(dim))
        if dim > self.widest_dimension:
            self.widest_dimension = int(dim)

    #: Average segment size (in matrix elements, ``rows * dim``) below which
    #: the fully fused single-pass evaluation beats per-segment slicing.
    #: Small segments are dominated by per-call overhead (fuse them); large
    #: segments stay cache-resident when processed one at a time, while the
    #: fused pass would stream multi-hundred-MB temporaries through memory.
    #: Both strategies compute the identical row-wise formula, so the choice
    #: never changes a single bit of the result (DESIGN.md §8).
    fused_segment_elements = 4096

    def _pairwise_segmented(self, queries, objects, boundaries, object_digest=None) -> np.ndarray:
        total = int(boundaries[-1])
        num_segments = max(1, len(queries))
        dim = len(queries[0]) if len(queries) else 0
        if total * dim > num_segments * self.fused_segment_elements:
            # big segments: per-segment slices of the gathered matrix (cache-
            # friendly, and the slices are views — no per-object Python work)
            return self._segment_loop(queries, objects, boundaries, object_digest)
        return self._fused_segmented(queries, objects, boundaries, object_digest)

    def _segment_loop(self, queries, objects, boundaries, object_digest) -> np.ndarray:
        out = np.empty(int(boundaries[-1]), dtype=np.float64)
        for qi in range(len(queries)):
            start, end = int(boundaries[qi]), int(boundaries[qi + 1])
            if end > start:
                digest = None if object_digest is None else object_digest[start:end]
                out[start:end] = self._segment_pairwise(queries[qi], objects[start:end], digest)
        return out

    def _segment_pairwise(self, query, objects, digest) -> np.ndarray:
        # One segment of the loop strategy; metrics with a store digest
        # override this to reuse it.
        return self._pairwise(query, objects)

    def _segment_matrices(self, queries, objects, boundaries):
        """Validate and expand one (queries, objects, boundaries) triple.

        Returns ``(objects_matrix, queries_repeated)`` where the queries
        matrix has been repeated to object alignment — after this, every
        vector metric is a plain row-wise formula over the two matrices,
        bitwise-identical to the per-query ``_pairwise`` evaluation.
        """
        qmat = _as_matrix(queries)
        mat = _as_matrix(objects)
        if mat.shape[1] != qmat.shape[1]:
            raise MetricError(f"dimension mismatch: {qmat.shape[1]} vs {mat.shape[1]}")
        self._observe_dimension(qmat.shape[1])
        return mat, np.repeat(qmat, boundaries[1:] - boundaries[:-1], axis=0)

    def validate_objects(self, objects: Sequence) -> None:
        super().validate_objects(objects)
        if len(objects) == 0:
            return
        mat = _as_matrix(objects)
        if not np.all(np.isfinite(mat)):
            raise MetricError("vector objects must contain only finite values")


class MinkowskiDistance(_VectorMetric):
    """General Lp norm distance ``(sum |x_i - y_i|^p)^(1/p)`` for ``p >= 1``."""

    is_lp_norm = True
    #: Element budget of one row chunk of the non-L2 ``matrix`` temporary
    #: (2**21 float64 values = 16 MiB).
    matrix_chunk_elements = 1 << 21

    def __init__(self, p: float):
        if p < 1:
            raise MetricError(f"Minkowski distance requires p >= 1, got {p}")
        super().__init__()
        self.p = float(p)
        self.name = f"l{p:g}-norm"
        self.unit_cost = 1.0
        # the root's exponent is 1/p correctly rounded: exact for powers of
        # two, within u/p otherwise (see distance_error)
        exact = math.isinf(self.p) or math.frexp(self.p)[0] == 0.5
        self._exponent_error = 0.0 if exact else _UNIT_ROUNDOFF / self.p

    def distance_error(self) -> tuple[float, float]:
        """``gamma``-style bound of ``(sum |x_i - y_i|^p)^(1/p)`` in float64.

        Each difference rounds once and each power at most by an ulp, so a
        term carries about ``(p + 2) u`` relative error; summing ``dim``
        non-negative terms in any order adds ``gamma_dim``, and the ``1/p``
        root shrinks the total by ``p`` and rounds once more.  The bound
        reports twice ``gamma_(dim + ceil(p) + 3)`` (``2u`` for L∞, whose
        maximum is exact).  The root's exponent is the rounded ``1/p``: an
        exponent off by ``e`` scales the root of a sum ``S`` by
        ``S^e``, and ``|ln S| < 800`` in float64.  Powers that underflow
        lose at most one subnormal ulp each, ``(dim * 2^-1074)^(1/p)`` after
        the root.
        """
        u = _UNIT_ROUNDOFF
        if math.isinf(self.p):
            return 2.0 * u, 0.0
        terms = self.widest_dimension + math.ceil(self.p) + 3
        rel = 2.0 * terms * u / (1.0 - terms * u)
        rel += 2.0 * math.expm1(800.0 * self._exponent_error)
        return rel, (self.widest_dimension * 2.0 ** -1074) ** (1.0 / self.p)

    def _distance(self, a, b) -> float:
        x, y = _as_vector(a), _as_vector(b)
        if x.shape != y.shape:
            raise MetricError(f"dimension mismatch: {x.shape} vs {y.shape}")
        self._observe_dimension(x.shape[0])
        if np.isinf(self.p):
            return float(np.max(np.abs(x - y)))
        return float(np.sum(np.abs(x - y) ** self.p) ** (1.0 / self.p))

    def _pairwise(self, query, objects) -> np.ndarray:
        q = _as_vector(query)
        mat = _as_matrix(objects)
        if mat.shape[1] != q.shape[0]:
            raise MetricError(f"dimension mismatch: {q.shape[0]} vs {mat.shape[1]}")
        self._observe_dimension(q.shape[0])
        diff = np.abs(mat - q[None, :])
        if np.isinf(self.p):
            return diff.max(axis=1)
        return np.sum(diff ** self.p, axis=1) ** (1.0 / self.p)

    def _fused_segmented(self, queries, objects, boundaries, object_digest=None) -> np.ndarray:
        # One fused pass over every (query, candidate) pair of the batch.
        # Row-wise, this is exactly the _pairwise formula, so results are
        # bitwise-identical to per-query evaluation.  Lp norms have no
        # cacheable per-row term; the digest is unused.
        mat, qrep = self._segment_matrices(queries, objects, boundaries)
        diff = np.abs(mat - qrep)
        if np.isinf(self.p):
            return diff.max(axis=1)
        return np.sum(diff ** self.p, axis=1) ** (1.0 / self.p)

    def _matrix(self, xs, ys) -> np.ndarray:
        a = _as_matrix(xs)
        b = _as_matrix(ys)
        if a.shape[1] != b.shape[1]:
            raise MetricError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        self._observe_dimension(a.shape[1])
        if self.p == 2.0:
            # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y  (clipped for round-off)
            sq = (
                np.sum(a * a, axis=1)[:, None]
                + np.sum(b * b, axis=1)[None, :]
                - 2.0 * a @ b.T
            )
            return np.sqrt(np.clip(sq, 0.0, None))
        # Rows of ``xs`` go in chunks so the (rows, |ys|, d) difference tensor
        # stays near ``matrix_chunk_elements``; each row reduces exactly as
        # in _pairwise, so chunking never changes a bit of the result.
        out = np.empty((a.shape[0], b.shape[0]), dtype=np.float64)
        step = max(1, self.matrix_chunk_elements // max(1, b.size))
        for start in range(0, a.shape[0], step):
            diff = a[start : start + step, None, :] - b[None, :, :]
            np.abs(diff, out=diff)
            if np.isinf(self.p):
                out[start : start + step] = diff.max(axis=2)
            else:
                np.power(diff, self.p, out=diff)
                out[start : start + step] = np.sum(diff, axis=2) ** (1.0 / self.p)
        return out


class EuclideanDistance(MinkowskiDistance):
    """L2-norm distance, the metric of the T-Loc dataset."""

    def __init__(self) -> None:
        super().__init__(p=2.0)
        self.name = "l2-norm"


class ManhattanDistance(MinkowskiDistance):
    """L1-norm distance, the metric of the Color dataset."""

    def __init__(self) -> None:
        super().__init__(p=1.0)
        self.name = "l1-norm"


class ChebyshevDistance(MinkowskiDistance):
    """L∞-norm distance (included for completeness of the Lp family)."""

    def __init__(self) -> None:
        super().__init__(p=np.inf)
        self.name = "linf-norm"


class AngularDistance(_VectorMetric):
    """Angular ("word cosine") distance: ``arccos(cosine similarity) / pi``.

    This is the metric used for the Vector dataset (300-d word embeddings).
    It lies in ``[0, 1]`` and satisfies the triangle inequality (it is the
    great-circle distance on the unit sphere up to a constant factor), unlike
    raw ``1 - cosine`` similarity.
    """

    is_lp_norm = False
    ops_per_dimension = 3.0

    def __init__(self) -> None:
        super().__init__()
        self.name = "angular"
        self.unit_cost = 1.5

    @staticmethod
    def _cosine(dot, na, nb):
        """``dot / (na * nb)`` clipped to ``[-1, 1]`` — every call shape's cosine.

        A zero vector has cosine 0 (distance 1/2) against any non-zero
        vector, and cosine 1 against another zero vector, so ``d(0, 0) = 0``
        on every path.
        """
        denom = na * nb
        zero = denom == 0.0
        cos = dot / np.where(zero, 1.0, denom)
        if zero.any():
            cos = np.where((na == 0.0) & (nb == 0.0), 1.0, cos)
        return np.clip(cos, -1.0, 1.0)

    def _distance(self, a, b) -> float:
        x, y = _as_vector(a), _as_vector(b)
        if x.shape != y.shape:
            raise MetricError(f"dimension mismatch: {x.shape} vs {y.shape}")
        self._observe_dimension(x.shape[0])
        cos = self._cosine(
            np.sum(x * y, axis=-1), np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
        )
        return float(np.arccos(cos) / np.pi)

    def _pairwise(self, query, objects) -> np.ndarray:
        return self._segment_pairwise(query, objects, None)

    def store_digest(self, matrix: np.ndarray) -> np.ndarray:
        """Per-row L2 norms — the ``na`` term of every cosine, cached once.

        ``np.linalg.norm(..., axis=-1)`` reduces each row independently, so a
        gathered slice of this digest is bit-identical to computing the norms
        of the gathered rows on the fly.
        """
        return np.linalg.norm(np.asarray(matrix, dtype=np.float64), axis=-1)

    @staticmethod
    def cosine_error(dim: int) -> float:
        """Bound on ``|cos_ref - cos_gemm|`` for ``dim``-dimensional vectors.

        ``cos_ref`` is the row-wise reference cosine ``fl(sum(a*b) / D)`` and
        ``cos_gemm`` the same quotient over a BLAS dot product, with the same
        denominator ``D = fl(|a| * |b|)``.  Any summation order of a
        ``dim``-term dot product is within ``gamma * S`` of the exact value,
        ``gamma = dim*u / (1 - dim*u)``, ``S = sum|a_k b_k| <= T = |a||b|``
        (Cauchy-Schwarz), so the two dots differ by at most ``2 gamma T``
        and each is at most ``(1 + gamma) T`` in magnitude.  Each division
        adds ``u`` relative, and the computed norms make
        ``D >= T (1 - gamma)(1 - u)^3``.  That needs each norm to be
        accurate, which :attr:`certified_norms` ensures: with both norms in
        range no square or product overflows, and the absolute error of
        squares and products that underflow is below ``dim * 2^-115``
        relative to ``T``, which the final ``u`` absorbs.
        """
        u = _UNIT_ROUNDOFF
        gamma = dim * u / (1.0 - dim * u)
        return (2.0 * gamma + 2.0 * u * (1.0 + gamma)) / ((1.0 - gamma) * (1.0 - u) ** 3) + u

    #: Range of each computed norm ``|a|`` and ``|b|`` in which
    #: :meth:`cosine_error` holds.  A pair with either norm outside it (a
    #: zero row or query, a row whose squares underflow, overflow) gets the
    #: trivial bounds ``[0, 1]``.
    certified_norms = (2.0 ** -480, 2.0 ** 500)

    def distance_error(self) -> tuple[float, float]:
        """Absolute bound through the ``arccos`` conditioning of the cosine.

        The reference cosine is within ``eps = 2 * cosine_error(dim)`` of
        the exact one (one rounded dot product and denominator instead of
        two), and ``arccos`` moves an ``eps`` change by at most
        ``arccos(1 - eps) <= pi * sqrt(eps / 2)``, the slope being unbounded
        at ``+-1``; ``_ARCCOS_SLACK`` covers the rounding of ``arccos(.) /
        pi``.  Holds for vectors whose norms lie in :attr:`certified_norms`
        (a zero vector's distances are exact constants).
        """
        eps = 2.0 * self.cosine_error(self.widest_dimension)
        return 0.0, math.sqrt(eps / 2.0) + _ARCCOS_SLACK

    def distance_bounds(self, query_matrix, row_matrix, row_digest=None, upper=True):
        """Certified bounds from one BLAS ``Q @ X.T`` and the row norm digest.

        The GEMM cosine is widened by :meth:`cosine_error` in cosine space —
        before ``arccos``, whose slope is unbounded near ``cos = +-1`` —
        and clipped like the reference; the two ends then go through the
        reference's ``arccos(.) / pi`` and are widened by
        ``_ARCCOS_SLACK`` for the last-bit rounding of that map.  Without
        ``upper`` the second ``arccos`` pass is skipped and ``hi`` is None.
        """
        qmat = _as_matrix(query_matrix)
        mat = _as_matrix(row_matrix)
        if mat.shape[1] != qmat.shape[1]:
            raise MetricError(f"dimension mismatch: {qmat.shape[1]} vs {mat.shape[1]}")
        self._observe_dimension(qmat.shape[1])
        na = np.linalg.norm(mat, axis=-1) if row_digest is None else row_digest
        nb = np.linalg.norm(qmat, axis=-1)
        smallest, largest = self.certified_norms
        certified = ((nb >= smallest) & (nb <= largest))[:, None] & (
            (na >= smallest) & (na <= largest)
        )[None, :]
        denom = nb[:, None] * na[None, :]
        cos = qmat @ mat.T
        cos /= np.where(certified, denom, 1.0)
        eps = self.cosine_error(qmat.shape[1])
        lo = np.arccos(np.clip(cos + eps, -1.0, 1.0)) / np.pi - _ARCCOS_SLACK
        hi = None
        if upper:
            hi = np.arccos(np.clip(cos - eps, -1.0, 1.0)) / np.pi + _ARCCOS_SLACK
        if not certified.all():
            # the whole cosine range [-1, 1]
            lo[~certified] = 0.0
            if upper:
                hi[~certified] = 1.0 + _ARCCOS_SLACK
        return np.maximum(lo, 0.0, out=lo), hi

    def _segment_pairwise(self, query, objects, digest) -> np.ndarray:
        # the object norms come from the store digest when one is given
        q = _as_vector(query)[None, :]
        mat = _as_matrix(objects)
        if mat.shape[1] != q.shape[1]:
            raise MetricError(f"dimension mismatch: {q.shape[1]} vs {mat.shape[1]}")
        self._observe_dimension(q.shape[1])
        na = np.linalg.norm(mat, axis=-1) if digest is None else digest
        cos = self._cosine(np.sum(mat * q, axis=-1), na, np.linalg.norm(q, axis=-1))
        return np.arccos(cos) / np.pi

    def _fused_segmented(self, queries, objects, boundaries, object_digest=None) -> np.ndarray:
        # Fused pass: norms and dot products are row-wise, so expanding the
        # query terms to object alignment keeps the arithmetic
        # bitwise-identical to _pairwise.  Object norms come from the store
        # digest when available; query norms are computed once per query and
        # repeated as scalars (never as full rows).
        mat, qrep = self._segment_matrices(queries, objects, boundaries)
        counts = boundaries[1:] - boundaries[:-1]
        na = object_digest if object_digest is not None else np.linalg.norm(mat, axis=-1)
        nb = np.repeat(np.linalg.norm(_as_matrix(queries), axis=-1), counts)
        cos = self._cosine(np.sum(mat * qrep, axis=-1), na, nb)
        return np.arccos(cos) / np.pi

    def _matrix(self, xs, ys) -> np.ndarray:
        a = _as_matrix(xs)
        b = _as_matrix(ys)
        self._observe_dimension(a.shape[1])
        na = np.linalg.norm(a, axis=1)[:, None]
        nb = np.linalg.norm(b, axis=1)[None, :]
        return np.arccos(self._cosine(a @ b.T, na, nb)) / np.pi
