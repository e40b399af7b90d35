"""Unit tests for the distance metrics."""

from __future__ import annotations

import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from repro.exceptions import MetricError
from repro.metrics import (
    AngularDistance,
    ChebyshevDistance,
    EditDistance,
    EuclideanDistance,
    HammingDistance,
    JaccardDistance,
    ManhattanDistance,
    MinkowskiDistance,
    available_metrics,
    edit_distance,
    get_metric,
    hamming_distance,
    register_metric,
)
from repro.metrics.base import Metric, MetricCounter


class TestEditDistanceFunction:
    def test_identical_strings(self):
        assert edit_distance("kitten", "kitten") == 0

    def test_empty_vs_word(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_both_empty(self):
        assert edit_distance("", "") == 0

    def test_classic_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_single_substitution(self):
        assert edit_distance("cat", "car") == 1

    def test_single_insertion(self):
        assert edit_distance("cat", "cart") == 1

    def test_single_deletion(self):
        assert edit_distance("cart", "cat") == 1

    def test_symmetry(self):
        assert edit_distance("sunday", "saturday") == edit_distance("saturday", "sunday")

    def test_completely_different(self):
        assert edit_distance("abc", "xyz") == 3

    def test_prefix(self):
        assert edit_distance("metric", "metrics") == 1

    def test_long_strings_match_reference(self):
        # reference implementation: classic full DP
        def reference(a, b):
            dp = np.zeros((len(a) + 1, len(b) + 1), dtype=int)
            dp[:, 0] = np.arange(len(a) + 1)
            dp[0, :] = np.arange(len(b) + 1)
            for i in range(1, len(a) + 1):
                for j in range(1, len(b) + 1):
                    cost = 0 if a[i - 1] == b[j - 1] else 1
                    dp[i, j] = min(dp[i - 1, j] + 1, dp[i, j - 1] + 1, dp[i - 1, j - 1] + cost)
            return int(dp[-1, -1])

        rng = np.random.default_rng(5)
        for _ in range(20):
            a = "".join(rng.choice(list("ACGT"), size=int(rng.integers(0, 30))))
            b = "".join(rng.choice(list("ACGT"), size=int(rng.integers(0, 30))))
            assert edit_distance(a, b) == reference(a, b)

    def test_length_difference_lower_bound(self):
        assert edit_distance("a", "abcdef") >= 5


class TestHammingDistance:
    def test_equal_strings(self):
        assert hamming_distance("abc", "abc") == 0

    def test_counts_mismatches(self):
        assert hamming_distance("abcd", "abzd") == 1
        assert hamming_distance("aaaa", "bbbb") == 4

    def test_rejects_unequal_lengths(self):
        with pytest.raises(MetricError):
            hamming_distance("abc", "ab")


class TestVectorMetrics:
    def test_euclidean_simple(self):
        m = EuclideanDistance()
        assert m.distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan_simple(self):
        m = ManhattanDistance()
        assert m.distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev_simple(self):
        m = ChebyshevDistance()
        assert m.distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_p3(self):
        m = MinkowskiDistance(p=3)
        expected = (3 ** 3 + 4 ** 3) ** (1 / 3)
        assert m.distance([0, 0], [3, 4]) == pytest.approx(expected)

    def test_minkowski_rejects_p_below_one(self):
        with pytest.raises(MetricError):
            MinkowskiDistance(p=0.5)

    def test_dimension_mismatch_raises(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.distance([1, 2], [1, 2, 3])

    def test_pairwise_matches_individual(self, rng):
        m = EuclideanDistance()
        pts = rng.normal(size=(50, 4))
        q = rng.normal(size=4)
        pair = m.pairwise(q, pts)
        individual = np.array([m.distance(q, p) for p in pts])
        np.testing.assert_allclose(pair, individual, atol=1e-12)

    def test_matrix_matches_pairwise(self, rng):
        m = ManhattanDistance()
        xs = rng.normal(size=(10, 6))
        ys = rng.normal(size=(20, 6))
        mat = m.matrix(xs, ys)
        for i in range(10):
            np.testing.assert_allclose(mat[i], m.pairwise(xs[i], ys), atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
    def test_matrix_row_chunks_equal_pairwise_exactly(self, rng, p):
        m = MinkowskiDistance(p=p)
        m.matrix_chunk_elements = 7 * 20 * 6  # force several row chunks
        xs = rng.normal(size=(30, 6))
        ys = rng.normal(size=(20, 6))
        expected = np.vstack([m.pairwise(x, ys) for x in xs])
        assert np.array_equal(m.matrix(xs, ys), expected)

    def test_lp_matrix_memory_is_bounded(self, rng):
        m = ManhattanDistance()
        xs = rng.normal(size=(512, 64))
        ys = rng.normal(size=(2000, 64))
        tracemalloc.start()
        try:
            m.matrix(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the unchunked difference tensor alone would be 512*2000*64*8 B = 500 MiB
        assert peak < 64 * 2**20

    def test_euclidean_matrix_uses_stable_formula(self, rng):
        m = EuclideanDistance()
        xs = rng.normal(size=(5, 3))
        mat = m.matrix(xs, xs)
        assert np.all(np.diag(mat) < 1e-6)
        assert np.all(mat >= 0)

    def test_unit_cost_scales_with_dimension(self, rng):
        m = ManhattanDistance()
        m.pairwise(rng.normal(size=282), rng.normal(size=(3, 282)))
        assert m.unit_cost == pytest.approx(2.0 * 282)

    def test_angular_identical_vectors(self):
        m = AngularDistance()
        v = np.array([1.0, 2.0, 3.0])
        assert m.distance(v, v) == pytest.approx(0.0, abs=1e-9)

    def test_angular_orthogonal_vectors(self):
        m = AngularDistance()
        assert m.distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)

    def test_angular_opposite_vectors(self):
        m = AngularDistance()
        assert m.distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(1.0)

    def test_angular_bounded(self, rng):
        m = AngularDistance()
        a = rng.normal(size=(30, 8))
        mat = m.matrix(a, a)
        assert np.all(mat >= -1e-12) and np.all(mat <= 1.0 + 1e-12)

    def test_angular_zero_vector_handled(self):
        m = AngularDistance()
        assert m.distance([0.0, 0.0], [0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("fused_segment_elements", [1, 10**9], ids=["loop", "fused"])
    def test_angular_zero_vectors_agree_on_every_call_shape(self, fused_segment_elements):
        # d(0, 0) = 0 and d(0, x) = 1/2 for x != 0, whichever path evaluates it
        m = AngularDistance()
        m.fused_segment_elements = fused_segment_elements
        zero, x = np.zeros(3), np.array([1.0, 2.0, 3.0])
        objects = np.stack([zero, x, zero])
        expected = np.array([0.0, 0.5, 0.0])
        assert m.distance(zero, zero) == 0.0 and m.distance(zero, x) == 0.5
        np.testing.assert_array_equal(m.pairwise(zero, objects), expected)
        np.testing.assert_array_equal(
            m.pairwise_segmented([zero, x], np.vstack([objects, objects]), [0, 3, 6]),
            np.concatenate([expected, [0.5, 0.0, 0.5]]),
        )
        np.testing.assert_array_equal(
            m.pairwise_segmented(
                [zero], objects, [0, 3], object_digest=m.store_digest(objects)
            ),
            expected,
        )
        np.testing.assert_array_equal(m.matrix([zero, x], objects)[0], expected)
        assert m.matrix([zero, x], objects)[1, 1] == pytest.approx(0.0, abs=1e-7)


class TestEditDistanceMetric:
    def test_unit_cost_quadratic_in_length(self):
        assert EditDistance(expected_length=108).unit_cost == pytest.approx(108 ** 2)

    def test_rejects_non_strings(self):
        m = EditDistance()
        with pytest.raises(MetricError):
            m.distance(1, "abc")

    def test_rejects_non_positive_expected_length(self):
        with pytest.raises(MetricError):
            EditDistance(expected_length=0)

    def test_pairwise(self, word_list):
        m = EditDistance()
        d = m.pairwise("metric", word_list[:10])
        assert len(d) == 10
        assert all(x >= 0 for x in d)


def _exact_minkowski(x, y, p) -> float:
    """``(sum |x_i - y_i|^p)^(1/p)`` in 80-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 80
        diffs = [abs(Decimal(float(a)) - Decimal(float(b))) for a, b in zip(x, y)]
        if np.isinf(p):
            return float(max(diffs))
        total = sum(d ** Decimal(p) for d in diffs)
        return float(total ** (Decimal(1) / Decimal(p)))


def _mixed_pairs(rng, dim):
    """Vector pairs at every scale, near-duplicates and orthogonal ones included."""
    xs = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-8, 9, size=(60, 1))
    ys = np.concatenate(
        [
            xs[:20] * (1 + 1e-12 * rng.normal(size=(20, dim))),  # near-duplicates
            xs[20:40] * rng.uniform(0.1, 10, size=(20, 1)),  # same direction
            rng.normal(size=(20, dim)) * 10.0 ** rng.integers(-8, 9, size=(20, 1)),
        ]
    )
    return xs, ys


class TestDistanceError:
    """Every reported distance lies within the metric's ``distance_error``
    bound of the exact distance."""

    @pytest.mark.parametrize("metric", [EditDistance(), HammingDistance()])
    def test_integer_metrics_are_exact(self, metric):
        assert metric.distance_error() == (0.0, 0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    @pytest.mark.parametrize("dim", [2, 40])
    def test_minkowski_bound_holds(self, p, dim):
        rng = np.random.default_rng(int(dim + (p if np.isfinite(p) else 99)))
        metric = MinkowskiDistance(p)
        xs, ys = _mixed_pairs(rng, dim)
        reported = metric.pairwise_segmented(xs, ys, np.arange(len(xs) + 1))
        rel, absolute = metric.distance_error()
        assert rel < 1e-12
        exact = np.array([_exact_minkowski(x, y, p) for x, y in zip(xs, ys)])
        assert np.all(np.abs(reported - exact) <= rel * exact + absolute)

    @pytest.mark.parametrize("dim", [3, 300])
    def test_angular_bound_holds(self, dim):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(dim)
        metric = AngularDistance()
        xs, ys = _mixed_pairs(rng, dim)
        reported = metric.pairwise_segmented(xs, ys, np.arange(len(xs) + 1))
        rel, absolute = metric.distance_error()
        assert rel == 0.0 and absolute < 1e-6
        with mpmath.workdps(60):
            for x, y, got in zip(xs, ys, reported):
                x, y = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
                dot = mpmath.fsum(a * b for a, b in zip(x, y))
                norms = mpmath.sqrt(mpmath.fsum(a * a for a in x) * mpmath.fsum(b * b for b in y))
                exact = mpmath.acos(max(-1, min(1, dot / norms))) / mpmath.pi
                assert abs(got - exact) <= absolute

    def test_jaccard_bound_holds(self):
        rng = np.random.default_rng(8)
        metric = JaccardDistance()
        rel, absolute = metric.distance_error()
        for _ in range(300):
            a, b = (set(rng.integers(0, 40, size=rng.integers(1, 30)).tolist()) for _ in range(2))
            exact = 1 - Fraction(len(a & b), len(a | b))
            assert abs(Fraction(metric.distance(a, b)) - exact) <= rel * exact + Fraction(absolute)

    def test_bound_grows_with_the_widest_dimension(self):
        metric = EuclideanDistance()
        metric.pairwise(np.zeros(2), np.ones((3, 2)))
        narrow = metric.distance_error()
        metric.pairwise(np.zeros(300), np.ones((3, 300)))
        assert metric.distance_error()[0] > narrow[0]
        metric.pairwise(np.zeros(2), np.ones((3, 2)))
        assert metric.distance_error()[0] > narrow[0]


class TestMetricCounting:
    def test_counter_counts_pairs(self):
        m = EuclideanDistance()
        m.distance([0, 0], [1, 1])
        m.pairwise([0, 0], [[1, 1], [2, 2], [3, 3]])
        m.matrix([[0, 0]], [[1, 1], [2, 2]])
        assert m.pair_count == 1 + 3 + 2
        assert m.counter.calls == 3

    def test_reset_counter(self):
        m = EuclideanDistance()
        m.distance([0, 0], [1, 1])
        m.reset_counter()
        assert m.pair_count == 0

    def test_empty_pairwise_returns_empty(self):
        m = EuclideanDistance()
        assert len(m.pairwise([0, 0], [])) == 0

    def test_counter_snapshot(self):
        c = MetricCounter()
        c.record(5)
        assert c.snapshot() == {"calls": 1, "pairs": 5}


class TestRegistry:
    def test_get_known_metrics(self):
        assert isinstance(get_metric("l2"), EuclideanDistance)
        assert isinstance(get_metric("l1"), ManhattanDistance)
        assert isinstance(get_metric("edit"), EditDistance)
        assert isinstance(get_metric("angular"), AngularDistance)
        assert isinstance(get_metric("hamming"), HammingDistance)

    def test_get_metric_case_insensitive(self):
        assert isinstance(get_metric("  L2 "), EuclideanDistance)

    def test_get_metric_with_kwargs(self):
        m = get_metric("edit", expected_length=108)
        assert m.expected_length == 108

    def test_unknown_metric_raises(self):
        with pytest.raises(MetricError):
            get_metric("no-such-metric")

    def test_available_metrics_sorted(self):
        names = available_metrics()
        assert names == sorted(names)
        assert "l2" in names

    def test_register_duplicate_rejected(self):
        with pytest.raises(MetricError):
            register_metric("l2", EuclideanDistance)

    def test_register_custom_metric(self):
        class Constant(Metric):
            name = "constant"

            def _distance(self, a, b):
                return 0.0 if a == b else 1.0

        register_metric("constant-test-metric", Constant)
        m = get_metric("constant-test-metric")
        assert m.distance("a", "b") == 1.0
