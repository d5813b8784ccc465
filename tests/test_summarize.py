import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2l.core import EPSILON, EmbeddingMatrix, Summarizer
from p2l.errors import NegativeComponent, NegativeMass
from p2l.summarize import profile_from_matrix, smooth_values, summarize


def matrix(rows, extractor="ext"):
    return EmbeddingMatrix(np.array(rows, dtype=float), extractor)


def brute_force_trimmed_mean(rows, fraction):
    """Independent oracle: per-dimension sort, slice, average."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    trim = int(np.floor(fraction * n))
    out = []
    for j in range(rows.shape[1]):
        column = sorted(rows[:, j])
        kept = column[trim:n - trim] if trim else column
        out.append(sum(kept) / len(kept))
    return np.array(out)


class TestSummarize:
    def test_single_row_mean_normalizes(self):
        sv = summarize(matrix([[2.0, 2.0, 4.0]]))
        assert np.allclose(sv.values, [0.25, 0.25, 0.5])
        assert np.allclose(sv.raw_mean, [2.0, 2.0, 4.0])

    def test_mean_with_zero_column(self):
        sv = summarize(matrix([[1.0, 0.0], [3.0, 0.0]]))
        assert np.allclose(sv.raw_mean, [2.0, 0.0])
        assert np.allclose(sv.values, [1.0, 0.0])

    def test_trimmed_mean_derived_example(self):
        rows = [[0.0, 10.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [100.0, 1.0]]
        sv = summarize(matrix(rows), Summarizer.trimmed(0.2))
        expected_raw = brute_force_trimmed_mean(rows, 0.2)
        assert np.allclose(expected_raw, [2.0, 1.0])
        assert np.allclose(sv.raw_mean, expected_raw)
        assert np.allclose(sv.values, [2.0 / 3.0, 1.0 / 3.0])

    def test_negative_component_raises(self):
        with pytest.raises(NegativeComponent):
            summarize(matrix([[1.0, -2.0]]))

    def test_zero_mass_raises(self):
        with pytest.raises(NegativeMass):
            summarize(matrix([[0.0, 0.0]]))

    @given(st.integers(2, 30), st.integers(1, 6), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.0, 0.1, 0.25, 0.4]))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, n, d, seed, fraction):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 5.0, (n, d))
        s = Summarizer.trimmed(fraction) if fraction else Summarizer.mean()
        base = summarize(matrix(rows), s)
        shuffled = summarize(matrix(rows[rng.permutation(n)]), s)
        np.testing.assert_allclose(shuffled.values, base.values, atol=1e-12)
        np.testing.assert_allclose(shuffled.raw_mean, base.raw_mean, atol=1e-12)

    @given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_trimmed_zero_equals_mean(self, n, d, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 5.0, (n, d)) + 1e-3
        a = summarize(matrix(rows), Summarizer.mean())
        b = summarize(matrix(rows), Summarizer.trimmed(0.0))
        np.testing.assert_array_equal(a.values, b.values)

    @given(st.integers(5, 40), st.integers(1, 5), st.integers(0, 2 ** 31 - 1),
           st.floats(0.0, 0.49))
    @settings(max_examples=60, deadline=None)
    def test_trimmed_matches_brute_force(self, n, d, seed, fraction):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 5.0, (n, d)) + 1e-3
        sv = summarize(matrix(rows), Summarizer.trimmed(fraction))
        np.testing.assert_allclose(sv.raw_mean,
                                   brute_force_trimmed_mean(rows, fraction),
                                   rtol=1e-12)


class TestSmooth:
    def test_two_component_example(self):
        sv = summarize(matrix([[1.0, 0.0]]))
        out = smooth_values(sv.values)
        scale = 1.0 + 2 * EPSILON
        assert np.allclose(out, [(1.0 + EPSILON) / scale, EPSILON / scale],
                           rtol=1e-15, atol=0.0)

    def test_uniform_fixed_point(self):
        sv = summarize(matrix([[1.0, 1.0]]))
        assert np.allclose(smooth_values(sv.values), [0.5, 0.5])

    def test_small_epsilon_positive_and_normalized(self):
        sv = summarize(matrix([[0.7, 0.3, 0.0]]))
        out = smooth_values(sv.values)
        assert out.min() > 0.0
        assert abs(out.sum() - 1.0) < 1e-12

    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_preserves_l1_and_positivity(self, d, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 3.0, (4, d)) + 1e-6
        out = smooth_values(summarize(matrix(rows)).values)
        assert out.min() > 0.0
        assert abs(float(out.sum()) - 1.0) < 1e-12

    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization_idempotent(self, d, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 3.0, (4, d)) + 1e-6
        sv = summarize(matrix(rows))
        renorm = sv.values / sv.values.sum()
        np.testing.assert_allclose(renorm, sv.values, atol=1e-12)


def test_profile_from_matrix_defaults():
    m = matrix(np.ones((7, 3)))
    p = profile_from_matrix("abc", m, role="target")
    assert p.size == 7
    assert p.role == "target"
    assert p.extractor_id == "ext"
    p2 = profile_from_matrix("abc", m, size=1000)
    assert p2.size == 1000
