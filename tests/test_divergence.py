import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2l.core import DivergenceKind, Summarizer, SummaryVector
from p2l.divergence import distance, distances
from p2l.errors import DimensionMismatch, NonPositiveComponent, NonPositiveEpsilon
from p2l.summarize import smooth

ALL_KINDS = tuple(DivergenceKind)
METRIC_KINDS = (DivergenceKind.JSD, DivergenceKind.EUC, DivergenceKind.CITYBLOCK)


def summary(values):
    values = np.asarray(values, dtype=float)
    return SummaryVector(values=values / values.sum(), raw_mean=values,
                         summarizer=Summarizer.mean())


def stacked(summaries):
    """The summaries' vectors as the N x d array distances takes."""
    return np.array([q.values for q in summaries])


def positive_summaries(dim, count, seed):
    rng = np.random.default_rng(seed)
    return [summary(rng.uniform(0.05, 1.0, dim)) for _ in range(count)]


class TestDefinitions:
    def test_identity_all_kinds(self):
        p = summary([0.2, 0.3, 0.5])
        for kind in ALL_KINDS:
            assert distance(kind, p, p) == pytest.approx(0.0, abs=1e-15)

    def test_kl_against_direct_formula(self):
        p = summary([0.5, 0.5])
        q = summary([0.25, 0.75])
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert distance(DivergenceKind.KL, p, q) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.14384, abs=5e-6)

    def test_cityblock_maximal_disagreement(self):
        p = summary([1.0, 1e-300])
        q = summary([1e-300, 1.0])
        assert distance(DivergenceKind.CITYBLOCK, p, q) == pytest.approx(2.0, abs=1e-12)

    def test_jsd_limit_is_sqrt_ln2(self):
        p = summary([1.0, 1e-300])
        q = summary([1e-300, 1.0])
        value = distance(DivergenceKind.JSD, p, q, epsilon=1e-9)
        assert value == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-3)

    def test_chi2_direct_formula(self):
        p = summary([0.5, 0.5])
        q = summary([0.25, 0.75])
        expected = 0.5 * ((0.25 ** 2) / 0.75 + (0.25 ** 2) / 1.25)
        assert distance(DivergenceKind.CHI2, p, q) == pytest.approx(expected, rel=1e-12)

    def test_euclidean_direct_formula(self):
        p = summary([0.5, 0.5])
        q = summary([0.25, 0.75])
        assert distance(DivergenceKind.EUC, p, q) == pytest.approx(
            math.sqrt(2 * 0.25 ** 2), rel=1e-12)


class TestContracts:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance(DivergenceKind.EUC, summary([1.0, 1.0]), summary([1.0, 1.0, 1.0]))

    def test_probability_kinds_reject_zero_without_epsilon(self):
        p = summary([1.0, 1.0])
        q = SummaryVector(values=np.array([1.0, 0.0]), raw_mean=np.array([1.0, 0.0]),
                          summarizer=Summarizer.mean())
        for kind in (DivergenceKind.KL, DivergenceKind.JSD, DivergenceKind.CHI2):
            with pytest.raises(NonPositiveComponent):
                distance(kind, p, q)
            assert distance(kind, p, q, epsilon=1e-6) >= 0.0

    def test_kl_asymmetry_witness(self):
        p = summary([0.5, 0.5])
        q = summary([0.25, 0.75])
        assert distance(DivergenceKind.KL, p, q) != pytest.approx(
            distance(DivergenceKind.KL, q, p), rel=1e-6)


class TestProperties:
    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_non_negative_and_zero_iff_equal(self, dim, seed):
        p, q = positive_summaries(dim, 2, seed)
        for kind in ALL_KINDS:
            d = distance(kind, p, q)
            assert d >= 0.0 and math.isfinite(d)
            if not np.allclose(p.values, q.values):
                assert d > 0.0

    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_where_claimed(self, dim, seed):
        p, q = positive_summaries(dim, 2, seed)
        for kind in (DivergenceKind.JSD, DivergenceKind.CHI2, DivergenceKind.EUC,
                     DivergenceKind.CITYBLOCK):
            assert distance(kind, p, q) == pytest.approx(distance(kind, q, p),
                                                         rel=1e-12, abs=1e-15)

    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality_metric_kinds(self, dim, seed):
        p, q, r = positive_summaries(dim, 3, seed)
        for kind in METRIC_KINDS:
            assert (distance(kind, p, r)
                    <= distance(kind, p, q) + distance(kind, q, r) + 1e-9)

    @given(st.integers(2, 10), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, dim, seed):
        p, q = positive_summaries(dim, 2, seed)
        assert distance(DivergenceKind.JSD, p, q) <= math.sqrt(math.log(2.0)) + 1e-9
        assert distance(DivergenceKind.CHI2, p, q) <= 1.0 + 1e-9
        assert distance(DivergenceKind.CITYBLOCK, p, q) <= 2.0 + 1e-9

    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1), st.floats(1e-8, 1e-2))
    @settings(max_examples=60, deadline=None)
    def test_epsilon_argument_matches_presmoothing(self, dim, seed, eps):
        p, q = positive_summaries(dim, 2, seed)
        for kind in (DivergenceKind.KL, DivergenceKind.JSD, DivergenceKind.CHI2):
            inline = distance(kind, p, q, epsilon=eps)
            manual = distance(kind, smooth(p, eps), smooth(q, eps))
            assert inline == pytest.approx(manual, rel=1e-12, abs=1e-15)


def per_pair_reference(kind, pv, qv):
    """The per-pair formulas with 1-d dot products and 1-d sums."""
    if kind is DivergenceKind.KL:
        return max(0.0, float(pv @ np.log(pv / qv)))
    if kind is DivergenceKind.JSD:
        m = 0.5 * (pv + qv)
        inner = 0.5 * float(pv @ np.log(pv / m)) + 0.5 * float(qv @ np.log(qv / m))
        return math.sqrt(max(0.0, inner))
    diff = pv - qv
    if kind is DivergenceKind.CHI2:
        return max(0.0, 0.5 * float(np.sum(diff * diff / (pv + qv))))
    if kind is DivergenceKind.EUC:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.sum(np.abs(diff)))


class TestBatchedKernel:
    def shelf(self, n=200, dim=64, seed=3, floor=0.0):
        """A target and n candidates; with floor 0 about 5% of entries are 0."""
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 1.0, (n + 1, dim)) * (rng.uniform(size=(n + 1, dim)) > 0.05)
        p, *qs = [summary(r + floor) for r in rows]
        return p, qs

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bit_exact_with_epsilon(self, kind):
        p, qs = self.shelf()
        eps = 1e-6
        got = distances(kind, p, stacked(qs), epsilon=eps)
        if kind in (DivergenceKind.EUC, DivergenceKind.CITYBLOCK):
            ref = [per_pair_reference(kind, p.values, q.values) for q in qs]
        else:
            ps = smooth(p, eps).values
            ref = [per_pair_reference(kind, ps, smooth(q, eps).values) for q in qs]
        assert got.shape == (len(qs),)
        assert got.tolist() == ref

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bit_exact_without_epsilon(self, kind):
        p, qs = self.shelf(floor=0.01)
        got = distances(kind, p, stacked(qs))
        assert got.tolist() == [per_pair_reference(kind, p.values, q.values) for q in qs]
        assert [distance(kind, p, q) for q in qs[:5]] == got[:5].tolist()

    def test_validation(self):
        p, qs = self.shelf(n=3, dim=4, floor=0.01)
        with pytest.raises(DimensionMismatch, match="summary dims differ: 4 vs 2"):
            distances("KL", p, np.ones((3, 2)), epsilon=1e-6)
        with pytest.raises(NonPositiveComponent):
            distances("KL", p, stacked(qs + [summary([1.0, 0.0, 1.0, 1.0])]))
        for bad in (0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(NonPositiveEpsilon):
                distances("JSD", p, stacked(qs), epsilon=bad)
        # L1/L2 kinds never smooth, so epsilon is not consulted.
        assert distances("EUC", p, stacked(qs), epsilon=-1.0).tolist() == \
            distances("EUC", p, stacked(qs)).tolist()
        assert distances("CHI2", p, np.empty((0, 4))).shape == (0,)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_only_an_n_by_d_array_is_taken(self, kind):
        p, qs = self.shelf(n=3, dim=4, floor=0.01)
        for bad in (qs, [q.values for q in qs], qs[0].values, stacked(qs)[None], ()):
            with pytest.raises(DimensionMismatch, match="expected an N x 4 array"):
                distances(kind, p, bad, epsilon=1e-6)
