import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2l.core import (
    DatasetProfile,
    DivergenceKind,
    EmbeddingMatrix,
    EstimatorConfig,
    Summarizer,
)
from p2l.errors import (
    DimensionMismatch,
    DuplicateSourceName,
    EmptyCandidates,
    MissingReference,
    MissingSeed,
    MixedExtractors,
    MixedSummarizers,
)
from p2l.estimator import (
    BASELINES,
    baseline_ranking,
    baseline_rankings,
    check_candidates,
    merge_profiles,
    score_sources,
    score_table,
    zscale,
)
from p2l.summarize import profile_from_matrix, summarize


def profile(name, size, values, extractor="ext", role="source"):
    values = np.asarray(values, dtype=float)
    m = EmbeddingMatrix(values.reshape(1, -1), extractor)
    return profile_from_matrix(name, m, role=role, size=size)


def twin_ranking(seed, n, d, kind):
    """Rank one matrix profiled twice, rows permuted the second time, for a
    target whose mean is tilted away from theirs; returns the scored list."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, d))
    t = rng.uniform(0.0, 1.0, (n, d)) + np.linspace(0.0, 1.0, d)
    target = profile_from_matrix("t", EmbeddingMatrix(t, "ext"), role="target")
    twins = [profile_from_matrix("a", EmbeddingMatrix(x, "ext")),
             profile_from_matrix("b", EmbeddingMatrix(x[rng.permutation(n)], "ext"))]
    return score_sources(target, twins, EstimatorConfig(distance=kind, k=-1.0))


class TestZscale:
    def test_three_point_analytic(self):
        out = zscale([1.0, 2.0, 3.0])
        root = math.sqrt(1.5)
        np.testing.assert_allclose(out, [-root, 0.0, root], rtol=1e-12)

    def test_constant_degenerates_to_zeros(self):
        np.testing.assert_array_equal(zscale([5.0, 5.0, 5.0]), np.zeros(3))
        np.testing.assert_array_equal(zscale([7.0]), np.zeros(1))

    def test_two_point(self):
        np.testing.assert_allclose(zscale([0.0, 10.0]), [-1.0, 1.0], rtol=1e-12)

    def test_rounding_noise_is_constant(self):
        np.testing.assert_array_equal(zscale([1.0, 1.0 + 2.2e-16]), np.zeros(2))

    @given(st.integers(2, 40), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mean_zero_unit_population_std(self, n, seed):
        arr = np.random.default_rng(seed).uniform(-1e3, 1e3, n)
        out = zscale(arr)
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9


class TestScoreTable:
    def test_three_source_hand_computed(self):
        e = math.e
        scored = score_table(["a", "b", "c"], [e, e ** 2, e ** 3],
                             [3.0, 2.0, 1.0], k=-1.0)
        by_name = {s.source_name: s.score for s in scored}
        expected = 2.0 * math.sqrt(1.5)
        assert by_name["c"] == pytest.approx(expected, rel=1e-12)
        assert by_name["b"] == pytest.approx(0.0, abs=1e-12)
        assert by_name["a"] == pytest.approx(-expected, rel=1e-12)
        assert [s.source_name for s in scored] == ["c", "b", "a"]

    def test_k_zero_orders_by_size(self):
        scored = score_table(["a", "b", "c"], [100.0, 10.0, 1000.0],
                             [0.9, 0.1, 0.5], k=0.0)
        assert [s.source_name for s in scored] == ["c", "a", "b"]

    def test_equal_sizes_k_minus_one_orders_by_distance(self):
        scored = score_table(["a", "b", "c"], [50.0, 50.0, 50.0],
                             [0.9, 0.1, 0.5], k=-1.0)
        assert [s.source_name for s in scored] == ["b", "c", "a"]

    def test_tie_break_size_then_name(self):
        scored = score_table(["b", "a", "c"], [10.0, 20.0, 20.0],
                             [0.5, 0.5, 0.5], k=-1.0)
        assert [s.source_name for s in scored] == ["a", "c", "b"]

    def test_exact_ties_ignore_rounding_noise(self):
        # Both scores are 0 in exact arithmetic; after the affine map of the
        # distances they differ by ~1e-16, which must not reorder them.
        rng = np.random.default_rng(1)
        names = ["s0", "s1"]
        sizes = rng.uniform(1.0, 1e6, 2)
        dists = rng.uniform(0.0, 5.0, 2)
        base = score_table(names, sizes, dists, -1.0)
        moved = score_table(names, sizes, 0.01171875 * dists, -1.0)
        assert moved[0].score != moved[1].score
        assert [s.source_name for s in base] == ["s1", "s0"]  # the larger source
        assert [s.source_name for s in moved] == ["s1", "s0"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateSourceName):
            score_table(["a", "a"], [1.0, 2.0], [0.1, 0.2], k=0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidates):
            score_table([], [], [], k=0.0)


class TestScoreSources:
    def test_rows_keep_the_candidates_sizes_as_they_are(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        sources = [profile("a", 7, [1.0, 2.0]), profile("b", 2 ** 60 + 1, [2.0, 1.0])]
        scored = score_sources(target, sources, EstimatorConfig(k=-1.0))
        assert {s.source_name: s.size for s in scored} == {"a": 7, "b": 2 ** 60 + 1}
        assert all(type(s.size) is int for s in scored)

    def test_distance_degenerate_ranking_equals_size_order(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        shared = summarize(EmbeddingMatrix(np.array([[3.0, 1.0]]), "ext"))
        sources = [DatasetProfile(n, s, shared, "ext")
                   for n, s in (("a", 100), ("b", 10_000), ("c", 10))]
        scored = score_sources(target, sources, EstimatorConfig(k=-2.0))
        assert [s.source_name for s in scored] == ["b", "a", "c"]
        assert scored[0].source_name == "b"

    def test_dim_mismatch(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        bad = profile("s", 10, [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            score_sources(target, [bad], EstimatorConfig(k=-1.0))

    def test_mixed_extractors_refused(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        alien = profile("s", 10, [1.0, 2.0], extractor="other")
        with pytest.raises(MixedExtractors):
            score_sources(target, [alien], EstimatorConfig(k=-1.0))

    def test_no_mixed_extractor_override_is_taken(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        alien = profile("s", 10, [1.0, 2.0], extractor="other")
        cfg = EstimatorConfig(k=-1.0)
        with pytest.raises(TypeError):
            score_sources(target, [alien], cfg, allow_mixed_extractors=True)
        with pytest.raises(TypeError):
            check_candidates(target, [alien], allow_mixed_extractors=True)
        with pytest.raises(TypeError):
            baseline_ranking("B1", target, [alien], cfg, allow_mixed_extractors=True)


class TestSelect:
    def test_single_candidate(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        scored = score_sources(target, [profile("only", 5, [1.0, 2.0])],
                               EstimatorConfig(k=-1.0))
        assert scored[0].source_name == "only"

    def test_empty(self):
        target = profile("t", 10, [1.0, 1.0], role="target")
        with pytest.raises(EmptyCandidates):
            score_sources(target, [], EstimatorConfig(k=-1.0))


class TestBaselines:
    def setup_method(self):
        self.target = profile("t", 10, [1.0, 1.0], role="target")
        self.sources = [
            profile("small_near", 100, [1.05, 1.0]),
            profile("big_far", 1_000_000, [4.0, 0.2]),
            profile("mid", 500, [1.4, 0.9]),
        ]
        self.cfg = EstimatorConfig(distance="CITYBLOCK", k=-1.0)

    def test_b1_largest(self):
        assert baseline_ranking("B1", self.target, self.sources)[0] == "big_far"

    def test_b1_tie_break_lexicographic(self):
        sources = [profile("zeta", 10, [1.0, 2.0]), profile("alpha", 10, [2.0, 1.0])]
        assert baseline_ranking("B1", self.target, sources)[0] == "alpha"

    def test_b2_fixed_reference(self):
        assert baseline_ranking("B2", self.target, self.sources,
                                reference_name="mid")[0] == "mid"
        with pytest.raises(MissingReference):
            baseline_ranking("B2", self.target, self.sources, reference_name="nope")
        with pytest.raises(MissingReference):
            baseline_ranking("B2", self.target, self.sources)

    def test_b3_seeded_and_deterministic(self):
        picks = {baseline_ranking("B3", self.target, self.sources, rng_seed=s)[0]
                 for s in range(30)}
        assert picks == {"small_near", "big_far", "mid"}
        a = baseline_ranking("B3", self.target, self.sources, rng_seed=7)
        b = baseline_ranking("B3", self.target, self.sources, rng_seed=7)
        assert a == b
        with pytest.raises(MissingSeed):
            baseline_ranking("B3", self.target, self.sources)

    def test_b4_no_transfer(self):
        assert baseline_ranking("B4", self.target, self.sources) is None

    @pytest.mark.parametrize("kind", ["B1", "B2", "B3", "B5"])
    def test_candidates_checked_like_score_sources(self, kind):
        opts = dict(cfg=self.cfg, reference_name="mid", rng_seed=0)
        alien = self.sources + [profile("alien", 10, [1.0, 2.0], extractor="other")]
        with pytest.raises(MixedExtractors):
            baseline_ranking(kind, self.target, alien, **opts)
        wide = self.sources + [profile("wide", 10, [1.0, 1.0, 1.0])]
        with pytest.raises(DimensionMismatch):
            baseline_ranking(kind, self.target, wide, **opts)

    def test_b5_least_divergent(self):
        assert baseline_ranking("B5", self.target, self.sources, self.cfg)[0] == "small_near"

    def test_b5_example_distances(self):
        ranking = baseline_ranking("B5", self.target, self.sources, self.cfg)
        assert ranking[0] == "small_near"
        assert ranking[-1] == "big_far"

    @pytest.mark.parametrize("reference,seed,kinds", [
        (None, None, ["B1", "B4", "B5"]),
        ("mid", None, ["B1", "B2", "B4", "B5"]),
        (None, 7, ["B1", "B3", "B4", "B5"]),
        ("mid", 7, list(BASELINES)),
    ])
    def test_rankings_of_the_baselines_that_can_run(self, reference, seed, kinds):
        scored = score_sources(self.target, self.sources, self.cfg)
        got = baseline_rankings(scored, reference, seed)
        assert list(got) == kinds
        assert got == {kind: baseline_ranking(kind, self.target, self.sources, self.cfg,
                                              reference_name=reference, rng_seed=seed)
                       for kind in kinds}
        assert got["B4"] is None

    def test_rankings_order_the_scored_candidates(self):
        scored = score_sources(self.target, self.sources, self.cfg)
        got = baseline_rankings(scored)
        assert [len(ranking) for ranking in got.values() if ranking] == [3, 3]
        by_distance = sorted(scored, key=lambda s: s.distance_value)
        assert got["B5"] == [s.source_name for s in by_distance]
        with pytest.raises(MissingReference):
            baseline_rankings(scored, reference_name="nope")

    @given(rows=st.lists(st.tuples(st.sampled_from([1, 2, 30, 30_000]),
                                   st.sampled_from([0.0, 0.25, 1.0, 4.0])),
                         min_size=1, max_size=9),
           names=st.permutations([f"s{i}" for i in range(9)]),
           k=st.sampled_from([0.0, -0.5, -3.0]),
           reference=st.one_of(st.none(), st.integers(0, 8)),
           seed=st.one_of(st.none(), st.integers(0, 2 ** 32 - 1)))
    @settings(max_examples=200, deadline=None)
    def test_rankings_follow_the_scored_rows_own_columns(self, rows, names, k,
                                                         reference, seed):
        """With sizes and distances tied, each baseline orders the scored rows
        by their own (size, distance, name) columns, whatever order P2L
        scored them in."""
        names = names[:len(rows)]
        sizes = {name: size for name, (size, _) in zip(names, rows)}
        dists = {name: dist for name, (_, dist) in zip(names, rows)}
        reference = None if reference is None else names[reference % len(names)]
        scored = score_table(names, list(sizes.values()), list(dists.values()), k)
        assert {s.source_name: s.size for s in scored} == sizes

        by_size = sorted(names, key=lambda n: (-sizes[n], n))
        want = {"B1": by_size}
        if reference is not None:
            want["B2"] = [reference] + [n for n in by_size if n != reference]
        if seed is not None:
            want["B3"] = sorted(names)
            random.Random(seed).shuffle(want["B3"])
        want["B4"] = None
        want["B5"] = sorted(names, key=lambda n: (dists[n], -sizes[n], n))
        assert baseline_rankings(scored, reference, seed) == want


class TestMergeProfiles:
    def test_self_merge(self):
        rows = np.array([[1.0, 3.0]])
        a1 = profile_from_matrix("a1", EmbeddingMatrix(rows, "ext"))
        a2 = profile_from_matrix("a2", EmbeddingMatrix(rows, "ext"))
        merged = merge_profiles([a1, a2], "both")
        assert merged.size == 2
        np.testing.assert_allclose(merged.summary.values, a1.summary.values)

    def test_repeated_member_refused(self):
        rows = np.array([[1.0, 3.0]])
        a = profile_from_matrix("a", EmbeddingMatrix(rows, "ext"))
        b = profile_from_matrix("b", EmbeddingMatrix(rows, "ext"))
        with pytest.raises(DuplicateSourceName):
            merge_profiles([a, b, a], "aba")

    def test_two_singleton_matrices(self):
        a = profile_from_matrix("a", EmbeddingMatrix(np.array([[1.0, 0.0]]), "ext"))
        b = profile_from_matrix("b", EmbeddingMatrix(np.array([[0.0, 1.0]]), "ext"))
        merged = merge_profiles([a, b], "ab")
        assert merged.size == 2
        np.testing.assert_allclose(merged.summary.values, [0.5, 0.5])

    def test_trimmed_profiles_refused(self):
        rows = np.random.default_rng(0).uniform(0.1, 1.0, (10, 3))
        a = profile_from_matrix("a", EmbeddingMatrix(rows, "ext"))
        b = profile_from_matrix("b", EmbeddingMatrix(rows, "ext"),
                                Summarizer.trimmed(0.1))
        with pytest.raises(MixedSummarizers):
            merge_profiles([a, b], "ab")

    def test_mixed_extractors_refused(self):
        a = profile_from_matrix("a", EmbeddingMatrix(np.ones((2, 2)), "ext1"))
        b = profile_from_matrix("b", EmbeddingMatrix(np.ones((2, 2)), "ext2"))
        with pytest.raises(MixedExtractors):
            merge_profiles([a, b], "ab")

    def test_needs_two(self):
        a = profile_from_matrix("a", EmbeddingMatrix(np.ones((2, 2)), "ext"))
        with pytest.raises(ValueError):
            merge_profiles([a], "solo")

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 6),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_concatenation(self, n1, n2, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 4.0, (n1, d)) + 1e-6
        y = rng.uniform(0.0, 4.0, (n2, d)) + 1e-6
        px = profile_from_matrix("x", EmbeddingMatrix(x, "ext"))
        py = profile_from_matrix("y", EmbeddingMatrix(y, "ext"))
        merged = merge_profiles([px, py], "xy")
        concat = profile_from_matrix("xy", EmbeddingMatrix(np.vstack([x, y]), "ext"))
        assert merged.size == concat.size
        np.testing.assert_allclose(merged.summary.values, concat.summary.values,
                                   atol=1e-12)

    def test_merge_of_a_merge_equals_the_flat_merge(self):
        rng = np.random.default_rng(3)
        a, b, c = (profile_from_matrix(name, EmbeddingMatrix(rng.uniform(0.1, 4.0, (n, 5)), "ext"))
                   for name, n in (("a", 3), ("b", 11), ("c", 7)))
        nested = merge_profiles([merge_profiles([a, b], "ab"), c], "abc")
        flat = merge_profiles([a, b, c], "abc")
        assert nested.size == flat.size == 21
        np.testing.assert_allclose(nested.summary.raw_mean, flat.summary.raw_mean,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(nested.summary.values, flat.summary.values,
                                   rtol=0, atol=1e-12)


class TestRankingInvariances:
    @given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1),
           st.floats(0.01, 100.0), st.floats(0.0, 10.0),
           st.floats(-3.0, 0.0))
    @settings(max_examples=100, deadline=None)
    def test_affine_transform_of_distances(self, n, seed, a, b, k):
        rng = np.random.default_rng(seed)
        names = [f"s{i}" for i in range(n)]
        sizes = rng.uniform(1.0, 1e6, n)
        dists = rng.uniform(0.0, 5.0, n)
        base = [s.source_name for s in score_table(names, sizes, dists, k)]
        moved = [s.source_name for s in score_table(names, sizes, a * dists + b, k)]
        assert base == moved

    @given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1),
           st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(-3.0, 0.0))
    @settings(max_examples=100, deadline=None)
    def test_affine_transform_of_log_sizes(self, n, seed, a, b, k):
        rng = np.random.default_rng(seed)
        names = [f"s{i}" for i in range(n)]
        sizes = rng.uniform(1.0, 1e6, n)
        dists = rng.uniform(0.0, 5.0, n)
        # exp(a ln s + b) realizes the affine map of log sizes in size space
        moved_sizes = np.exp(a * np.log(sizes) + b)
        base = [s.source_name for s in score_table(names, sizes, dists, k)]
        moved = [s.source_name for s in score_table(names, moved_sizes, dists, k)]
        assert base == moved

    @given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_k_zero_matches_b1_and_k_negative_infinity_matches_b5(self, n, seed):
        rng = np.random.default_rng(seed)
        names = [f"s{i}" for i in range(n)]
        sizes = np.unique(rng.integers(1, 10 ** 6, n).astype(float))
        names = names[:len(sizes)]
        dists = rng.uniform(0.0, 5.0, len(sizes))
        by_size = [s.source_name for s in score_table(names, sizes, dists, 0.0)]
        expected_b1 = [names[i] for i in
                       sorted(range(len(sizes)), key=lambda i: (-sizes[i], names[i]))]
        assert by_size == expected_b1
        by_dist = score_table(names, sizes, dists, -1e15)[0].source_name
        expected_b5 = names[int(np.argmin(dists))]
        assert by_dist == expected_b5

    def test_row_permuted_twins_tie(self):
        # The twins' means differ in the last ulp; their distances must not
        # become z-scores of +-1 that override the size-then-name rule.
        for seed in range(20):
            for kind in DivergenceKind:
                scored = twin_ranking(seed, 1000, 64, kind)
                assert [s.source_name for s in scored] == ["a", "b"]
                assert [s.z_distance for s in scored] == [0.0, 0.0]

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 400), st.integers(1, 64),
           st.sampled_from(list(DivergenceKind)))
    @settings(max_examples=100, deadline=None)
    def test_row_permutation_never_reorders(self, seed, n, d, kind):
        scored = twin_ranking(seed, n, d, kind)
        assert [s.source_name for s in scored] == ["a", "b"]

    @given(st.integers(1, 10), st.integers(0, 2 ** 31 - 1), st.floats(-3.0, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_output_is_permutation_and_rederivable(self, n, seed, k):
        rng = np.random.default_rng(seed)
        names = [f"s{i}" for i in range(n)]
        scored = score_table(names, rng.uniform(1, 1e4, n), rng.uniform(0, 3, n), k)
        assert sorted(s.source_name for s in scored) == sorted(names)
        for s in scored:
            assert abs(s.score - (s.z_log_size + s.k * s.z_distance)) < 1e-12
