import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2l.calibrate import (
    DEFAULT_K_GRID,
    EvaluationConfig,
    MethodOutcome,
    average_ranks,
    compare_methods,
    picks_to_best,
    selection_lines,
    spearman_or_zero,
    spearman_rho,
    tune_k,
    write_grid_csv,
)
from p2l.core import (
    DivergenceKind,
    EmbeddingMatrix,
    EstimatorConfig,
    ImprovementRecord,
)
from p2l.divergence import distances
from p2l.errors import (
    DegenerateConstantInput,
    LengthMismatch,
    MixedExtractors,
    TooFewSources,
    UnknownSource,
    ZeroDenominator,
)
from p2l.estimator import score_sources, zscale
from p2l.summarize import profile_from_matrix


def closed_form_rho(a, b):
    """Tie-free classical formula: 1 - 6 sum d^2 / (n (n^2 - 1))."""
    a = np.asarray(a)
    b = np.asarray(b)
    ranks_a = np.argsort(np.argsort(a)) + 1
    ranks_b = np.argsort(np.argsort(b)) + 1
    d = ranks_a - ranks_b
    n = len(a)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def profile(name, size, values, role="source", extractor="ext"):
    m = EmbeddingMatrix(np.asarray(values, dtype=float).reshape(1, -1), extractor)
    return profile_from_matrix(name, m, role=role, size=size)


class TestSpearman:
    def test_monotone_identity(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_two_observations(self):
        # The fewest a rank correlation takes; corrcoef rounds it short of -1.
        assert spearman_rho([1, 2], [2, 1]) == pytest.approx(
            np.corrcoef([1.0, 2.0], [2.0, 1.0])[0, 1], abs=1e-15)

    def test_adjacent_swap_closed_form(self):
        a = [1, 2, 3, 4, 5]
        b = [1, 2, 3, 5, 4]
        assert spearman_rho(a, b) == pytest.approx(0.9, abs=1e-12)
        assert closed_form_rho(a, b) == pytest.approx(0.9, abs=1e-12)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            spearman_rho([1, 2], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            spearman_rho([1], [2])
        with pytest.raises(DegenerateConstantInput):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_or_zero_is_rho_per_row_and_zero_when_a_side_is_constant(self):
        rows = [[1, 2, 4], [1, 1, 1], [3, 1, 2], [5, 5, 9]]
        got = spearman_or_zero(rows, [1, 2, 3])
        assert got.tolist() == [spearman_rho([1, 2, 4], [1, 2, 3]), 0.0,
                                spearman_rho([3, 1, 2], [1, 2, 3]),
                                spearman_rho([5, 5, 9], [1, 2, 3])]
        assert spearman_or_zero(rows, [7, 7, 7]).tolist() == [0.0] * 4
        with pytest.raises(LengthMismatch):
            spearman_or_zero(rows, [1, 2])
        with pytest.raises(LengthMismatch):
            spearman_or_zero([1, 2, 3], [1, 2, 3])

    def test_ties_use_average_ranks(self):
        # ranks of a: (1.5, 1.5, 3); classical formula does not apply
        rho = spearman_rho([5, 5, 9], [1, 2, 3])
        assert rho == pytest.approx(0.866025403784, abs=1e-9)

    def test_average_ranks_match_scipy_rankdata(self):
        stats = pytest.importorskip("scipy.stats")

        # Small integers force ties; the floats mix in distinct values.
        @given(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6),
                        min_size=1, max_size=40))
        @settings(max_examples=200, deadline=None)
        def check(values):
            np.testing.assert_array_equal(
                average_ranks(values), stats.rankdata(values, method="average"))

        check()

    @given(st.lists(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_average_ranks_match_counting_definition(self, values):
        # rank = values below + mean position among the equal ones
        expected = [sum(v < x for v in values) + (sum(v == x for v in values) + 1) / 2
                    for x in values]
        assert average_ranks(values).tolist() == expected

    @given(st.integers(3, 30), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_closed_form_without_ties(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.permutation(n).astype(float)
        b = rng.permutation(n).astype(float)
        assert spearman_rho(a, b) == pytest.approx(closed_form_rho(a, b), abs=1e-9)

    @given(st.integers(3, 20), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_monotone_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5, 5, n)
        b = rng.uniform(-5, 5, n)
        assert spearman_rho(a, b) == pytest.approx(spearman_rho(b, a), abs=1e-12)
        assert spearman_rho(np.exp(a), b) == pytest.approx(spearman_rho(a, b),
                                                           abs=1e-12)
        assert spearman_rho(3.0 * a + 2.0, b) == pytest.approx(spearman_rho(a, b),
                                                               abs=1e-12)


def monotone_size_task():
    """Improvements strictly increase with source size; distances arbitrary."""
    target = profile("t", 10, [1.0, 1.0], role="target")
    sources = [profile("a", 10, [1.3, 0.9]), profile("b", 100, [0.8, 1.5]),
               profile("c", 1000, [1.1, 1.2]), profile("d", 10000, [2.0, 0.5])]
    records = [ImprovementRecord("t", n, p, 0.2)
               for n, p in (("a", 0.3), ("b", 0.4), ("c", 0.5), ("d", 0.6))]
    return target, sources, records


def distance_task():
    """Equal sizes; improvements strictly decrease with divergence."""
    target = profile("t", 10, [1.0, 1.0], role="target")
    sources = [profile("near", 50, [1.05, 0.95]), profile("mid", 50, [1.4, 0.6]),
               profile("far", 50, [1.9, 0.1])]
    records = [ImprovementRecord("t", n, p, 0.2)
               for n, p in (("near", 0.6), ("mid", 0.5), ("far", 0.4))]
    return target, sources, records


def reference_cell_rho(scores, improvements):
    """One grid cell by definition: np.corrcoef of average ranks, 0 if a side is flat."""
    if np.all(scores == scores[0]) or np.all(improvements == improvements[0]):
        return 0.0
    rho = float(np.corrcoef(average_ranks(scores), average_ranks(improvements))[0, 1])
    return min(1.0, max(-1.0, rho))


@st.composite
def calibration_problems(draw):
    """Training tasks over 3-40 sources with tied sizes, distances and outcomes.

    Sizes, source vectors and outcomes come from short pools, so ties are
    common; a one-entry pool makes that quantity constant (one size turns
    every k = 0 score row constant, one outcome zeroes a whole task). The
    k grid always holds 0 and a negative k.
    """
    n = draw(st.integers(3, 40))
    size_pool = draw(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4))
    vector = st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3)
    vector_pool = draw(st.lists(vector, min_size=1, max_size=5))
    sources = [profile(f"s{i:02d}", draw(st.sampled_from(size_pool)),
                       draw(st.sampled_from(vector_pool))) for i in range(n)]
    tasks = []
    for t in range(draw(st.integers(1, 3))):
        target = profile(f"t{t}", 10, draw(vector), role="target")
        perf_pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        order = draw(st.permutations(range(n)))
        tasks.append((target, [ImprovementRecord(target.name, f"s{i:02d}",
                                                 draw(st.sampled_from(perf_pool)), 0.3)
                               for i in order]))
    ks = draw(st.lists(st.floats(-3.0, 3.0), max_size=6))
    kinds = draw(st.lists(st.sampled_from(list(DivergenceKind)), min_size=1,
                          unique=True))
    cfg = EvaluationConfig(k_grid=tuple(dict.fromkeys([*ks, 0.0, -1.0])),
                           distance_kinds=tuple(kinds))
    return tasks, sources, cfg


class TestTuneK:
    def test_size_monotone_task_prefers_k_zero(self):
        target, sources, records = monotone_size_task()
        report = tune_k([(target, records)], sources)
        assert report.best_k == 0.0
        assert report.best_point().mean_rho == pytest.approx(1.0)
        assert report.per_task_rho["t"] == pytest.approx(1.0)

    def test_distance_task_tie_breaks_to_smallest_magnitude_k(self):
        target, sources, records = distance_task()
        report = tune_k([(target, records)], sources)
        assert report.best_k == -0.05
        assert report.best_distance is DivergenceKind.KL
        assert report.best_point().mean_rho == pytest.approx(1.0)
        # every negative k attains 1.0 on the best-distance curve
        curve = dict(report.curve(report.best_distance))
        assert curve[-3.0] == pytest.approx(1.0)
        assert curve[0.0] == 0.0  # equal sizes: score constant, no rank signal

    def test_unknown_source(self):
        target, sources, records = monotone_size_task()
        records = records + [ImprovementRecord("t", "ghost", 0.5, 0.2)]
        with pytest.raises(UnknownSource):
            tune_k([(target, records)], sources)

    def test_too_few_sources(self):
        target, sources, records = monotone_size_task()
        with pytest.raises(TooFewSources):
            tune_k([(target, records[:2])], sources)

    def test_mixed_extractors_refused(self):
        _, sources, records = monotone_size_task()
        alien = profile("t", 10, [1.0, 1.0], role="target", extractor="other")
        with pytest.raises(MixedExtractors):
            tune_k([(alien, records)], sources)

    @pytest.mark.parametrize("bad", [float("-inf"), float("inf"), float("nan")])
    def test_non_finite_k_grid_refused(self, bad):
        target, sources, records = monotone_size_task()
        with pytest.raises(ValueError):
            tune_k([(target, records)], sources, EvaluationConfig(k_grid=(bad, -1.0)))

    @pytest.mark.parametrize("grid, largest", [((-1e300, -5e299, 0.0), "1e+300"),
                                               ((-1e308, -5e307, 0.0), "1e+308")])
    def test_k_grid_whose_scores_overflow_refused_as_score_table_refuses(self, grid,
                                                                         largest):
        target, sources, records = distance_task()
        message = (f"|k| = {largest} gives scores too large to rank; "
                   "use a smaller |k|")
        with pytest.raises(ValueError) as tuned:
            tune_k([(target, records)], sources, EvaluationConfig(k_grid=grid))
        assert str(tuned.value) == message
        with pytest.raises(ValueError) as scored:
            score_sources(target, sources, EstimatorConfig(k=grid[0]))
        assert str(scored.value) == message

    @pytest.mark.parametrize("grid", [(-1.0, 0.0, -1.0), (0.0, -0.0)])
    def test_repeated_k_refused(self, grid):
        # A repeated k would write the same grid cells twice.
        with pytest.raises(ValueError, match="k grid repeats values"):
            EvaluationConfig(k_grid=grid)

    def test_grid_covers_default(self):
        assert DEFAULT_K_GRID[0] == -3.0
        assert DEFAULT_K_GRID[-1] == 0.0
        assert len(DEFAULT_K_GRID) == 61
        target, sources, records = monotone_size_task()
        report = tune_k([(target, records)], sources)
        assert len(report.grid) == 61 * len(tuple(DivergenceKind))

    def test_task_order_invariance(self):
        t1 = monotone_size_task()
        target2, sources, records2 = distance_task()
        target2b = profile("t2", 10, [1.0, 1.0], role="target")
        records2b = [ImprovementRecord("t2", r.source_name, r.perf_transfer,
                                       r.perf_scratch)
                     for r in records2]
        pool = t1[1] + sources
        tasks_fwd = [(t1[0], t1[2]), (target2b, records2b)]
        a = tune_k(tasks_fwd, pool)
        b = tune_k(list(reversed(tasks_fwd)), pool)
        assert (a.best_k, a.best_distance) == (b.best_k, b.best_distance)
        assert a.grid == b.grid

    def test_improvement_rescaling_invariance(self):
        target, sources, records = monotone_size_task()
        scaled = [ImprovementRecord("t", r.source_name, r.perf_transfer * 0.5,
                                    r.perf_scratch * 0.5)
                  for r in records]
        a = tune_k([(target, records)], sources)
        b = tune_k([(target, scaled)], sources)
        assert a.grid == b.grid

    def test_grid_csv(self, tmp_path):
        target, sources, records = monotone_size_task()
        report = tune_k([(target, records)], sources,
                        EvaluationConfig(k_grid=(0.0, -1.0),
                                         distance_kinds=(DivergenceKind.KL,)))
        path = tmp_path / "grid.csv"
        write_grid_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,distance,mean_rho"
        assert len(lines) == 3

    def test_constant_improvements_score_zero_everywhere(self):
        target, sources, records = monotone_size_task()
        flat = [ImprovementRecord("t", r.source_name, 0.5, 0.2) for r in records]
        report = tune_k([(target, flat)], sources)
        assert {g.task_rho["t"] for g in report.grid} == {0.0}

    @given(calibration_problems())
    @settings(max_examples=150, deadline=None)
    def test_every_cell_equals_per_cell_reference(self, problem):
        tasks, sources, cfg = problem
        report = tune_k(tasks, sources, cfg)
        assert [(g.k, g.distance) for g in report.grid] == [
            (k, kind) for k in cfg.k_grid for kind in cfg.distance_kinds]
        pool = {p.name: p for p in sources}
        for target, records in tasks:
            candidates = [pool[r.source_name] for r in records]
            z_logs = zscale(np.log([float(c.size) for c in candidates]))
            improvements = np.array([r.improvement for r in records])
            matrix = np.array([c.summary.values for c in candidates])
            z_dists = {kind: zscale(distances(kind, target.summary, matrix))
                       for kind in cfg.distance_kinds}
            for g in report.grid:
                got = g.task_rho[target.name]
                want = reference_cell_rho(z_logs + g.k * z_dists[g.distance],
                                          improvements)
                # == alone would let -0.0 stand for 0.0, which the grid CSV shows
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


class TestPicksToBest:
    def test_positions(self):
        assert picks_to_best(["a", "b", "c"], "a") == 1
        assert picks_to_best(["a", "b", "c"], "c") == 3
        ranking = [f"s{i}" for i in range(17)]
        assert picks_to_best(ranking, "s16") == 17

    def test_missing(self):
        with pytest.raises(UnknownSource):
            picks_to_best(["a", "b"], "zzz")

    def test_first_pick_iff_selected(self):
        from p2l.core import EstimatorConfig
        from p2l.estimator import score_sources
        target, sources, records = distance_task()
        scored = score_sources(target, sources, EstimatorConfig(k=-1.0))
        ranking = [s.source_name for s in scored]
        chosen = scored[0].source_name
        assert picks_to_best(ranking, chosen) == 1
        for name in ranking[1:]:
            assert picks_to_best(ranking, name) > 1


class MethodTask:
    """P2L picks mid at k = -1, B1 picks big, B5 picks near, B4 transfers nothing."""

    def setup_method(self):
        self.target = profile("t", 10, [1.0, 1.0], role="target")
        self.pool = [profile("big", 1_000_000, [4.0, 0.2]),
                     profile("near", 100, [1.05, 1.0]),
                     profile("mid", 10_000, [1.3, 0.9])]

    def outcomes(self, perfs, scratch=0.25, k=-1.0, **opts):
        records = [ImprovementRecord("t", name, perf, scratch)
                   for name, perf in perfs.items()]
        cfg = EstimatorConfig(distance="CITYBLOCK", k=k)
        return compare_methods(self.target, records, self.pool, cfg, **opts)


class TestCompareMethods(MethodTask):
    def test_picks_and_perfs(self):
        out = self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.5})
        assert {m: o.selection for m, o in out.items()} == {
            "P2L": "mid", "B1": "big", "B4": None, "B5": "near"}
        assert {m: o.perf for m, o in out.items()} == {
            "P2L": 0.5, "B1": 0.4, "B4": 0.25, "B5": 0.3}

    def test_methods_in_baseline_order(self):
        perfs = {"big": 0.4, "near": 0.3, "mid": 0.5}
        assert list(self.outcomes(perfs)) == ["P2L", "B1", "B4", "B5"]
        out = self.outcomes(perfs, reference_name="near", rng_seed=0)
        assert list(out) == ["P2L", "B1", "B2", "B3", "B4", "B5"]
        assert out["B2"].gain_vs_p2l == (0.5 - 0.3) / 0.3

    def test_mixed_extractors_refused_with_no_override(self):
        perfs = {"big": 0.4, "near": 0.3, "mid": 0.5}
        self.pool[0] = profile("big", 1_000_000, [4.0, 0.2], extractor="other")
        with pytest.raises(MixedExtractors):
            self.outcomes(perfs)
        with pytest.raises(TypeError):
            self.outcomes(perfs, allow_mixed_extractors=True)

    def test_one_candidate_check_and_distance_vector(self, estimator_passes):
        self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.5}, reference_name="near",
                      rng_seed=0)
        assert estimator_passes == {"check_candidates": 1, "distances": 1}


class TestGainTable(MethodTask):
    """The gain_vs_p2l column of compare_methods: (perf(P2L) - perf(m)) / perf(m)."""

    def test_formula(self):
        out = self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.5})
        assert out["P2L"].gain_vs_p2l == 0.0
        assert out["B1"].gain_vs_p2l == (0.5 - 0.4) / 0.4
        assert out["B5"].gain_vs_p2l == (0.5 - 0.3) / 0.3

    def test_no_transfer_doubles(self):
        # B4 scores perf_scratch: 0.25 against P2L's 0.5 is a gain of 1.0.
        out = self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.5})
        assert out["B4"].perf == 0.25
        assert out["B4"].gain_vs_p2l == 1.0

    def test_same_pick_zero_gain(self):
        out = self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.5}, k=0.0)
        assert out["P2L"].selection == out["B1"].selection == "big"
        assert out["B1"].gain_vs_p2l == 0.0

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator, match="'B1'"):
            self.outcomes({"big": 0.0, "near": 0.3, "mid": 0.5})
        with pytest.raises(ZeroDenominator, match="'B4'"):
            self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.5}, scratch=0.0)

    def test_zero_p2l_perf_is_no_denominator(self):
        out = self.outcomes({"big": 0.4, "near": 0.3, "mid": 0.0})
        assert out["P2L"].gain_vs_p2l == 0.0
        assert [out[m].gain_vs_p2l for m in ("B1", "B4", "B5")] == [-1.0] * 3


class TestSelectionLines:
    def test_header_then_a_row_per_target_and_method(self):
        outcomes = {
            "t1": {"P2L": MethodOutcome("P2L", "mid", 0.5, 0.0, 2),
                   "B4": MethodOutcome("B4", None, 0.25, 1.0, None)},
            "t2": {"P2L": MethodOutcome("P2L", "big", 0.75, 0.0, 1),
                   "B4": MethodOutcome("B4", None, 0.5, 0.5, None)},
        }
        assert list(selection_lines(outcomes)) == [
            "target,method,selection,perf,gain_vs_p2l,picks_to_best",
            "t1,P2L,mid,0.5,0.0,2",
            "t1,B4,,0.25,1.0,",
            "t2,P2L,big,0.75,0.0,1",
            "t2,B4,,0.5,0.5,",
        ]
