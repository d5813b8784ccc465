import numpy as np
import pytest

from p2l.core import (
    CalibrationReport,
    DatasetProfile,
    DivergenceKind,
    EmbeddingMatrix,
    EstimatorConfig,
    GridPoint,
    ImprovementRecord,
    ScoredSource,
    Summarizer,
    SummaryVector,
)
from p2l.errors import EmptyMatrix, NonFiniteValue


def make_summary(values):
    values = np.asarray(values, dtype=float)
    return SummaryVector(values=values, raw_mean=values, summarizer=Summarizer.mean())


class TestEmbeddingMatrix:
    def test_shape_properties(self):
        m = EmbeddingMatrix(np.ones((3, 4)), "ext")
        assert (m.items, m.dim) == (3, 4)

    def test_rejects_empty(self):
        with pytest.raises(EmptyMatrix):
            EmbeddingMatrix(np.ones((0, 4)), "ext")
        with pytest.raises(EmptyMatrix):
            EmbeddingMatrix(np.ones(4), "ext")

    def test_rejects_non_finite(self):
        values = np.ones((2, 2))
        values[1, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            EmbeddingMatrix(values, "ext")

    def test_values_read_only_copy(self):
        src = np.ones((2, 2))
        m = EmbeddingMatrix(src, "ext")
        src[0, 0] = 99.0
        assert m.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_a_writable_array_is_copied_and_a_read_only_one_kept(self):
        writable = np.ones((2, 3))
        assert not np.shares_memory(EmbeddingMatrix(writable, "ext").values, writable)
        assert writable.flags.writeable
        frozen = np.ones((2, 3))
        frozen.flags.writeable = False
        assert EmbeddingMatrix(frozen, "ext").values is frozen
        single = np.ones((2, 3), dtype=np.float32)
        single.flags.writeable = False
        assert EmbeddingMatrix(single, "ext").values.dtype == np.float64


class TestSummaryVector:
    def test_normalized_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SummaryVector(values=np.array([0.5, 0.4]), raw_mean=np.array([1.0, 0.8]),
                          summarizer=Summarizer.mean())

    def test_normalized_rejects_negative(self):
        with pytest.raises(ValueError):
            SummaryVector(values=np.array([1.2, -0.2]), raw_mean=np.array([1.2, -0.2]),
                          summarizer=Summarizer.mean())


class TestSummarizer:
    def test_parse_round_trip(self):
        for s in (Summarizer.mean(), Summarizer.trimmed(0.1), Summarizer.trimmed(0.25)):
            assert Summarizer.parse(s.label()) == s

    def test_parse_cli_form(self):
        assert Summarizer.parse("trimmed:0.2") == Summarizer.trimmed(0.2)

    def test_trimmed_needs_a_fraction(self):
        with pytest.raises(TypeError):
            Summarizer.trimmed()

    @pytest.mark.parametrize("text", [7, None, ["mean"], b"mean"])
    def test_parse_refuses_non_strings(self, text):
        with pytest.raises(ValueError, match="summarizer must be a string"):
            Summarizer.parse(text)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            Summarizer.trimmed(0.5)
        with pytest.raises(ValueError):
            Summarizer.trimmed(-0.1)


class TestProfile:
    def test_size_positive_integer(self):
        sv = make_summary([0.5, 0.5])
        with pytest.raises(ValueError):
            DatasetProfile("a", 0, sv, "ext")
        with pytest.raises(ValueError):
            DatasetProfile("a", 1.5, sv, "ext")

    def test_role_validated(self):
        sv = make_summary([0.5, 0.5])
        with pytest.raises(ValueError):
            DatasetProfile("a", 1, sv, "ext", role="proxy")

    @pytest.mark.parametrize("field,value", [
        ("name", 7), ("name", ["a"]), ("extractor_id", 7), ("extractor_id", ["ext"]),
        ("role", 7), ("size", True), ("size", 2.0), ("size", "2"),
    ])
    def test_field_types_checked(self, field, value):
        fields = dict(name="a", size=2, summary=make_summary([0.5, 0.5]),
                      extractor_id="ext", role="source")
        with pytest.raises(ValueError, match=field):
            DatasetProfile(**{**fields, field: value})

    def test_numpy_integer_size_becomes_int(self):
        profile = DatasetProfile("a", np.int64(3), make_summary([0.5, 0.5]), "ext")
        assert type(profile.size) is int and profile.size == 3


class TestEstimatorConfig:
    def test_accepts_string_distance(self):
        cfg = EstimatorConfig(distance="CITYBLOCK", k=-1.0)
        assert cfg.distance is DivergenceKind.CITYBLOCK

    def test_default_is_kl_at_minus_one(self):
        # The merged-source study scores with this default.
        cfg = EstimatorConfig()
        assert (cfg.distance, cfg.k) == (DivergenceKind.KL, -1.0)


class TestScoredSource:
    def test_identity_rederivable_from_fields(self):
        s = ScoredSource("a", 0.3, 0.7, -0.2, -1.5)
        assert abs(s.score - (s.z_log_size + s.k * s.z_distance)) < 1e-12

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            ScoredSource("a", -0.1, 0.0, 0.0, -1.0)


class TestImprovementRecord:
    def test_arithmetic_closed(self):
        r = ImprovementRecord("t", "s", 0.75, 0.5)
        assert r.improvement == r.perf_transfer - r.perf_scratch == 0.25

    def test_negative_transfer_allowed(self):
        r = ImprovementRecord("t", "s", 0.3, 0.5)
        assert r.improvement < 0

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            ImprovementRecord("t", "s", 1.2, 0.5)
        with pytest.raises(ValueError):
            ImprovementRecord("t", "s", 0.6, -0.1)

    def test_perfs_stored_as_float(self):
        r = ImprovementRecord("t", "s", 1, 0)
        assert type(r.perf_transfer) is type(r.perf_scratch) is float
        assert r == ImprovementRecord("t", "s", 1.0, 0.0)


def point(k, kind, rho):
    return GridPoint(k, kind, {"t": rho})


class TestCalibrationReport:
    def test_best_must_attain_maximum(self):
        grid = (point(0.0, DivergenceKind.KL, 0.5),
                GridPoint(-1.0, DivergenceKind.KL, {"t": 0.8, "u": 1.0}))
        report = CalibrationReport(grid)
        assert report.best_point() is grid[1]
        assert report.best_point().mean_rho == max(g.mean_rho for g in grid) == 0.9
        assert (report.best_k, report.best_distance) == (-1.0, DivergenceKind.KL)
        assert report.per_task_rho == {"t": 0.8, "u": 1.0}

    def test_best_point_tie_rule(self):
        # highest mean rho, then smaller |k|, then kind declaration order
        grid = (point(0.0, DivergenceKind.KL, 0.7),
                point(-1.0, DivergenceKind.KL, 0.9),
                point(-0.5, DivergenceKind.EUC, 0.9),
                point(0.5, DivergenceKind.JSD, 0.9),
                point(-0.5, DivergenceKind.CITYBLOCK, 0.9))
        best = CalibrationReport(grid).best_point()
        assert (best.k, best.distance) == (0.5, DivergenceKind.JSD)
        assert CalibrationReport(grid[::-1]).best_point() is best

    def test_task_rho_checked(self):
        with pytest.raises(ValueError):
            point(0.0, DivergenceKind.KL, 1.5)
        with pytest.raises(TypeError):
            point(0.0, DivergenceKind.KL, 0.5).task_rho["t"] = 1.0
        with pytest.raises(ValueError):
            CalibrationReport(())

    def test_curve_sorted_by_k(self):
        grid = (point(0.0, DivergenceKind.KL, 0.1),
                point(-1.0, DivergenceKind.KL, 0.9),
                point(-1.0, DivergenceKind.EUC, 0.2))
        report = CalibrationReport(grid)
        assert report.curve(DivergenceKind.KL) == ((-1.0, 0.9), (0.0, 0.1))

    def test_kind_tie_rank_order(self):
        assert list(DivergenceKind) == [
            DivergenceKind.KL, DivergenceKind.JSD, DivergenceKind.CHI2,
            DivergenceKind.EUC, DivergenceKind.CITYBLOCK]
