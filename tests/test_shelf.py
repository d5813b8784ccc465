"""Shelf: profiles by column. Its row checks, its Sequence view, and rankings,
calibrations and method comparisons read from its columns against the same
of the profiles as a list."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2l.calibrate import EvaluationConfig, compare_methods, tune_k
from p2l.core import (
    L1_TOL,
    DatasetProfile,
    DivergenceKind,
    EstimatorConfig,
    ImprovementRecord,
    Shelf,
    Summarizer,
    SummaryVector,
)
from p2l.divergence import distance, distances
from p2l.errors import (
    DimensionMismatch,
    DuplicateSourceName,
    EmptyCandidates,
    MixedExtractors,
    TooFewSources,
    UnknownSource,
)
from p2l.estimator import (
    BASELINES,
    baseline_ranking,
    baseline_rankings,
    check_candidates,
    score_sources,
    score_table,
)

LABELS = ("mean", "trimmed_mean:0.1", "trimmed_mean:0.25")
DIMS = (1, 2, 5, 64, 512)


def make(name, values, size=10, extractor="e1", role="source", label="mean"):
    values = np.asarray(values, dtype=np.float64)
    summary = SummaryVector(values=values / values.sum(), raw_mean=values,
                            summarizer=Summarizer.parse(label))
    return DatasetProfile(name, size, summary, extractor, role)


@st.composite
def candidate_sets(draw):
    """A target and candidates of one dimension, most often the target's, that
    vary in name (repeats too), extractor, role, size and summarizer. 512 is
    wider than numpy's 128-item pairwise-summation block, so a row's L1 sum is
    added in blocks there."""
    dim = draw(st.sampled_from(DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    target = make("t", rng.dirichlet(np.full(dim, 0.5)) + 1e-300, role="target")
    d = draw(st.one_of(st.just(dim), st.sampled_from(DIMS)))
    sources = []
    for _ in range(draw(st.integers(0, 8))):
        raw = rng.gamma(0.5, 1.0, d) * 10.0 ** float(rng.integers(-3, 3))
        if raw.sum() <= 0.0:
            raw[0] = 1.0
        sources.append(make(draw(st.sampled_from("abcdef")), raw,
                            size=draw(st.integers(1, 2**63)),
                            extractor=draw(st.sampled_from(["e1", "e1", "e2"])),
                            role=draw(st.sampled_from(["source", "source", "target"])),
                            label=draw(st.sampled_from(LABELS))))
    return target, sources


def columns_copy(shelf):
    """A shelf built from copies of another's columns, as a loaded cache is."""
    return Shelf(list(shelf.names), list(shelf.sizes), list(shelf.roles),
                 list(shelf.extractor_ids), list(shelf.labels), shelf.summary.copy(),
                 shelf.raw_mean.copy())


def outcome(fn):
    """fn()'s value, or the class and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)


def rows_bytes(scored):
    return [(s.source_name, s.size, np.float64(s.distance_value).tobytes(),
             np.float64(s.z_log_size).tobytes(), np.float64(s.z_distance).tobytes(),
             np.float64(s.score).tobytes()) for s in scored]


# -- the per-profile rules, as they read before profiles were stacked ------------

def reference_check(target, sources):
    if not sources:
        raise EmptyCandidates("need at least one candidate source")
    seen = set()
    for s in sources:
        if s.name in seen:
            raise DuplicateSourceName(f"duplicate source name {s.name!r}")
        seen.add(s.name)
        if s.summary.dim != target.summary.dim:
            raise DimensionMismatch(
                f"source {s.name!r} has dim {s.summary.dim}, target has "
                f"{target.summary.dim}")
        if s.extractor_id != target.extractor_id:
            raise MixedExtractors(
                f"source {s.name!r} was embedded by {s.extractor_id!r}, target "
                f"by {target.extractor_id!r}; distances are only meaningful "
                "within one extractor's feature space")


def stacked(sources):
    """The summaries of these checked sources as the N x d array distances takes."""
    return np.array([s.summary.values for s in sources])


def reference_scores(target, sources, cfg):
    reference_check(target, sources)
    dists = distances(cfg.distance, target.summary, stacked(sources))
    return score_table([s.name for s in sources], [s.size for s in sources], dists, cfg.k)


def reference_baseline(kind, target, sources, cfg, reference_name, seed):
    reference_check(target, sources)
    names = [s.name for s in sources]
    by_size = sorted(sources, key=lambda s: (-s.size, s.name))
    if kind == "B1":
        return [s.name for s in by_size]
    if kind == "B2":
        return [reference_name] + [s.name for s in by_size if s.name != reference_name]
    if kind == "B3":
        ordered = sorted(names)
        random.Random(seed).shuffle(ordered)
        return ordered
    dists = dict(zip(names, distances(cfg.distance, target.summary, stacked(sources))))
    return [s.name for s in sorted(sources, key=lambda s: (dists[s.name], -s.size, s.name))]


class TestRankingFromColumns:
    @settings(max_examples=300, deadline=None)
    @given(candidate_sets(), st.sampled_from(list(DivergenceKind)),
           st.sampled_from([-1.0, -0.5, 0.0, 2.0]))
    def test_shelf_ranks_as_the_list_does(self, case, kind, k):
        target, profiles = case
        shelf = columns_copy(Shelf.of(profiles))
        # rank's source filter: by role, on the columns or on the profiles
        keep = [i for i, role in enumerate(shelf.roles) if role == "source"]
        from_shelf = shelf.take(keep)
        from_list = [p for p in profiles if p.role == "source"]
        cfg = EstimatorConfig(distance=kind, k=k)

        want = outcome(lambda: rows_bytes(reference_scores(target, from_list, cfg)))
        for sources in (from_list, from_shelf):
            assert outcome(lambda: rows_bytes(score_sources(target, sources, cfg))) == want

        names = [p.name for p in from_list]
        reference_name = names[0] if names else None
        for base in BASELINES[:-2] + ("B5",):  # B4 ranks nothing
            want = outcome(lambda: reference_baseline(base, target, from_list, cfg,
                                                      reference_name, 7))
            for sources in (from_list, from_shelf):
                assert outcome(lambda: baseline_ranking(
                    base, target, sources, cfg, reference_name, 7)) == want
        rankings = [outcome(lambda: baseline_rankings(
                        score_sources(target, sources, cfg), reference_name, 7))
                    for sources in (from_list, from_shelf)]
        assert rankings[0] == rankings[1]

        # Each row of the shelf's matrix is measured as its one-row case is.
        same_dim = [p for p in from_list if p.summary.dim == target.summary.dim]
        matrix = Shelf.of(same_dim).summary.reshape(len(same_dim), target.summary.dim)
        assert (outcome(lambda: distances(kind, target.summary, matrix).tobytes())
                == outcome(lambda: np.array(
                    [distance(kind, target.summary, p.summary) for p in same_dim],
                    dtype=np.float64).tobytes()))

    def test_first_bad_candidate_is_refused(self):
        target = make("t", [1.0, 1.0], role="target")
        sources = [make("a", [1.0, 2.0]), make("b", [1.0, 2.0], extractor="e2"),
                   make("a", [2.0, 1.0])]
        with pytest.raises(MixedExtractors, match="source 'b' was embedded by 'e2'"):
            check_candidates(target, Shelf.of(sources))
        # The shelf's one dimension is every row's, so its first row fails first.
        wide = [make("a", [1.0, 2.0, 3.0]), make("a", [3.0, 2.0, 1.0])]
        with pytest.raises(DimensionMismatch, match="source 'a' has dim 3, target has 2"):
            check_candidates(target, Shelf.of(wide))

    def test_a_shelf_holds_one_dimension(self):
        a, b, c = make("a", [1.0, 2.0]), make("b", [1.0, 2.0, 3.0]), make("c", [2.0, 1.0])
        message = "profile 'b' has dim 3, profile 'a' has 2"
        with pytest.raises(DimensionMismatch, match=message):
            Shelf.of([a, c, b])
        with pytest.raises(DimensionMismatch, match=message):
            Shelf.concat([Shelf.of([]), Shelf.of([a, c]), Shelf.of([]), Shelf.of([b])])
        with pytest.raises(DimensionMismatch, match=message):
            score_sources(make("t", [1.0, 1.0], role="target"), [a, b], EstimatorConfig())
        joined = Shelf.concat([Shelf.of([]), Shelf.of([a]), Shelf.of([c])])
        assert joined.summary.shape == joined.raw_mean.shape == (2, 2)


# -- calibration and evaluation pools, as a list or as a shelf ----------------------

@st.composite
def pool_problems(draw):
    """Training tasks over a pool of distinct sources, with at most one bad
    input: a record naming an unknown source, or one pool name given twice.
    A task may name fewer than three sources, which tune_k refuses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    pool = [make(f"s{i}", rng.gamma(1.0, 1.0, 4) + 0.01, size=draw(st.integers(1, 50)))
            for i in range(n)]
    tasks = []
    for t in range(draw(st.integers(1, 3))):
        named = draw(st.lists(st.sampled_from([p.name for p in pool]), min_size=1,
                              unique=True))
        tasks.append((make(f"t{t}", rng.gamma(1.0, 1.0, 4) + 0.01, role="target"),
                      [ImprovementRecord(f"t{t}", name, draw(st.floats(0.05, 1.0)), 0.5)
                       for name in named]))
    bad = draw(st.sampled_from(["none", "none", "unknown", "repeat"]))
    if bad == "unknown":
        target, records = tasks[-1]
        records.append(ImprovementRecord(target.name, "ghost", 0.5, 0.5))
    elif bad == "repeat":
        pool.insert(draw(st.integers(0, n)),
                    make(draw(st.sampled_from(pool)).name, rng.gamma(1.0, 1.0, 4) + 0.01))
    return tasks, pool


def grid_bytes(report):
    return [(np.float64(g.k).tobytes(), g.distance,
             [(name, np.float64(rho).tobytes()) for name, rho in g.task_rho.items()])
            for g in report.grid]


class TestPoolsFromColumns:
    @settings(max_examples=200, deadline=None)
    @given(pool_problems(), st.sampled_from(list(DivergenceKind)),
           st.sampled_from([-1.0, -0.5, 0.0]))
    def test_list_and_shelf_pools_agree(self, problem, kind, k):
        tasks, pool = problem
        forms = (pool, Shelf.of(pool), pool[::-1], Shelf.of(pool[::-1]))
        grid = EvaluationConfig(k_grid=(-2.0, -1.0, 0.0), distance_kinds=(kind,))
        tuned = [outcome(lambda: grid_bytes(tune_k(tasks, form, grid))) for form in forms]
        assert tuned[1:] == tuned[:1] * 3
        cfg = EstimatorConfig(distance=kind, k=k)
        for target, records in tasks:
            def compared(form):
                outcomes = compare_methods(
                    target, records, form, cfg, reference_name=records[0].source_name,
                    rng_seed=7)
                shelf = Shelf.of(form)  # P2L's rows: the records' candidates, in their order
                row = {name: i for i, name in enumerate(shelf.names)}
                candidates = shelf.take([row[r.source_name] for r in records])
                return rows_bytes(score_sources(target, candidates, cfg)), outcomes
            got = [outcome(lambda: compared(form)) for form in forms]
            assert got[1:] == got[:1] * 3
            names = [p.name for p in pool]
            valid = len(set(names)) == len(names) and all(
                r.source_name in names for r in records)
            assert isinstance(got[0][0], type) != valid  # refused iff bad

    def test_refusals_name_the_bad_input(self):
        pool = [make(f"s{i}", [1.0 + i, 2.0]) for i in range(3)]
        target = make("t", [1.0, 1.0], role="target")
        records = [ImprovementRecord("t", p.name, 0.5, 0.4) for p in pool]
        cfg = EstimatorConfig()
        for form in (pool, Shelf.of(pool)):
            with pytest.raises(UnknownSource, match="unknown source 'ghost'"):
                tune_k([(target, records + [ImprovementRecord("t", "ghost", 0.5, 0.4)])],
                       form)
            with pytest.raises(TooFewSources, match="has 2 sources, need >= 3"):
                tune_k([(target, records[:2])], form)
        for form in (pool + pool[1:2], Shelf.of(pool + pool[1:2])):
            with pytest.raises(DuplicateSourceName, match="duplicate source name 's1'"):
                tune_k([(target, records)], form)
            with pytest.raises(DuplicateSourceName, match="duplicate source name 's1'"):
                compare_methods(target, records, form, cfg)


# -- the shelf's own checks ----------------------------------------------------------

DAMAGES = ("nan", "inf_raw", "negative", "sum_off", "sum_near_tolerance", "size_zero",
           "size_bool", "size_float", "role", "empty_name", "extractor_not_text",
           "label")


def damaged_columns(profiles, damages):
    """The columns of these profiles, with each (row, damage) applied."""
    shelf = Shelf.of(profiles)
    cols = {"names": list(shelf.names), "sizes": list(shelf.sizes),
            "roles": list(shelf.roles), "extractor_ids": list(shelf.extractor_ids),
            "labels": list(shelf.labels), "summary": shelf.summary.copy(),
            "raw_mean": shelf.raw_mean.copy()}
    for row, damage in damages:
        if damage == "nan":
            cols["summary"][row, 0] = np.nan
        elif damage == "inf_raw":
            cols["raw_mean"][row, -1] = np.inf
        elif damage == "negative":
            cols["summary"][row, 0] = -1e-300
        elif damage == "sum_off":
            cols["summary"][row] *= 1.0 + 1e-8
        elif damage == "sum_near_tolerance":
            cols["summary"][row] *= 1.0 + 1e-9 * (1.0 + 2.0 ** -20 * (row - 2))
        elif damage == "size_zero":
            cols["sizes"][row] = 0
        elif damage == "size_bool":
            cols["sizes"][row] = True
        elif damage == "size_float":
            cols["sizes"][row] = 3.0
        elif damage == "role":
            cols["roles"][row] = "sauce"
        elif damage == "empty_name":
            cols["names"][row] = ""
        elif damage == "extractor_not_text":
            cols["extractor_ids"][row] = 7
        elif damage == "label":
            cols["labels"][row] = "median"
    return cols


def first_row_error(cols):
    """What building the rows one at a time raises first, as the summary
    cache built them: None when every row builds."""
    for i in range(len(cols["names"])):
        try:
            summary = SummaryVector(values=cols["summary"][i],
                                    raw_mean=cols["raw_mean"][i],
                                    summarizer=Summarizer.parse(cols["labels"][i]))
            DatasetProfile(name=cols["names"][i], size=cols["sizes"][i], summary=summary,
                           extractor_id=cols["extractor_ids"][i], role=cols["roles"][i])
        except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
            return type(exc), str(exc)
    return None


def built(cols):
    """None when a shelf of these columns builds, else what building it raised."""
    def build():
        Shelf(**cols)

    return outcome(build)


class TestShelfChecks:
    @settings(max_examples=300, deadline=None)
    @given(candidate_sets(), st.lists(st.tuples(st.integers(0, 7),
                                                st.sampled_from(DAMAGES)), max_size=3))
    def test_rows_are_checked_as_profiles_check_them(self, case, damages):
        _, profiles = case
        damages = [(row, d) for row, d in damages if row < len(profiles)]
        cols = damaged_columns(profiles, damages)
        assert built(cols) == first_row_error(cols)

    @pytest.mark.parametrize("dim", [512, 1000])
    def test_sums_at_the_tolerance_are_added_as_one_row_adds_them(self, dim):
        # Rows whose 1-d sum lies within one step of 1 + L1_TOL, on either side:
        # a sum added in any other order (np.add.reduceat, say) tips some of them
        # to the other side.
        rng = np.random.default_rng(dim)
        rows = []
        for _ in range(10):
            row = rng.gamma(0.5, 1.0, dim)
            row *= (1.0 + L1_TOL) / row.sum()
            top, step = row.argmax(), 2.0 ** -52
            passes = abs(row.sum() - 1.0) <= L1_TOL
            while (abs(row.sum() - 1.0) <= L1_TOL) == passes:
                last = row.copy()
                row[top] += step if passes else -step
            rows += [last, row]
        for row in rows:
            cols = {"names": ["a"], "sizes": [1], "roles": ["source"],
                    "extractor_ids": ["e"], "labels": ["mean"], "summary": row[None],
                    "raw_mean": row[None]}
            assert built(cols) == first_row_error(cols)
        assert len({abs(row.sum() - 1.0) <= L1_TOL for row in rows}) == 2
        # The same rows stacked, one (rows, dim) sum: each row is still judged alone.
        for row in rows:
            stacked = np.array([np.full(dim, 1.0 / dim)] * 2 + [row])
            cols = {"names": ["a", "b", "c"], "sizes": [1] * 3, "roles": ["source"] * 3,
                    "extractor_ids": ["e"] * 3, "labels": ["mean"] * 3,
                    "summary": stacked, "raw_mean": stacked}
            assert built(cols) == first_row_error(cols)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (4, 2), (3, 1, 2)])
    def test_vectors_must_be_rows_by_dim_matrices(self, shape):
        with pytest.raises(ValueError, match=r"\(rows, dim\) matrices"):
            Shelf("abc", [1] * 3, ["source"] * 3, ["e"] * 3, ["mean"] * 3,
                  np.full(shape, 0.5), np.full(shape, 0.5))

    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="one entry per row"):
            Shelf(["a", "b"], [1], ["source"] * 2, ["e"] * 2, ["mean"] * 2,
                  np.full((2, 1), 1.0), np.full((2, 1), 1.0))

    def test_arrays_are_read_only_copies(self):
        values = np.array([[0.5, 0.5]])
        shelf = Shelf(["a"], [1], ["source"], ["e"], ["mean"], values, values)
        values[0, 0] = 9.0
        assert shelf.summary.tolist() == [[0.5, 0.5]]
        with pytest.raises(ValueError):
            shelf.summary[0] = 1.0


class TestSequenceView:
    def profiles(self):
        return [make("a", [1.0, 3.0], size=4), make("b", [2.0, 4.0], size=2**70,
                                                     role="target", label="trimmed_mean:0.1"),
                make("c", [5.0, 1.0], extractor="e2")]

    def assert_same(self, got, want):
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert (p.name, p.size, type(p.size), p.role, p.extractor_id,
                    p.summary.summarizer) == (q.name, q.size, type(q.size), q.role,
                                              q.extractor_id, q.summary.summarizer)
            assert p.summary.values.tobytes() == q.summary.values.tobytes()
            assert p.summary.raw_mean.tobytes() == q.summary.raw_mean.tobytes()

    def test_items_are_the_profiles(self):
        profiles = self.profiles()
        shelf = Shelf.of(profiles)
        self.assert_same(shelf, profiles)
        self.assert_same([shelf[-1]], profiles[-1:])
        self.assert_same(shelf[1:], profiles[1:])
        self.assert_same(shelf[::-1], profiles[::-1])
        self.assert_same(shelf.take([2, 0]), [profiles[2], profiles[0]])
        self.assert_same(Shelf.concat([shelf, shelf[:1]]), profiles + profiles[:1])
        assert shelf.take([0, 1, 2]) is shelf and Shelf.of(shelf) is shelf
        with pytest.raises(IndexError):
            shelf[3]

    def test_empty_shelf(self):
        empty = Shelf.of([])
        assert len(empty) == 0 and list(empty) == [] and not empty
        assert empty.summary.shape == empty.raw_mean.shape == (0, 0)
        with pytest.raises(EmptyCandidates):
            check_candidates(make("t", [1.0]), empty)
