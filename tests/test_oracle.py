import dataclasses
import multiprocessing
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2l import fork, oracle
from p2l.calibrate import MethodOutcome, tune_k
from p2l.core import EPSILON, DivergenceKind, EstimatorConfig, ImprovementRecord
from p2l.divergence import distances
from p2l.errors import BadSpec, UnknownName
from p2l.estimator import merge_profiles


def two_cluster_spec(feature_dim=8, n_items=400, gap=8.0, n_classes=5, seed=0):
    """Two well-separated domains of overlapping Gaussian classes."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_classes, feature_dim))
    b = a + gap
    return oracle.WorldSpec(domains=(
        oracle.DomainSpec("aaa", n_items, a),
        oracle.DomainSpec("bbb", n_items, b),
    ))


class TestWorldGeneration:
    def test_same_seed_identical_worlds(self):
        spec = two_cluster_spec()
        w1 = oracle.generate_world(11, spec)
        w2 = oracle.generate_world(11, spec)
        for d1, d2 in zip(w1.domains, w2.domains):
            np.testing.assert_array_equal(d1.source_train.x, d2.source_train.x)
            np.testing.assert_array_equal(d1.target_val.y, d2.target_val.y)
        np.testing.assert_array_equal(w1.extractor.weights, w2.extractor.weights)

    def test_different_seeds_differ(self):
        spec = two_cluster_spec()
        w1 = oracle.generate_world(11, spec)
        w2 = oracle.generate_world(12, spec)
        assert not np.array_equal(w1.domains[0].source_train.x,
                                  w2.domains[0].source_train.x)

    def test_split_sizes(self):
        world = oracle.generate_world(5, two_cluster_spec(n_items=403))
        for dom in world.domains:
            quarter = 403 // 4
            assert dom.source_train.items == quarter
            assert dom.target_train.items == int(np.floor(0.1 * quarter))
            assert dom.target_val.items == quarter

    def test_bad_specs(self):
        spec = two_cluster_spec()
        with pytest.raises(BadSpec):
            oracle.generate_world(1, oracle.WorldSpec(domains=spec.domains[:1]))
        with pytest.raises(BadSpec, match="empty target split"):
            # 39 items: a quarter of 9 leaves floor(0.1 * 9) = 0 target items
            oracle.generate_world(1, two_cluster_spec(n_items=39))
        two_classes = oracle.DomainSpec("c", 100, np.zeros((2, 8)))
        assert (two_classes.n_classes, spec.feature_dim) == (2, 8)
        with pytest.raises(BadSpec, match="centroids must be"):
            oracle.DomainSpec("c", 100, np.zeros(8))
        with pytest.raises(BadSpec, match="differ in centroid width"):
            oracle.WorldSpec(domains=(spec.domains[0],
                                      oracle.DomainSpec("c", 100, np.zeros((2, 4)))))

    def test_unknown_domain(self):
        world = oracle.generate_world(1, two_cluster_spec())
        with pytest.raises(UnknownName):
            world.domain("nope")
        with pytest.raises(UnknownName):
            oracle.train_transfer(world, None, "nope", oracle.OracleConfig())

    def test_separated_domains_beat_resample_distance(self):
        # distance(A, B) must exceed distance(A, A') for a fresh sample A'
        # of the same domain; A' here is A's own target split.
        est = EstimatorConfig(distance=DivergenceKind.KL, k=-1.0)
        wins = 0
        for seed in range(1, 6):
            world = oracle.generate_world(seed, two_cluster_spec())
            sources, targets = oracle.build_profiles(world)
            a_src = sources[0]
            b_src = sources[1]
            a_resample = targets["aaa"]
            d_ab, d_aa = distances(est.distance, a_resample.summary,
                                   np.array([b_src.summary.values, a_src.summary.values]),
                                   EPSILON)
            wins += d_ab > 2.0 * d_aa
        assert wins >= 5

    def test_default_world_shape(self):
        world = oracle.default_world(1)
        assert len(world.source_names()) == 6
        assert len(world.target_names()) == 8
        assert len(world.domains) == 14
        assert world.spec.feature_dim == oracle.FEATURE_DIM == 16
        assert world.extractor.weights.shape == (16, oracle.EMBED_DIM) == (16, 32)
        assert world.extractor.extractor_id == "oracle-ref-1"


class TestTrainer:
    def random_instance(self, seed):
        rng = np.random.default_rng(seed)
        n, d, h, c = 12, 5, 4, 3
        params = oracle.init_params(rng, d, h, c)
        x = rng.normal(0.0, 1.0, (n, d))
        y = rng.integers(0, c, n)
        return params, x, y

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            params, x, y = self.random_instance(seed)
            _, grads = oracle.loss_and_grads(params, x, y)
            for field in ("w1", "b1", "w2", "b2"):
                theta = getattr(params, field)
                analytic = getattr(grads, field)
                flat = theta.reshape(-1)
                for idx in range(0, flat.size, max(1, flat.size // 5)):
                    h = 1e-6
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _ = oracle.loss_and_grads(params, x, y)
                    flat[idx] = orig - h
                    down, _ = oracle.loss_and_grads(params, x, y)
                    flat[idx] = orig
                    numeric = (up - down) / (2 * h)
                    assert analytic.reshape(-1)[idx] == pytest.approx(
                        numeric, rel=1e-5, abs=1e-8)

    def test_training_reduces_loss(self):
        params, x, y = self.random_instance(99)
        before, _ = oracle.loss_and_grads(params, x, y)
        oracle.sgd_train(params, x, y, [np.random.default_rng(0)], 0.1, 50, 4)
        after, _ = oracle.loss_and_grads(params, x, y)
        assert after < before

    def test_rep_scale_zero_freezes_representation(self):
        params, x, y = self.random_instance(7)
        w1_before = params.w1.copy()
        oracle.sgd_train(params, x, y, [np.random.default_rng(0)], 0.1, 5, 4,
                         rep_scale=0.0)
        np.testing.assert_array_equal(params.w1, w1_before)


def reference_grads(params, x, y):
    """One run's loss gradients on one batch, with 2-D weights; the kernel
    the trainer ran before runs were stacked."""
    m = x.shape[0]
    h = x @ params.w1 + params.b1
    logits = h @ params.w2 + params.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    g = exp / denom
    g[np.arange(m), y] -= 1.0
    g /= m
    dh = g @ params.w2.T
    return oracle.ModelParams(w1=x.T @ dh, b1=dh.sum(axis=0),
                              w2=h.T @ g, b2=g.sum(axis=0))


def reference_sgd_train(params, x, y, rng, learn_rate, epochs, batch, rep_scale):
    """One run trained alone, in place: the trainer's loop before runs were
    stacked."""
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            g = reference_grads(params, x[idx], y[idx])
            params.w1 -= learn_rate * rep_scale * g.w1
            params.b1 -= learn_rate * rep_scale * g.b1
            params.w2 -= learn_rate * g.w2
            params.b2 -= learn_rate * g.b2
    return params


class TestStackedTrainer:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 89), d=st.integers(1, 19), hidden=st.integers(1, 9),
           classes=st.integers(1, 7), batch=st.integers(1, 39),
           epochs=st.integers(0, 3), learn_rate=st.sampled_from([0.1, 0.05, 0.3]),
           rep_scales=st.lists(st.one_of(st.sampled_from([1.0, 0.1, 0.0, 0.37]),
                                         st.floats(0.0, 2.0)),
                               min_size=1, max_size=13),
           seed=st.integers(0, 2**32 - 1))
    @example(n=10, d=3, hidden=2, classes=3, batch=4, epochs=2, learn_rate=0.1,
             rep_scales=[1.0, 0.1, 0.1], seed=1)  # a short last batch
    def test_stacked_runs_match_runs_alone_bit_for_bit(
            self, n, d, hidden, classes, batch, epochs, learn_rate, rep_scales, seed):
        """Every weight of every run, trained in lockstep on one split, has the
        float64 bits of the same run trained alone from the same stream."""
        data_rng = np.random.default_rng(seed)
        x = data_rng.normal(0.0, 2.0, (n, d))
        y = data_rng.integers(0, classes, n)

        def stream(r):
            return np.random.default_rng([seed, r])

        rngs = [stream(r) for r in range(len(rep_scales))]
        starts = [oracle.init_params(rng, d, hidden, classes) for rng in rngs]
        stacked = oracle.sgd_train(oracle.ModelParams.concat(starts), x, y, rngs,
                                   learn_rate, epochs, batch, rep_scales)
        for r, rep_scale in enumerate(rep_scales):
            rng = stream(r)
            start = oracle.init_params(rng, d, hidden, classes)
            alone = oracle.ModelParams(w1=start.w1[0], b1=start.b1[0],
                                       w2=start.w2[0], b2=start.b2[0])
            reference_sgd_train(alone, x, y, rng, learn_rate, epochs, batch, rep_scale)
            for field in ("w1", "b1", "w2", "b2"):
                got = getattr(stacked, field)[r]
                want = getattr(alone, field)
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (field, r)

    @settings(max_examples=150, deadline=None)
    @given(runs=st.lists(st.tuples(st.one_of(st.integers(1, 89), st.sampled_from([5, 32])),
                                   st.sampled_from([1.0, 0.1, 0.0, 0.37])),
                         min_size=1, max_size=9),
           d=st.integers(1, 19), hidden=st.integers(1, 9), classes=st.integers(1, 7),
           batch=st.integers(1, 39), epochs=st.integers(0, 3),
           learn_rate=st.sampled_from([0.1, 0.05, 0.3]), seed=st.integers(0, 2**32 - 1))
    # below the batch, a whole number of batches, equal lengths, a short last batch
    @example(runs=[(5, 1.0), (64, 0.1), (5, 0.1), (70, 1.0), (1, 0.37)], d=3, hidden=2,
             classes=3, batch=32, epochs=3, learn_rate=0.1, seed=2)
    @example(runs=[(8, 1.0), (8, 0.1)], d=1, hidden=3, classes=2, batch=3, epochs=2,
             learn_rate=0.3, seed=5)
    def test_runs_on_their_own_rows_match_runs_alone_bit_for_bit(
            self, runs, d, hidden, classes, batch, epochs, learn_rate, seed):
        """Runs of different row counts, each on its own rows of one stacked
        split, train in one call; every weight has the float64 bits of the same
        run trained alone on its rows from the same stream."""
        sizes = [n for n, _ in runs]
        rep_scales = [s for _, s in runs]
        data_rng = np.random.default_rng(seed)
        x = data_rng.normal(0.0, 2.0, (sum(sizes), d))
        y = data_rng.integers(0, classes, sum(sizes))
        ends = np.cumsum(sizes)
        rows = [range(end - n, end) for n, end in zip(sizes, ends)]

        def stream(r):
            return np.random.default_rng([seed, r])

        rngs = [stream(r) for r in range(len(runs))]
        starts = [oracle.init_params(rng, d, hidden, classes) for rng in rngs]
        stacked = oracle.sgd_train(oracle.ModelParams.concat(starts), x, y, rngs,
                                   learn_rate, epochs, batch, rep_scales, rows=rows)
        for r, (run_rows, rep_scale) in enumerate(zip(rows, rep_scales)):
            rng = stream(r)
            start = oracle.init_params(rng, d, hidden, classes)
            alone = oracle.ModelParams(w1=start.w1[0], b1=start.b1[0],
                                       w2=start.w2[0], b2=start.b2[0])
            reference_sgd_train(alone, x[run_rows.start:run_rows.stop],
                                y[run_rows.start:run_rows.stop], rng, learn_rate,
                                epochs, batch, rep_scale)
            for field in ("w1", "b1", "w2", "b2"):
                got = getattr(stacked, field)[r]
                want = getattr(alone, field)
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (field, r)

    def test_one_rep_scale_serves_every_run(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, (10, 4))
        y = rng.integers(0, 3, 10)
        starts = [oracle.init_params(np.random.default_rng(r), 4, 5, 3) for r in range(3)]

        def train(rep_scale):
            return oracle.sgd_train(oracle.ModelParams.concat(starts), x, y,
                                    [np.random.default_rng(9 + r) for r in range(3)],
                                    0.1, 2, 4, rep_scale)

        one, each = train(0.1), train([0.1, 0.1, 0.1])
        for field in ("w1", "b1", "w2", "b2"):
            assert getattr(one, field).tobytes() == getattr(each, field).tobytes()


class TestTransferRuns:
    def test_deterministic(self):
        world = oracle.generate_world(3, two_cluster_spec())
        cfg = oracle.OracleConfig(epochs=5)
        a = oracle.train_transfer(world, "aaa", "bbb", cfg)
        b = oracle.train_transfer(world, "aaa", "bbb", cfg)
        assert a == b
        s1 = oracle.train_transfer(world, None, "bbb", cfg)
        s2 = oracle.train_transfer(world, None, "bbb", cfg)
        assert s1 == s2

    def test_learn_rate_is_a_constant(self):
        assert oracle.LEARN_RATE == 0.1
        with pytest.raises(TypeError):
            oracle.OracleConfig(learn_rate=0.1)

    def test_self_transfer_usually_helps(self):
        cfg = oracle.OracleConfig(epochs=30)
        wins = 0
        for seed in range(1, 6):
            world = oracle.generate_world(seed, two_cluster_spec(n_items=1600))
            transfer = oracle.train_transfer(world, "aaa", "aaa", cfg)
            scratch = oracle.train_transfer(world, None, "aaa", cfg)
            wins += transfer >= scratch
        assert wins >= 4

    def test_full_rate_finetune_of_untrained_model_like_scratch(self, monkeypatch):
        # Fine-tuning an untrained source model with the representation layer at
        # the full learn rate is training from scratch from another start.
        monkeypatch.setattr(oracle, "FINETUNE_MULTIPLIER", 1.0)
        cfg = oracle.OracleConfig(epochs=10)
        gaps = []
        for seed in range(1, 6):
            world = oracle.generate_world(seed, two_cluster_spec(n_items=1600))
            untrained = oracle.init_params(
                oracle._stream(seed, "source", "bbb"), world.spec.feature_dim,
                oracle.HIDDEN_DIM, world.domain("bbb").spec.n_classes)
            transfer = oracle._fit_target(world, "aaa", [("bbb", untrained)], cfg)[0]
            scratch = oracle.train_transfer(world, None, "aaa", cfg)
            gaps.append(abs(transfer - scratch))
        assert float(np.mean(gaps)) < 0.05

    def test_ground_truth_bookkeeping(self):
        world = oracle.generate_world(2, two_cluster_spec(n_items=400))
        cfg = oracle.OracleConfig(epochs=4)
        records = oracle.ground_truth(world, cfg)
        assert len(records) == 4  # 2 sources x 2 targets
        scratch = {}
        for r in records:
            assert r.improvement == r.perf_transfer - r.perf_scratch
            scratch.setdefault(r.target_name, r.perf_scratch)
            assert scratch[r.target_name] == r.perf_scratch
            assert r.perf_transfer == oracle.train_transfer(
                world, r.source_name, r.target_name, cfg)
            assert r.perf_scratch == oracle.train_transfer(
                world, None, r.target_name, cfg)

    def test_monotone_size_effect(self):
        # same distribution, growing size; median transfer accuracy over five
        # seeds must not decrease
        rng = np.random.default_rng(42)
        centroids = rng.normal(0.0, 1.0, (5, 8))
        sizes = (160, 1600, 16000)
        cfg = oracle.OracleConfig(epochs=10)
        perfs = {n: [] for n in sizes}
        for seed in range(1, 6):
            domains = [oracle.DomainSpec(f"src{n}", n, centroids) for n in sizes]
            domains.append(oracle.DomainSpec("tgt", 2000, centroids))
            spec = oracle.WorldSpec(domains=tuple(domains), n_sources=3)
            world = oracle.generate_world(seed, spec)
            for n in sizes:
                perfs[n].append(oracle.train_transfer(world, f"src{n}", "tgt", cfg))
        medians = [float(np.median(perfs[n])) for n in sizes]
        assert medians[0] <= medians[1] + 1e-12
        assert medians[1] <= medians[2] + 1e-12


class TestStudies:
    def test_run_study_shapes_and_consistency(self):
        cfg = oracle.OracleConfig()
        world = oracle.default_world(1, cfg, n_sources=4, n_targets=4)
        records = oracle.ground_truth(world, cfg)
        est = EstimatorConfig(distance="KL", k=-1.0)
        study = oracle.run_study(world, cfg, est, records=records)
        targets = world.target_names()
        assert set(study.per_target_rho) == set(targets)
        assert set(study.selections) == {"P2L", "B1", "B4", "B5"}
        for t in targets:
            assert study.selections["B4"][t] is None
            assert study.picks["P2L"][t] >= 1
        assert study.mean_picks["P2L"] == pytest.approx(
            float(np.mean(list(study.picks["P2L"].values()))))
        # gains for B4 reproduce the no-transfer formula
        perf = {(r.target_name, r.source_name): r.perf_transfer for r in records}
        scratch = {r.target_name: r.perf_scratch for r in records}
        for t in targets:
            ours = perf[(t, study.selections["P2L"][t])]
            assert study.outcomes[t]["B4"].gain_vs_p2l == pytest.approx(
                (ours - scratch[t]) / scratch[t])

    def test_study_report_stores_only_what_the_study_measures(self):
        assert [f.name for f in dataclasses.fields(oracle.StudyReport)] == [
            "seed", "estimator", "records", "per_target_rho", "outcomes"]

    def test_study_report_derives_its_method_tables(self):
        def outcomes(p2l, b1, b4, b5):  # (selection, perf, picks_to_best) each
            return {m: MethodOutcome(m, sel, perf, (p2l[1] - perf) / perf, pick)
                    for m, (sel, perf, pick) in zip(("P2L", "B1", "B4", "B5"),
                                                    (p2l, b1, b4, b5))}
        study = oracle.StudyReport(
            seed=1, estimator=EstimatorConfig(), records=[],
            per_target_rho={"t1": 0.5, "t2": -0.25},
            outcomes={"t1": outcomes(("a", 0.75, 1), ("b", 0.5, 2), (None, 0.25, None),
                                     ("a", 0.75, 1)),
                      "t2": outcomes(("c", 0.5, 2), ("b", 1.0, 1), (None, 0.25, None),
                                     ("b", 1.0, 1))})
        assert study.mean_rho == 0.125
        assert study.selections == {"P2L": {"t1": "a", "t2": "c"},
                                    "B1": {"t1": "b", "t2": "b"},
                                    "B4": {"t1": None, "t2": None},
                                    "B5": {"t1": "a", "t2": "b"}}
        assert list(study.selections) == ["P2L", "B1", "B4", "B5"]
        assert study.mean_accuracy == {"P2L": 0.625, "B1": 0.75, "B4": 0.25, "B5": 0.875}
        assert study.picks == {"P2L": {"t1": 1, "t2": 2}, "B1": {"t1": 2, "t2": 1},
                               "B5": {"t1": 1, "t2": 1}}
        assert study.hit_rate == {"P2L": 0.5, "B1": 0.5, "B5": 1.0}
        assert study.mean_picks == {"P2L": 1.5, "B1": 1.5, "B5": 1.0}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k_zero_grid_cell_is_the_size_only_study(self, seed):
        # scripts/run_oracle_study.py reads its size-only rho off this cell.
        cfg = oracle.OracleConfig(epochs=2)
        world = oracle.default_world(seed, cfg, n_sources=4, n_targets=4)
        records = oracle.ground_truth(world, cfg)
        report = tune_k(*oracle.calibration_tasks(world, records))
        cells = [g for g in report.grid if g.k == 0.0]
        assert [g.distance for g in cells] == list(DivergenceKind)
        for cell in cells:
            study = oracle.run_study(world, cfg,
                                     EstimatorConfig(distance=cell.distance, k=0.0), records)
            assert ({t: rho.hex() for t, rho in cell.task_rho.items()}
                    == {t: rho.hex() for t, rho in study.per_target_rho.items()})
            assert cell.mean_rho.hex() == study.mean_rho.hex()

    def test_run_study_refuses_records_of_other_targets(self, monkeypatch):
        # A 3x2 world's targets are dom03 and dom04; the study scores nothing
        # unless its records cover exactly those.
        cfg = oracle.OracleConfig(epochs=1)
        world = oracle.default_world(1, cfg, n_sources=3, n_targets=2)
        records = oracle.ground_truth(world, cfg)
        monkeypatch.setattr(oracle, "compare_methods", self.no_scoring)
        est = EstimatorConfig()
        with pytest.raises(BadSpec, match="no run onto target 'dom03'"):
            oracle.run_study(world, cfg, est,
                             [r for r in records if r.target_name != "dom03"])
        ghosts = [ImprovementRecord("ghost", s, 0.5, 0.4)
                  for s in world.source_names()]
        with pytest.raises(UnknownName, match="'ghost', which is not a target"):
            oracle.run_study(world, cfg, est, records + ghosts)
        with pytest.raises(UnknownName, match="'dom00', which is not a target"):
            oracle.run_study(world, cfg, est,
                             [r for r in records if r.target_name != "dom04"]
                             + [ImprovementRecord("dom00", "dom01", 0.5, 0.4)])

    @staticmethod
    def no_scoring(*args, **kwargs):
        raise AssertionError("run_study scored records it then refused")

    @staticmethod
    def no_profiles(*args, **kwargs):
        raise AssertionError("profiles were built for records that are then refused")

    @pytest.mark.parametrize("drop, extra, error, message", [
        ("dom03", [], BadSpec, "the records hold no run onto target 'dom03'"),
        (None, [("ghost", "dom00")], UnknownName,
         "records name 'ghost', which is not a target of the world"),
        ("dom04", [("dom00", "dom01")], UnknownName,
         "records name 'dom00', which is not a target of the world"),
    ], ids=["missing", "foreign", "foreign-and-missing"])
    def test_calibration_tasks_refuses_as_run_study_does(self, monkeypatch, drop,
                                                         extra, error, message):
        # Calibration tunes on exactly the tasks the study scores, so both
        # refuse the same records, and before any profile is built.
        cfg = oracle.OracleConfig(epochs=1)
        world = oracle.default_world(1, cfg, n_sources=3, n_targets=2)
        records = [r for r in oracle.ground_truth(world, cfg) if r.target_name != drop]
        records += [ImprovementRecord(t, s, 0.5, 0.4) for t, s in extra]
        monkeypatch.setattr(oracle, "build_profiles", self.no_profiles)
        with pytest.raises(error) as refused:
            oracle.calibration_tasks(world, records)
        assert str(refused.value) == message
        with pytest.raises(error) as study_refused:
            oracle.run_study(world, cfg, EstimatorConfig(), records)
        assert str(study_refused.value) == message

    def test_calibration_tasks_are_every_target_in_world_order(self):
        cfg = oracle.OracleConfig(epochs=1)
        world = oracle.default_world(1, cfg, n_sources=3, n_targets=2)
        records = oracle.ground_truth(world, cfg)
        tasks, sources = oracle.calibration_tasks(world, records[::-1])
        assert [t.name for t, _ in tasks] == world.target_names() == ["dom03", "dom04"]
        assert [p.name for p in sources] == world.source_names()
        for target, recs in tasks:
            assert recs == [r for r in records[::-1] if r.target_name == target.name]

    def test_profiles_are_built_once_per_world(self, monkeypatch):
        built = []
        profile_from_matrix = oracle.profile_from_matrix
        monkeypatch.setattr(oracle, "profile_from_matrix",
                            lambda name, *a, **kw: built.append(name)
                            or profile_from_matrix(name, *a, **kw))
        world = oracle.default_world(1, n_sources=3, n_targets=2)
        sources, targets = oracle.build_profiles(world)
        assert built == ["dom00", "dom01", "dom02"] + [d.spec.name for d in world.domains]
        sources.append(sources[0])
        targets.clear()
        again, targets = oracle.build_profiles(world)
        assert len(built) == 8
        assert [p.name for p in again] == ["dom00", "dom01", "dom02"]
        assert list(targets) == [d.spec.name for d in world.domains]

    def test_profiles_keep_the_extractors_arrays_uncopied(self, monkeypatch):
        extracted, matrices = [], []
        extract = oracle.ReferenceExtractor.__call__
        profile_from_matrix = oracle.profile_from_matrix
        monkeypatch.setattr(oracle.ReferenceExtractor, "__call__",
                            lambda self, x: extracted.append(extract(self, x)) or extracted[-1])
        monkeypatch.setattr(oracle, "profile_from_matrix",
                            lambda name, matrix, *a, **kw: matrices.append(matrix)
                            or profile_from_matrix(name, matrix, *a, **kw))
        oracle.build_profiles(oracle.default_world(1, n_sources=3, n_targets=2))
        assert len(matrices) == len(extracted) == 8
        for matrix, values in zip(matrices, extracted):
            assert np.shares_memory(matrix.values, values)

    def test_equal_sizes_shared_anchor_source_wins_selection(self):
        # one source shares the target's centroids; sizes equal, so both the
        # estimator and the least-divergent baseline should pick it
        rng = np.random.default_rng(5)
        anchors = rng.normal(0.0, 1.5, (3, 8))
        far1 = anchors + 8.0
        far2 = anchors - 8.0
        domains = (
            oracle.DomainSpec("twin", 400, anchors),
            oracle.DomainSpec("far1", 400, far1),
            oracle.DomainSpec("far2", 400, far2),
            oracle.DomainSpec("tgt", 400, anchors),
        )
        spec = oracle.WorldSpec(domains=domains, n_sources=3)
        est = EstimatorConfig(distance="KL", k=-1.0)
        for seed in (1, 2, 3):
            world = oracle.generate_world(seed, spec)
            sources, targets = oracle.build_profiles(world)
            from p2l.estimator import baseline_ranking, score_sources
            tgt = targets["tgt"]
            assert score_sources(tgt, sources, est)[0].source_name == "twin"
            assert baseline_ranking("B5", tgt, sources, est)[0] == "twin"

    def test_merged_study_profile_delegation_and_order(self):
        cfg = oracle.OracleConfig()
        world = oracle.default_world(2, cfg, n_sources=4, n_targets=4)
        report = oracle.merged_source_study(world, cfg)
        sources, _ = oracle.build_profiles(world)
        expected = merge_profiles(sources, "merged")
        np.testing.assert_array_equal(report.merged_profile.summary.values,
                                      expected.summary.values)
        assert report.merged_profile.size == expected.size
        divs = [o.divergence_from_reference for o in report.outcomes]
        assert divs == sorted(divs)
        assert len(report.outcomes) == len(world.domains)
        ref_sizes = {n: world.domain(n).source_train.items
                     for n in world.source_names()}
        assert ref_sizes[report.reference_name] == max(ref_sizes.values())

    def test_merged_study_takes_no_reference(self):
        world = oracle.default_world(1, n_sources=3, n_targets=2)
        with pytest.raises(TypeError):
            oracle.merged_source_study(world, oracle.OracleConfig(), reference_name="dom01")

    @pytest.mark.parametrize("seed", [1, 2])
    def test_merged_study_reference_runs_like_train_transfer(self, seed):
        # The merged model trains beside the reference in lockstep; the
        # reference's accuracy must be what it gets when trained alone.
        cfg = oracle.OracleConfig()
        world = oracle.default_world(seed, cfg, n_sources=4, n_targets=4)
        report = oracle.merged_source_study(world, cfg)
        for o in report.outcomes:
            assert o.perf_reference == oracle.train_transfer(
                world, report.reference_name, o.target_name, cfg)

    def test_study_report_files(self, tmp_path):
        cfg = oracle.OracleConfig()
        world = oracle.default_world(1, cfg, n_sources=4, n_targets=4)
        records = oracle.ground_truth(world, cfg)
        est = EstimatorConfig(distance="KL", k=-1.0)
        study = oracle.run_study(world, cfg, est, records=records)
        oracle.write_study_files(study, tmp_path)
        for name in ("ground_truth.csv", "per_target.csv", "selections.csv",
                     "methods.csv", "summary.txt"):
            assert (tmp_path / name).exists()
        header = (tmp_path / "ground_truth.csv").read_text().splitlines()[0]
        assert header == "target,source,perf_transfer,perf_scratch"


def run_with_workers(monkeypatch, workers, fn, *args):
    """fn(*args) with the oracle's task maps on the given worker count."""
    with monkeypatch.context() as m:
        m.setattr(fork, "worker_count", lambda: workers)
        return fn(*args)


def assert_no_children():
    """Every child process has exited and been reaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTaskMap:
    def test_forked_workers_run_the_tasks_and_keep_task_order(self, monkeypatch):
        parent = os.getpid()
        tasks = [3, 9, 1, 7, 5]
        # The lambda closes over a local: it reaches the workers through fork.
        results = run_with_workers(monkeypatch, 2, fork.fork_map,
                                   lambda t: (t, os.getpid()), tasks, lambda t: t)
        assert [t for t, _ in results] == tasks
        assert parent not in {pid for _, pid in results}
        results = run_with_workers(monkeypatch, 1, fork.fork_map,
                                   lambda t: (t, os.getpid()), tasks, lambda t: t)
        assert results == [(t, parent) for t in tasks]
        assert_no_children()

    def test_worker_count_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert fork.worker_count() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert fork.worker_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert fork.worker_count() == 1

    def test_worker_count_is_one_beside_another_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert fork.worker_count() == 1
        finally:
            release.set()
            thread.join()
        assert fork.worker_count() == 3


def record_bits(records):
    return [(r.target_name, r.source_name, r.perf_transfer.hex(), r.perf_scratch.hex())
            for r in records]


def pool_trained_alone(world, cfg, names, tags):
    """A pool's model trained on its own by the reference loop: the union of
    its sources' splits, labels offset per domain, on the stream tags."""
    x = np.concatenate([world.domain(n).source_train.x for n in names])
    offsets = np.cumsum([0] + [world.domain(n).spec.n_classes for n in names])
    y = np.concatenate([world.domain(n).source_train.y + o
                        for n, o in zip(names, offsets)])
    rng = oracle._stream(world.seed, *tags)
    start = oracle.init_params(rng, world.spec.feature_dim, oracle.HIDDEN_DIM,
                               int(offsets[-1]))
    alone = oracle.ModelParams(w1=start.w1[0], b1=start.b1[0],
                               w2=start.w2[0], b2=start.b2[0])
    return reference_sgd_train(alone, x, y, rng, oracle.LEARN_RATE, cfg.epochs,
                               cfg.batch, 1.0)


class TestSourceModels:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pools_of_mixed_class_counts_match_pools_alone(self, monkeypatch, workers):
        cfg = oracle.OracleConfig(epochs=3)
        world = oracle.default_world(2, cfg, n_sources=4, n_targets=3)
        sources = world.source_names()
        assert [world.domain(n).spec.n_classes for n in sources] == [5, 8, 5, 8]
        pools = [((n,), ("source", n)) for n in sources]
        pools += [
            (sources, ("pooled", "merged")),               # the merged study's pool
            ((sources[0],), ("replicate", sources[0], 1)),  # rows equal to dom00's
            (sources[:2], ("pooled", "front")),             # 13 classes, like ...
            (sources[2:], ("pooled", "back")),              # ... this one
        ]
        models = run_with_workers(monkeypatch, workers, oracle._train_models,
                                  world, cfg, pools)
        assert len(models) == len(pools)
        for (names, tags), model in zip(pools, models):
            alone = pool_trained_alone(world, cfg, names, tags)
            for field in ("w1", "b1", "w2", "b2"):
                got = getattr(model, field)
                assert got.shape[0] == 1
                assert got[0].tobytes() == getattr(alone, field).tobytes(), (tags, field)
        assert_no_children()

    @pytest.mark.parametrize("workers", [2, 1])
    def test_a_failed_source_task_reraises_and_leaves_no_process(self, monkeypatch,
                                                                 workers):
        world = oracle.default_world(1, n_sources=3, n_targets=4)
        # two class counts, so two source tasks and, on two workers, a pool
        assert {world.domain(n).spec.n_classes for n in world.source_names()} == {7, 8}
        bad = world.source_names()[1]
        stream = oracle._stream

        def failing(seed, *tags):
            if tags == ("source", bad):
                raise BadSpec(f"cannot train {bad}")
            return stream(seed, *tags)

        monkeypatch.setattr(oracle, "_stream", failing)
        with pytest.raises(BadSpec, match=f"^cannot train {bad}$"):
            run_with_workers(monkeypatch, workers, oracle.ground_truth, world,
                             oracle.OracleConfig(epochs=2))
        assert_no_children()


class TestParallelGroundTruth:
    @pytest.mark.parametrize("world", [
        lambda: oracle.default_world(1, n_sources=5, n_targets=4),
        lambda: oracle.default_world(3, n_sources=2, n_targets=7),
        lambda: oracle.default_world(4, n_sources=6, n_targets=1),
        lambda: oracle.generate_world(2, two_cluster_spec(n_items=400)),  # sources only
    ], ids=["5x4", "2x7", "6x1", "source-only"])
    @pytest.mark.parametrize("workers", [2, 8])
    def test_forked_equals_in_process_bit_for_bit(self, monkeypatch, world, workers):
        world, cfg = world(), oracle.OracleConfig(epochs=3)
        forked = run_with_workers(monkeypatch, workers, oracle.ground_truth, world, cfg)
        alone = run_with_workers(monkeypatch, 1, oracle.ground_truth, world, cfg)
        assert record_bits(forked) == record_bits(alone)
        assert len(forked) == len(world.source_names()) * len(world.target_names())
        assert_no_children()

    def test_merged_study_forked_equals_in_process(self, monkeypatch):
        cfg = oracle.OracleConfig(epochs=3)
        world = oracle.default_world(2, cfg, n_sources=4, n_targets=3)
        forked, alone = (run_with_workers(monkeypatch, w, oracle.merged_source_study,
                                          world, cfg) for w in (2, 1))
        assert ([(o.target_name, o.perf_reference.hex(), o.perf_merged.hex())
                 for o in forked.outcomes]
                == [(o.target_name, o.perf_reference.hex(), o.perf_merged.hex())
                    for o in alone.outcomes])
        assert_no_children()

    def test_every_fork_cost_is_positive_at_zero_epochs(self, monkeypatch):
        """Costs of 0 would deal every task to the first share and fork
        workers with nothing to do."""
        costs = []

        def spy(fn, tasks, cost):
            costs.extend(cost(task) for task in tasks)
            return [fn(task) for task in tasks]

        monkeypatch.setattr(oracle, "fork_map", spy)
        world = oracle.default_world(1, n_sources=5, n_targets=4)
        oracle.ground_truth(world, oracle.OracleConfig(epochs=0))
        assert len(costs) == 2 + 4  # two class counts among the sources, four targets
        assert all(cost > 0 for cost in costs), costs

    @pytest.mark.parametrize("workers", [2, 1])
    def test_a_failed_task_reraises_and_leaves_no_process(self, monkeypatch, workers):
        world = oracle.default_world(1, n_sources=3, n_targets=4)
        bad = world.target_names()[1]
        fit = oracle._fit_target

        def failing(world, target, sources, cfg):
            if target == bad:
                raise BadSpec(f"cannot fit {target}")
            return fit(world, target, sources, cfg)

        monkeypatch.setattr(oracle, "_fit_target", failing)
        with pytest.raises(BadSpec, match=f"^cannot fit {bad}$"):
            run_with_workers(monkeypatch, workers, oracle.ground_truth, world,
                             oracle.OracleConfig(epochs=2))
        assert_no_children()
