import codecs
import csv
import errno
import hashlib
import inspect
import io as stdlib_io
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import p2l
from p2l import oracle
from p2l.calibrate import tune_k
from p2l.cli import MAX_GRID_POINTS, build_parser, main
from p2l.core import EmbeddingMatrix, Shelf
from p2l.io import CACHE_NAME, ProfileRegistry, _write_summary_cache, fmt, \
    write_embeddings_bin, write_embeddings_csv, write_improvements_csv
from p2l.core import ImprovementRecord


def run(capsys, *argv):
    capsys.readouterr()  # drop output buffered by setup helpers
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_embeddings(path, rows, extractor="ext"):
    write_embeddings_csv(path, EmbeddingMatrix(np.asarray(rows, dtype=float),
                                               extractor))


def parse_csv(text):
    return list(csv.reader(stdlib_io.StringIO(text)))


@pytest.fixture
def registry_dir(tmp_path):
    return str(tmp_path / "registry")


class TestProfileCommand:
    def test_profile_csv_input(self, capsys, tmp_path, registry_dir):
        emb = tmp_path / "a.csv"
        write_embeddings(emb, [[1.0, 2.0], [3.0, 4.0]])
        code, out, _ = run(capsys, "profile", "--input", str(emb), "--name", "alpha",
                           "--registry", registry_dir)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["dim", "size", "extractor_id"]
        assert rows[1] == ["2", "2", "ext"]
        assert "alpha" in ProfileRegistry.open(registry_dir).names()

    def test_profile_binary_input_and_explicit_size(self, capsys, tmp_path,
                                                    registry_dir):
        emb = tmp_path / "a.p2le"
        write_embeddings_bin(emb, EmbeddingMatrix(np.ones((4, 3)), "ext"))
        code, out, _ = run(capsys, "profile", "--input", str(emb), "--name", "bin",
                           "--size", "999", "--registry", registry_dir)
        assert code == 0
        assert ProfileRegistry.open(registry_dir).load("bin").size == 999

    def test_size_auto_uses_row_count(self, capsys, tmp_path, registry_dir):
        emb = tmp_path / "many.csv"
        write_embeddings(emb, np.ones((100, 2)))
        code, out, _ = run(capsys, "profile", "--input", str(emb), "--name", "m",
                           "--registry", registry_dir)
        assert code == 0
        assert ProfileRegistry.open(registry_dir).load("m").size == 100

    def test_collision_exits_3_and_preserves(self, capsys, tmp_path, registry_dir):
        emb = tmp_path / "a.csv"
        write_embeddings(emb, [[1.0, 2.0]])
        assert run(capsys, "profile", "--input", str(emb), "--name", "dup",
                   "--registry", registry_dir)[0] == 0
        before = ProfileRegistry.open(registry_dir).load("dup").summary.values.copy()
        emb2 = tmp_path / "b.csv"
        write_embeddings(emb2, [[9.0, 1.0]])
        code, _, err = run(capsys, "profile", "--input", str(emb2), "--name", "dup",
                           "--registry", registry_dir)
        assert code == 3
        np.testing.assert_array_equal(
            ProfileRegistry.open(registry_dir).load("dup").summary.values, before)
        code, _, _ = run(capsys, "profile", "--input", str(emb2), "--name", "dup",
                         "--registry", registry_dir, "--force")
        assert code == 0

    def test_name_ending_in_a_newline_exits_2_and_writes_nothing(self, capsys, tmp_path,
                                                                 registry_dir):
        emb = tmp_path / "a.csv"
        write_embeddings(emb, [[1.0, 2.0]])
        code, out, err = run(capsys, "profile", "--input", str(emb), "--name", "ab\n",
                             "--registry", registry_dir)
        assert (code, out) == (2, "")
        assert err == "p2l: error: profile name 'ab\\n' is not filesystem-safe\n"
        assert not Path(registry_dir).exists()

    @pytest.mark.parametrize("form,data", [
        ("csv", b"# p2l-embeddings v1 dim=2 extractor=a,b\n1,2\n3,4\n"),
        ("bin", struct.pack("<4sIIQB", b"P2LE", 1, 1, 1, 3) + b"q\nz"
         + struct.pack("<f", 1.0)),
    ], ids=["csv", "bin"])
    def test_extractor_id_the_row_cannot_carry_exits_2(self, capsys, tmp_path,
                                                        registry_dir, form, data):
        emb = tmp_path / f"emb.{form}"
        emb.write_bytes(data)
        code, out, err = run(capsys, "profile", "--input", str(emb), "--name", "x",
                             "--registry", registry_dir)
        assert (code, out) == (2, "")
        assert err.startswith("p2l: error: extractor id") and err.count("\n") == 1
        assert ProfileRegistry.open(registry_dir).names() == []

    @pytest.mark.parametrize("form,extractor", [("bin", "resnet 5"), ("csv", "é")])
    def test_printable_extractor_id_is_printed(self, capsys, tmp_path, registry_dir,
                                               form, extractor):
        emb = tmp_path / f"emb.{form}"
        matrix = EmbeddingMatrix(np.ones((2, 3)), extractor)
        (write_embeddings_bin if form == "bin" else write_embeddings_csv)(emb, matrix)
        code, out, _ = run(capsys, "profile", "--input", str(emb), "--name", "x",
                           "--registry", registry_dir)
        assert code == 0
        assert parse_csv(out) == [["dim", "size", "extractor_id"], ["3", "2", extractor]]

    def test_stdout_is_utf8_under_any_locale(self, tmp_path):
        """profile prints a non-ASCII extractor id as UTF-8 in a process whose
        locale encoding is not UTF-8."""
        src = str(Path(p2l.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONIOENCODING="", PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))

        def child(*args):
            return subprocess.run([sys.executable, *args], env=env,
                                  capture_output=True, timeout=60)

        encoding = child("-c", "import locale; print(locale.getpreferredencoding(False))")
        if codecs.lookup(encoding.stdout.decode("ascii").strip()).name == "utf-8":
            pytest.skip("the C locale's preferred encoding is UTF-8 here")
        emb = tmp_path / "emb.csv"
        write_embeddings(emb, np.ones((2, 2)), extractor="é")
        registry = tmp_path / "registry"
        result = child("-m", "p2l.cli", "profile", "--input", str(emb), "--name", "x",
                       "--registry", str(registry))
        assert result.returncode == 0, result.stderr.decode(errors="replace")
        assert result.stdout == "dim,size,extractor_id\n2,2,é\n".encode("utf-8")
        assert ProfileRegistry.open(registry).load("x").extractor_id == "é"

    def test_malformed_input_exits_2(self, capsys, tmp_path, registry_dir):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a header\n1,2\n")
        code, _, err = run(capsys, "profile", "--input", str(bad), "--name", "x",
                           "--registry", registry_dir)
        assert code == 2
        assert "error" in err


def oracle_registry(registry_dir, seed, sources, targets):
    """Save a default world's source and target profiles; return the world."""
    world = oracle.default_world(seed, oracle.OracleConfig(), n_sources=sources,
                                 n_targets=targets)
    source_profiles, target_profiles = oracle.build_profiles(world)
    registry = ProfileRegistry.open(registry_dir)
    for profile in source_profiles:
        registry.save(profile)
    for name in world.target_names():
        registry.save(target_profiles[name])
    return world


def seed_registry(tmp_path, registry_dir):
    rng = np.random.default_rng(0)
    sizes = {"small_near": 10, "big_far": 100000, "mid": 500}
    base = rng.uniform(0.5, 1.0, 4)
    shifts = {"small_near": 0.02, "big_far": 2.0, "mid": 0.5}
    for name, size in sizes.items():
        emb = tmp_path / f"{name}.csv"
        rows = np.tile(base + shifts[name], (4, 1))
        write_embeddings(emb, rows)
        assert main(["profile", "--input", str(emb), "--name", name,
                     "--size", str(size), "--registry", registry_dir]) == 0
    target = tmp_path / "target.csv"
    write_embeddings(target, np.tile(base, (4, 1)))
    return target


def seed_truth(tmp_path, registry_dir):
    """seed_registry plus a target profile 'tprof' and its truth CSV."""
    target = seed_registry(tmp_path, registry_dir)
    assert main(["profile", "--input", str(target), "--name", "tprof",
                 "--role", "target", "--registry", registry_dir]) == 0
    # improvements strictly increasing in size: size alone ranks perfectly
    records = [ImprovementRecord("tprof", "small_near", 0.3, 0.2),
               ImprovementRecord("tprof", "mid", 0.4, 0.2),
               ImprovementRecord("tprof", "big_far", 0.6, 0.2)]
    truth = tmp_path / "truth.csv"
    write_improvements_csv(truth, records)
    return truth


class TestRankCommand:
    def test_rank_scores_satisfy_identity(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--distance", "KL", "--k", "-1")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["name", "size", "distance", "z_log_size", "z_distance",
                           "score"]
        assert len(rows) == 4
        zl = [float(r[3]) for r in rows[1:]]
        zd = [float(r[4]) for r in rows[1:]]
        scores = [float(r[5]) for r in rows[1:]]
        for a, b, s in zip(zl, zd, scores):
            assert abs(s - (a + (-1.0) * b)) < 1e-12
        assert scores == sorted(scores, reverse=True)

    def test_registry_target_is_its_shelf_row(self, capsys, tmp_path, registry_dir,
                                              monkeypatch):
        """A --target naming a registry profile ranks as the embeddings file it
        was profiled from does, cold and warm, and its file is read only by the
        shelf's load."""
        target = seed_registry(tmp_path, registry_dir)
        assert main(["profile", "--input", str(target), "--name", "tprof",
                     "--role", "target", "--registry", registry_dir]) == 0
        argv = ["rank", "--registry", registry_dir, "--k", "-1", "--baselines",
                "--reference", "mid", "--seed", "3"]
        code, want, _ = run(capsys, *argv, "--target", str(target))
        assert code == 0 and len(want.splitlines()) == 8
        monkeypatch.setattr(ProfileRegistry, "load", lambda self, name: pytest.fail(
            f"{name} read from its file"))
        (Path(registry_dir) / CACHE_NAME).unlink()
        for _ in ("cold", "warm"):
            assert run(capsys, *argv, "--target", "tprof") == (0, want, "")

    def test_file_target_lists_the_registry_once(self, capsys, tmp_path, registry_dir,
                                                 monkeypatch):
        """With an embeddings file as --target there is no registry name to
        check, so only the shelf's load lists the profile files."""
        target = seed_registry(tmp_path, registry_dir)
        calls, names = [], ProfileRegistry.names
        monkeypatch.setattr(ProfileRegistry, "names",
                            lambda self: calls.append(1) or names(self))
        code, out, _ = run(capsys, "rank", "--registry", registry_dir, "--k", "-1",
                           "--target", str(target))
        assert code == 0 and len(out.splitlines()) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("name, code, message", [
        ("ghost", 4, "no profile named 'ghost' in {root}"),
        ("bad.name", 2, "profile name 'bad.name' is not filesystem-safe"),
    ])
    def test_registry_target_without_a_profile_is_refused_before_loading(
            self, capsys, tmp_path, registry_dir, name, code, message):
        seed_registry(tmp_path, registry_dir)
        assert run(capsys, "rank", "--registry", registry_dir, "--k", "-1",
                   "--target", name) == (
            code, "", f"p2l: error: {message.format(root=registry_dir)}\n")
        assert CACHE_NAME not in os.listdir(registry_dir)

    def test_rank_k_zero_orders_by_size(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--k", "0")
        names = [r[0] for r in parse_csv(out)[1:]]
        assert names == ["big_far", "mid", "small_near"]

    def test_rank_negative_exponent_k_in_equals_form(self, capsys, tmp_path,
                                                     registry_dir):
        # argparse takes a bare "-1e-3" for an option, so the value needs "="
        target = seed_registry(tmp_path, registry_dir)
        args = ("rank", "--target", str(target), "--registry", registry_dir)
        code, out, _ = run(capsys, *args, "--k=-1e-3")
        assert code == 0
        assert len(parse_csv(out)) == 4
        assert run(capsys, *args, "--k", "-0.001") == (0, out, "")

    def test_rank_top_limits_rows(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--k", "-1", "--top", "1")
        assert len(parse_csv(out)) == 2

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_rank_top_must_be_positive(self, capsys, tmp_path, registry_dir, top):
        target = seed_registry(tmp_path, registry_dir)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--target", str(target), "--registry", registry_dir,
                  "--k", "-1", "--top", top])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("doc", ["missing_dim", "list", "normalized_false"])
    def test_rank_malformed_profile_exits_2(self, capsys, tmp_path, registry_dir,
                                            doc):
        seed_registry(tmp_path, registry_dir)
        path = Path(registry_dir) / "mid.profile.json"
        content = json.loads(path.read_text())
        if doc == "normalized_false":
            content["normalized"] = False
        else:
            del content["dim"]
        path.write_text(json.dumps([] if doc == "list" else content))
        # EUC would rank this summary, so only the loader can refuse the flag
        code, out, err = run(capsys, "rank", "--target", "mid", "--registry",
                             registry_dir, "--k", "0", "--distance", "EUC")
        assert code == 2
        assert out == ""
        assert err.startswith("p2l: error:") and err.count("\n") == 1

    def test_rank_baselines_rows(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--k", "-1", "--baselines",
                           "--reference", "mid", "--seed", "3")
        rows = parse_csv(out)
        baseline_rows = {r[1]: r[2] for r in rows if r[0] == "baseline"}
        assert baseline_rows["B1"] == "big_far"
        assert baseline_rows["B2"] == "mid"
        assert baseline_rows["B5"] == "small_near"
        assert baseline_rows["B3"] in {"small_near", "big_far", "mid"}

    @pytest.mark.parametrize("reference", [(), ("--reference", "mid")])
    def test_rank_baselines_check_and_measure_the_candidates_once(
            self, capsys, tmp_path, registry_dir, estimator_passes, reference):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--k", "-1", "--baselines", "--seed", "1",
                           *reference)
        assert code == 0 and out.count("\nbaseline,") == 4
        assert estimator_passes == {"check_candidates": 1, "distances": 1}

    def test_rank_baselines_without_flags_empty(self, capsys, tmp_path,
                                                registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--k", "-1", "--baselines")
        rows = {r[1]: r[2] for r in parse_csv(out) if r[0] == "baseline"}
        assert rows["B2"] == "" and rows["B3"] == ""

    def test_rank_profile_name_target(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        assert main(["profile", "--input", str(target), "--name", "tprof",
                     "--role", "target", "--registry", registry_dir]) == 0
        code, out, _ = run(capsys, "rank", "--target", "tprof", "--registry",
                           registry_dir, "--k", "0")
        assert code == 0
        assert len(parse_csv(out)) == 4

    def test_rank_file_target_named_like_a_source_keeps_that_source(
            self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        twin = tmp_path / "files" / "mid.csv"
        twin.parent.mkdir()
        twin.write_bytes(target.read_bytes())
        outs = []
        for path in (target, twin):
            code, out, _ = run(capsys, "rank", "--target", str(path), "--registry",
                               registry_dir, "--k", "-1")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert sorted(r[0] for r in parse_csv(outs[1])[1:]) == \
            ["big_far", "mid", "small_near"]

    def test_rank_unknown_profile_exits_4(self, capsys, tmp_path, registry_dir):
        seed_registry(tmp_path, registry_dir)
        code, _, _ = run(capsys, "rank", "--target", "ghost", "--registry",
                         registry_dir, "--k", "0")
        assert code == 4

    def test_rank_unknown_reference_exits_4_before_output(self, capsys, tmp_path,
                                                          registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "rank", "--target", str(target), "--registry",
                           registry_dir, "--k", "-1", "--baselines",
                           "--reference", "ghost")
        assert code == 4
        assert out == ""

    def test_rank_mixed_extractors_exit_2(self, capsys, tmp_path, registry_dir):
        seed_registry(tmp_path, registry_dir)
        alien = tmp_path / "alien.csv"
        write_embeddings(alien, np.ones((2, 4)), extractor="other")
        code, out, _ = run(capsys, "rank", "--target", str(alien), "--registry",
                           registry_dir, "--k", "0")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("k", ["1e300", "-1e300"])
    def test_rank_k_whose_scores_overflow_exits_2(self, capsys, tmp_path,
                                                  registry_dir, k):
        target = seed_registry(tmp_path, registry_dir)
        code, out, err = run(capsys, "rank", "--target", str(target), "--registry",
                             registry_dir, f"--k={k}")
        assert code == 2
        assert out == ""
        assert err.startswith("p2l: error:") and err.count("\n") == 1
        assert err == ("p2l: error: |k| = 1e+300 gives scores too large to rank; "
                       "use a smaller |k|\n")


class TestSummaryCache:
    """rank reads the registry through its summary cache; no output may show it."""

    def rank(self, capsys, registry_dir, target, *extra):
        return run(capsys, "rank", "--target", str(target), "--registry", registry_dir,
                   "--k", "-1", *extra)

    def cold_rank(self, capsys, registry_dir, target, *extra):
        (Path(registry_dir) / CACHE_NAME).unlink(missing_ok=True)
        return self.rank(capsys, registry_dir, target, *extra)

    def test_cold_and_warm_rank_print_the_same(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        assert not (Path(registry_dir) / CACHE_NAME).exists()
        extra = ("--baselines", "--reference", "mid", "--seed", "3")
        cold = self.rank(capsys, registry_dir, target, *extra)
        assert (Path(registry_dir) / CACHE_NAME).exists()
        assert self.rank(capsys, registry_dir, target, *extra) == cold
        assert cold[0] == 0 and cold[1].count("\n") == 8

    def test_same_length_force_rewrite_is_ranked(self, capsys, tmp_path, registry_dir):
        # Every value is a short exact binary fraction, and the rewrite only
        # permutes them, so the profile file keeps its byte length.
        for name, row in (("a", [1.0, 3.0, 2.0, 2.0]), ("b", [2.0, 2.0, 1.0, 3.0])):
            write_embeddings(tmp_path / f"{name}.csv", [row])
            assert main(["profile", "--input", str(tmp_path / f"{name}.csv"),
                         "--name", name, "--registry", registry_dir]) == 0
        target = tmp_path / "t.csv"
        write_embeddings(target, [[1.0, 3.0, 2.0, 2.0]])
        before = self.rank(capsys, registry_dir, target)
        path = Path(registry_dir) / "a.profile.json"
        stamp = path.stat()
        write_embeddings(tmp_path / "a.csv", [[3.0, 1.0, 2.0, 2.0]])
        assert main(["profile", "--input", str(tmp_path / "a.csv"), "--name", "a",
                     "--registry", registry_dir, "--force"]) == 0
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        after = self.rank(capsys, registry_dir, target)
        assert after != before
        assert after == self.cold_rank(capsys, registry_dir, target)

    def test_deleted_profile_leaves_the_ranking(self, capsys, tmp_path, registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        assert "big_far" in self.rank(capsys, registry_dir, target)[1]
        (Path(registry_dir) / "big_far.profile.json").unlink()
        code, out, _ = self.rank(capsys, registry_dir, target)
        assert code == 0 and "big_far" not in out
        assert (code, out) == self.cold_rank(capsys, registry_dir, target)[:2]

    def test_profile_corrupted_after_caching_exits_2(self, capsys, tmp_path,
                                                     registry_dir):
        target = seed_registry(tmp_path, registry_dir)
        assert self.rank(capsys, registry_dir, target)[0] == 0
        path = Path(registry_dir) / "mid.profile.json"
        path.write_text(path.read_text()[:-10])
        code, out, err = self.rank(capsys, registry_dir, target)
        assert (code, out) == (2, "")
        assert err.startswith("p2l: error:") and err.count("\n") == 1

    def test_read_only_registry_ranks(self, capsys, tmp_path, registry_dir,
                                      monkeypatch):
        target = seed_registry(tmp_path, registry_dir)
        expected = self.cold_rank(capsys, registry_dir, target)
        (Path(registry_dir) / CACHE_NAME).unlink()
        real_open = os.open

        def read_only(path, *args, **kwargs):
            # The mode bits alone do not stop a superuser from writing.
            if str(path).startswith(registry_dir):
                raise PermissionError(errno.EROFS, "read-only file system", path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", read_only)
        os.chmod(registry_dir, 0o555)
        try:
            assert self.rank(capsys, registry_dir, target) == expected
            assert self.rank(capsys, registry_dir, target) == expected
        finally:
            os.chmod(registry_dir, 0o755)
        assert not (Path(registry_dir) / CACHE_NAME).exists()

    def test_mixed_dimensions_are_refused(self, capsys, tmp_path, registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        assert self.rank(capsys, registry_dir, tmp_path / "target.csv")[0] == 0
        write_embeddings(tmp_path / "odd.csv", np.ones((2, 3)))
        assert main(["profile", "--input", str(tmp_path / "odd.csv"), "--name", "odd",
                     "--registry", registry_dir]) == 0
        refused = (2, "", "p2l: error: profile 'odd' has dim 3, profile 'big_far' has 4; "
                          "a shelf holds one feature space\n")
        grid = tmp_path / "grid.csv"
        commands = [("rank", "--target", str(tmp_path / "target.csv"), "--k", "-1"),
                    ("rank", "--target", "tprof", "--k", "-1"),
                    ("calibrate", "--truth", str(truth), "--out", str(grid)),
                    ("evaluate", "--truth", str(truth), "--k", "-1")]
        for warm in (True, False):
            # The cache holds the four profiles of dimension 4; a refused load
            # writes none.
            assert (Path(registry_dir) / CACHE_NAME).exists() == warm
            for argv in commands:
                assert run(capsys, *argv, "--registry", registry_dir) == refused
            (Path(registry_dir) / CACHE_NAME).unlink(missing_ok=True)
        assert not grid.exists()


def cache_as_read(registry_dir, name):
    """Write the summary cache with an entry for name's profile file holding its
    fields as they are in the file, unchecked: what a loader that does not
    check their types would have cached."""
    path = Path(registry_dir) / name
    doc = json.loads(path.read_text())
    row = Shelf._unchecked(
        *([doc[key]] for key in ("name", "size", "role", "extractor_id", "summarizer")),
        np.array([doc["summary"]], dtype=np.float64),
        np.array([doc["raw_mean"]], dtype=np.float64))
    key = hashlib.sha256(path.read_bytes()).hexdigest()
    with open(Path(registry_dir) / CACHE_NAME, "wb") as fh:
        _write_summary_cache(fh, row, [(key, None)])


class TestProfileFileChecks:
    """A profile file's fields have their types, and its name is its profile's."""

    RANK = ("rank", "--k", "-1", "--baselines", "--seed", "3", "--reference", "mid")

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("field,value", [
        ("name", 7), ("summarizer", 7), ("size", True), ("extractor_id", ["ext"]),
        ("role", 7),
    ])
    def test_mistyped_field_exits_2(self, capsys, tmp_path, registry_dir, cache,
                                    field, value):
        target = seed_registry(tmp_path, registry_dir)
        path = Path(registry_dir) / "big_far.profile.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        if cache == "warm":
            cache_as_read(registry_dir, "big_far.profile.json")
        code, out, err = run(capsys, *self.RANK, "--target", str(target),
                             "--registry", registry_dir)
        assert (code, out) == (2, "")
        assert err.startswith("p2l: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("target", ["file", "renamed"])
    def test_renamed_profile_file_exits_2(self, capsys, tmp_path, registry_dir,
                                          cache, target):
        target_file = seed_registry(tmp_path, registry_dir)
        args = ("--registry", registry_dir, "--target",
                str(target_file) if target == "file" else "zzz")
        if cache == "warm":
            assert run(capsys, *self.RANK, "--registry", registry_dir, "--target",
                       str(target_file))[0] == 0
        assert (Path(registry_dir) / CACHE_NAME).exists() == (cache == "warm")
        root = Path(registry_dir)
        (root / "small_near.profile.json").rename(root / "zzz.profile.json")
        code, out, err = run(capsys, *self.RANK, *args)
        assert (code, out) == (2, "")
        assert "zzz.profile.json holds profile 'small_near'" in err


class TestCalibrateAndEvaluate:
    def test_calibrate_monotone_size_task(self, capsys, tmp_path, registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        grid_out = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "calibrate", "--truth", str(truth),
                           "--registry", registry_dir, "--out", str(grid_out))
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["k", "distance", "mean_rho"]
        best_k, kind, rho = rows[1]
        assert float(best_k) == 0.0
        assert float(rho) == 1.0
        grid_rows = parse_csv(grid_out.read_text())
        assert grid_rows[0] == ["k", "distance", "mean_rho"]
        assert len(grid_rows) == 1 + 61 * 5

    def test_calibrate_mixed_extractors_exits_2(self, capsys, tmp_path, registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        path = Path(registry_dir) / "tprof.profile.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "extractor_id": "other"}))
        grid_out = tmp_path / "grid.csv"
        code, out, err = run(capsys, "calibrate", "--truth", str(truth),
                             "--registry", registry_dir, "--out", str(grid_out))
        assert code == 2
        assert out == "" and not grid_out.exists()
        assert err.startswith("p2l: error:") and err.count("\n") == 1

    def test_calibrate_unknown_source_exits_4(self, capsys, tmp_path,
                                              registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        text = truth.read_text() + "tprof,ghost,0.5,0.2\n"
        truth.write_text(text)
        code, _, _ = run(capsys, "calibrate", "--truth", str(truth),
                         "--registry", registry_dir, "--out",
                         str(tmp_path / "g.csv"))
        assert code == 4

    def test_calibrate_and_evaluate_build_no_source_profile_from_the_shelf(
            self, capsys, tmp_path, registry_dir, monkeypatch):
        """Both read the registry's sources as shelf columns, cold and warm,
        and each truth target's profile once from its shelf row, never from
        its file again."""
        world = oracle_registry(registry_dir, 3, 4, 3)
        rng = np.random.default_rng(0)
        truth = tmp_path / "truth.csv"
        write_improvements_csv(truth, [
            ImprovementRecord(t, s, float(rng.uniform(0.3, 0.9)), 0.25)
            for t in world.target_names() for s in world.source_names()])
        built = []
        getitem = Shelf.__getitem__
        monkeypatch.setattr(Shelf, "__getitem__",
                            lambda self, i: built.append(self.names[i]) or getitem(self, i))
        monkeypatch.setattr(ProfileRegistry, "load", lambda self, name: pytest.fail(
            f"{name} read from its file"))
        for _ in ("cold", "warm"):
            assert run(capsys, "calibrate", "--truth", str(truth), "--registry",
                       registry_dir, "--out", str(tmp_path / "g.csv"))[0] == 0
            assert run(capsys, "evaluate", "--truth", str(truth), "--registry",
                       registry_dir, "--k", "-1")[0] == 0
        assert (Path(registry_dir) / CACHE_NAME).exists()
        assert built == world.target_names() * 4

    @pytest.mark.parametrize("command", [["calibrate", "--out", "{out}"],
                                         ["evaluate", "--k", "0"]])
    def test_truth_target_without_a_profile_exits_4_before_loading(
            self, capsys, tmp_path, registry_dir, command):
        truth = seed_truth(tmp_path, registry_dir)
        (Path(registry_dir) / "tprof.profile.json").unlink()
        argv = [arg.format(out=tmp_path / "g.csv") for arg in command]
        code, out, err = run(capsys, *argv, "--truth", str(truth),
                             "--registry", registry_dir)
        assert (code, out) == (4, "")
        assert err == f"p2l: error: no profile named 'tprof' in {registry_dir}\n"
        assert CACHE_NAME not in os.listdir(registry_dir)
        assert not (tmp_path / "g.csv").exists()

    def test_evaluate_unknown_source_exits_4(self, capsys, tmp_path,
                                             registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        truth.write_text(truth.read_text() + "tprof,ghost,0.5,0.2\n")
        code, _, _ = run(capsys, "evaluate", "--truth", str(truth),
                         "--registry", registry_dir, "--distance", "KL",
                         "--k", "0")
        assert code == 4

    @pytest.mark.parametrize("command", ["calibrate", "evaluate"])
    @pytest.mark.parametrize("extra_row", ["tprof,mid,0.5,0.2",     # duplicate pair
                                           "tprof,other,0.5,0.9"])  # scratch 0.9 vs 0.2
    def test_inconsistent_truth_exits_2_before_output(self, capsys, tmp_path,
                                                      registry_dir, command,
                                                      extra_row):
        truth = seed_truth(tmp_path, registry_dir)
        truth.write_text(truth.read_text() + extra_row + "\n")
        extra = (["--out", str(tmp_path / "g.csv")] if command == "calibrate"
                 else ["--k", "0"])
        code, out, err = run(capsys, command, "--truth", str(truth),
                             "--registry", registry_dir, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("p2l: error:")

    def test_calibrate_grid_stays_within_its_range(self, capsys, tmp_path,
                                                   registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        grid_out = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "calibrate", "--truth", str(truth), "--registry",
                         registry_dir, "--out", str(grid_out), "--grid=0:1:0.35",
                         "--kinds", "KL")
        assert code == 0
        ks = [float(row[0]) for row in parse_csv(grid_out.read_text())[1:]]
        assert ks == [0.0, 0.35, 0.7]

    def test_calibrate_one_point_grid(self, capsys, tmp_path, registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        grid_out = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "calibrate", "--truth", str(truth), "--registry",
                         registry_dir, "--out", str(grid_out), "--grid=-1:-1:0.25")
        assert code == 0
        rows = parse_csv(grid_out.read_text())[1:]
        assert len(rows) == 5  # one k, every distance kind
        assert {float(row[0]) for row in rows} == {-1.0}

    @pytest.mark.parametrize("grid", ["0:inf:1", "-inf:0:1", "nan:0:0.5", "0:1:nan",
                                      "-1e308:1e308:1", "0:1e300:1e-10", "1:2", "0:1:0.5:2",
                                      "0:x:1"])
    def test_calibrate_non_finite_grid_exits_2(self, capsys, tmp_path, registry_dir,
                                               grid):
        truth = seed_truth(tmp_path, registry_dir)
        code, out, err = run(capsys, "calibrate", "--truth", str(truth),
                             "--registry", registry_dir, "--out",
                             str(tmp_path / "g.csv"), f"--grid={grid}")
        assert code == 2
        assert out == ""
        assert err == f"p2l: error: bad grid spec {grid!r}\n"

    @pytest.mark.parametrize("grid, largest", [("-1e300:0:5e299", "1e+300"),
                                               ("-1e308:0:5e307", "1e+308")])
    def test_calibrate_k_whose_scores_overflow_exits_2_as_rank_does(
            self, capsys, tmp_path, registry_dir, grid, largest):
        truth = seed_truth(tmp_path, registry_dir)
        grid_out = tmp_path / "g.csv"
        code, out, err = run(capsys, "calibrate", "--truth", str(truth), "--registry",
                             registry_dir, "--out", str(grid_out), f"--grid={grid}")
        assert (code, out) == (2, "")
        assert err == (f"p2l: error: |k| = {largest} gives scores too large to rank; "
                       "use a smaller |k|\n")
        assert not grid_out.exists()

    def test_calibrate_grid_finer_than_rounding_exits_2_before_reading(self, capsys,
                                                                      tmp_path):
        # Steps below the grid's 12-decimal rounding repeat k: 51 values, 6 distinct.
        root = tmp_path / "registry"
        code, out, err = run(capsys, "calibrate", "--truth", str(tmp_path / "missing.csv"),
                             "--registry", str(root), "--out", str(tmp_path / "g.csv"),
                             "--grid=0:5e-12:1e-13", "--kinds", "KL")
        assert (code, out) == (2, "")
        assert err == "p2l: error: k grid repeats values: 6 distinct of 51\n"
        assert not root.exists() and not (tmp_path / "g.csv").exists()

    def test_calibrate_grid_of_too_many_points_exits_2_at_once(self, capsys, tmp_path):
        # 3,000,000,001 points would be about 96 GB of floats: refused before
        # the grid is built and before any input is read.
        root, grid_out = tmp_path / "registry", tmp_path / "g.csv"
        start = time.perf_counter()
        code, out, err = run(capsys, "calibrate", "--truth", str(tmp_path / "missing.csv"),
                             "--registry", str(root), "--out", str(grid_out),
                             "--grid=-3:0:1e-9")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("p2l: error: grid spec '-3:0:1e-9' gives 3000000001 points; "
                       f"at most {MAX_GRID_POINTS} are allowed\n")
        assert not root.exists() and not grid_out.exists()

    def test_calibrate_grid_of_the_most_points_runs(self, capsys, tmp_path, registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        grid_out = tmp_path / "grid.csv"
        code, _, err = run(capsys, "calibrate", "--truth", str(truth), "--registry",
                           registry_dir, "--out", str(grid_out), "--grid=-1:0:0.00001",
                           "--kinds", "KL")
        assert code == 0
        ks = [float(row[0]) for row in parse_csv(grid_out.read_text())[1:]]
        assert len(ks) == MAX_GRID_POINTS == 100_001
        assert (ks[0], ks[-1]) == (-1.0, 0.0)
        code, out, err = run(capsys, "calibrate", "--truth", str(truth), "--registry",
                             registry_dir, "--out", str(tmp_path / "g.csv"),
                             "--grid=-1:0.00001:0.00001", "--kinds", "KL")
        assert (code, out) == (2, "")
        assert "gives 100002 points" in err
        assert not (tmp_path / "g.csv").exists()

    def test_calibrate_notes_per_task_rho(self, capsys, tmp_path):
        registry_dir = tmp_path / "registry"
        world = oracle_registry(registry_dir, 7, 4, 4)
        records = oracle.ground_truth(world, oracle.OracleConfig())
        truth = tmp_path / "truth.csv"
        write_improvements_csv(truth, records)
        code, _, err = run(capsys, "calibrate", "--truth", str(truth), "--registry",
                           str(registry_dir), "--out", str(tmp_path / "grid.csv"))
        assert code == 0
        report = tune_k(*oracle.calibration_tasks(world, records))
        assert [line for line in err.splitlines() if line.startswith("task ")] == [
            f"task {name}: rho {fmt(rho)}" for name, rho in report.per_task_rho.items()]
        assert len(report.per_task_rho) == 4

    def test_evaluate_gain_arithmetic(self, capsys, tmp_path, registry_dir):
        truth = seed_truth(tmp_path, registry_dir)
        code, out, _ = run(capsys, "evaluate", "--truth", str(truth),
                           "--registry", registry_dir, "--distance", "KL",
                           "--k", "0")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["target", "method", "selection", "perf", "gain_vs_p2l",
                           "picks_to_best"]
        table = {r[1]: r for r in rows[1:]}
        # k=0 picks the biggest source, which is also truly best here
        assert table["P2L"][2] == "big_far"
        assert float(table["P2L"][4]) == 0.0
        assert table["B1"][2] == "big_far"
        assert float(table["B1"][4]) == 0.0
        assert int(table["P2L"][5]) == 1
        # B4 gain: (0.6 - 0.2) / 0.2
        assert float(table["B4"][4]) == pytest.approx(2.0)
        assert table["B4"][2] == ""


class TestRefusedInputLeavesTheRegistry:
    """A flag or input file a command refuses exits 2 before the registry is
    opened: an existing registry keeps its files, a missing one is not made."""

    CASES = {
        "rank-distance": ["rank", "--target", "{target}", "--k", "-1",
                          "--distance", "XX"],
        "rank-k": ["rank", "--target", "{target}", "--k", "nan"],
        "calibrate-grid": ["calibrate", "--truth", "{truth}", "--out", "{out}",
                           "--grid=1:0:1"],
        "calibrate-kinds": ["calibrate", "--truth", "{truth}", "--out", "{out}",
                            "--kinds", "XX"],
        "evaluate-distance": ["evaluate", "--truth", "{truth}", "--k", "0",
                              "--distance", "XX"],
        "rank-reference": ["rank", "--target", "{target}", "--k", "-1",
                           "--reference", "ghost"],
        "rank-seed": ["rank", "--target", "{target}", "--k", "-1", "--seed", "5"],
        "profile-input": ["profile", "--input", "{missing}", "--name", "x"],
        "profile-summarizer": ["profile", "--input", "{target}", "--name", "x",
                               "--summarizer", "bogus"],
    }

    @pytest.mark.parametrize("registry", ["existing", "absent"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_input_exits_2_and_leaves_the_registry(self, capsys, tmp_path,
                                                           case, registry):
        truth = seed_truth(tmp_path, str(tmp_path / "existing"))
        root = tmp_path / registry
        assert CACHE_NAME not in os.listdir(tmp_path / "existing")

        def snapshot():
            if not root.exists():
                return None
            return {p.name: p.stat().st_mtime_ns for p in root.iterdir()}

        before = snapshot()
        paths = {"target": tmp_path / "target.csv", "truth": truth,
                 "out": tmp_path / "grid.csv", "missing": tmp_path / "missing.csv"}
        argv = [arg.format(**paths) for arg in self.CASES[case]]
        code, out, err = run(capsys, *argv, "--registry", str(root))
        assert (code, out) == (2, ""), err
        assert snapshot() == before
        assert not (tmp_path / "grid.csv").exists()


class TestMissingRegistryIsNotMade:
    """A command that only reads the registry keeps its exit code and message
    on a mistyped --registry path, and leaves nothing there."""

    CASES = {
        "rank-name": (["rank", "--target", "ghost", "--k", "-1"], 4,
                      "no profile named 'ghost' in {root}"),
        "rank-file": (["rank", "--target", "{target}", "--k", "-1"], 2,
                      "need at least one candidate source"),
        "calibrate": (["calibrate", "--truth", "{truth}", "--out", "{out}"], 4,
                      "no profile named 'tprof' in {root}"),
        "evaluate": (["evaluate", "--truth", "{truth}", "--k", "0"], 4,
                     "no profile named 'tprof' in {root}"),
        "merge": (["merge", "--name", "pooled", "--members", "small_near,mid"], 4,
                  "no profile named 'small_near' in {root}"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_read_only_command_leaves_no_registry(self, capsys, tmp_path, case):
        truth = seed_truth(tmp_path, str(tmp_path / "existing"))
        root = tmp_path / "typo"
        paths = {"target": tmp_path / "target.csv", "truth": truth,
                 "out": tmp_path / "grid.csv", "root": root}
        argv, want_code, message = self.CASES[case]
        code, out, err = run(capsys, *[arg.format(**paths) for arg in argv],
                             "--registry", str(root))
        assert (code, out) == (want_code, "")
        assert err == f"p2l: error: {message.format(**paths)}\n"
        assert not root.exists()
        assert not (tmp_path / "grid.csv").exists()


class TestMergeCommand:
    def test_merge_and_collision(self, capsys, tmp_path, registry_dir):
        seed_registry(tmp_path, registry_dir)
        code, out, _ = run(capsys, "merge", "--registry", registry_dir,
                           "--name", "pooled", "--members",
                           "small_near,mid,big_far")
        assert code == 0
        merged = ProfileRegistry.open(registry_dir).load("pooled")
        assert merged.size == 10 + 500 + 100000
        code, _, _ = run(capsys, "merge", "--registry", registry_dir,
                         "--name", "pooled", "--members", "small_near,mid")
        assert code == 3
        code, _, _ = run(capsys, "merge", "--registry", registry_dir,
                         "--name", "p2", "--members", "small_near,ghost")
        assert code == 4

    def test_merge_repeated_member_exits_2(self, capsys, tmp_path, registry_dir):
        seed_registry(tmp_path, registry_dir)
        code, out, err = run(capsys, "merge", "--registry", registry_dir,
                             "--name", "twice", "--members", "mid,mid")
        assert code == 2
        assert out == ""
        assert err.startswith("p2l: error:") and err.count("\n") == 1
        assert "twice" not in ProfileRegistry.open(registry_dir).names()


class TestSimulateCommand:
    def test_simulate_deterministic_outputs(self, capsys, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            code, stdout, _ = run(capsys, "simulate", "--seed", "7",
                                  "--sources", "4", "--targets", "4",
                                  "--out", str(out))
            assert code == 0
            assert stdout.splitlines()[0] == "seed,best_k,best_distance,mean_rho"
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["grid.csv", "ground_truth.csv", "methods.csv",
                         "per_target.csv", "selections.csv", "summary.txt"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_0_runs(self, capsys, tmp_path):
        out = tmp_path / "study"
        code, stdout, _ = run(capsys, "simulate", "--seed", "0", "--sources", "3",
                              "--targets", "2", "--epochs", "1", "--out", str(out))
        assert code == 0
        assert stdout.splitlines()[1].startswith("0,")
        assert sorted(p.name for p in out.iterdir()) == [
            "grid.csv", "ground_truth.csv", "methods.csv", "per_target.csv",
            "selections.csv", "summary.txt"]

    def test_parser_defaults_are_the_library_defaults(self):
        # cli.py imports the oracle lazily, so it restates these defaults.
        args = build_parser().parse_args(["simulate", "--seed", "1", "--out", "x"])
        spec = inspect.signature(oracle.default_world_spec).parameters
        assert args.epochs == oracle.OracleConfig().epochs
        assert args.sources == spec["n_sources"].default
        assert args.targets == spec["n_targets"].default

    @pytest.mark.parametrize("flag", ["--sources", "--targets"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_world_without_sources_or_targets_exits_2(self, capsys, tmp_path,
                                                      flag, count):
        out = tmp_path / "study"  # the last of a repeated flag counts
        code, stdout, err = run(capsys, "simulate", "--seed", "1", "--epochs", "1",
                                "--sources", "3", "--targets", "2", flag, count,
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert "at least one source and one target" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--sources", "2"], "study needs at least three source domains"),
        (["--targets", "1"], "study needs at least two targets"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--epochs", "-1"], "epochs must be >= 0"),
    ], ids=["two-sources", "one-target", "negative-seed", "negative-epochs"])
    def test_unrunnable_study_exits_2_before_training(self, capsys, tmp_path,
                                                      monkeypatch, argv, message):
        monkeypatch.setattr(oracle, "ground_truth", self.no_training)
        out = tmp_path / "study"  # the last of a repeated flag counts
        code, stdout, err = run(capsys, "simulate", "--seed", "1", "--sources", "12",
                                "--targets", "16", *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert message in err
        assert not out.exists()

    def test_out_under_a_file_exits_2_before_training(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(oracle, "ground_truth", self.no_training)
        (tmp_path / "afile").write_text("")
        code, stdout, err = run(capsys, "simulate", "--seed", "1",
                                "--out", str(tmp_path / "afile" / "sub"))
        assert (code, stdout) == (2, "")
        assert "Not a directory" in err

    def test_simulate_builds_each_profile_once(self, capsys, tmp_path, monkeypatch):
        # 12 source-train splits and the target-train split of all 28 domains
        built = []
        profile_from_matrix = oracle.profile_from_matrix
        monkeypatch.setattr(oracle, "profile_from_matrix",
                            lambda name, *a, **kw: built.append(name)
                            or profile_from_matrix(name, *a, **kw))
        code, _, _ = run(capsys, "simulate", "--seed", "1", "--sources", "12",
                         "--targets", "16", "--epochs", "1", "--out",
                         str(tmp_path / "study"))
        assert (code, len(built)) == (0, 40)

    @staticmethod
    def no_training(world, cfg):
        raise AssertionError("simulate trained a study it then refused")

    def test_evaluate_prints_the_study_selections(self, capsys, tmp_path):
        """evaluate over a simulated world's profiles, at the study's own k and
        distance, reproduces the study's selections.csv row for row."""
        seed, sources, targets = 7, 4, 4
        outdir = tmp_path / "study"
        code, stdout, _ = run(capsys, "simulate", "--seed", str(seed),
                              "--sources", str(sources), "--targets", str(targets),
                              "--out", str(outdir))
        assert code == 0
        _, best_k, best_distance, _ = parse_csv(stdout)[1]

        registry_dir = tmp_path / "registry"
        oracle_registry(registry_dir, seed, sources, targets)

        code, stdout, _ = run(capsys, "evaluate", "--truth",
                              str(outdir / "ground_truth.csv"), "--registry",
                              str(registry_dir), "--k", best_k,
                              "--distance", best_distance)
        assert code == 0
        assert stdout == (outdir / "selections.csv").read_text()


class TestFixedSettings:
    @pytest.mark.parametrize("argv", [
        ["rank", "--target", "t.csv", "--k", "-1", "--epsilon", "1e-3"],
        ["evaluate", "--truth", "t.csv", "--k", "0", "--epsilon", "1e-3"],
        ["calibrate", "--truth", "t.csv", "--out", "g.csv", "--epsilon", "1e-3"],
        ["rank", "--target", "t.csv", "--k", "-1", "--allow-mixed-extractors"],
        ["evaluate", "--truth", "t.csv", "--k", "0", "--allow-mixed-extractors"],
        ["simulate", "--feature-dim", "8"],
        ["simulate", "--embed-dim", "8"],
        ["simulate", "--learn-rate", "0.1"],
    ], ids=["rank-epsilon", "evaluate-epsilon", "calibrate-epsilon",
            "rank-allow-mixed-extractors", "evaluate-allow-mixed-extractors",
            "simulate-feature-dim", "simulate-embed-dim", "simulate-learn-rate"])
    def test_flag_of_a_fixed_setting_exits_2(self, capsys, tmp_path, argv):
        """The smoothing weight, the rule that candidates share the target's
        extractor, the oracle's learn rate and the simulated world's widths
        are constants."""
        command, *rest = argv
        extra = (["--seed", "1", "--sources", "3", "--targets", "2", "--epochs", "1",
                  "--out", str(tmp_path / "study")] if command == "simulate"
                 else ["--registry", str(tmp_path / "registry")])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, *rest, *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert os.listdir(tmp_path) == []


class TestImports:
    @staticmethod
    def fresh(code, **env):
        """The stdout of code run by a fresh interpreter on this p2l; env sets
        environment variables, or unsets those given as None."""
        src = str(Path(p2l.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={key: value for key, value in env.items() if value is not None})
        assert result.returncode == 0, result.stderr
        return result.stdout

    def loaded_by_cli_import(self, module):
        """Whether a fresh interpreter holds module after `import p2l.cli`."""
        return self.fresh(f"import sys, p2l.cli; print({module!r} in sys.modules)") == "True\n"

    def test_cli_import_does_not_load_scipy(self):
        assert not self.loaded_by_cli_import("scipy")

    def test_cli_import_does_not_load_the_oracle(self):
        # Only simulate trains, so rank, profile and calibrate skip its import.
        assert not self.loaded_by_cli_import("p2l.oracle")
        assert self.loaded_by_cli_import("p2l.io")

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        code = ("import sys, p2l\n"
                "print([m for m in sys.modules if m.startswith(('p2l.', 'numpy'))])")
        assert self.fresh(code) == "[]\n"

    def test_an_unknown_name_raises_attribute_error(self):
        code = ("import p2l\n"
                "try:\n"
                "    p2l.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n"
                "print(hasattr(p2l, 'no_such_name'))\n")
        assert self.fresh(code) == "module 'p2l' has no attribute 'no_such_name'\nFalse\n"

    SPIN = "import os, p2l.cli; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"

    def test_cli_import_sets_a_short_blas_idle_spin(self):
        from p2l.cli import BLAS_IDLE_SPIN
        assert 4 <= int(BLAS_IDLE_SPIN) < 28  # OpenBLAS's range, below its default
        assert self.fresh(self.SPIN, OPENBLAS_THREAD_TIMEOUT=None) == f"{BLAS_IDLE_SPIN}\n"

    def test_cli_import_keeps_the_users_blas_idle_spin(self):
        assert self.fresh(self.SPIN, OPENBLAS_THREAD_TIMEOUT="28") == "28\n"

    def test_cli_import_after_numpy_sets_nothing(self):
        code = "import numpy\n" + self.SPIN
        assert self.fresh(code, OPENBLAS_THREAD_TIMEOUT=None) == "None\n"

    def test_python_m_p2l_cli_sets_the_spin_before_numpy_loads(self):
        """`python -m p2l.cli` runs cli.py as __main__ after importing the
        package; numpy must still load after the setting."""
        code = ("import os, runpy, sys\n"
                "class Watch:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name == 'numpy':\n"
                "            sys.stderr.write(f\"{os.environ.get('OPENBLAS_THREAD_TIMEOUT')}\\n\")\n"
                "sys.meta_path.insert(0, Watch())\n"
                "sys.argv = ['p2l', '--help']\n"
                "sys.stderr = sys.stdout\n"
                "try:\n"
                "    runpy.run_module('p2l.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0\n")
        from p2l.cli import BLAS_IDLE_SPIN
        out = self.fresh(code, OPENBLAS_THREAD_TIMEOUT=None)
        assert out.splitlines()[0] == BLAS_IDLE_SPIN

    FROZEN = "import gc, p2l.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"

    def test_cli_import_freezes_the_import_time_heap(self):
        assert self.fresh(self.FROZEN) == "True True\n"

    def test_cli_import_after_numpy_leaves_the_collector_be(self):
        code = ("import gc, numpy\n"
                "before = gc.get_threshold()\n"
                "import p2l.cli\n"
                "print(gc.isenabled(), gc.get_freeze_count(), gc.get_threshold() == before)")
        assert self.fresh(code) == "True 0 True\n"

    def test_cli_import_keeps_a_collector_turned_off(self):
        assert self.fresh("import gc; gc.disable()\n" + self.FROZEN) == "False True\n"

    def test_python_m_p2l_cli_freezes_the_import_time_heap(self):
        """`python -m p2l.cli` runs cli.py as __main__ after importing the package."""
        code = ("import gc, runpy, sys\n"
                "sys.argv = ['p2l', '--help']\n"
                "sys.stdout = sys.stderr\n"
                "try:\n"
                "    runpy.run_module('p2l.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0\n"
                "sys.stdout = sys.__stdout__\n"
                "print(gc.isenabled(), gc.get_freeze_count() > 0)\n")
        assert self.fresh(code) == "True True\n"

    @pytest.mark.parametrize("setup,want", [
        ("", "0 True True True"),
        ("gc.disable()", "0 True True False"),
        ("import numpy", "0 True False True"),
    ], ids=["fresh", "collector-off", "numpy-first"])
    def test_simulate_freezes_its_oracle_import(self, tmp_path, setup, want):
        """In a fresh process simulate imports p2l.oracle as the start-up
        imports are made: collector off, import, freeze, collector back on
        unless the caller had it off. After numpy it freezes nothing."""
        argv = ["simulate", "--seed", "1", "--sources", "3", "--targets", "2",
                "--epochs", "1", "--out", str(tmp_path / "study")]
        code = ("import contextlib, gc, io, sys\n"
                f"{setup}\n"
                "import p2l.cli\n"
                "before = gc.get_freeze_count()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = p2l.cli.main({argv!r})\n"
                "print(code, 'p2l.oracle' in sys.modules, gc.get_freeze_count() > before,\n"
                "      gc.isenabled())\n")
        assert self.fresh(code) == f"{want}\n"

    def test_warm_commands_load_no_openssl(self, tmp_path):
        """rank, calibrate and profile on a registry whose summary cache vouches
        for every file hash nothing, so they load _hashlib only if a bare
        interpreter does."""
        registry = tmp_path / "registry"
        truth = seed_truth(tmp_path, str(registry))
        probe, latest = tmp_path / "clock-probe", max(
            p.stat().st_ctime_ns for p in registry.iterdir())
        while True:  # until a file written next is strictly newer than every profile
            probe.write_bytes(b"")
            if probe.stat().st_mtime_ns > latest:
                break
        argv = {
            "rank": ["rank", "--target", str(tmp_path / "target.csv"), "--k", "-1"],
            "calibrate": ["calibrate", "--truth", str(truth), "--out",
                          str(tmp_path / "grid.csv")],
            "profile": ["profile", "--input", str(tmp_path / "target.csv"),
                        "--name", "fresh"],
        }
        assert main(argv["rank"] + ["--registry", str(registry)]) == 0  # writes the cache
        code = ("import sys\n"
                "from p2l.cli import main\n"
                f"for argv in {list(argv.values())!r}:\n"
                f"    assert main(argv + ['--registry', {str(registry)!r}]) == 0, argv\n"
                "print('_hashlib' in sys.modules)\n")
        bare = self.fresh("import sys; print('_hashlib' in sys.modules)")
        assert self.fresh(code).splitlines()[-1] == bare.strip()


class TestEnvRegistry:
    def test_p2l_registry_env_default(self, capsys, tmp_path, monkeypatch):
        registry_dir = str(tmp_path / "envreg")
        monkeypatch.setenv("P2L_REGISTRY", registry_dir)
        emb = tmp_path / "a.csv"
        write_embeddings(emb, [[1.0, 2.0]])
        # parser defaults are bound at build time, so rebuild via main()
        code = main(["profile", "--input", str(emb), "--name", "envy"])
        capsys.readouterr()
        assert code == 0
        assert "envy" in ProfileRegistry.open(registry_dir).names()
