import codecs
import hashlib
import json
import math
import multiprocessing
import os
import stat
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p2l
import p2l.fork
from p2l.core import DatasetProfile, EmbeddingMatrix, Summarizer, SummaryVector
from p2l.errors import (
    BadHeader,
    BadMagic,
    DimensionMismatch,
    DuplicateSourceName,
    EmptyMatrix,
    InconsistentScratch,
    InvalidName,
    NameCollision,
    NonFiniteValue,
    NotFound,
    P2LError,
    RaggedRow,
    TruncatedFile,
    UnsupportedVersion,
)
from p2l.io import (
    CACHE_NAME,
    _read_embeddings_csv_lines,
    ProfileRegistry,
    group_records_by_target,
    profile_from_dict,
    profile_to_dict,
    profile_to_json,
    read_embeddings_bin,
    read_embeddings_csv,
    read_improvements_csv,
    sniff_and_read_embeddings,
    write_embeddings_bin,
    write_embeddings_csv,
    write_improvements_csv,
)
from p2l.summarize import profile_from_matrix


def random_matrix(seed, n=5, d=3, extractor="vgg-like"):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rng.uniform(0.0, 2.0, (n, d)), extractor)


def _save_after_barrier(root, seed, barrier, results):
    """Worker: save a new profile 'alpha' the moment every worker is ready.

    The profile is wide so that encoding it takes milliseconds: a save that
    checks for the name before encoding leaves the others that long to race.
    """
    registry = ProfileRegistry.open(root)
    profile = profile_from_matrix("alpha", random_matrix(seed, n=2, d=20_000))
    barrier.wait()
    try:
        registry.save(profile)
        results.put((seed, "saved"))
    except NameCollision:
        results.put((seed, "collision"))



def _alternate_saves(root, versions, rounds):
    """Worker: overwrite profile 'alpha' with each version in turn."""
    registry = ProfileRegistry(Path(root))
    for i in range(rounds):
        registry.save(versions[i % len(versions)], overwrite=True)


def _load_repeatedly(root, rounds):
    """Worker: load the whole registry, reading and rewriting its cache."""
    registry = ProfileRegistry(Path(root))
    for _ in range(rounds):
        registry.load_all()


def make_profile(name, values, raw_mean, summarizer=Summarizer.mean(), size=10,
                 extractor="ext", role="source"):
    values = np.asarray(values, dtype=float)
    summary = SummaryVector(values=values / values.sum(), raw_mean=raw_mean,
                            summarizer=summarizer)
    return DatasetProfile(name, size, summary, extractor, role)


@st.composite
def profiles(draw, name=st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True),
             dim=st.integers(1, 512)):
    """Random valid profiles: either role and summarizer, d from 1 to 512,
    any extractor id, raw means over the whole float range."""
    d = draw(dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw_mean = rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300, d)
    raw_mean[0] = draw(st.sampled_from([0.0, -0.0, 5e-324, -1.7976931348623157e308,
                                        1.0 / 3.0, float(raw_mean[0])]))
    summarizer = draw(st.one_of(
        st.just(Summarizer.mean()),
        st.floats(0.0, 0.5, exclude_max=True).map(Summarizer.trimmed)))
    return make_profile(draw(name), rng.dirichlet(np.full(d, 0.5)), raw_mean,
                        summarizer=summarizer, size=draw(st.integers(1, 2**63)),
                        extractor=draw(st.text(min_size=1, max_size=20)),
                        role=draw(st.sampled_from(["source", "target"])))


def assert_same_profiles(got, want):
    """Field for field, and every vector bit for bit."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert (p.name, p.size, p.role, p.extractor_id, p.summary.summarizer) == \
               (q.name, q.size, q.role, q.extractor_id, q.summary.summarizer)
        assert type(p.size) is type(q.size)
        for a, b in ((p.summary.values, q.summary.values),
                     (p.summary.raw_mean, q.summary.raw_mean)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def json_only(root):
    """What load_all must return: every profile parsed from its JSON file."""
    registry = ProfileRegistry(Path(root))
    return [registry.load(name) for name in registry.names()]

class TestEmbeddingsCsv:
    def test_round_trip(self, tmp_path):
        m = random_matrix(1)
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, m)
        back = read_embeddings_csv(path)
        np.testing.assert_array_equal(back.values, m.values)
        assert back.extractor_id == m.extractor_id

    def test_written_bytes(self, tmp_path):
        # Each value is its shortest round-trip decimal: sign of zero kept,
        # subnormals and large magnitudes in exponent form.
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, EmbeddingMatrix(
            np.array([[-0.0, 5e-324], [1e16, 0.1 + 0.2]]), "x"))
        assert path.read_bytes() == (b"# p2l-embeddings v1 dim=2 extractor=x\n"
                                     b"-0.0,5e-324\n1e+16,0.30000000000000004\n")

    def test_minimal_two_rows(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("# p2l-embeddings v1 dim=2 extractor=x\n1,0\n0,1\n")
        m = read_embeddings_csv(path)
        assert (m.items, m.dim) == (2, 2)
        np.testing.assert_array_equal(m.values, [[1.0, 0.0], [0.0, 1.0]])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("dim=2 extractor=x\n1,0\n")
        with pytest.raises(BadHeader):
            read_embeddings_csv(path)

    def test_ragged_row_carries_line(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("# p2l-embeddings v1 dim=3 extractor=x\n1,2,3\n1,2\n")
        with pytest.raises(RaggedRow) as err:
            read_embeddings_csv(path)
        assert err.value.line_no == 3

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("# p2l-embeddings v1 dim=2 extractor=x\n1,nan\n")
        with pytest.raises(NonFiniteValue) as err:
            read_embeddings_csv(path)
        assert err.value.line_no == 2

    def test_empty_body(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("# p2l-embeddings v1 dim=2 extractor=x\n")
        with pytest.raises(EmptyMatrix):
            read_embeddings_csv(path)

    @pytest.mark.parametrize("extractor", ["a b", "x\n", "\tx", "a\u2028b"])
    def test_id_the_header_cannot_carry_is_refused(self, tmp_path, extractor):
        # A space is the writer's to refuse; no matrix holds a non-printable id.
        path = tmp_path / "emb.csv"
        refusal = "whitespace" if extractor == "a b" else "non-printable"
        with pytest.raises(ValueError, match=refusal):
            write_embeddings_csv(path, random_matrix(1, extractor=extractor))
        assert not path.exists()

    def test_non_ascii_id_round_trips(self, tmp_path):
        write_embeddings_csv(tmp_path / "emb.csv", random_matrix(1, extractor="é"))
        assert read_embeddings_csv(tmp_path / "emb.csv").extractor_id == "é"

    @settings(max_examples=100, deadline=None)
    @given(extractor=st.text(min_size=1, max_size=8))
    def test_written_id_reads_back(self, extractor):
        with tempfile.TemporaryDirectory() as name:
            path = Path(name) / "emb.csv"
            try:
                write_embeddings_csv(path, random_matrix(1, extractor=extractor))
            except ValueError:
                return  # refused: whitespace or a non-printable character
            assert read_embeddings_csv(path).extractor_id == extractor


def csv_outcome(read, path):
    """What read(path) gives: the values' float64 bytes, shape and extractor id,
    or the class, message and line number of what it raises."""
    try:
        m = read(path)
    except (P2LError, ValueError) as exc:  # UnicodeDecodeError too
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return m.values.tobytes(), m.values.shape, m.extractor_id


# Fields numpy's loadtxt reads as float() does, and fields where the two part:
# numpy reads the non-finite ones as inf or nan and refuses the rest.
PLAIN_FIELDS = ["0", "-0", "1e-400", "1e-320", "007", ".5", "5.", "+1", "1E5",
                " 2 ", "\t3", "4\xa0", "\u30005"]
ODD_FIELDS = ["inf", "-inf", "nan", "-nan", "Infinity", "1e999", "1_0", "١",
              "#", "#1", '"1"', "0x10", "", " ", "1 2", "1j"]
CSV_HEAD = "# p2l-embeddings v1 dim={dim} extractor={id}"


@st.composite
def csv_files(draw):
    """Bytes of an embeddings CSV: mostly well formed, with every form on which
    loadtxt and the line rule part: empty or blank lines, non-finite values,
    `1_0`, non-ASCII digits, `#`, quotes, trailing commas, hex; and CR or CRLF
    line ends, a missing final newline, bad headers and non-UTF-8 bytes."""
    dim = draw(st.integers(1, 4))
    header = draw(st.sampled_from([
        CSV_HEAD.format(dim=dim, id="ext"), CSV_HEAD.format(dim=dim, id="é"),
        CSV_HEAD.format(dim=dim, id="a,b"), CSV_HEAD.format(dim=0, id="ext"),
        "dim=2 extractor=x"]))
    odd = draw(st.booleans())
    field = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.sampled_from(PLAIN_FIELDS + (ODD_FIELDS if odd else [])))
    width = st.one_of(st.just(dim), st.integers(0, dim + 1)) if odd else st.just(dim)
    rows = draw(st.lists(width.flatmap(lambda n: st.lists(field, min_size=n,
                                                             max_size=n)),
                         max_size=12))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if odd else st.just("\n")
    text = header + "".join(draw(ends) + ",".join(row) for row in rows)
    if draw(st.booleans()):
        text += draw(ends)
    data = text.encode("utf-8")
    if odd and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


HEAD_DIM2 = "# p2l-embeddings v1 dim=2 extractor=ext\n"


class TestCsvFastPath:
    """read_embeddings_csv reads with numpy's parser where it can, and gives
    exactly what the line parser gives on every input."""

    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt warns on empty input
    @settings(max_examples=400, deadline=None)
    @given(data=csv_files())
    def test_same_as_the_line_parser(self, data):
        with tempfile.TemporaryDirectory() as name:
            path = Path(name) / "emb.csv"
            path.write_bytes(data)
            assert csv_outcome(read_embeddings_csv, path) == \
                csv_outcome(_read_embeddings_csv_lines, path)

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("body,want", [
        ("1,2\n\n3,4\n", (RaggedRow, 3)),
        ("1,2\n\n", (RaggedRow, 3)),
        ("1,2\n3,inf\n", (NonFiniteValue, 3)),
        ("nan,2\n", (NonFiniteValue, 2)),
        ("1,Infinity\n", (NonFiniteValue, 2)),
        ("1e999,2\n", (NonFiniteValue, 2)),
        ("1_0,2\n", [[10.0, 2.0]]),
        ("١,2\n", [[1.0, 2.0]]),
        ("1,2\n  \n", (RaggedRow, 3)),
        ("#1,2\n", (NonFiniteValue, 2)),
        ('"1",2\n', (NonFiniteValue, 2)),
        ("1,2,\n", (RaggedRow, 2)),
        ("0x1,2\n", (NonFiniteValue, 2)),
        (" 1 , 2 \n", [[1.0, 2.0]]),
        ("\t1,2\t\n", [[1.0, 2.0]]),
        ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
        ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("", (EmptyMatrix, None)),
        ("\n\n", (RaggedRow, 2)),
        ("1,2\ninf,2\n" + "1,2\n" * 6 + "1\n", (NonFiniteValue, 3)),
    ], ids=["empty-line-mid", "empty-line-end", "inf", "nan", "Infinity", "1e999",
            "underscore", "arabic-digit", "blank-line", "hash", "quotes",
            "trailing-comma", "hex", "padded", "tab", "crlf", "no-final-newline",
            "cr", "header-only", "only-empty-lines", "inf-line-3-before-ragged-line-10"])
    def test_forms_where_loadtxt_and_the_line_rule_part(self, tmp_path, body, want):
        path = tmp_path / "emb.csv"
        path.write_bytes((HEAD_DIM2 + body).encode("utf-8"))
        got = csv_outcome(read_embeddings_csv, path)
        assert got == csv_outcome(_read_embeddings_csv_lines, path)
        if isinstance(want, list):
            assert got[0] == np.array(want, dtype=np.float64).tobytes()
        else:
            assert (got[0], got[2]) == want

    def test_non_utf8_byte_is_refused_as_the_line_parser_refuses_it(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_bytes(HEAD_DIM2.encode() + b"1,2\n3,\xff\n")
        got = csv_outcome(read_embeddings_csv, path)
        assert got[0] is UnicodeDecodeError
        assert got == csv_outcome(_read_embeddings_csv_lines, path)

    def test_plain_file_never_reaches_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("line parser called on a plain file")
        monkeypatch.setattr("p2l.io._read_embeddings_csv_lines", refuse)
        m = random_matrix(3, n=40, d=7)
        write_embeddings_csv(tmp_path / "emb.csv", m)
        assert read_embeddings_csv(tmp_path / "emb.csv").values.tobytes() == \
            m.values.tobytes()

    def test_empty_line_reaches_the_line_parser(self, tmp_path, monkeypatch):
        calls = []

        def spy(path):
            calls.append(path)
            return _read_embeddings_csv_lines(path)
        monkeypatch.setattr("p2l.io._read_embeddings_csv_lines", spy)
        path = tmp_path / "emb.csv"
        path.write_text(HEAD_DIM2 + "1,2\n\n3,4\n")
        with pytest.raises(RaggedRow):
            read_embeddings_csv(path)
        assert calls == [path]


def chunked(m):
    """Make read_embeddings_csv cut every file into chunks for 3 forked workers."""
    m.setattr(p2l.io, "_FORK_CSV_VALUES", 0)
    m.setattr(p2l.fork, "worker_count", lambda: 3)


class TestCsvChunks:
    """Cut into chunks of lines parsed by forked workers, read_embeddings_csv
    still gives exactly what the line parser gives."""

    @pytest.mark.filterwarnings("error::UserWarning")
    @settings(max_examples=100, deadline=None)  # each example forks up to 3 workers
    @given(data=csv_files())
    def test_same_as_the_line_parser(self, data):
        with tempfile.TemporaryDirectory() as name, pytest.MonkeyPatch.context() as m:
            chunked(m)
            path = Path(name) / "emb.csv"
            path.write_bytes(data)
            assert csv_outcome(read_embeddings_csv, path) == \
                csv_outcome(_read_embeddings_csv_lines, path)

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("last,want", [
        (b"1,2,3\n", (RaggedRow, 10)), (b"1,inf\n", (NonFiniteValue, 10)),
        (b"\n1,2\n", (RaggedRow, 10)), (b"1,\xff\n", (UnicodeDecodeError, None)),
    ], ids=["ragged", "inf", "empty-line", "not-utf8"])
    def test_refusal_in_the_last_chunk(self, tmp_path, monkeypatch, last, want):
        chunked(monkeypatch)
        path = tmp_path / "emb.csv"
        path.write_bytes(HEAD_DIM2.encode() + b"1,2\n" * 8 + last)  # 9 or 10 rows
        got = csv_outcome(read_embeddings_csv, path)
        assert got == csv_outcome(_read_embeddings_csv_lines, path)
        assert (got[0], got[2]) == want

    def test_plain_file_is_read_in_chunks_never_by_the_line_parser(self, tmp_path,
                                                                   monkeypatch):
        chunked(monkeypatch)
        shares, fork_map = [], p2l.fork.fork_map

        def spy(fn, tasks, cost):
            shares.append([len(task) for task in tasks])
            return fork_map(fn, tasks, cost)

        def refuse(path):
            raise AssertionError("line parser called on a plain file")
        monkeypatch.setattr(p2l.fork, "fork_map", spy)
        monkeypatch.setattr("p2l.io._read_embeddings_csv_lines", refuse)
        m = random_matrix(3, n=40, d=7)
        write_embeddings_csv(tmp_path / "emb.csv", m)
        assert read_embeddings_csv(tmp_path / "emb.csv").values.tobytes() == \
            m.values.tobytes()
        assert shares == [[13, 13, 14]]

    def test_plain_file_is_checked_for_finite_values_once(self, tmp_path, monkeypatch):
        """The matrix checks the values it is given; the reader checks none."""
        chunked(monkeypatch)
        monkeypatch.setattr(p2l.fork, "worker_count", lambda: 2)
        m = random_matrix(3, n=40, d=7)
        write_embeddings_csv(tmp_path / "emb.csv", m)
        calls, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite",
                            lambda *a, **kw: calls.append(1) or isfinite(*a, **kw))
        assert read_embeddings_csv(tmp_path / "emb.csv").values.tobytes() == \
            m.values.tobytes()
        assert len(calls) == 1


class TestEmbeddingsBin:
    def test_round_trip_widened(self, tmp_path):
        m = random_matrix(2, n=7, d=4)
        path = tmp_path / "emb.p2le"
        write_embeddings_bin(path, m)
        back = read_embeddings_bin(path)
        np.testing.assert_array_equal(back.values,
                                      m.values.astype(np.float32).astype(np.float64))
        assert back.extractor_id == m.extractor_id
        assert back.values.dtype == np.float64

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "one.p2le"
        payload = struct.pack("<4sIIQB", b"P2LE", 1, 1, 1, 1) + b"x"
        payload += struct.pack("<f", 1.0)
        path.write_bytes(payload)
        m = read_embeddings_bin(path)
        assert (m.items, m.dim) == (1, 1)
        assert m.values[0, 0] == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.p2le"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(BadMagic):
            read_embeddings_bin(path)

    def test_truncated_payload(self, tmp_path):
        m = random_matrix(3, n=10, d=2)
        path = tmp_path / "t.p2le"
        write_embeddings_bin(path, m)
        data = path.read_bytes()
        path.write_bytes(data[:-8])  # drop one row of float32s
        with pytest.raises(TruncatedFile):
            read_embeddings_bin(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.p2le"
        path.write_bytes(struct.pack("<4sIIQB", b"P2LE", 9, 1, 1, 1) + b"x" + b"\x00" * 4)
        with pytest.raises(UnsupportedVersion):
            read_embeddings_bin(path)

    def test_csv_and_bin_agree_within_f32(self, tmp_path):
        m = random_matrix(4, n=20, d=6)
        write_embeddings_csv(tmp_path / "m.csv", m)
        write_embeddings_bin(tmp_path / "m.bin", m)
        a = read_embeddings_csv(tmp_path / "m.csv")
        b = read_embeddings_bin(tmp_path / "m.bin")
        np.testing.assert_allclose(a.values, b.values, rtol=1e-6)

    def test_sniff_dispatch(self, tmp_path):
        m = random_matrix(5)
        write_embeddings_csv(tmp_path / "m.csv", m)
        write_embeddings_bin(tmp_path / "m.bin", m)
        assert sniff_and_read_embeddings(tmp_path / "m.csv").items == m.items
        assert sniff_and_read_embeddings(tmp_path / "m.bin").items == m.items


class TestRegistry:
    def profile(self, name="alpha", seed=0, role="source"):
        return profile_from_matrix(name, random_matrix(seed), role=role, size=123)

    def test_save_load_bit_exact(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        p = self.profile()
        reg.save(p)
        q = reg.load("alpha")
        assert (q.name, q.size, q.role, q.extractor_id) == \
               (p.name, p.size, p.role, p.extractor_id)
        assert q.summary.summarizer == p.summary.summarizer
        np.testing.assert_array_equal(q.summary.values, p.summary.values)
        np.testing.assert_array_equal(q.summary.raw_mean, p.summary.raw_mean)

    def test_pi_round_trip_bit_exact(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        values = np.array([math.pi, 1.0 - math.pi / 4.0])
        sv = SummaryVector(values=values / values.sum(), raw_mean=values,
                           summarizer=Summarizer.mean())
        p = DatasetProfile("pi", 7, sv, "ext")
        reg.save(p)
        q = reg.load("pi")
        assert q.summary.raw_mean[0] == math.pi
        assert q.summary.values.tobytes() == p.summary.values.tobytes()

    def test_collision_without_overwrite(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        reg.save(self.profile())
        with pytest.raises(NameCollision):
            reg.save(self.profile(seed=9))
        reg.save(self.profile(seed=9), overwrite=True)
        assert reg.load("alpha").summary.values[0] == \
               self.profile(seed=9).summary.values[0]

    def test_concurrent_new_saves_exactly_one_wins(self, tmp_path):
        ProfileRegistry.open(tmp_path / "reg")
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        results = ctx.Queue()
        workers = [ctx.Process(target=_save_after_barrier,
                               args=(tmp_path / "reg", seed, barrier, results))
                   for seed in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        outcomes = dict(results.get(timeout=5) for _ in workers)
        winners = [seed for seed, outcome in outcomes.items() if outcome == "saved"]
        assert len(winners) == 1
        assert sorted(outcomes.values()) == ["collision"] * 3 + ["saved"]
        stored = ProfileRegistry.open(tmp_path / "reg").load("alpha")
        assert stored.summary.values.tolist() == profile_from_matrix(
            "alpha", random_matrix(winners[0], n=2, d=20_000)).summary.values.tolist()
        # No temp file is left behind by the losers.
        assert sorted(p.name for p in (tmp_path / "reg").iterdir()) == \
            ["alpha.profile.json", "manifest.json"]

    def test_not_found(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        with pytest.raises(NotFound):
            reg.load("ghost")

    def test_profile_vanishing_before_read_is_not_found(self, tmp_path, monkeypatch):
        # A profile deleted by another process between listing and reading.
        reg = ProfileRegistry.open(tmp_path / "reg")
        reg.save(self.profile())

        def gone(self, *args, **kwargs):
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "open", gone)
        with pytest.raises(NotFound):
            reg.load("alpha")
        with pytest.raises(NotFound):
            reg.load_all()

    def test_profile_file_is_utf8_under_any_locale(self, tmp_path):
        """A profile whose JSON holds raw UTF-8 loads in a process whose locale
        encoding is not UTF-8."""
        src = str(Path(p2l.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))

        def child(code, *args):
            result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                                    capture_output=True, timeout=60)
            assert result.returncode == 0, result.stderr.decode(errors="replace")
            return result.stdout.decode("ascii")

        encoding = child("import locale; print(locale.getpreferredencoding(False))")
        if codecs.lookup(encoding.strip()).name == "utf-8":
            pytest.skip("the C locale's preferred encoding is UTF-8 here")
        ProfileRegistry.open(tmp_path).save(self.profile())
        path = tmp_path / "alpha.profile.json"
        path.write_bytes(path.read_bytes().replace(b'"vgg-like"', '"vèrso"'.encode()))
        assert child("import sys; from p2l.io import ProfileRegistry; "
                     "print(ascii(ProfileRegistry.open(sys.argv[1]).load('alpha')"
                     ".extractor_id))", str(tmp_path)) == "'v\\xe8rso'\n"

    def test_invalid_name(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        with pytest.raises(InvalidName):
            reg.load("../etc/passwd")

    def test_name_ending_in_a_newline_is_invalid(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        reg.save(self.profile("ab"))
        with pytest.raises(InvalidName):
            reg.save(self.profile("ab\n"))
        (reg.root / "ab.profile.json").rename(reg.root / "ab\n.profile.json")
        with pytest.raises(InvalidName):
            reg.load("ab\n")
        with pytest.raises(InvalidName):
            reg.load_all()

    def test_listing_sorted(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        for name in ("zebra", "apple", "mango"):
            reg.save(self.profile(name))
        assert reg.names() == ["apple", "mango", "zebra"]
        assert [p.name for p in reg.load_all()] == ["apple", "mango", "zebra"]

    def test_manifest_written_and_checked(self, tmp_path):
        root = tmp_path / "reg"
        ProfileRegistry.open(root)
        assert not root.exists()  # the first save makes the registry
        ProfileRegistry.open(root).save(self.profile())
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest == {"format": "p2l-registry", "version": 1}
        (root / "manifest.json").write_text(
            json.dumps({"format": "p2l-registry", "version": 2}))
        with pytest.raises(UnsupportedVersion):
            ProfileRegistry.open(root)
        (root / "manifest.json").write_text("[]")
        with pytest.raises(UnsupportedVersion):
            ProfileRegistry.open(root)

    def test_normalized_flag_must_be_true(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        reg.save(self.profile())
        path = tmp_path / "reg" / "alpha.profile.json"
        doc = json.loads(path.read_text())
        assert doc["normalized"] is True
        del doc["normalized"]
        path.write_text(json.dumps(doc))
        assert reg.load("alpha").summary.dim == 3
        for flag in (False, None, 0, 1, "true"):
            path.write_text(json.dumps({**doc, "normalized": flag}))
            with pytest.raises(UnsupportedVersion):
                reg.load("alpha")

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_get_the_mode_the_umask_allows(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            reg = ProfileRegistry.open(tmp_path / "reg")
            reg.save(self.profile())
            reg.load_all()
        finally:
            os.umask(old)
        for name in ("manifest.json", "alpha.profile.json", CACHE_NAME):
            assert stat.S_IMODE((tmp_path / "reg" / name).stat().st_mode) == mode

    def test_save_writes_profile_to_json(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        p = self.profile()
        reg.save(p)
        assert (tmp_path / "reg" / "alpha.profile.json").read_text() == \
            profile_to_json(p)


class TestOneReader:
    """load and load_all read a profile file's bytes the same way."""

    @staticmethod
    def outcome(call):
        """What call returns, or the class and message of what it raises."""
        try:
            return call()
        except (P2LError, ValueError) as exc:  # what the CLI reports as an error
            return type(exc), str(exc)

    @pytest.mark.parametrize("damage", ["none", "not_json", "crlf_not_json",
                                        "not_utf8", "missing_key", "renamed"])
    def test_load_and_cold_and_warm_load_all_agree(self, tmp_path, damage):
        reg = ProfileRegistry.open(tmp_path / "reg")
        reg.save(make_profile("alpha", [1.0, 3.0], [1.0, 3.0]))
        reg.load_all()  # caches the valid file's bytes
        path = reg.root / "alpha.profile.json"
        text, name = path.read_text(), "alpha"
        if damage == "not_json":
            path.write_text(text[:-5])
        elif damage == "crlf_not_json":  # newline translation moves the error
            path.write_bytes(text[:-5].replace("\n", "\r\n").encode())
        elif damage == "not_utf8":
            path.write_bytes(b"\xff" + text.encode())
        elif damage == "missing_key":
            path.write_text(text.replace('"dim"', '"dims"'))
        elif damage == "renamed":
            name = "beta"
            path.rename(reg.root / f"{name}.profile.json")
        one = self.outcome(lambda: [reg.load(name)])
        warm = self.outcome(reg.load_all)
        (reg.root / CACHE_NAME).unlink()
        cold = self.outcome(reg.load_all)
        if damage == "none":
            assert_same_profiles(warm, one)
            assert_same_profiles(cold, one)
        else:
            assert isinstance(one, tuple)  # load raised
            assert warm == cold == one


class TestProfileJson:
    @settings(max_examples=150, deadline=None)
    @given(profile=profiles(name=st.text(min_size=1, max_size=12)))
    def test_same_bytes_as_json_dumps_with_indent(self, profile):
        assert profile_to_json(profile) == \
            json.dumps(profile_to_dict(profile), indent=2) + "\n"


class TestSummaryCache:
    def registry(self, tmp_path, n=3, d=3):
        reg = ProfileRegistry.open(tmp_path / "reg")
        for i in range(n):
            reg.save(profile_from_matrix(f"p{i}", random_matrix(i, d=d), size=5 + i))
        return reg

    def no_parsing(self, monkeypatch):
        def refuse(doc):
            raise AssertionError("parsed a profile the cache holds")
        monkeypatch.setattr("p2l.io.profile_from_dict", refuse)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 512).flatmap(lambda d: st.lists(
        profiles(dim=st.just(d)), min_size=1, max_size=6, unique_by=lambda p: p.name)))
    def test_warm_load_equals_load_without_cache(self, saved):
        with tempfile.TemporaryDirectory() as name:
            reg = ProfileRegistry.open(name)
            for profile in saved:
                reg.save(profile)
            reg.load_all()
            assert (reg.root / CACHE_NAME).exists()
            warm = reg.load_all()
            (reg.root / CACHE_NAME).unlink()
            assert_same_profiles(warm, reg.load_all())
            assert_same_profiles(warm, json_only(reg.root))

    def test_warm_load_parses_nothing_and_rewrites_nothing(self, tmp_path,
                                                           monkeypatch):
        reg = self.registry(tmp_path)
        cold = reg.load_all()
        before = (reg.root / CACHE_NAME).stat()
        self.no_parsing(monkeypatch)
        assert_same_profiles(reg.load_all(), cold)
        after = (reg.root / CACHE_NAME).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_only_the_missed_profile_is_parsed(self, tmp_path, monkeypatch):
        reg = self.registry(tmp_path)
        reg.load_all()
        reg.save(profile_from_matrix("new", random_matrix(9)))
        expected = json_only(reg.root)
        parsed = []
        monkeypatch.setattr(
            "p2l.io.profile_from_dict",
            lambda doc: parsed.append(doc["name"]) or profile_from_dict(doc))
        assert_same_profiles(reg.load_all(), expected)
        assert parsed == ["new"]
        self.no_parsing(monkeypatch)
        assert_same_profiles(reg.load_all(), expected)

    def test_same_length_rewrite_in_the_same_tick_is_seen(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        before = make_profile("alpha", [1.0, 3.0], [1.0, 3.0])
        after = make_profile("alpha", [3.0, 1.0], [3.0, 1.0])
        reg.save(before)
        path = reg.root / "alpha.profile.json"
        stamp = path.stat()
        reg.load_all()
        reg.save(after, overwrite=True)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        assert_same_profiles(reg.load_all(), [after])

    def test_deleted_profile_is_dropped(self, tmp_path, monkeypatch):
        reg = self.registry(tmp_path)
        reg.load_all()
        (reg.root / "p1.profile.json").unlink()
        assert [p.name for p in reg.load_all()] == ["p0", "p2"]
        self.no_parsing(monkeypatch)
        assert [p.name for p in reg.load_all()] == ["p0", "p2"]

    @pytest.mark.parametrize("damage", [
        "truncated", "empty", "random", "bit_flip", "version", "missing_array",
        "row_missing", "widths_differ", "flat_vectors", "version_3_layout",
        "vector_lengths_differ", "float32_vectors", "entry_not_a_summary"])
    def test_damaged_cache_falls_back_to_json(self, tmp_path, monkeypatch, damage):
        reg = self.registry(tmp_path)
        reg.load_all()
        cache = reg.root / CACHE_NAME
        data = cache.read_bytes()
        with np.load(cache) as npz:
            arrays = dict(npz)
        values, raw = arrays["summary"], arrays["raw_mean"]
        if damage == "truncated":
            cache.write_bytes(data[:len(data) // 2])
        elif damage == "empty":
            cache.write_bytes(b"")
        elif damage == "random":
            cache.write_bytes(np.random.default_rng(0).bytes(len(data)))
        elif damage == "bit_flip":
            flipped = bytearray(data)
            flipped[data.index(values[:2].tobytes())] ^= 0x01
            cache.write_bytes(bytes(flipped))
        else:
            if damage == "version":
                arrays["version"] = np.array(2)
            elif damage == "missing_array":
                del arrays["raw_mean"]
            elif damage == "row_missing":
                arrays["summary"], arrays["raw_mean"] = values[:-1], raw[:-1]
            elif damage == "widths_differ":
                arrays["raw_mean"] = raw[:, :-1]
            elif damage == "flat_vectors":
                arrays["summary"], arrays["raw_mean"] = values.ravel(), raw.ravel()
            elif damage == "version_3_layout":
                # What CACHE_VERSION 3 wrote: the vectors concatenated, each
                # row's slice given by offsets.
                arrays.update(version=np.array(3), summary=values.ravel(),
                              raw_mean=raw.ravel(), offsets=np.arange(
                                  0, values.size + 1, values.shape[1], dtype=np.int64))
            elif damage == "vector_lengths_differ":
                arrays["raw_mean"] = arrays["raw_mean"][:-1]
            elif damage == "float32_vectors":
                arrays["summary"] = values.astype(np.float32)
            elif damage == "entry_not_a_summary":
                arrays["summary"] = values * 2.0
            with cache.open("wb") as fh:
                np.savez(fh, **arrays)
        expected = json_only(reg.root)
        assert_same_profiles(reg.load_all(), expected)
        # The damaged cache was replaced by a good one.
        self.no_parsing(monkeypatch)
        assert_same_profiles(reg.load_all(), expected)

    def test_profile_corrupted_after_caching_is_refused(self, tmp_path):
        reg = self.registry(tmp_path)
        reg.load_all()
        path = reg.root / "p1.profile.json"
        path.write_text(path.read_text().replace('"dim"', '"dims"'))
        with pytest.raises(BadHeader):
            reg.load_all()

    def test_unwritable_cache_loads_from_json(self, tmp_path, monkeypatch):
        reg = self.registry(tmp_path)

        def read_only(*args, **kwargs):
            raise PermissionError("read-only file system")

        monkeypatch.setattr("p2l.io.os.open", read_only)
        assert_same_profiles(reg.load_all(), json_only(reg.root))
        assert not (reg.root / CACHE_NAME).exists()

    def test_mixed_dimensions_are_refused(self, tmp_path):
        reg = self.registry(tmp_path)
        reg.load_all()
        odd = profile_from_matrix("p1b", random_matrix(7, d=4))
        reg.save(odd)
        for cache in ("warm", "cold"):
            if cache == "cold":
                (reg.root / CACHE_NAME).unlink()
            with pytest.raises(DimensionMismatch,
                               match="profile 'p1b' has dim 4, profile 'p0' has 3"):
                reg.load_all()
        assert not (reg.root / CACHE_NAME).exists()  # a refused load caches nothing
        # save and load take any dimension; only a whole shelf holds one.
        assert_same_profiles([reg.load("p1b")], [odd])

    def test_registry_moved_to_another_dimension_loads(self, tmp_path, monkeypatch):
        reg = self.registry(tmp_path)
        reg.load_all()
        (reg.root / "p2.profile.json").unlink()
        for i in range(2):
            reg.save(profile_from_matrix(f"p{i}", random_matrix(i, d=5)), overwrite=True)
        reg.save(profile_from_matrix("q", random_matrix(9, d=5)))
        expected = json_only(reg.root)
        assert {p.summary.dim for p in expected} == {5}
        assert_same_profiles(reg.load_all(), expected)
        self.no_parsing(monkeypatch)
        assert_same_profiles(reg.load_all(), expected)

    def test_save_between_hash_and_parse_leaves_no_stale_entry(self, tmp_path,
                                                                monkeypatch):
        reg = ProfileRegistry.open(tmp_path / "reg")
        first = make_profile("alpha", [1.0, 3.0], [1.0, 3.0])
        second = make_profile("alpha", [3.0, 1.0], [3.0, 1.0])
        reg.save(first)
        sha256 = hashlib.sha256

        def hash_then_save(data):
            # Another process replaces the file right after load_all hashed it.
            monkeypatch.setattr(hashlib, "sha256", sha256)
            reg.save(second, overwrite=True)
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", hash_then_save)
        assert_same_profiles(reg.load_all(), [first])
        assert_same_profiles(reg.load_all(), [second])
        reg.save(first, overwrite=True)
        assert_same_profiles(reg.load_all(), [first])

    def test_saves_racing_loads_leave_no_stale_entry(self, tmp_path):
        d = 500
        reg = self.registry(tmp_path, d=d)
        versions = [make_profile("alpha", np.arange(1.0, d + 1), np.arange(1.0, d + 1)),
                    make_profile("alpha", np.arange(d, 0.0, -1), np.arange(d, 0.0, -1))]
        reg.save(versions[0])
        ctx = multiprocessing.get_context("fork")
        workers = [ctx.Process(target=_alternate_saves, args=(reg.root, versions, 400))]
        workers += [ctx.Process(target=_load_repeatedly, args=(reg.root, 40))
                    for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        assert [w.exitcode for w in workers] == [0, 0, 0, 0]
        assert_same_profiles(reg.load_all(), json_only(reg.root))
        # Whatever the racing loads cached, each version's bytes map to it.
        for version in versions + versions:
            reg.save(version, overwrite=True)
            assert_same_profiles(reg.load_all()[:1], [version])


def settle(root):
    """Wait until the clock of root's file system has passed the last change
    to any profile file there, so that a file written next is strictly newer."""
    latest = max(p.stat().st_ctime_ns for p in root.glob("*.profile.json"))
    probe = root.parent / "clock-probe"
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > latest:
            return
        time.sleep(0.001)


class TestSummaryCacheStatKeys:
    """A warm load trusts a cache entry by its file's stat key only when the
    key is unchanged and older than the cache; every other file is hashed."""

    def registry(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        for i in range(3):
            reg.save(profile_from_matrix(f"p{i}", random_matrix(i, d=3), size=5 + i))
        return reg

    def reads(self, monkeypatch):
        """The names whose profile file ProfileRegistry._read opens from now on."""
        names = []
        read = ProfileRegistry._read
        monkeypatch.setattr(ProfileRegistry, "_read",
                            lambda reg, name: names.append(name) or read(reg, name))
        return names

    def test_unchanged_registry_older_than_the_cache_opens_no_profile_file(
            self, tmp_path, monkeypatch):
        reg = self.registry(tmp_path)
        settle(reg.root)
        cold = reg.load_all()
        before = (reg.root / CACHE_NAME).stat()
        opened = self.reads(monkeypatch)
        assert_same_profiles(reg.load_all(), cold)
        assert opened == []
        after = (reg.root / CACHE_NAME).stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @pytest.mark.parametrize("racy", ["file_mtime_after_cache", "cache_in_file_tick"])
    def test_entry_not_strictly_older_than_the_cache_is_hashed(
            self, tmp_path, monkeypatch, racy):
        reg = self.registry(tmp_path)
        path = reg.root / "p1.profile.json"
        if racy == "file_mtime_after_cache":
            future = time.time_ns() + 3600 * 10**9
            os.utime(path, ns=(future, future))
        settle(reg.root)
        reg.load_all()
        cache = reg.root / CACHE_NAME
        if racy == "cache_in_file_tick":
            os.utime(cache, ns=(cache.stat().st_atime_ns, path.stat().st_ctime_ns))
        written = cache.stat().st_mtime_ns
        racy_names = [name for name in reg.names()
                      if max((reg.root / f"{name}.profile.json").stat().st_mtime_ns,
                             (reg.root / f"{name}.profile.json").stat().st_ctime_ns)
                      >= written]
        assert "p1" in racy_names
        expected = json_only(reg.root)
        opened = self.reads(monkeypatch)
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        assert_same_profiles(reg.load_all(), expected)
        assert opened == racy_names and len(hashed) == len(racy_names)
        assert cache.stat().st_mtime_ns == written  # every hash matched: no rewrite

    def test_touched_files_are_hashed_once_and_then_trusted(self, tmp_path, monkeypatch):
        reg = self.registry(tmp_path)
        settle(reg.root)
        cold = reg.load_all()
        for path in reg.root.glob("*.profile.json"):
            stamp = path.stat()
            os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns - 10**9))
        settle(reg.root)
        opened = self.reads(monkeypatch)
        assert_same_profiles(reg.load_all(), cold)
        assert opened == reg.names()
        opened.clear()
        assert_same_profiles(reg.load_all(), cold)
        assert opened == []

    def test_in_place_rewrite_with_mtime_put_back_is_seen(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        before = make_profile("alpha", [1.0, 3.0], [1.0, 3.0])
        after = make_profile("alpha", [3.0, 1.0], [3.0, 1.0])
        reg.save(before)
        path = reg.root / "alpha.profile.json"
        settle(reg.root)
        reg.load_all()
        stamp = path.stat()
        data = profile_to_json(after).encode()
        assert len(data) == stamp.st_size
        with open(path, "r+b") as fh:
            fh.write(data)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        now = path.stat()
        assert (now.st_ino, now.st_size, now.st_mtime_ns) == \
               (stamp.st_ino, stamp.st_size, stamp.st_mtime_ns)
        assert now.st_ctime_ns > stamp.st_ctime_ns
        assert_same_profiles(reg.load_all(), [after])


def _bin(id_bytes, id_len=None, floats=(1.0,)):
    """A 1-column binary embeddings file holding floats, its header declaring
    id_len bytes of id (by default the length of id_bytes)."""
    id_len = len(id_bytes) if id_len is None else id_len
    return (struct.pack("<4sIIQB", b"P2LE", 1, 1, len(floats), id_len) + id_bytes
            + struct.pack(f"<{len(floats)}f", *floats))


TRUTH_HEADER = "target,source,perf_transfer,perf_scratch\n"


class TestRefusals:
    """Refused files, profile documents and ids: class, message and line."""

    @pytest.mark.parametrize("read,content,cls,message,line_no", [
        (read_embeddings_csv, "# p2l-embeddings v1 dim=0 extractor=x\n1\n",
         BadHeader, "{path}: dim must be >= 1", None),
        (read_embeddings_csv, "# p2l-embeddings v1 dim=2 extractor=x\n1,2\n1,z\n",
         NonFiniteValue, "line 3: unparseable value", 3),
        (read_embeddings_bin, b"P2", TruncatedFile, "file shorter than the magic bytes",
         None),
        (read_embeddings_bin, b"P2LE\x01\x00", TruncatedFile, "incomplete header", None),
        (read_embeddings_bin, _bin(b"", floats=()), EmptyMatrix,
         "embedding matrix must be at least 1x1, got 0x1", None),
        (read_embeddings_bin, _bin(b"ab", id_len=5, floats=()), TruncatedFile,
         "incomplete extractor id", None),
        (read_embeddings_bin, _bin(b"\xff"), BadHeader,
         "extractor id is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte", None),
        (read_embeddings_bin, _bin(b"x") + b"\x00", TruncatedFile,
         "1 trailing bytes after payload", None),
        (read_improvements_csv, TRUTH_HEADER + "t,s,0.5,0.25\nt,r,x,0.25\n",
         NonFiniteValue, "line 3: unparseable performance value", 3),
        (read_improvements_csv, TRUTH_HEADER + "t,s,0.5,nan\n",
         NonFiniteValue, "line 2: non-finite performance value", 2),
    ], ids=["csv-dim-0", "csv-unparseable", "bin-shorter-than-magic",
            "bin-incomplete-header", "bin-header-only", "bin-incomplete-id", "bin-id-not-utf8",
            "bin-trailing-bytes", "truth-unparseable", "truth-not-finite"])
    def test_malformed_file(self, tmp_path, read, content, cls, message, line_no):
        path = tmp_path / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(cls) as err:
            read(path)
        assert str(err.value) == message.format(path=path)
        assert getattr(err.value, "line_no", None) == line_no

    @pytest.mark.parametrize("field,value,cls,message", [
        ("version", 2, UnsupportedVersion, "profile version 2 unsupported"),
        ("dim", 3, RaggedRow, "declared dim 3 but vectors have 2"),
    ])
    def test_malformed_profile_document(self, field, value, cls, message):
        doc = profile_to_dict(make_profile("alpha", [1.0, 3.0], [1.0, 3.0]))
        with pytest.raises(cls) as err:
            profile_from_dict({**doc, field: value})
        assert str(err.value) == message
        assert getattr(err.value, "line_no", None) is None

    def test_binary_writer_refuses_a_256_byte_id(self, tmp_path):
        path = tmp_path / "emb.p2le"
        with pytest.raises(ValueError, match="^extractor id longer than 255 bytes$"):
            write_embeddings_bin(path, random_matrix(1, extractor="x" * 256))
        assert not path.exists()
        write_embeddings_bin(path, random_matrix(1, extractor="x" * 255))
        assert read_embeddings_bin(path).extractor_id == "x" * 255


class TestImprovementsCsv:
    def test_round_trip(self, tmp_path):
        from p2l.core import ImprovementRecord
        records = [ImprovementRecord("t1", "s1", 0.75, 0.5),
                   ImprovementRecord("t1", "s2", 0.25, 0.5)]
        path = tmp_path / "truth.csv"
        write_improvements_csv(path, records)
        back = read_improvements_csv(path)
        assert back == records

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(BadHeader):
            read_improvements_csv(path)

    def test_ragged(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("target,source,perf_transfer,perf_scratch\nt,s,0.5\n")
        with pytest.raises(RaggedRow):
            read_improvements_csv(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("target,source,perf_transfer,perf_scratch\nt,s,inf,0.5\n")
        with pytest.raises(NonFiniteValue):
            read_improvements_csv(path)


class TestGroupRecordsByTarget:
    def test_groups_in_first_seen_order(self):
        from p2l.core import ImprovementRecord
        records = [ImprovementRecord("t2", "s1", 0.5, 0.25),
                   ImprovementRecord("t1", "s1", 0.75, 0.5),
                   ImprovementRecord("t2", "s2", 0.25, 0.25)]
        grouped = group_records_by_target(records)
        assert list(grouped) == ["t2", "t1"]
        assert grouped["t2"] == [records[0], records[2]]

    def test_duplicate_pair_rejected(self):
        from p2l.core import ImprovementRecord
        records = [ImprovementRecord("t", "s", 0.5, 0.25),
                   ImprovementRecord("t", "s", 0.75, 0.25)]
        with pytest.raises(DuplicateSourceName):
            group_records_by_target(records)

    def test_disagreeing_scratch_rejected(self):
        from p2l.core import ImprovementRecord
        records = [ImprovementRecord("t", "a", 0.5, 0.5),
                   ImprovementRecord("t", "b", 0.5, 0.9)]
        with pytest.raises(InconsistentScratch):
            group_records_by_target(records)
