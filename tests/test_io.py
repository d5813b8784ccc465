import json
import math
import multiprocessing
import struct
from pathlib import Path

import numpy as np
import pytest

from p2l.core import DatasetProfile, EmbeddingMatrix, Summarizer, SummaryVector
from p2l.errors import (
    BadHeader,
    BadMagic,
    DuplicateSourceName,
    EmptyMatrix,
    InconsistentScratch,
    InvalidName,
    NameCollision,
    NonFiniteValue,
    NotFound,
    RaggedRow,
    TruncatedFile,
    UnsupportedVersion,
)
from p2l.io import (
    ProfileRegistry,
    group_records_by_target,
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


class TestEmbeddingsCsv:
    def test_round_trip(self, tmp_path):
        m = random_matrix(1)
        path = tmp_path / "emb.csv"
        write_embeddings_csv(path, m)
        back = read_embeddings_csv(path)
        np.testing.assert_array_equal(back.values, m.values)
        assert back.extractor_id == m.extractor_id

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

        monkeypatch.setattr(Path, "read_text", gone)
        with pytest.raises(NotFound):
            reg.load("alpha")

    def test_invalid_name(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        with pytest.raises(InvalidName):
            reg.load("../etc/passwd")

    def test_listing_sorted(self, tmp_path):
        reg = ProfileRegistry.open(tmp_path / "reg")
        for name in ("zebra", "apple", "mango"):
            reg.save(self.profile(name))
        assert reg.names() == ["apple", "mango", "zebra"]
        assert [p.name for p in reg.load_all()] == ["apple", "mango", "zebra"]

    def test_manifest_written_and_checked(self, tmp_path):
        root = tmp_path / "reg"
        ProfileRegistry.open(root)
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
