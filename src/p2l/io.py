"""File formats: embedding matrices (CSV and binary) and the profile registry.

Embeddings are storage-dominant and use 32-bit floats on disk (binary form);
profiles are correctness-dominant and use decimal JSON text that round-trips
64-bit floats bit-exactly.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

import numpy as np

from .core import (
    DatasetProfile,
    EmbeddingMatrix,
    ImprovementRecord,
    Shelf,
    Summarizer,
    SummaryVector,
)
from .errors import (
    BadHeader,
    BadMagic,
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

CSV_HEADER_RE = re.compile(r"^# p2l-embeddings v1 dim=(\d+) extractor=(\S+)\s*$")
BIN_MAGIC = b"P2LE"
BIN_VERSION = 1
_BIN_HEAD = struct.Struct("<4sIIQB")  # magic, version, dim, count, id length
_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")
MANIFEST_NAME = "manifest.json"
PROFILE_SUFFIX = ".profile.json"
CACHE_NAME = ".p2l-summaries.npz"
# 3: entries carry the stat key of the file they were read from (2 was never
# written).
CACHE_VERSION = 3
IMPROVEMENTS_HEADER = "target,source,perf_transfer,perf_scratch"
PROFILE_KEYS = ("name", "role", "size", "dim", "summarizer", "extractor_id",
                "raw_mean", "summary")


def fmt(x: float) -> str:
    """Shortest decimal that parses back to the identical 64-bit float."""
    return repr(float(x))


def write_lines(path, lines: Iterable[str]) -> None:
    """A UTF-8 text file of these lines, each ending in a newline, written line
    by line so that a generator of lines is never held whole."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _atomic_write(path: Path, write: Callable[[BinaryIO], object],
                  replace: bool = True) -> None:
    """Have write() fill a temp file, then move it to path in one step; without
    replace it is hard-linked there, raising FileExistsError rather than
    clobbering. The file's mode is 0o666 less the umask, as open() gives."""
    tmp = path.with_name(f"{path.name}{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        (os.replace if replace else os.link)(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# -- embedding matrices ---------------------------------------------------------

def read_embeddings_csv(path) -> EmbeddingMatrix:
    """Header '# p2l-embeddings v1 dim=<d> extractor=<id>' then one row per line,
    each field read as float() reads it.

    numpy's C parser reads the rows. A file it refuses, or one on which it
    could part from the line rule (not UTF-8, a bad header, no rows, an empty
    line, a value that is not finite), is read again by the line parser,
    which then gives the answer and every refusal."""
    path = Path(path)
    values = None
    try:
        # Universal newlines, as the line parser's text-mode iteration reads them.
        header, _, body = path.read_text(encoding="utf-8").partition("\n")
        m = CSV_HEADER_RE.match(header)
        dim = int(m.group(1)) if m else 0
        lines = body.split("\n")
        if lines[-1] == "":
            lines.pop()  # the newline that ends the last row
        if dim >= 1 and lines and "" not in lines:
            values = np.loadtxt(lines, delimiter=",", dtype=np.float64,
                                comments=None, ndmin=2)
    except ValueError:  # not UTF-8, or a field numpy does not read
        pass
    if values is not None and values.shape == (len(lines), dim) and np.isfinite(values).all():
        return EmbeddingMatrix(values, m.group(2))
    return _read_embeddings_csv_lines(path)


def _read_embeddings_csv_lines(path: Path) -> EmbeddingMatrix:
    """read_embeddings_csv one line at a time: the rule it reads by."""
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        m = CSV_HEADER_RE.match(header)
        if not m:
            raise BadHeader(f"{path}: missing or malformed embeddings header")
        dim = int(m.group(1))
        extractor_id = m.group(2)
        if dim < 1:
            raise BadHeader(f"{path}: dim must be >= 1")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != dim:
                raise RaggedRow(f"expected {dim} values, got {len(parts)}", line_no)
            try:
                row = [float(x) for x in parts]
            except ValueError:
                raise NonFiniteValue("unparseable value", line_no) from None
            if not all(math.isfinite(v) for v in row):
                raise NonFiniteValue("non-finite value", line_no)
            rows.append(row)
    if not rows:
        raise EmptyMatrix(f"{path}: no data rows")
    return EmbeddingMatrix(np.array(rows, dtype=np.float64), extractor_id)


def write_embeddings_csv(path, matrix: EmbeddingMatrix) -> None:
    if not re.fullmatch(r"\S+", matrix.extractor_id):  # as CSV_HEADER_RE reads it
        raise ValueError(f"extractor id {matrix.extractor_id!r} holds whitespace, "
                         "which the CSV header cannot carry")
    header = f"# p2l-embeddings v1 dim={matrix.dim} extractor={matrix.extractor_id}"
    rows = (",".join(map(float.__repr__, row.tolist())) for row in matrix.values)
    write_lines(path, itertools.chain([header], rows))


def read_embeddings_bin(path) -> EmbeddingMatrix:
    """Binary layout: 'P2LE', u32 version, u32 dim, u64 count, u8 id length,
    id bytes, then count*dim little-endian float32 row-major."""
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise TruncatedFile("file shorter than the magic bytes")
    if data[:4] != BIN_MAGIC:
        raise BadMagic(f"expected magic {BIN_MAGIC!r}, got {data[:4]!r}")
    if len(data) < _BIN_HEAD.size:
        raise TruncatedFile("incomplete header")
    _, version, dim, count, id_len = _BIN_HEAD.unpack_from(data)
    if version != BIN_VERSION:
        raise UnsupportedVersion(f"embeddings format version {version} unsupported")
    offset = _BIN_HEAD.size
    if len(data) < offset + id_len:
        raise TruncatedFile("incomplete extractor id")
    try:
        extractor_id = data[offset:offset + id_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadHeader(f"extractor id is not valid UTF-8: {exc}") from None
    offset += id_len
    expected = offset + count * dim * 4
    if len(data) < expected:
        raise TruncatedFile(
            f"declared {count}x{dim} floats but payload is short by "
            f"{expected - len(data)} bytes")
    if len(data) > expected:
        raise TruncatedFile(f"{len(data) - expected} trailing bytes after payload")
    values = np.frombuffer(data, dtype="<f4", count=count * dim, offset=offset)
    return EmbeddingMatrix(values.astype(np.float64).reshape(count, dim), extractor_id)


def write_embeddings_bin(path, matrix: EmbeddingMatrix) -> None:
    id_bytes = matrix.extractor_id.encode("utf-8")
    if len(id_bytes) > 255:
        raise ValueError("extractor id longer than 255 bytes")
    head = _BIN_HEAD.pack(BIN_MAGIC, BIN_VERSION, matrix.dim, matrix.items,
                          len(id_bytes))
    payload = matrix.values.astype("<f4").tobytes(order="C")
    Path(path).write_bytes(head + id_bytes + payload)


def sniff_and_read_embeddings(path) -> EmbeddingMatrix:
    """Dispatch on the magic bytes: binary if P2LE, CSV otherwise."""
    with Path(path).open("rb") as fh:
        head = fh.read(4)
    if head == BIN_MAGIC:
        return read_embeddings_bin(path)
    return read_embeddings_csv(path)


# -- profile registry -------------------------------------------------------------

def profile_to_dict(profile: DatasetProfile) -> dict:
    return {
        "format": "p2l-profile",
        "version": 1,
        "name": profile.name,
        "role": profile.role,
        "size": profile.size,
        "dim": profile.summary.dim,
        "summarizer": profile.summary.summarizer.label(),
        "extractor_id": profile.extractor_id,
        "normalized": True,
        "raw_mean": profile.summary.raw_mean.tolist(),
        "summary": profile.summary.values.tolist(),
    }


def profile_to_json(profile: DatasetProfile) -> str:
    """The profile file's text: json.dumps(profile_to_dict(profile), indent=2)
    plus a newline, byte for byte, without the pure-Python encoder that
    indent selects."""
    fields = []
    for key, value in profile_to_dict(profile).items():
        if isinstance(value, list):
            text = "[\n    " + ",\n    ".join(map(float.__repr__, value)) + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def profile_from_dict(doc) -> DatasetProfile:
    if not isinstance(doc, dict) or doc.get("format") != "p2l-profile":
        raise BadHeader("not a profile document")
    if doc.get("version") != 1:
        raise UnsupportedVersion(f"profile version {doc.get('version')!r} unsupported")
    missing = [key for key in PROFILE_KEYS if key not in doc]
    if missing:
        raise BadHeader(f"profile document lacks {', '.join(missing)}")
    if doc.get("normalized", True) is not True:
        raise UnsupportedVersion(
            f"profile 'normalized' flag {doc['normalized']!r} unsupported; "
            "summaries are L1-normalized")
    summary = SummaryVector(values=doc["summary"], raw_mean=doc["raw_mean"],
                            summarizer=Summarizer.parse(doc["summarizer"]))
    if summary.dim != doc["dim"]:
        raise RaggedRow(f"declared dim {doc['dim']} but vectors have {summary.dim}")
    return DatasetProfile(name=doc["name"], size=doc["size"], summary=summary,
                          extractor_id=doc["extractor_id"], role=doc["role"])


def _parse_profile(data: bytes) -> DatasetProfile:
    """The profile in a profile file's bytes: UTF-8 JSON, whatever the locale,
    read with universal newlines as Path.read_text reads a file."""
    text = data.decode("utf-8")
    return profile_from_dict(json.loads(text.replace("\r\n", "\n").replace("\r", "\n")))


# Whatever a damaged, foreign or half-written cache file can make np.load,
# json or the shelf's checks raise.
_CACHE_READ_ERRORS = (OSError, EOFError, AttributeError, KeyError, TypeError,
                      ValueError, MemoryError, zipfile.BadZipFile, P2LError)


def _stat_key(st: os.stat_result) -> list[int]:
    """What a cache entry records of the file its bytes were read from."""
    return [st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _read_summary_cache(path: Path) -> tuple[Shelf, list, int]:
    """The rows of a summary cache as one checked Shelf, each row's
    (sha256, stat key) entry, and the cache file's mtime_ns; no rows when the
    cache is missing or cannot be trusted whole."""
    try:
        with path.open("rb") as fh:
            written = os.fstat(fh.fileno()).st_mtime_ns
            with np.load(fh, allow_pickle=False) as npz:
                version, meta, offsets, values, raw = (
                    npz[key] for key in ("version", "meta", "offsets", "summary", "raw_mean"))
        if version.tolist() != CACHE_VERSION:
            raise ValueError("another cache version")
        entries = json.loads(meta.tobytes())
        if not (offsets.dtype == np.int64 and values.dtype == raw.dtype == np.float64):
            raise ValueError("cache arrays of another type")
        hashes, names, sizes, roles, labels, extractor_ids, stats = (
            list(zip(*entries, strict=True)) or [()] * 7)
        for arr in (offsets, values, raw):
            arr.flags.writeable = False
        shelf = Shelf(names, sizes, roles, extractor_ids, labels, values, raw, offsets)
        return shelf, list(zip(hashes, stats)), written
    except _CACHE_READ_ERRORS:
        return Shelf.of(()), [], 0


def _write_summary_cache(fh: BinaryIO, shelf: Shelf, keys) -> None:
    """The stacked form _read_summary_cache reads: one meta entry per row,
    holding its (sha256, stat key) from keys, and the rows' vectors
    concatenated, row i's at offsets[i]:offsets[i + 1]."""
    entries = [[sha, *row, stat] for (sha, stat), row in zip(keys, zip(
        shelf.names, shelf.sizes, shelf.roles, shelf.labels, shelf.extractor_ids))]
    np.savez(fh, version=np.array(CACHE_VERSION),
             meta=np.frombuffer(json.dumps(entries).encode(), dtype=np.uint8),
             offsets=shelf.offsets, summary=shelf.summary, raw_mean=shelf.raw_mean)


def _unchanged(path: str, stat, written: int) -> bool:
    """Whether the file at path still has the stat key an entry recorded, and
    the recorded times are strictly older than the cache's own mtime
    (written): git's racy-timestamp rule, as a change within the clock tick
    of the cache's write may leave every time as it was."""
    try:
        st = os.stat(path)
    except OSError:
        return False
    return stat == _stat_key(st) and max(stat[2], stat[3]) < written


@dataclass
class ProfileRegistry:
    """Directory of '<name>.profile.json' files plus a format manifest.

    Writes are atomic (temp file, then rename or link); listing is sorted.
    load_all keeps a derived summary cache beside the profiles (CACHE_NAME):
    a stacked copy of every profile it loaded, with the sha256 of the profile
    file's bytes and the file's stat key, so that a file whose stat has not
    changed is not read again and a profile whose bytes it has seen is not
    parsed again. The JSON files stay the only source of truth.
    """

    root: Path

    @classmethod
    def open(cls, root) -> "ProfileRegistry":
        """The registry at root, which need not exist: opening writes nothing,
        and the first save makes the directory and its manifest. A manifest
        that is there must be one this version reads."""
        root = Path(root)
        manifest = root / MANIFEST_NAME
        if manifest.exists():
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            if (not isinstance(doc, dict) or doc.get("format") != "p2l-registry"
                    or doc.get("version") != 1):
                raise UnsupportedVersion(f"registry manifest {doc!r} unsupported")
        return cls(root=root)

    def _path(self, name: str) -> Path:
        if not _NAME_RE.fullmatch(name):
            raise InvalidName(f"profile name {name!r} is not filesystem-safe")
        return self.root / f"{name}{PROFILE_SUFFIX}"

    def save(self, profile: DatasetProfile, overwrite: bool = False) -> None:
        path = self._path(profile.name)
        manifest = self.root / MANIFEST_NAME
        if not manifest.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            text = json.dumps({"format": "p2l-registry", "version": 1}, indent=2) + "\n"
            _atomic_write(manifest, lambda fh: fh.write(text.encode()))
        try:
            _atomic_write(path, lambda fh: fh.write(profile_to_json(profile).encode()),
                          replace=overwrite)
        except FileExistsError:
            raise NameCollision(f"profile {profile.name!r} already exists") from None

    def _read(self, name: str) -> tuple[os.stat_result, bytes]:
        """name's profile file: the stat of the open file, taken before its
        bytes are read, and the bytes."""
        try:
            with self._path(name).open("rb") as fh:
                return os.fstat(fh.fileno()), fh.read()
        except FileNotFoundError:
            raise NotFound(f"no profile named {name!r} in {self.root}") from None

    def load(self, name: str) -> DatasetProfile:
        return self._named(name, _parse_profile(self._read(name)[1]))

    def _named(self, name: str, profile: DatasetProfile) -> DatasetProfile:
        """The profile read from name's file, which must be the profile name."""
        if profile.name != name:
            raise BadHeader(f"{self._path(name)} holds profile {profile.name!r}; "
                            f"a profile file is named after its profile")
        return profile

    def names(self) -> list[str]:
        """The names of the profile files, sorted; none when root is no directory."""
        try:
            entries = os.listdir(self.root)
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(entry[:-len(PROFILE_SUFFIX)] for entry in entries
                      if entry.endswith(PROFILE_SUFFIX))

    def load_all(self) -> Shelf:
        """Every profile, in names() order, as one Shelf. As with load(), a
        file must hold the profile it is named after.

        A file is not opened when the summary cache vouches for it: its stat
        key (inode, length, mtime_ns, ctime_ns) is the one recorded when its
        bytes were read, and the recorded times are strictly older than the
        cache file's own mtime. Any other file is read and hashed, and parsed
        unless its sha256 is the one the cache holds for its name.

        The cache is rewritten when a file was parsed, a hashed file's stat
        key differs from its entry's (say, after a touch or a copy, so that
        the next load trusts it again), or an entry was dropped. A cache that
        cannot be read or written changes nothing but the time taken.
        """
        cache = self.root / CACHE_NAME
        cached, entries, written = _read_summary_cache(cache)
        row_of = {name: i for i, name in enumerate(cached.names)}
        rows, keys, parsed, stale = [], [], [], False
        root = os.fspath(self.root)
        for name in self.names():
            i = row_of.get(name)
            sha, stat = entries[i] if i is not None else (None, None)
            # A plain string path: a Path object per file costs as much as its stat.
            if i is None or not (_NAME_RE.fullmatch(name) and _unchanged(
                    os.path.join(root, name + PROFILE_SUFFIX), stat, written)):
                st, data = self._read(name)
                digest, read_stat = hashlib.sha256(data).hexdigest(), _stat_key(st)
                stale |= (digest, read_stat) != (sha, stat)
                if digest != sha:
                    i = len(cached) + len(parsed)
                    parsed.append(self._named(name, _parse_profile(data)))
                sha, stat = digest, read_stat
            rows.append(i)
            keys.append((sha, stat))
        shelf = Shelf.concat([cached, Shelf.of(parsed)]) if parsed else cached
        shelf = shelf.take(rows)
        if stale or len(rows) != len(cached):
            try:
                _atomic_write(cache, lambda fh: _write_summary_cache(fh, shelf, keys))
            except OSError:
                pass  # a read-only registry loads from JSON every time
        return shelf


# -- ground-truth interchange -------------------------------------------------------

def read_improvements_csv(path) -> list[ImprovementRecord]:
    """Four-column interchange format: target,source,perf_transfer,perf_scratch."""
    path = Path(path)
    records = []
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != IMPROVEMENTS_HEADER:
            raise BadHeader(
                f"{path}: expected header {IMPROVEMENTS_HEADER!r}, got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != 4:
                raise RaggedRow(f"expected 4 fields, got {len(parts)}", line_no)
            try:
                transfer = float(parts[2])
                scratch = float(parts[3])
            except ValueError:
                raise NonFiniteValue("unparseable performance value", line_no) from None
            if not (math.isfinite(transfer) and math.isfinite(scratch)):
                raise NonFiniteValue("non-finite performance value", line_no)
            records.append(ImprovementRecord(parts[0], parts[1], transfer, scratch))
    return records


def write_improvements_csv(path, records: Iterable[ImprovementRecord]) -> None:
    lines = [IMPROVEMENTS_HEADER]
    for r in records:
        lines.append(f"{r.target_name},{r.source_name},"
                     f"{fmt(r.perf_transfer)},{fmt(r.perf_scratch)}")
    write_lines(path, lines)


def group_records_by_target(records: Iterable[ImprovementRecord],
                            ) -> dict[str, list[ImprovementRecord]]:
    """Records per target, targets in first-seen order.

    Rejects a (target, source) pair that appears twice and a target whose
    records disagree on its from-scratch performance.
    """
    grouped: dict[str, list[ImprovementRecord]] = {}
    pairs = set()
    for r in records:
        if (r.target_name, r.source_name) in pairs:
            raise DuplicateSourceName(
                f"ground truth pairs target {r.target_name!r} with source "
                f"{r.source_name!r} twice")
        pairs.add((r.target_name, r.source_name))
        recs = grouped.setdefault(r.target_name, [])
        if recs and r.perf_scratch != recs[0].perf_scratch:
            raise InconsistentScratch(
                f"target {r.target_name!r} has perf_scratch "
                f"{fmt(recs[0].perf_scratch)} and {fmt(r.perf_scratch)}")
        recs.append(r)
    return grouped
