"""File formats: embedding matrices (CSV and binary) and the profile registry.

Embeddings are storage-dominant and use 32-bit floats on disk (binary form);
profiles are correctness-dominant and use decimal JSON text that round-trips
64-bit floats bit-exactly.
"""
from __future__ import annotations

import json
import math
import os
import re
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import DatasetProfile, EmbeddingMatrix, ImprovementRecord, Summarizer, SummaryVector
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
    RaggedRow,
    TruncatedFile,
    UnsupportedVersion,
)

CSV_HEADER_RE = re.compile(r"^# p2l-embeddings v1 dim=(\d+) extractor=(\S+)\s*$")
BIN_MAGIC = b"P2LE"
BIN_VERSION = 1
_BIN_HEAD = struct.Struct("<4sIIQB")  # magic, version, dim, count, id length
_NAME_RE = re.compile(r"^[A-Za-z0-9_-]+$")
MANIFEST_NAME = "manifest.json"
IMPROVEMENTS_HEADER = "target,source,perf_transfer,perf_scratch"
PROFILE_KEYS = ("name", "role", "size", "dim", "summarizer", "extractor_id",
                "raw_mean", "summary")


def fmt(x: float) -> str:
    """Shortest decimal that parses back to the identical 64-bit float."""
    return repr(float(x))


def _atomic_write_text(path: Path, text: str, replace: bool = True) -> None:
    """Write a temp file and move it to path in one step; without replace it
    is hard-linked there, raising FileExistsError rather than clobbering."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        (os.replace if replace else os.link)(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# -- embedding matrices ---------------------------------------------------------

def read_embeddings_csv(path) -> EmbeddingMatrix:
    """Header '# p2l-embeddings v1 dim=<d> extractor=<id>' then one row per line."""
    path = Path(path)
    with path.open("r") as fh:
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
    lines = [f"# p2l-embeddings v1 dim={matrix.dim} extractor={matrix.extractor_id}"]
    for row in matrix.values:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


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
        "raw_mean": [float(x) for x in profile.summary.raw_mean],
        "summary": [float(x) for x in profile.summary.values],
    }


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


@dataclass
class ProfileRegistry:
    """Directory of '<name>.profile.json' files plus a format manifest.

    Writes are atomic (temp file, then rename or link); listing is sorted.
    """

    root: Path

    @classmethod
    def open(cls, root) -> "ProfileRegistry":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        manifest = root / MANIFEST_NAME
        if manifest.exists():
            doc = json.loads(manifest.read_text())
            if (not isinstance(doc, dict) or doc.get("format") != "p2l-registry"
                    or doc.get("version") != 1):
                raise UnsupportedVersion(f"registry manifest {doc!r} unsupported")
        else:
            _atomic_write_text(
                manifest,
                json.dumps({"format": "p2l-registry", "version": 1}, indent=2) + "\n")
        return cls(root=root)

    def _path(self, name: str) -> Path:
        if not _NAME_RE.match(name):
            raise InvalidName(f"profile name {name!r} is not filesystem-safe")
        return self.root / f"{name}.profile.json"

    def save(self, profile: DatasetProfile, overwrite: bool = False) -> None:
        path = self._path(profile.name)
        text = json.dumps(profile_to_dict(profile), indent=2) + "\n"
        try:
            _atomic_write_text(path, text, replace=overwrite)
        except FileExistsError:
            raise NameCollision(f"profile {profile.name!r} already exists") from None

    def load(self, name: str) -> DatasetProfile:
        try:
            text = self._path(name).read_text()
        except FileNotFoundError:
            raise NotFound(f"no profile named {name!r} in {self.root}") from None
        return profile_from_dict(json.loads(text))

    def names(self) -> list[str]:
        suffix = ".profile.json"
        return sorted(p.name[:-len(suffix)] for p in self.root.glob(f"*{suffix}"))

    def load_all(self) -> list[DatasetProfile]:
        return [self.load(name) for name in self.names()]


# -- ground-truth interchange -------------------------------------------------------

def read_improvements_csv(path) -> list[ImprovementRecord]:
    """Four-column interchange format: target,source,perf_transfer,perf_scratch."""
    path = Path(path)
    records = []
    with path.open("r") as fh:
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
    Path(path).write_text("\n".join(lines) + "\n")


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
