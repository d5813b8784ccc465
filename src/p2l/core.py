"""Domain types shared across the source-selection pipeline.

All types are immutable after construction (arrays are stored read-only) and
safe to share between threads.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, EmptyMatrix, NonFiniteValue

# Scores equal once rounded to a multiple of this tie when ranked.
SCORE_IDENTITY_TOL = 1e-12
# Normalized summaries must sum to 1 within this.
L1_TOL = 1e-9
# Smoothing weight of the probability distances in every ranking.
EPSILON = 1e-6


class DivergenceKind(str, Enum):
    """Candidate dissimilarity functions between dataset summaries.

    Declaration order doubles as the deterministic tie-break order used by
    calibration.
    """

    KL = "KL"
    JSD = "JSD"
    CHI2 = "CHI2"
    EUC = "EUC"
    CITYBLOCK = "CITYBLOCK"

# Kinds that interpret summaries as probability vectors and need smoothing.
PROBABILITY_KINDS = frozenset(
    (DivergenceKind.KL, DivergenceKind.JSD, DivergenceKind.CHI2)
)


def _owned(values, dtype) -> np.ndarray:
    """values as an array of dtype that no caller can write: a copy, unless
    it is read-only already."""
    arr = np.asarray(values, dtype=dtype)
    return arr.copy() if arr.flags.writeable else arr


def _readonly_1d(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Summarizer:
    """How a matrix of per-item vectors is collapsed to one vector."""

    kind: str = "mean"
    fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("mean", "trimmed_mean"):
            raise ValueError(f"unknown summarizer kind {self.kind!r}")
        if self.kind == "mean" and self.fraction != 0.0:
            raise ValueError("plain mean takes no trim fraction")
        if not (0.0 <= self.fraction < 0.5):
            raise ValueError("trim fraction must lie in [0, 0.5)")

    @classmethod
    def mean(cls) -> "Summarizer":
        return cls("mean", 0.0)

    @classmethod
    def trimmed(cls, fraction: float) -> "Summarizer":
        return cls("trimmed_mean", float(fraction))

    def label(self) -> str:
        if self.kind == "mean":
            return "mean"
        return f"trimmed_mean:{self.fraction!r}"

    @classmethod
    def parse(cls, text: str) -> "Summarizer":
        """Accepts 'mean', 'trimmed:<f>' (CLI form) or 'trimmed_mean:<f>'."""
        if not isinstance(text, str):
            raise ValueError(f"summarizer must be a string, got {text!r}")
        if text == "mean":
            return cls.mean()
        for prefix in ("trimmed_mean:", "trimmed:"):
            if text.startswith(prefix):
                return cls.trimmed(float(text[len(prefix):]))
        raise ValueError(f"unknown summarizer {text!r}")


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Per-item feature vectors for one dataset, as produced by one extractor."""

    values: np.ndarray
    extractor_id: str

    def __post_init__(self):
        arr = _owned(self.values, np.float64)
        if arr.ndim != 2:
            raise EmptyMatrix(f"embedding matrix must be 2-d, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise EmptyMatrix(f"embedding matrix must be at least 1x1, got {n}x{d}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("embedding matrix contains NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if not self.extractor_id:
            raise ValueError("extractor_id must be nonempty")
        eid = self.extractor_id
        if not eid.isprintable() or "," in eid or '"' in eid:  # CSV rows print it bare
            raise ValueError(f"extractor id {eid!r} holds a comma, a double quote "
                             "or a non-printable character")

    @classmethod
    def adopt(cls, values: np.ndarray, extractor_id: str) -> "EmbeddingMatrix":
        """The matrix of values, a fresh float64 array that no one else holds
        (a reader's or an extractor's): made read-only, it is kept, not copied."""
        values.flags.writeable = False
        return cls(values, extractor_id)

    @property
    def items(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class SummaryVector:
    """One vector summarizing a whole dataset.

    ``values`` is the L1-normalized summary, a probability vector; ``raw_mean``
    is the (trimmed) mean it was normalized from.
    """

    values: np.ndarray
    raw_mean: np.ndarray
    summarizer: Summarizer

    def __post_init__(self):
        values = _readonly_1d(self.values)
        raw = _readonly_1d(self.raw_mean)
        if values.shape != raw.shape:
            raise ValueError("values and raw_mean must have the same dimension")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(raw))):
            raise NonFiniteValue("summary vector contains NaN or Inf")
        if values.min(initial=np.inf) < 0.0:
            raise ValueError("normalized summary has a negative component")
        if abs(float(values.sum()) - 1.0) > L1_TOL:
            raise ValueError("normalized summary does not sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "raw_mean", raw)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class DatasetProfile:
    """Persisted unit of the source registry: summary vector plus size."""

    name: str
    size: int
    summary: SummaryVector
    extractor_id: str
    role: str = "source"

    def __post_init__(self):
        for field, value in (("name", self.name), ("extractor_id", self.extractor_id)):
            if not (isinstance(value, str) and value):
                raise ValueError(f"{field} must be a nonempty string, got {value!r}")
        if (isinstance(self.size, bool) or not isinstance(self.size, (int, np.integer))
                or self.size < 1):
            raise ValueError(f"size must be a positive integer item count, "
                             f"got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))
        if self.role not in ("source", "target"):
            raise ValueError(f"role must be 'source' or 'target', got {self.role!r}")


def _parses(label) -> bool:
    try:
        Summarizer.parse(label)
    except ValueError:
        return False
    return True


def _one_dim(names, dims) -> int:
    """The dimension every row has, 0 for no rows; the first row whose
    dimension differs from the first row's is refused."""
    for name, dim in zip(names, dims):
        if dim != dims[0]:
            raise DimensionMismatch(f"profile {name!r} has dim {dim}, profile "
                                    f"{names[0]!r} has {dims[0]}; a shelf holds "
                                    "one feature space")
    return dims[0] if dims else 0


class Shelf(Sequence[DatasetProfile]):
    """Profiles of one dimension stored by column, as the registry loads them.

    Row i is the profile named names[i]: sizes[i], roles[i], extractor_ids[i],
    labels[i] (its summarizer's label) and the vectors summary[i] and
    raw_mean[i], rows of two (rows, dim) matrices. Building a shelf from
    columns checks every row as SummaryVector and DatasetProfile check one, in
    one numpy pass over the matrices; the first bad row raises the error its
    own profile raises. Shelf.of stacks profiles, which are checked already.
    As a read-only Sequence of DatasetProfile, a shelf builds row i's profile
    only when it is asked for it.
    """

    __slots__ = ("names", "sizes", "roles", "extractor_ids", "labels",
                 "summary", "raw_mean")

    def __init__(self, names: Iterable[str], sizes: Iterable[int], roles: Iterable[str],
                 extractor_ids: Iterable[str], labels: Iterable[str], summary, raw_mean):
        self._fill(names, sizes, roles, extractor_ids, labels, _owned(summary, np.float64),
                   _owned(raw_mean, np.float64))
        self._check()

    @classmethod
    def of(cls, profiles: Iterable[DatasetProfile]) -> "Shelf":
        """These profiles stacked by column; a shelf is returned as it is."""
        if isinstance(profiles, Shelf):
            return profiles
        profiles = list(profiles)
        summaries = [p.summary for p in profiles]
        shape = len(profiles), _one_dim([p.name for p in profiles],
                                        [s.dim for s in summaries])
        return cls._unchecked(
            [p.name for p in profiles], [p.size for p in profiles],
            [p.role for p in profiles], [p.extractor_id for p in profiles],
            [s.summarizer.label() for s in summaries],
            np.array([s.values for s in summaries], dtype=np.float64).reshape(shape),
            np.array([s.raw_mean for s in summaries], dtype=np.float64).reshape(shape))

    @classmethod
    def concat(cls, shelves: Iterable["Shelf"]) -> "Shelf":
        """The rows of these shelves, one shelf after the other."""
        shelves = [s for s in shelves if s]
        if not shelves:
            return cls.of(())
        _one_dim([s.names[0] for s in shelves], [s.summary.shape[1] for s in shelves])
        return cls._unchecked(
            *(sum((getattr(s, column) for s in shelves), ())
              for column in ("names", "sizes", "roles", "extractor_ids", "labels")),
            np.concatenate([s.summary for s in shelves]),
            np.concatenate([s.raw_mean for s in shelves]))

    @classmethod
    def _unchecked(cls, *columns) -> "Shelf":
        """A shelf of rows already checked, taking over the arrays given."""
        shelf = cls.__new__(cls)
        shelf._fill(*columns)
        return shelf

    def _fill(self, names, sizes, roles, extractor_ids, labels, summary, raw_mean):
        self.names, self.sizes, self.roles, self.extractor_ids, self.labels = map(
            tuple, (names, sizes, roles, extractor_ids, labels))
        for arr in (summary, raw_mean):
            arr.flags.writeable = False
        self.summary, self.raw_mean = summary, raw_mean

    def _check(self) -> None:
        n = len(self.names)
        if any(len(column) != n for column in (self.sizes, self.roles,
                                                self.extractor_ids, self.labels)):
            raise ValueError("shelf columns must hold one entry per row")
        if self.summary.shape != self.raw_mean.shape:
            raise ValueError("values and raw_mean must have the same dimension")
        if self.summary.ndim != 2 or len(self.summary) != n:
            raise ValueError("shelf vectors must be (rows, dim) matrices")
        values = self.summary
        bad = (~(np.isfinite(values) & np.isfinite(self.raw_mean))
               | (values < 0.0)).any(axis=1)
        # Each row summed as SummaryVector sums its own vector, bit for bit:
        # a 2-d sum along rows adds each row as a 1-d sum does.
        bad |= np.abs(values.sum(axis=1) - 1.0) > L1_TOL
        texts = {label for label in self.labels if isinstance(label, str)}
        good_labels = {label for label in texts if _parses(label)}  # each once
        bad |= np.array([
            not (isinstance(name, str) and name and isinstance(eid, str) and eid
                 and not isinstance(size, bool) and isinstance(size, (int, np.integer))
                 and size >= 1 and role in ("source", "target")
                 and isinstance(label, str) and label in good_labels)
            for name, size, role, eid, label in zip(
                self.names, self.sizes, self.roles, self.extractor_ids, self.labels)],
            dtype=bool)
        for i in np.flatnonzero(bad).tolist():
            self[i]  # builds the row's profile, which raises the row's error

    def take(self, rows) -> "Shelf":
        """The shelf of these rows, indices in [0, len(self)), in this order."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size == len(self) and (rows == np.arange(len(self))).all():
            return self
        picked = rows.tolist()
        return Shelf._unchecked(
            *([column[i] for i in picked] for column in (
                self.names, self.sizes, self.roles, self.extractor_ids, self.labels)),
            self.summary[rows], self.raw_mean[rows])

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(range(len(self))[i])
        i = range(len(self))[i]
        summary = SummaryVector(values=self.summary[i], raw_mean=self.raw_mean[i],
                                summarizer=Summarizer.parse(self.labels[i]))
        return DatasetProfile(name=self.names[i], size=self.sizes[i], summary=summary,
                              extractor_id=self.extractor_ids[i], role=self.roles[i])


@dataclass(frozen=True)
class EstimatorConfig:
    """Fully determines the selection score: distance kind and k (the
    probability kinds smooth by EPSILON)."""

    distance: DivergenceKind = DivergenceKind.KL
    k: float = -1.0

    def __post_init__(self):
        object.__setattr__(self, "distance", DivergenceKind(self.distance))
        if not math.isfinite(self.k):
            raise ValueError("k must be finite")


@dataclass(frozen=True)
class ScoredSource:
    """One candidate's size and score decomposition; the score is derived from it."""

    source_name: str
    size: float
    distance_value: float
    z_log_size: float
    z_distance: float
    k: float

    def __post_init__(self):
        parts = (self.size, self.distance_value, self.z_log_size, self.z_distance,
                 self.k, self.score)
        if not all(math.isfinite(x) for x in parts):
            raise NonFiniteValue("scored source contains NaN or Inf")
        if self.size <= 0:
            raise ValueError("size must be > 0")
        if self.distance_value < 0.0:
            raise ValueError("distance must be >= 0")

    @property
    def score(self) -> float:
        return self.z_log_size + self.k * self.z_distance


@dataclass(frozen=True)
class ImprovementRecord:
    """Measured transfer outcome for one (target, source) pair."""

    target_name: str
    source_name: str
    perf_transfer: float
    perf_scratch: float

    def __post_init__(self):
        for label in ("perf_transfer", "perf_scratch"):
            value = float(getattr(self, label))
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{label} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, label, value)

    @property
    def improvement(self) -> float:
        return self.perf_transfer - self.perf_scratch


@dataclass(frozen=True)
class GridPoint:
    """One calibration grid cell: each task's rank correlation at (k, distance)."""

    k: float
    distance: DivergenceKind
    task_rho: Mapping[str, float]  # in task order

    def __post_init__(self):
        object.__setattr__(self, "task_rho", MappingProxyType(dict(self.task_rho)))
        for task, rho in self.task_rho.items():
            if not (-1.0 - 1e-12 <= rho <= 1.0 + 1e-12):
                raise ValueError(f"rho for task {task!r} outside [-1, 1]")

    @cached_property
    def mean_rho(self) -> float:
        return float(np.mean(list(self.task_rho.values())))


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of the k / distance grid search; the best point is derived."""

    grid: tuple[GridPoint, ...]

    def __post_init__(self):
        if not self.grid:
            raise ValueError("calibration grid must be nonempty")

    @cached_property
    def _best(self) -> GridPoint:
        kinds = list(DivergenceKind)
        return max(self.grid, key=lambda g: (g.mean_rho, -abs(g.k),
                                             -kinds.index(g.distance)))

    def best_point(self) -> GridPoint:
        """Highest mean rho; ties go to smaller |k|, then kind declaration order."""
        return self._best

    @property
    def best_k(self) -> float:
        return self._best.k

    @property
    def best_distance(self) -> DivergenceKind:
        return self._best.distance

    @property
    def per_task_rho(self) -> Mapping[str, float]:
        return self._best.task_rho

    def curve(self, distance: DivergenceKind) -> tuple[tuple[float, float], ...]:
        """(k, mean_rho) pairs for one distance kind, ascending in k."""
        kind = DivergenceKind(distance)
        pts = [(g.k, g.mean_rho) for g in self.grid if g.distance is kind]
        return tuple(sorted(pts))
