"""Domain types shared across the source-selection pipeline.

All types are immutable after construction (arrays are stored read-only) and
safe to share between threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import EmptyMatrix, NonFiniteValue, NonPositiveEpsilon

# Scores equal once rounded to a multiple of this tie when ranked.
SCORE_IDENTITY_TOL = 1e-12
# Normalized summaries must sum to 1 within this.
L1_TOL = 1e-9
# Smoothing weight of the probability distances unless one is given.
DEFAULT_EPSILON = 1e-6


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


def check_epsilon(epsilon: float) -> None:
    """Smoothing weights must be finite and > 0."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise NonPositiveEpsilon(f"epsilon must be a finite value > 0, got {epsilon!r}")


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
    def trimmed(cls, fraction: float = 0.1) -> "Summarizer":
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
        arr = np.array(self.values, dtype=np.float64, copy=True)
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


@dataclass(frozen=True)
class EstimatorConfig:
    """Fully determines the selection score: distance kind, k, smoothing."""

    distance: DivergenceKind = DivergenceKind.KL
    k: float = -1.0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        object.__setattr__(self, "distance", DivergenceKind(self.distance))
        check_epsilon(self.epsilon)
        if not math.isfinite(self.k):
            raise ValueError("k must be finite")


@dataclass(frozen=True)
class ScoredSource:
    """One candidate's score decomposition; the score is derived from it."""

    source_name: str
    distance_value: float
    z_log_size: float
    z_distance: float
    k: float

    def __post_init__(self):
        parts = (self.distance_value, self.z_log_size, self.z_distance, self.k, self.score)
        if not all(math.isfinite(x) for x in parts):
            raise NonFiniteValue("scored source contains NaN or Inf")
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

    @property
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
