"""Rank statistics, balancing-parameter grid search, evaluation metrics.

Calibration picks (k, distance) by maximizing the mean Spearman rank
correlation between candidate scores and measured transfer improvements over
a set of training tasks. The objective is a rank statistic, hence piecewise
constant in k, so a grid search is exact up to grid resolution.

Evaluation compares every selection method on one target at a time
(compare_methods); the CLI and the synthetic study both report through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    EPSILON,
    CalibrationReport,
    DatasetProfile,
    DivergenceKind,
    EstimatorConfig,
    GridPoint,
    ImprovementRecord,
    ScoredSource,
    Shelf,
)
from .divergence import distances
from .errors import (
    DegenerateConstantInput,
    DuplicateSourceName,
    LengthMismatch,
    TooFewSources,
    UnknownSource,
    ZeroDenominator,
)
from .estimator import baseline_rankings, check_candidates, score_sources, zscale
from .io import fmt, write_lines

# k in [-3, 0] by steps of 0.05; distance works against size, so k <= 0.
DEFAULT_K_GRID: tuple[float, ...] = tuple(round(-3.0 + 0.05 * i, 2) for i in range(61))

TrainingTask = tuple[DatasetProfile, Sequence[ImprovementRecord]]


@dataclass(frozen=True)
class EvaluationConfig:
    """Calibration grid: distinct finite k values and distinct distance kinds."""

    k_grid: tuple[float, ...] = DEFAULT_K_GRID
    distance_kinds: tuple[DivergenceKind, ...] = tuple(DivergenceKind)

    def __post_init__(self):
        k_grid = tuple(float(k) for k in self.k_grid)
        if not k_grid or not np.all(np.isfinite(k_grid)):
            raise ValueError("k grid must be a nonempty list of finite values")
        if len(set(k_grid)) != len(k_grid):
            raise ValueError(f"k grid repeats values: {len(set(k_grid))} distinct of {len(k_grid)}")
        kinds = tuple(DivergenceKind(k) for k in self.distance_kinds)
        if len(set(kinds)) != len(kinds) or not kinds:
            raise ValueError("distance_kinds must be a nonempty set of distinct kinds")
        object.__setattr__(self, "distance_kinds", kinds)
        object.__setattr__(self, "k_grid", k_grid)


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-d array; tied values share the mean of their ranks.

    One row of _row_ranks, the batched form tune_k uses; both are exact.
    """
    return _row_ranks(np.asarray(values, dtype=np.float64)[None, :])[0]


def spearman_rho(a, b) -> float:
    """Pearson correlation of average (fractional) ranks; ties share ranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise LengthMismatch(f"paired lists must align, got {a.shape} vs {b.shape}")
    if a.size < 2:
        raise LengthMismatch("need at least two observations")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DegenerateConstantInput("rank correlation of a constant list is undefined")
    return float(_rank_correlations(a[None, :], average_ranks(b))[0])


def _row_ranks(x: np.ndarray) -> np.ndarray:
    """average_ranks of each row of a 2-d array, all rows in one pass."""
    rows, n = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=1)
    first = np.ones((rows, n + 1), dtype=bool)  # first[:, j]: j opens a tie group
    first[:, 1:n] = ordered[:, 1:] != ordered[:, :-1]
    pos = np.arange(n + 1)
    starts = np.maximum.accumulate(np.where(first[:, :n], pos[:n], 0), axis=1)
    ends = np.minimum.accumulate(np.where(first[:, 1:], pos[1:], n)[:, ::-1],
                                 axis=1)[:, ::-1]
    ranks = np.empty((rows, n))
    np.put_along_axis(ranks, order, (starts + ends + 1) / 2.0, axis=1)
    return ranks


def _rank_correlations(scores: np.ndarray, outcome_ranks: np.ndarray) -> np.ndarray:
    """Per row of scores, np.corrcoef(average_ranks(row), outcome_ranks)[0, 1].

    Ranks are half-integers with mean (n + 1) / 2, so the centred ranks and
    every sum of their products are exact in any summation order. The steps
    that round repeat np.cov and np.corrcoef: the true_divide(1, n - 1)
    factor, the division by sqrt(c00), then by sqrt(c11), and the clip. So
    every row is bit-equal to its own np.corrcoef call. No row may be constant.
    """
    n = scores.shape[1]
    pairs = np.empty((scores.shape[0], 2, n))
    pairs[:, 0] = _row_ranks(scores)
    pairs[:, 1] = outcome_ranks
    pairs -= pairs.mean(axis=-1, keepdims=True)
    c = pairs @ pairs.swapaxes(-1, -2)
    c *= np.true_divide(1, n - 1)
    return np.clip(c[:, 0, 1] / np.sqrt(c[:, 0, 0]) / np.sqrt(c[:, 1, 1]), -1, 1)


def spearman_or_zero(scores, improvements) -> np.ndarray:
    """spearman_rho of each score row against the improvements, bit for bit,
    except that a constant row or constant improvements count as rho 0: no
    rank information."""
    scores = np.asarray(scores, dtype=np.float64)
    improvements = np.asarray(improvements, dtype=np.float64)
    if scores.ndim != 2 or improvements.shape != scores.shape[1:]:
        raise LengthMismatch(f"score rows must align with the improvements, got "
                             f"{scores.shape} vs {improvements.shape}")
    rho = np.zeros(len(scores))
    if not np.all(improvements == improvements[0]):
        varied = ~np.all(scores == scores[:, :1], axis=1)
        rho[varied] = _rank_correlations(scores[varied], average_ranks(improvements))
    return rho


def tune_k(training_tasks: Sequence[TrainingTask],
           sources: Sequence[DatasetProfile],
           cfg: EvaluationConfig | None = None) -> CalibrationReport:
    """Grid search (k, distance) maximizing mean Spearman rho over tasks.

    Each task pairs a target profile with ground-truth improvement records;
    its candidates are the sources its records name, in record order, as
    rows of the sources stacked once (a name may appear once). The report's
    best_point() breaks grid ties toward smaller |k|, then kind declaration
    order. A task's whole grid is one score matrix, ranked and correlated in
    one _rank_correlations pass, bit-equal to per-cell np.corrcoef.
    """
    cfg = cfg if cfg is not None else EvaluationConfig()
    if not training_tasks:
        raise ValueError("need at least one training task")
    pool = Shelf.of(sources)

    ks = np.array(cfg.k_grid)
    task_rhos = {}
    for target, records in training_tasks:
        if target.name in task_rhos:
            raise ValueError(f"duplicate training task {target.name!r}")
        candidates = _candidates(target.name, records, pool)
        if len(candidates) < 3:
            raise TooFewSources(
                f"task {target.name!r} has {len(candidates)} sources, need >= 3")
        check_candidates(target, candidates)
        z_logs = zscale(np.log([float(size) for size in candidates.sizes]))
        matrix = candidates.matrix(target.summary.dim)
        z_dists = np.array([zscale(distances(kind, target.summary, matrix, EPSILON))
                            for kind in cfg.distance_kinds])
        # One row per grid cell, in grid order: k-major, kind-minor.
        scores = (z_logs + ks[:, None, None] * z_dists).reshape(-1, len(candidates))
        task_rhos[target.name] = spearman_or_zero(
            scores, [r.improvement for r in records]).tolist()

    cells = [(k, kind) for k in cfg.k_grid for kind in cfg.distance_kinds]
    return CalibrationReport(tuple(
        GridPoint(k, kind, {name: rhos[i] for name, rhos in task_rhos.items()})
        for i, (k, kind) in enumerate(cells)))


def _candidates(task: str, records: Sequence[ImprovementRecord], pool: Shelf) -> Shelf:
    """The pool rows a task's records name, in record order; a pool name may
    appear once."""
    rows: dict[str, int] = {}
    for i, name in enumerate(pool.names):
        if rows.setdefault(name, i) != i:
            raise DuplicateSourceName(f"duplicate source name {name!r}")
    names = [r.source_name for r in records]
    if len(set(names)) != len(names):
        raise DuplicateSourceName(f"task {task!r} names a source twice")
    for n in names:
        if n not in rows:
            raise UnknownSource(f"task {task!r} references unknown source {n!r}")
    return pool.take([rows[n] for n in names])


def picks_to_best(ranking: Sequence[str], best_true: str) -> int:
    """1-based position of the truly best source in a method's ranking."""
    ranking = list(ranking)
    if best_true not in ranking:
        raise UnknownSource(f"{best_true!r} not present in the ranking")
    return ranking.index(best_true) + 1


def best_source(records: Sequence[ImprovementRecord]) -> str:
    """The truly best source: largest improvement, ties to the smaller name."""
    return min(records, key=lambda r: (-r.improvement, r.source_name)).source_name


@dataclass(frozen=True)
class MethodOutcome:
    """One selection method's pick for one target, scored against ground truth."""

    method: str
    selection: str | None      # None: no transfer (B4)
    perf: float                # perf_transfer of the pick, perf_scratch for None
    gain_vs_p2l: float         # (perf(P2L) - perf) / perf; 0 for P2L
    picks_to_best: int | None  # None for B4, which ranks nothing


def compare_methods(target: DatasetProfile, records: Sequence[ImprovementRecord],
                    pool: Sequence[DatasetProfile], cfg: EstimatorConfig,
                    reference_name: str | None = None, rng_seed: int | None = None,
                    allow_mixed_extractors: bool = False,
                    ) -> tuple[list[ScoredSource], dict[str, MethodOutcome]]:
    """Run every selection method on one target and score it against its records.

    The records are the target's, as group_records_by_target gives them; the
    candidates are the pool sources they name, in record order, and a pool
    name may appear once. A list pool is stacked into a Shelf. Methods run
    in the order P2L, then baseline_rankings', which order P2L's scored
    candidates: they are checked and measured once. A method's perf is its pick's
    perf_transfer, perf_scratch for no transfer (B4). Returns P2L's scored
    candidates and each method's outcome keyed by method.
    """
    candidates = _candidates(target.name, records, Shelf.of(pool))
    scored = score_sources(target, candidates, cfg,
                           allow_mixed_extractors=allow_mixed_extractors)
    rankings = {"P2L": [s.source_name for s in scored],
                **baseline_rankings(scored, candidates, reference_name, rng_seed)}
    transfer = {r.source_name: r.perf_transfer for r in records}
    best = best_source(records)
    p2l_perf = transfer[scored[0].source_name]
    outcomes = {}
    for method, ranking in rankings.items():
        chosen = None if ranking is None else ranking[0]
        perf = records[0].perf_scratch if chosen is None else transfer[chosen]
        if method != "P2L" and perf == 0.0:
            raise ZeroDenominator(f"method {method!r} has zero performance")
        outcomes[method] = MethodOutcome(
            method=method, selection=chosen, perf=perf,
            gain_vs_p2l=0.0 if method == "P2L" else (p2l_perf - perf) / perf,
            picks_to_best=None if ranking is None else picks_to_best(ranking, best))
    return scored, outcomes


def selection_lines(outcomes: Mapping[str, Mapping[str, MethodOutcome]]) -> Iterator[str]:
    """The selections table of target -> method -> outcome: its header, then
    one row per target and method in that order; an absent selection or
    position is empty."""
    yield "target,method,selection,perf,gain_vs_p2l,picks_to_best"
    for target, by_method in outcomes.items():
        for o in by_method.values():
            chosen = "" if o.selection is None else o.selection
            pick = "" if o.picks_to_best is None else o.picks_to_best
            yield f"{target},{o.method},{chosen},{fmt(o.perf)},{fmt(o.gain_vs_p2l)},{pick}"


def write_grid_csv(report: CalibrationReport, path) -> None:
    """Emit the calibration grid as CSV: k,distance,mean_rho."""
    lines = ["k,distance,mean_rho"]
    for g in report.grid:
        lines.append(f"{g.k!r},{g.distance.value},{g.mean_rho!r}")
    write_lines(path, lines)
