"""Score and rank candidate sources for a target dataset.

The selection score of source s for target t is

    score(t, s) = z(ln |s|) + k * z(D(t, s))

with both z-scalings taken over the current candidate set. A larger source
helps (logarithmically); divergence from the target works against it, so k is
conventionally negative. The five reference selection baselines B1..B5
order the candidates score_sources scored: they are not checked or measured
again, and B5 orders by P2L's own distances. Also size-weighted profile
merging.
"""
from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import (
    SCORE_IDENTITY_TOL,
    DatasetProfile,
    EstimatorConfig,
    ScoredSource,
    Shelf,
    Summarizer,
)
from .divergence import distances
from .errors import (
    DimensionMismatch,
    DuplicateSourceName,
    EmptyCandidates,
    MissingReference,
    MissingSeed,
    MixedExtractors,
    MixedSummarizers,
)
from .summarize import summary_from_mean

BASELINES = ("B1", "B2", "B3", "B4", "B5")


def zscale(values) -> np.ndarray:
    """(x - mean) / population std; all zeros when the input is constant,
    counting a std within 1e-12 of max|x| as rounding noise of a constant."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("zscale needs a nonempty 1-d list")
    if not np.all(np.isfinite(arr)):
        raise ValueError("zscale input must be finite")
    sigma = float(arr.std())
    if sigma <= 1e-12 * float(np.abs(arr).max()):
        return np.zeros_like(arr)
    return (arr - arr.mean()) / sigma


def score_grid(sizes, dists, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P2L's score, the one place it is computed: z(ln sizes), z of each row
    of dists, and z_logs + k * z_dists shaped (k, row, candidate). A k whose
    scores overflow when counted in SCORE_IDENTITY_TOL units is refused."""
    z_logs = zscale(np.log(np.asarray(sizes, dtype=np.float64)))
    z_dists = np.array([zscale(row) for row in dists])
    with np.errstate(over="ignore"):
        scores = z_logs + np.multiply.outer(ks, z_dists)
        if not np.all(np.isfinite(scores / SCORE_IDENTITY_TOL)):
            raise ValueError(f"|k| = {float(np.abs(ks).max())!r} gives scores too "
                             "large to rank; use a smaller |k|")
    return z_logs, z_dists, scores


def score_table(names: Sequence[str], sizes: Sequence[float],
                distances: Sequence[float], k: float) -> list[ScoredSource]:
    """Score precomputed (size, distance) rows and sort best-first.

    Scores equal once rounded to SCORE_IDENTITY_TOL tie, whatever their float
    noise, and break by descending size, then name; a k whose scores overflow
    that rounding is refused. A row keeps its size as given, any positive
    real, so callers can exercise scale-invariance directly.
    """
    names = list(names)
    n = len(names)
    if n == 0:
        raise EmptyCandidates("no candidate sources to score")
    if len(set(names)) != n:
        raise DuplicateSourceName("candidate names must be distinct")
    if len(sizes) != n or len(distances) != n:
        raise ValueError("names, sizes and distances must align")
    reals = np.asarray(sizes, dtype=np.float64)
    dists = np.asarray(distances, dtype=np.float64)
    if not (np.all(np.isfinite(reals)) and np.all(reals > 0.0)):
        raise ValueError("sizes must be positive and finite")
    if not (np.all(np.isfinite(dists)) and np.all(dists >= 0.0)):
        raise ValueError("distances must be >= 0 and finite")

    z_logs, z_dists, scores = score_grid(reals, [dists], [float(k)])
    scored = [ScoredSource(source_name=name, size=size, distance_value=float(dists[i]),
                           z_log_size=float(z_logs[i]), z_distance=float(z_dists[0, i]),
                           k=float(k))
              for i, (name, size) in enumerate(zip(names, sizes))]
    ticks = (scores[0, 0] / SCORE_IDENTITY_TOL).tolist()
    order = sorted(range(n), key=lambda i: (-round(ticks[i]), -reals[i], names[i]))
    return [scored[i] for i in order]


def check_candidates(target: DatasetProfile, sources: Sequence[DatasetProfile]) -> None:
    """A (target, candidates) set every ranking accepts: at least one
    candidate, distinct names, the target's dimension and the target's
    extractor. The first bad candidate is refused."""
    shelf = Shelf.of(sources)
    if not shelf:
        raise EmptyCandidates("need at least one candidate source")
    dim, s_dim = target.summary.dim, shelf.summary.shape[1]
    if s_dim != dim:  # every row has the shelf's one dimension, so the first fails
        raise DimensionMismatch(
            f"source {shelf.names[0]!r} has dim {s_dim}, target has {dim}")
    seen = set()
    for name, extractor_id in zip(shelf.names, shelf.extractor_ids):
        if name in seen:
            raise DuplicateSourceName(f"duplicate source name {name!r}")
        seen.add(name)
        if extractor_id != target.extractor_id:
            raise MixedExtractors(
                f"source {name!r} was embedded by {extractor_id!r}, target "
                f"by {target.extractor_id!r}; distances are only meaningful "
                "within one extractor's feature space")


def score_sources(target: DatasetProfile, sources: Sequence[DatasetProfile],
                  cfg: EstimatorConfig) -> list[ScoredSource]:
    """Score every candidate for this target; result is sorted best-first.

    z-statistics are computed across exactly this candidate set, separately
    for the log-size and distance lists. A list of profiles is stacked into
    a Shelf once; a Shelf is read by column.
    """
    shelf = Shelf.of(sources)
    check_candidates(target, shelf)
    dists = distances(cfg.distance, target.summary, shelf.summary)
    return score_table(shelf.names, shelf.sizes, dists, cfg.k)


def baseline_rankings(scored: Sequence[ScoredSource],
                      reference_name: str | None = None, rng_seed: int | None = None,
                      ) -> dict[str, list[str] | None]:
    """Every baseline that can run, in BASELINES order, as an ordering of
    score_sources' rows, whose candidates it checked already.

    B1: by the rows' size, largest first, ties to the smaller name. B2: the
    reference, then B1's order; it runs only with a reference. B3: a seeded
    shuffle of the sorted names; it runs only with a seed. B4: None, no
    transfer. B5: by the scored distance, least first, ties as B1's.
    """
    by_size = [s.source_name for s in sorted(scored, key=lambda s: (-s.size, s.source_name))]
    rankings: dict[str, list[str] | None] = {"B1": by_size}
    if reference_name is not None:
        if reference_name not in by_size:
            raise MissingReference(
                f"reference source {reference_name!r} not among candidates")
        rankings["B2"] = [reference_name] + [n for n in by_size if n != reference_name]
    if rng_seed is not None:
        rankings["B3"] = sorted(by_size)
        random.Random(rng_seed).shuffle(rankings["B3"])
    rankings["B4"] = None
    rankings["B5"] = [s.source_name for s in sorted(
        scored, key=lambda s: (s.distance_value, -s.size, s.source_name))]
    return rankings


def baseline_ranking(kind: str, target: DatasetProfile,
                     sources: Sequence[DatasetProfile],
                     cfg: EstimatorConfig | None = None,
                     reference_name: str | None = None,
                     rng_seed: int | None = None) -> list[str] | None:
    """One baseline's full candidate ordering, as baseline_rankings gives it;
    None for B4. The candidates are checked and scored first, at k = 0, so
    that no |k| is refused; then B2 needs a reference, B3 a seed and B5 cfg,
    whose distance it orders by.
    """
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")
    if kind == "B4":
        return None
    scored = score_sources(target, sources, replace(cfg or EstimatorConfig(), k=0.0))
    if kind == "B2" and reference_name is None:
        raise MissingReference("reference source None not among candidates")
    if kind == "B3" and rng_seed is None:
        raise MissingSeed("random baseline needs an explicit seed")
    if kind == "B5" and cfg is None:
        raise ValueError("B5 needs an estimator config for the distance")
    return baseline_rankings(scored, reference_name, rng_seed)[kind]


def merge_profiles(profiles: Sequence[DatasetProfile], name: str) -> DatasetProfile:
    """Profile of the pooled dataset: summed size, size-weighted raw means.

    Equals (within float rounding) the profile built from concatenating the
    member matrices, provided every member used the plain mean summarizer and
    its stored size is its row count.
    """
    if len(profiles) < 2:
        raise ValueError("merging needs at least two profiles")
    dim = profiles[0].summary.dim
    extractor = profiles[0].extractor_id
    seen = set()
    for p in profiles:
        if p.name in seen:
            raise DuplicateSourceName(f"profile {p.name!r} is named twice")
        seen.add(p.name)
        if p.summary.dim != dim:
            raise DimensionMismatch(f"profile {p.name!r} has dim {p.summary.dim}, expected {dim}")
        if p.summary.summarizer != Summarizer.mean():
            raise MixedSummarizers(
                f"profile {p.name!r} used {p.summary.summarizer.label()}; "
                "trimmed means do not compose under merging")
        if p.extractor_id != extractor:
            raise MixedExtractors(
                f"profile {p.name!r} was embedded by {p.extractor_id!r}, "
                f"expected {extractor!r}")

    total = sum(p.size for p in profiles)
    weighted = np.zeros(dim)
    for p in profiles:
        weighted += p.size * p.summary.raw_mean
    summary = summary_from_mean(weighted / total, Summarizer.mean())
    return DatasetProfile(name=name, size=total, summary=summary,
                          extractor_id=extractor, role="source")
