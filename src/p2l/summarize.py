"""Collapse an embedding matrix to a dataset summary vector.

The summary is the (trimmed) per-dimension mean of the item vectors,
L1-normalized so probability-type distances apply; those distances smooth
it by EPSILON to remove zero components.
"""
from __future__ import annotations

import math

import numpy as np

from .core import EPSILON, DatasetProfile, EmbeddingMatrix, Summarizer, SummaryVector
from .errors import NegativeComponent, NegativeMass


def summarize(matrix: EmbeddingMatrix,
              summarizer: Summarizer | None = None) -> SummaryVector:
    """Per-dimension (trimmed) mean of the rows, L1-normalized.

    The trimmed mean drops the lowest and highest floor(fraction * n) values
    per dimension independently before averaging; the plain mean trims none.
    """
    s = summarizer if summarizer is not None else Summarizer.mean()
    n = matrix.items
    trim = math.floor(s.fraction * n)
    rows = np.sort(matrix.values, axis=0)[trim:n - trim] if trim else matrix.values
    return summary_from_mean(rows.mean(axis=0), s)


def summary_from_mean(raw: np.ndarray, summarizer: Summarizer) -> SummaryVector:
    """The summary of a (trimmed) mean: raw / sum(raw), which needs every
    component >= 0 and a positive total."""
    if float(raw.min()) < 0.0:
        raise NegativeComponent(
            "mean has a negative component; probability distances are undefined")
    total = float(raw.sum())
    if total <= 0.0:
        raise NegativeMass("mean has zero total mass and cannot be L1-normalized")
    return SummaryVector(values=raw / total, raw_mean=raw, summarizer=summarizer)


def smooth_values(values: np.ndarray) -> np.ndarray:
    """(v_i + EPSILON) / (1 + d * EPSILON) along the last axis, d being its
    length: a probability vector stays one, with every component > 0."""
    return (values + EPSILON) / (1.0 + values.shape[-1] * EPSILON)


def profile_from_matrix(name: str, matrix: EmbeddingMatrix,
                        summarizer: Summarizer | None = None, role: str = "source",
                        size: int | None = None) -> DatasetProfile:
    """Build a registry profile from raw embeddings; size defaults to row count."""
    summary = summarize(matrix, summarizer)
    return DatasetProfile(
        name=name,
        size=matrix.items if size is None else size,
        summary=summary,
        extractor_id=matrix.extractor_id,
        role=role,
    )
