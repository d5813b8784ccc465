"""Dissimilarity measures between dataset summary vectors.

Five candidates, natural log throughout:

    KL(p, q)  = sum p_i ln(p_i / q_i)          (first argument: the target)
    JSD(p, q) = sqrt(KL(p, m)/2 + KL(q, m)/2)  with m = (p + q)/2
    CHI2      = sum (p_i - q_i)^2 / (p_i + q_i) / 2
    EUC       = sqrt(sum (p_i - q_i)^2)
    CITYBLOCK = sum |p_i - q_i|

KL/JSD/CHI2 treat summaries as probability vectors and need strictly positive
input; pass ``epsilon`` to smooth both arguments first, or smooth upstream.
EUC/CITYBLOCK never smooth. ``distances`` is the one implementation, over a
whole candidate list or matrix at once; ``distance`` is its one-row case.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import PROBABILITY_KINDS, DivergenceKind, SummaryVector
from .errors import DimensionMismatch, NonPositiveComponent
from .summarize import smooth_values


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i per row (b may be one shared vector), each a 1-d dot product
    so it equals ``a_i @ b_i`` bit for bit; a gemv would round differently."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def distances(kind: DivergenceKind | str, p: SummaryVector,
              qs: Sequence[SummaryVector] | np.ndarray,
              epsilon: float | None = None) -> np.ndarray:
    """D(p, q) >= 0 for each q in qs, p being the target by convention. qs is
    a list of summaries, stacked here into one N x d array, or that array
    itself (Shelf.matrix); p is smoothed once."""
    kind = DivergenceKind(kind)
    if isinstance(qs, np.ndarray):
        if qs.ndim != 2:
            raise DimensionMismatch(f"expected an N x {p.dim} matrix, got shape {qs.shape}")
        if qs.shape[1] != p.dim:
            raise DimensionMismatch(f"summary dims differ: {p.dim} vs {qs.shape[1]}")
        qv = np.asarray(qs, dtype=np.float64)
    else:
        for q in qs:
            if q.dim != p.dim:
                raise DimensionMismatch(f"summary dims differ: {p.dim} vs {q.dim}")
        qv = np.array([q.values for q in qs], dtype=np.float64).reshape(len(qs), p.dim)
    pv = p.values

    if kind in PROBABILITY_KINDS:
        if epsilon is not None:
            pv = smooth_values(pv, epsilon)
            qv = smooth_values(qv, epsilon)
        if float(pv.min()) <= 0.0 or float(qv.min(initial=np.inf)) <= 0.0:
            raise NonPositiveComponent(
                f"{kind.value} needs strictly positive input; smooth first "
                "or pass epsilon")
        if kind is DivergenceKind.KL:
            return np.maximum(_rowdot(np.log(pv / qv), pv), 0.0)
        if kind is DivergenceKind.JSD:
            m = 0.5 * (pv + qv)
            inner = (0.5 * _rowdot(np.log(pv / m), pv)
                     + 0.5 * _rowdot(np.log(qv / m), qv))
            return np.sqrt(np.maximum(inner, 0.0))
        diff = pv - qv
        return np.maximum(0.5 * np.sum(diff * diff / (pv + qv), axis=1), 0.0)

    diff = pv - qv
    if kind is DivergenceKind.EUC:
        return np.sqrt(np.sum(diff * diff, axis=1))
    return np.sum(np.abs(diff), axis=1)


def distance(kind: DivergenceKind | str, p: SummaryVector, q: SummaryVector,
             epsilon: float | None = None) -> float:
    """D(p, q) >= 0 for the requested kind: the one-row case of distances."""
    return float(distances(kind, p, [q], epsilon)[0])
