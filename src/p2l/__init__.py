"""Source-selection toolkit for transfer learning.

Profiles datasets by summarizing reference-model embeddings, ranks candidate
source datasets by combining z-scaled log size with z-scaled divergence from
the target, calibrates the balancing parameter against measured transfer
improvements, and includes a synthetic oracle producing real ground-truth
transfer outcomes for end-to-end verification.
"""

from .core import (
    CalibrationReport,
    DatasetProfile,
    DivergenceKind,
    EmbeddingMatrix,
    EstimatorConfig,
    GridPoint,
    ImprovementRecord,
    ScoredSource,
    Shelf,
    Summarizer,
    SummaryVector,
)
from .calibrate import (
    DEFAULT_K_GRID,
    EvaluationConfig,
    picks_to_best,
    spearman_rho,
    tune_k,
)
from .divergence import distance, distances
from .estimator import (
    baseline_ranking,
    baseline_rankings,
    check_candidates,
    merge_profiles,
    score_sources,
    score_table,
    zscale,
)
from .io import ProfileRegistry, read_embeddings_bin, read_embeddings_csv
from .summarize import profile_from_matrix, smooth, summarize

__version__ = "0.1.0"

__all__ = [
    "CalibrationReport",
    "DatasetProfile",
    "DivergenceKind",
    "EmbeddingMatrix",
    "EstimatorConfig",
    "EvaluationConfig",
    "GridPoint",
    "ImprovementRecord",
    "ProfileRegistry",
    "ScoredSource",
    "Shelf",
    "Summarizer",
    "SummaryVector",
    "DEFAULT_K_GRID",
    "baseline_ranking",
    "baseline_rankings",
    "check_candidates",
    "distance",
    "distances",
    "merge_profiles",
    "picks_to_best",
    "profile_from_matrix",
    "read_embeddings_bin",
    "read_embeddings_csv",
    "score_sources",
    "score_table",
    "smooth",
    "spearman_rho",
    "summarize",
    "tune_k",
    "zscale",
]
