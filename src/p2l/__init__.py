"""Source-selection toolkit for transfer learning.

Profiles datasets by summarizing reference-model embeddings, ranks candidate
source datasets by combining z-scaled log size with z-scaled divergence from
the target, calibrates the balancing parameter against measured transfer
improvements, and includes a synthetic oracle producing real ground-truth
transfer outcomes for end-to-end verification.

Importing the package loads none of its submodules, and so not numpy: each
name below is imported from its submodule on first use (PEP 562). The
command line relies on this to set OPENBLAS_THREAD_TIMEOUT before numpy
loads (cli.py).
"""
import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# Each public name, in the order of __all__, and the submodule that defines it.
_SOURCES = {
    "CalibrationReport": "core",
    "DatasetProfile": "core",
    "DivergenceKind": "core",
    "EmbeddingMatrix": "core",
    "EstimatorConfig": "core",
    "EvaluationConfig": "calibrate",
    "GridPoint": "core",
    "ImprovementRecord": "core",
    "ProfileRegistry": "io",
    "ScoredSource": "core",
    "Shelf": "core",
    "Summarizer": "core",
    "SummaryVector": "core",
    "DEFAULT_K_GRID": "calibrate",
    "baseline_ranking": "estimator",
    "baseline_rankings": "estimator",
    "check_candidates": "estimator",
    "distance": "divergence",
    "distances": "divergence",
    "merge_profiles": "estimator",
    "picks_to_best": "calibrate",
    "profile_from_matrix": "summarize",
    "read_embeddings_bin": "io",
    "read_embeddings_csv": "io",
    "score_sources": "estimator",
    "score_table": "estimator",
    "smooth": "summarize",
    "spearman_rho": "calibrate",
    "summarize": "summarize",
    "tune_k": "calibrate",
    "zscale": "estimator",
}
__all__ = list(_SOURCES)


def __getattr__(name: str):
    """The public name imported from its submodule, kept for later lookups."""
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The import system binds a submodule as an attribute of its package once
    it is loaded. p2l.summarize names the function summarize(), as it did when
    the package imported its names eagerly, not the submodule that defines it."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and _SOURCES.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
