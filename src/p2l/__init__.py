"""Source-selection toolkit for transfer learning.

Profiles datasets by summarizing reference-model embeddings, ranks candidate
source datasets by combining z-scaled log size with z-scaled divergence from
the target, calibrates the balancing parameter against measured transfer
improvements, and includes a synthetic oracle producing real ground-truth
transfer outcomes for end-to-end verification.

Each name is imported from the submodule that defines it (p2l.estimator,
p2l.io, ...). Importing the package loads none of them, and so not numpy:
the command line relies on this to set OPENBLAS_THREAD_TIMEOUT before numpy
loads (cli.py).
"""
__version__ = "0.1.0"
