"""Fixed yardstick process of the p2l benchmark; it never imports p2l.

run.py starts it cold before and after every fixture build and every command
of a timed run, and divides each build's wall time and each command's wall and
CPU time by the mean of the two yardstick runs around it. The shared host's speed drifts by tens of percent
over minutes; a ratio to work of the same kind (a cold interpreter importing
numpy and scipy.stats, then JSON, numpy reductions and CSV-style formatting)
measured seconds away cancels that drift, while a change to p2l moves the
command and not the yardstick.

Prints one checksum line, which run.py compares with REFERENCE_OUTPUT.
"""
import json

import numpy as np
import scipy.stats  # noqa: F401  the import itself is part of the yardstick

rng = np.random.default_rng(20190820)
vectors = rng.gamma(1.5, 1.0, (200, 512))
parsed = np.array(json.loads(json.dumps([v.tolist() for v in vectors])))
p = parsed / parsed.sum(axis=1, keepdims=True)
kl = (p * np.log(p / p[::-1])).sum(axis=1)
rows = "\n".join(f"r{i:05d},{x!r}" for i, x in enumerate(np.repeat(kl, 10)))
print(f"rows={len(kl) * 10} chars={len(rows)} kl={kl.sum():.8f}")
