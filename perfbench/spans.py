"""In-memory span tracer and the layer wrappers of the traced run.

Spans are recorded from the benchmark's side only: `installed(tracer)` swaps
each public function listed in LAYERS for a wrapper that opens a span around
the call, and restores the original on exit. p2l itself is not modified.

A span holds its name, start, end, parent span and run id (one run id per
CLI command, so the spans of one request share it), plus counts recorded at
the same boundary. A span's self time is its duration minus the time its
direct children cover; spans nest on one thread, so children never overlap.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `write` dumps them as JSON lines at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (s, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run_id": s.run_id, "self": own,
                                     **s.counts}) + "\n")


def _summarizer_suffix(args, kwargs) -> str:
    summarizer = args[2] if len(args) > 2 else kwargs.get("summarizer")
    return "mean" if summarizer is None or summarizer.kind == "mean" else "trimmed"


def _kind_value(kind) -> str:
    return getattr(kind, "value", str(kind))


def _load_all_counts(args, kwargs, result) -> dict:
    root = args[0].root
    return {"profiles": len(result),
            "bytes": sum(p.stat().st_size for p in root.glob("*.profile.json"))}


def _sgd_steps(args, kwargs, result) -> dict:
    """Mini-batch steps of oracle.ground_truth, from split sizes, epochs and batch."""
    world, cfg = args[0], args[1]

    def steps(items: int, epochs: int) -> int:
        return -(-items // cfg.batch) * epochs

    total = sum(steps(world.domain(s).source_train.items, cfg.effective_source_epochs)
                for s in world.source_names())
    for t in world.target_names():
        total += (1 + len(world.source_names())) * steps(
            world.domain(t).target_train.items, cfg.epochs)
    return {"sgd_steps": total}


def _tune_k_counts(args, kwargs, result) -> dict:
    return {"evaluations": len(args[0]) * len(result.grid)}


Suffix = Callable[[tuple, dict], str]
Counts = Callable[[tuple, dict, object], dict]


def layers() -> list[tuple[object, str, str, Suffix | None, Counts | None]]:
    """(owner, attribute, span name, name suffix, counts) for every wrapped call.

    Owners are the namespaces the calls are looked up in at run time: the CLI
    module for names it imports, the defining module for calls made between
    library functions.
    """
    import p2l.cli
    import p2l.estimator
    import p2l.io
    import p2l.oracle
    from p2l.io import ProfileRegistry

    return [
        (p2l.io, "read_embeddings_csv", "io.read_embeddings_csv", None,
         lambda a, kw, r: {"values": int(r.values.size)}),
        (p2l.io, "read_embeddings_bin", "io.read_embeddings_bin", None, None),
        (ProfileRegistry, "load_all", "io.registry_load_all", None, _load_all_counts),
        (ProfileRegistry, "save", "io.registry_save", None, None),
        (p2l.cli, "read_improvements_csv", "io.read_improvements_csv", None, None),
        (p2l.cli, "profile_from_matrix", "summarize.profile_from_matrix",
         _summarizer_suffix, None),
        (p2l.cli, "score_sources", "estimator.score_sources",
         lambda a, kw: _kind_value(a[2].distance),
         lambda a, kw, r: {"candidates": len(a[1])}),
        (p2l.estimator, "baseline_ranking", "estimator.baseline_ranking",
         lambda a, kw: a[0], None),
        (p2l.estimator, "distance", "divergence.distance",
         lambda a, kw: _kind_value(a[0]), None),
        (p2l.cli, "tune_k", "calibrate.tune_k", None, _tune_k_counts),
        (p2l.oracle, "default_world", "oracle.default_world", None, None),
        (p2l.oracle, "ground_truth", "oracle.ground_truth", None, _sgd_steps),
        (p2l.oracle, "calibration_tasks", "oracle.calibration_tasks", None, None),
        (p2l.oracle, "run_study", "oracle.run_study", None, None),
        (p2l.oracle, "write_study_files", "oracle.write_study_files", None, None),
    ]


def _wrapper(tracer: Tracer, fn, name: str, suffix: Suffix | None,
             counts: Counts | None):
    def traced(*args, **kwargs):
        span_name = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
        with tracer.span(span_name) as record:
            result = fn(*args, **kwargs)
        if counts is not None:
            record.counts.update(counts(args, kwargs, result))
        return result
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer call in a span for the duration of the block.

    A layer the program no longer exposes under that name is skipped; its
    metrics then read as missing in the per-layer table.
    """
    originals = []
    try:
        for owner, attr, name, suffix, counts in layers():
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrapper(tracer, fn, name, suffix, counts))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
