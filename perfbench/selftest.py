#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size smoke run of every workload, traced
and untraced, plus negative cases that must be caught.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Negative cases: a rank stdout with two rows swapped counts as a failed
operation, and run.py exits non-zero without printing a result when the
p2l sources are missing.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def smoke(threads: str) -> None:
    from workloads import TINY, WORKLOADS

    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run(name, 1, 0.5, trace, TINY, threads)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            wanted = ({m[0] for m in run.LAYER_METRICS} if trace
                      else set(run.END_TO_END_UNITS))
            assert wanted <= set(result["metrics"]), (name, trace)
            print(f"ok: {name} trace={int(trace)}")


def swapped_rows_fail() -> None:
    from workloads import TINY, WORKLOADS, outcome

    run.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        work = Path(tmp)
        state = WORKLOADS["shelf"].setup(work / "fixtures", 1, TINY)
        op = next(WORKLOADS["shelf"].ops(state))
        _, _, code, stdout = run.spawn(
            [sys.executable, "-m", "p2l.cli", *op.argv], work, run.cli_env())
        assert outcome(op, code, stdout) is None, outcome(op, code, stdout)
        lines = stdout.splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        assert outcome(op, code, "".join(lines)) is not None
        assert outcome(op, 2, stdout) is not None
    print("ok: swapped rank rows and a non-zero exit count as failed operations")


def bare_directory_fails() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "shelf",
             "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print("ok: a directory without the p2l sources exits non-zero without a result")


if __name__ == "__main__":
    smoke(run.pin_threads())
    swapped_rows_fail()
    bare_directory_fails()
    print("selftest passed")
