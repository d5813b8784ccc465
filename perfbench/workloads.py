"""Seeded fixtures, command mixes and output checks of the p2l benchmark.

Every workload builds its inputs from the seed through p2l's public API and
then yields an endless closed-loop sequence of CLI invocations (`Op`), each
carrying the check of its own output. The program only sees the files.

Why each workload exists:

shelf   the paper's use case with writes beside reads, on a 1,000-profile
        shelf at d=512. Per cycle: five cold `p2l rank --baselines --seed`
        of a 2000x512 binary target, one per distance kind, then two cold
        `p2l profile` of a fresh 2000x512 CSV (mean, then trimmed:0.1). Import,
        registry load, distances and CSV parsing dominate; a read speed-up
        that adds write-time work shows its cost in the same run, and a rank
        that misses a profile written before it fails its check.
oracle  cold `p2l calibrate` on oracle ground truth of a 12-source x
        24-target world (288 records, d=32, default 61x5 grid) alternating
        with cold `p2l simulate --sources 12 --targets 16 --epochs 30`. tune_k
        and oracle training dominate; the registry and distance work that
        dominate `shelf` are small here, and the CSV reader does no work.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import shutil
import zlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from p2l import oracle
from p2l.core import DatasetProfile, EmbeddingMatrix, Summarizer, SummaryVector
from p2l.io import (
    ProfileRegistry,
    write_embeddings_bin,
    write_embeddings_csv,
    write_improvements_csv,
)
from p2l.summarize import profile_from_matrix

KINDS = ("KL", "JSD", "CHI2", "EUC", "CITYBLOCK")
PROBABILITY_KINDS = ("KL", "JSD", "CHI2")
K = -1.0
EPSILON = 1e-6            # the CLI's default smoothing
EXTRACTOR = "perfbench"
SUMMARIZERS = ("mean", "trimmed:0.1")
RANK_HEADER = "name,size,distance,z_log_size,z_distance,score"
GRID_POINTS = 61 * 5      # documented default grid: 61 values of k x 5 kinds
# An independent recomputation sums in another order than the program, so
# distances and scores are compared within this absolute tolerance.
RECOMPUTE_TOL = 1e-9
IDENTITY_TOL = 1e-12      # score == z_log_size + k * z_distance, as printed


@dataclass(frozen=True)
class Sizes:
    shelf: int            # profiles in the registry of `shelf`
    dim: int              # embedding dimension of the shelf
    target_rows: int      # rows of the binary rank target
    csv_rows: int         # rows of the CSV that `profile` reads
    cal_sources: int
    cal_targets: int
    cal_epochs: int
    sim_sources: int
    sim_targets: int
    sim_epochs: int


FULL = Sizes(shelf=1000, dim=512, target_rows=2000,
             csv_rows=2000, cal_sources=12, cal_targets=24, cal_epochs=10,
             sim_sources=12, sim_targets=16, sim_epochs=30)
TINY = Sizes(shelf=12, dim=16, target_rows=40, csv_rows=40,
             cal_sources=4, cal_targets=4, cal_epochs=2,
             sim_sources=4, sim_targets=4, sim_epochs=2)


@dataclass
class Op:
    """One CLI invocation: `p2l <argv>`, and the check of its stdout."""

    kind: str
    argv: list[str]
    check: Callable[[str], str | None]   # stdout -> failure reason, or None


def outcome(op: Op, returncode: int, stdout: str) -> str | None:
    """Why an operation failed, or None: a non-zero exit or a failed check."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return op.check(stdout)
    except (ValueError, IndexError, KeyError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, zlib.crc32(tag.encode())])


# -- independent reference computations ----------------------------------------


def _z(x: np.ndarray) -> np.ndarray:
    sigma = x.std()
    if x.size == 1 or sigma == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sigma


def distances(kind: str, target: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """D(target, each row of vecs) in numpy, smoothing as the CLI does."""
    if kind in PROBABILITY_KINDS:
        scale = 1.0 + target.size * EPSILON
        p = (target + EPSILON) / scale
        q = (vecs + EPSILON) / scale
        if kind == "KL":
            return np.maximum(0.0, (p * np.log(p / q)).sum(axis=1))
        if kind == "JSD":
            m = 0.5 * (p + q)
            inner = (0.5 * (p * np.log(p / m)).sum(axis=1)
                     + 0.5 * (q * np.log(q / m)).sum(axis=1))
            return np.sqrt(np.maximum(0.0, inner))
        return np.maximum(0.0, 0.5 * ((p - q) ** 2 / (p + q)).sum(axis=1))
    diff = target - vecs
    if kind == "EUC":
        return np.sqrt((diff * diff).sum(axis=1))
    return np.abs(diff).sum(axis=1)


@dataclass(frozen=True)
class Row:
    name: str
    size: int
    distance: float
    score: float


def expected_ranking(kind: str, target: np.ndarray, names: list[str],
                     sizes: np.ndarray, vecs: np.ndarray) -> list[Row]:
    """score = z(ln|s|) + k*z(D(t, s)), best first; ties by size, then name."""
    dist = distances(kind, target, vecs)
    score = _z(np.log(sizes.astype(np.float64))) + K * _z(dist)
    order = sorted(range(len(names)), key=lambda i: (-score[i], -sizes[i], names[i]))
    return [Row(names[i], int(sizes[i]), float(dist[i]), float(score[i]))
            for i in order]


def check_rank(stdout: str, expected: list[Row],
               baselines: dict[str, str] | None = None) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != RANK_HEADER:
        return "missing rank header"
    rows = [line for line in lines[1:] if not line.startswith("baseline,")]
    if len(rows) != len(expected):
        return f"{len(rows)} ranked rows, expected {len(expected)}"
    for i, (line, exp) in enumerate(zip(rows, expected), start=1):
        name, size, dist, z_log, z_dist, score = line.split(",")
        if name != exp.name:
            return f"row {i} is {name!r}, expected {exp.name!r}"
        if int(size) != exp.size:
            return f"row {i}: size {size}, expected {exp.size}"
        if abs(float(score) - (float(z_log) + K * float(z_dist))) > IDENTITY_TOL:
            return f"row {i}: score breaks z_log_size + k*z_distance"
        if abs(float(score) - exp.score) > RECOMPUTE_TOL:
            return f"row {i}: score {score}, recomputed {exp.score!r}"
        if abs(float(dist) - exp.distance) > RECOMPUTE_TOL * max(1.0, exp.distance):
            return f"row {i}: distance {dist}, recomputed {exp.distance!r}"
    if baselines is not None:
        got = [line for line in lines[1:] if line.startswith("baseline,")]
        want = [f"baseline,{b},{pick}" for b, pick in baselines.items()]
        if got != want:
            return f"baseline rows {got}, expected {want}"
    return None


# -- fixtures --------------------------------------------------------------------


@dataclass
class Shelf:
    root: Path
    names: list[str]
    sizes: np.ndarray
    vecs: np.ndarray      # normalized summaries, one row per profile


def build_shelf(root: Path, rng: np.random.Generator, n: int, dim: int) -> Shelf:
    """n source profiles with gamma-distributed mean vectors and log-uniform sizes."""
    registry = ProfileRegistry.open(root)
    shapes = rng.uniform(0.5, 4.0, (n, 1))
    raw = rng.gamma(shapes, 1.0, (n, dim))
    sizes = np.exp(rng.uniform(math.log(100), math.log(1e6), n)).astype(np.int64)
    vecs = raw / raw.sum(axis=1, keepdims=True)
    names = [f"src{i:05d}" for i in range(n)]
    for name, size, v, r in zip(names, sizes, vecs, raw):
        summary = SummaryVector(values=v, raw_mean=r, summarizer=Summarizer.mean())
        registry.save(DatasetProfile(name=name, size=int(size), summary=summary,
                                     extractor_id=EXTRACTOR))
    return Shelf(root, names, sizes, vecs)


def _embeddings(rng: np.random.Generator, rows: int, dim: int) -> EmbeddingMatrix:
    return EmbeddingMatrix(rng.gamma(1.5, 1.0, (rows, dim)), EXTRACTOR)


def digest(root: Path) -> tuple[int, str]:
    """Total bytes and sha256 of every file under root, in path order."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return total, h.hexdigest()[:16]


# -- shelf ----------------------------------------------------------------------


@dataclass
class ShelfState:
    seed: int
    shelf: Shelf
    target_bin: Path
    target: np.ndarray                          # normalized mean of target.bin
    csv_path: Path
    rows: int
    summaries: dict[str, DatasetProfile]        # summarizer label -> profile
    written: dict[str, str] = field(default_factory=dict)  # name -> label


def setup_shelf(work: Path, seed: int, sizes: Sizes) -> ShelfState:
    rng = _rng(seed, "shelf")
    shelf = build_shelf(work / "registry", rng, sizes.shelf, sizes.dim)
    target = _embeddings(rng, sizes.target_rows, sizes.dim)
    target_bin = work / "target.bin"
    write_embeddings_bin(target_bin, target)
    mean = target.values.astype(np.float32).astype(np.float64).mean(axis=0)
    fresh = _embeddings(rng, sizes.csv_rows, sizes.dim)
    csv_path = work / "fresh.csv"
    write_embeddings_csv(csv_path, fresh)
    summaries = {label: profile_from_matrix("expected", fresh, Summarizer.parse(label))
                 for label in SUMMARIZERS}
    return ShelfState(seed, shelf, target_bin, mean / mean.sum(), csv_path,
                      sizes.csv_rows, summaries)


def check_shelf_rank(stdout: str, state: ShelfState, kind: str) -> str | None:
    """Every profile on disk, the ones this run wrote included, is ranked."""
    root = state.shelf.root
    on_disk = {p.name[:-len(".profile.json")] for p in root.glob("*.profile.json")}
    written = [n for n in sorted(state.written) if n in on_disk]
    names = state.shelf.names + written
    if set(names) != on_disk:
        return f"registry holds unexpected profiles {sorted(on_disk - set(names))[:3]}"
    profiles = [state.summaries[state.written[n]] for n in written]
    sizes = np.concatenate([state.shelf.sizes, [p.size for p in profiles]]).astype(np.int64)
    vecs = np.vstack([state.shelf.vecs] + [p.summary.values for p in profiles])
    expected = expected_ranking(kind, state.target, names, sizes, vecs)
    shuffled = sorted(names)
    random.Random(state.seed).shuffle(shuffled)
    baselines = {
        "B1": min(expected, key=lambda r: (-r.size, r.name)).name,
        "B2": "",
        "B3": shuffled[0],
        "B5": min(expected, key=lambda r: (r.distance, -r.size, r.name)).name,
    }
    return check_rank(stdout, expected, baselines)


def check_profile(stdout: str, state: ShelfState, name: str) -> str | None:
    dim = state.shelf.vecs.shape[1]
    if stdout != f"dim,size,extractor_id\n{dim},{state.rows},{EXTRACTOR}\n":
        return f"profile stdout {stdout!r}"
    saved = ProfileRegistry(state.shelf.root).load(name)
    want = state.summaries[state.written[name]]
    same = (saved.size == want.size and saved.role == "source"
            and saved.extractor_id == want.extractor_id
            and saved.summary.summarizer == want.summary.summarizer
            and saved.summary.values.tobytes() == want.summary.values.tobytes()
            and saved.summary.raw_mean.tobytes() == want.summary.raw_mean.tobytes())
    return None if same else f"profile {name!r} does not reload bit-exact"


def ops_shelf(state: ShelfState) -> Iterator[Op]:
    """Per cycle: one rank per distance kind, then two profile writes."""
    registry = str(state.shelf.root)
    while True:
        for kind in KINDS:
            yield Op("rank", ["rank", "--registry", registry,
                              "--target", str(state.target_bin), "--distance", kind,
                              "--k", repr(K), "--baselines", "--seed", str(state.seed)],
                     partial(check_shelf_rank, state=state, kind=kind))
        for label in SUMMARIZERS:
            name = f"w{len(state.written):05d}"
            state.written[name] = label
            yield Op("profile", ["profile", "--registry", registry, "--input",
                                 str(state.csv_path), "--name", name,
                                 "--summarizer", label],
                     partial(check_profile, state=state, name=name))


# -- calibrate -----------------------------------------------------------------


@dataclass
class Calibrate:
    work: Path
    registry: Path
    truth: Path


def setup_calibrate(work: Path, seed: int, sizes: Sizes) -> Calibrate:
    cfg = oracle.OracleConfig(epochs=sizes.cal_epochs)
    world = oracle.default_world(seed % 2**31, cfg, n_sources=sizes.cal_sources,
                                 n_targets=sizes.cal_targets)
    records = oracle.ground_truth(world, cfg)
    sources, targets = oracle.build_profiles(world)
    registry = ProfileRegistry.open(work / "registry")
    for profile in sources + [targets[name] for name in world.target_names()]:
        registry.save(profile)
    truth = work / "truth.csv"
    write_improvements_csv(truth, records)
    return Calibrate(work, registry.root, truth)


def check_calibrate(stdout: str, grid_path: Path) -> str | None:
    """stdout names the grid maximum; ties go to smaller |k|, then kind order."""
    lines = grid_path.read_text().splitlines()
    grid_path.unlink()
    if lines[0] != "k,distance,mean_rho" or len(lines) - 1 != GRID_POINTS:
        return f"grid has {len(lines) - 1} points, expected {GRID_POINTS}"
    rows = [line.split(",") for line in lines[1:]]
    top = max(float(r[2]) for r in rows)
    best = min((r for r in rows if float(r[2]) == top),
               key=lambda r: (abs(float(r[0])), KINDS.index(r[1])))
    want = "k,distance,mean_rho\n" + ",".join(best) + "\n"
    return None if stdout == want else f"calibrate stdout {stdout!r}, grid says {want!r}"


def ops_calibrate(state: Calibrate) -> Iterator[Op]:
    for n in itertools.count():
        grid = state.work / f"grid{n:05d}.csv"
        yield Op("calibrate", ["calibrate", "--registry", str(state.registry),
                               "--truth", str(state.truth), "--out", str(grid)],
                 partial(check_calibrate, grid_path=grid))


# -- simulate ------------------------------------------------------------------


@dataclass
class Simulate:
    work: Path
    seed: int
    sizes: Sizes
    ground_truth: bytes
    reference: dict[str, bytes] | None = None   # first run's stdout and files


def setup_simulate(work: Path, seed: int, sizes: Sizes) -> Simulate:
    sim_seed = seed % 2**31
    cfg = oracle.OracleConfig(epochs=sizes.sim_epochs)
    world = oracle.default_world(sim_seed, cfg, n_sources=sizes.sim_sources,
                                 n_targets=sizes.sim_targets)
    work.mkdir(parents=True, exist_ok=True)
    truth = work / "ground_truth.csv"
    write_improvements_csv(truth, oracle.ground_truth(world, cfg))
    return Simulate(work, sim_seed, sizes, truth.read_bytes())


def check_simulate(stdout: str, state: Simulate, out: Path) -> str | None:
    """The oracle truth matches the fixture; every run of the seed is byte-identical."""
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    if files.get("ground_truth.csv") != state.ground_truth:
        return "ground_truth.csv differs from the in-process oracle"
    if not stdout.startswith(f"seed,best_k,best_distance,mean_rho\n{state.seed},"):
        return f"simulate stdout {stdout!r}"
    files["<stdout>"] = stdout.encode()
    if state.reference is None:
        state.reference = files
    elif files != state.reference:
        changed = sorted(k for k in files.keys() | state.reference.keys()
                         if files.get(k) != state.reference.get(k))
        return f"study output differs between runs of one seed: {changed}"
    return None


def ops_simulate(state: Simulate) -> Iterator[Op]:
    s = state.sizes
    for n in itertools.count():
        out = state.work / f"sim{n:05d}"
        yield Op("simulate", ["simulate", "--seed", str(state.seed),
                              "--sources", str(s.sim_sources),
                              "--targets", str(s.sim_targets),
                              "--epochs", str(s.sim_epochs), "--out", str(out)],
                 partial(check_simulate, state=state, out=out))


# -- oracle --------------------------------------------------------------------


@dataclass
class OracleState:
    calibrate: Calibrate
    simulate: Simulate


def setup_oracle(work: Path, seed: int, sizes: Sizes) -> OracleState:
    return OracleState(setup_calibrate(work / "calibrate", seed, sizes),
                       setup_simulate(work / "simulate", seed, sizes))


def ops_oracle(state: OracleState) -> Iterator[Op]:
    """Alternate calibrate and simulate."""
    for pair in zip(ops_calibrate(state.calibrate), ops_simulate(state.simulate)):
        yield from pair


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int, Sizes], object]
    ops: Callable[[object], Iterator[Op]]
    mix: dict[str, float]     # share of each command kind in one cycle
    cycle: int                # operations in one full cycle of the mix


WORKLOADS = {w.name: w for w in (
    Workload("shelf", setup_shelf, ops_shelf,
             {"rank": len(KINDS) / (len(KINDS) + 2), "profile": 2 / (len(KINDS) + 2)},
             len(KINDS) + 2),
    Workload("oracle", setup_oracle, ops_oracle, {"calibrate": 0.5, "simulate": 0.5}, 2),
)}
