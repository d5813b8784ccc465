"""Command-line surface: profile, rank, calibrate, evaluate, merge, simulate.

stdout carries machine-parseable CSV only; human prose goes to stderr.
Exit codes: 0 ok, 2 input error, 3 state conflict, 4 referential error.
Every command checks its flags and reads its input files before it opens the
registry, so a refused input leaves the registry as it was.
"""
from __future__ import annotations

import argparse
import gc
import io
import math
import os
import sys
from pathlib import Path

# A fresh process: one that has not loaded numpy yet (`python -m p2l.cli` and
# the `p2l` console script). Library callers, scripts/ and test and benchmark
# hosts load numpy first, and the two start-up settings below leave them be.
_FRESH_PROCESS = "numpy" not in sys.modules

# OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as it loads: an idle worker
# thread spins 2**N cycles before it sleeps, N = 28 (about 0.1 s) by default.
# It spins after the library starts, after each fork and after each threaded
# call, and a cold command pays for it in CPU and, on a busy host, in wall
# time. The spin sets only when a thread sleeps, never a result; the thread
# count stays the user's. Cold `rank` and `simulate` times over N = 4..28 are
# in BENCH_23.json. Set only before numpy loads and when the user has not.
BLAS_IDLE_SPIN = "22"

# The imports below leave about 22,000 objects (numpy's and p2l's) that live
# until exit, and the cyclic collector would walk every one of them on each
# full pass, at exit too. A fresh process imports with the collector off, then
# freezes what the imports made (gc.freeze: never examined, never collected),
# so a command collects only what it allocates itself, and so do its forked
# workers. The collector sets only when cyclic garbage is freed, never a
# value. A caller that turned it off finds it off.
_COLLECTING = gc.isenabled()
if _FRESH_PROCESS:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_IDLE_SPIN)
    gc.disable()

# The package modules below import numpy, so they come after the settings.
from .calibrate import (  # noqa: E402
    DEFAULT_K_GRID,
    EvaluationConfig,
    compare_methods,
    selection_lines,
    tune_k,
    write_grid_csv,
)
from .core import DivergenceKind, EstimatorConfig, Summarizer
from .errors import InputError, ReferentialError, StateError
from .estimator import BASELINES, baseline_rankings, merge_profiles, score_sources
from .io import (
    ProfileRegistry,
    fmt,
    group_records_by_target,
    read_improvements_csv,
    sniff_and_read_embeddings,
)
from .summarize import profile_from_matrix

if _FRESH_PROCESS:
    gc.freeze()
    if _COLLECTING:
        gc.enable()

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STATE = 3
EXIT_REFERENTIAL = 4


def _fail(message: str, code: int) -> int:
    print(f"p2l: error: {message}", file=sys.stderr)
    return code


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_grid(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_K_GRID
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"bad grid spec {text!r}") from None
    finite = all(map(math.isfinite, (lo, hi, step)))
    if not finite or step <= 0 or hi < lo or not math.isfinite((hi - lo) / step):
        raise ValueError(f"bad grid spec {text!r}")
    # 1e-9 keeps hi when rounding leaves the step count just short of whole.
    n = math.floor((hi - lo) / step + 1e-9)
    return tuple(round(lo + i * step, 12) for i in range(n + 1))


def _parse_kinds(text: str | None) -> tuple[DivergenceKind, ...]:
    if text is None:
        return tuple(DivergenceKind)
    return tuple(DivergenceKind(part.strip().upper()) for part in text.split(","))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(distance=DivergenceKind(args.distance.upper()), k=args.k)


def cmd_profile(args) -> int:
    summarizer = Summarizer.parse(args.summarizer)
    size = None if args.size == "auto" else int(args.size)
    matrix = sniff_and_read_embeddings(args.input)
    profile = profile_from_matrix(args.name, matrix, summarizer,
                                  role=args.role, size=size)
    registry = ProfileRegistry.open(args.registry)
    registry.save(profile, overwrite=args.force)
    print("dim,size,extractor_id")
    print(f"{matrix.dim},{profile.size},{profile.extractor_id}")
    _note(f"wrote profile {profile.name!r} to {registry.root}")
    return EXIT_OK


def _target_file(text: str):
    """The target profile of the embeddings file at text; None when there is
    no such file, and text names a registry profile."""
    path = Path(text)
    if not path.exists():
        return None
    return profile_from_matrix("target", sniff_and_read_embeddings(path),
                               Summarizer.mean(), role="target")


def _shelf_with(registry: ProfileRegistry, names: list[str]):
    """The registry's loaded shelf, and the profile of each of names as a row
    of it. A name with no profile file is refused before loading: NotFound,
    or InvalidName."""
    if names:  # load_all lists the registry again; a file target names none
        present = set(registry.names())
        for name in names:
            if name not in present:
                registry.load(name)
    shelf = registry.load_all()
    return shelf, [shelf[shelf.names.index(name)] for name in names]


def cmd_rank(args) -> int:
    cfg = _estimator_config(args)
    if not args.baselines and (args.reference is not None or args.seed is not None):
        raise ValueError("--reference and --seed only set baselines; pass --baselines")
    target = _target_file(args.target)
    own = [] if target is not None else [args.target]
    shelf, rows = _shelf_with(ProfileRegistry.open(args.registry), own)
    if own:
        target = rows[0]
    candidates = shelf.take([i for i, (name, role) in enumerate(zip(shelf.names, shelf.roles))
                             if role == "source" and name not in own])
    scored = score_sources(target, candidates, cfg,
                           allow_mixed_extractors=args.allow_mixed_extractors)
    picks = {}
    if args.baselines:
        rankings = baseline_rankings(scored, candidates, args.reference, args.seed)
        # B2 without --reference and B3 without --seed do not run: an empty pick.
        picks = {kind: rankings[kind][0] if kind in rankings else ""
                 for kind in BASELINES if kind != "B4"}
    sizes = dict(zip(candidates.names, candidates.sizes))
    rows = scored if args.top is None else scored[:args.top]
    print("name,size,distance,z_log_size,z_distance,score")
    for s in rows:
        print(f"{s.source_name},{sizes[s.source_name]},{fmt(s.distance_value)},"
              f"{fmt(s.z_log_size)},{fmt(s.z_distance)},{fmt(s.score)}")
    for kind, pick in picks.items():
        print(f"baseline,{kind},{pick}")
    return EXIT_OK


def _read_truth(path):
    """The ground-truth records of a truth CSV, grouped by target."""
    records = read_improvements_csv(path)
    if not records:
        raise ValueError("ground-truth file has no records")
    return group_records_by_target(records)


def _tasks(registry: ProfileRegistry, grouped):
    """Each truth group's target profile, as a row of the loaded shelf, and the sources."""
    shelf, targets = _shelf_with(registry, list(grouped))
    tasks = list(zip(targets, grouped.values()))
    return tasks, shelf.take([i for i, role in enumerate(shelf.roles) if role == "source"])


def cmd_calibrate(args) -> int:
    cfg = EvaluationConfig(k_grid=_parse_grid(args.grid),
                           distance_kinds=_parse_kinds(args.kinds))
    grouped = _read_truth(args.truth)
    tasks, sources = _tasks(ProfileRegistry.open(args.registry), grouped)
    report = tune_k(tasks, sources, cfg)
    write_grid_csv(report, args.out)
    for name, rho in report.per_task_rho.items():
        _note(f"task {name}: rho {fmt(rho)}")
    print("k,distance,mean_rho")
    print(f"{fmt(report.best_k)},{report.best_distance.value},"
          f"{fmt(report.best_point().mean_rho)}")
    _note(f"wrote grid ({len(report.grid)} points) to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _estimator_config(args)
    grouped = _read_truth(args.truth)
    tasks, sources = _tasks(ProfileRegistry.open(args.registry), grouped)
    outcomes = {}
    for target, recs in tasks:
        _, outcomes[target.name] = compare_methods(
            target, recs, sources, cfg, reference_name=args.reference,
            rng_seed=args.seed, allow_mixed_extractors=args.allow_mixed_extractors)
    for line in selection_lines(outcomes):
        print(line)
    return EXIT_OK


def cmd_merge(args) -> int:
    registry = ProfileRegistry.open(args.registry)
    members = [registry.load(name) for name in args.members.split(",")]
    merged = merge_profiles(members, args.name)
    registry.save(merged, overwrite=args.force)
    print("name,size,dim")
    print(f"{merged.name},{merged.size},{merged.summary.dim}")
    _note(f"merged {len(members)} profiles into {merged.name!r}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import oracle  # only simulate trains; the other commands skip its import
    cfg = oracle.OracleConfig(epochs=args.epochs)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    oracle.check_study_size(args.sources, args.targets)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    world = oracle.default_world(args.seed, cfg, n_sources=args.sources,
                                 n_targets=args.targets)
    records = oracle.ground_truth(world, cfg)
    tasks, sources = oracle.calibration_tasks(world, records)
    report = tune_k(tasks, sources)
    est = EstimatorConfig(distance=report.best_distance, k=report.best_k)
    study = oracle.run_study(world, cfg, est, records=records)

    write_grid_csv(report, outdir / "grid.csv")
    oracle.write_study_files(study, outdir)
    print("seed,best_k,best_distance,mean_rho")
    print(f"{args.seed},{fmt(report.best_k)},{report.best_distance.value},"
          f"{fmt(study.mean_rho)}")
    _note(f"study report written to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2l",
        description="Rank candidate source datasets for transfer learning.")
    sub = parser.add_subparsers(dest="command", required=True)
    default_registry = os.environ.get("P2L_REGISTRY")

    def add_registry(p):
        p.add_argument("--registry", default=default_registry,
                       required=default_registry is None,
                       help="profile registry directory (default: $P2L_REGISTRY)")

    def add_estimator(p):
        p.add_argument("--distance", default="KL")
        p.add_argument("--k", type=float, required=True)
        p.add_argument("--reference", default=None, help="reference source for B2")
        p.add_argument("--seed", type=int, default=None, help="seed for the B3 baseline")
        p.add_argument("--allow-mixed-extractors", action="store_true")

    p = sub.add_parser("profile", help="summarize an embeddings file into the registry")
    p.add_argument("--input", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--size", default="auto", help="item count, or 'auto' for row count")
    p.add_argument("--summarizer", default="mean", help="mean or trimmed:<fraction>")
    p.add_argument("--role", default="source", choices=("source", "target"))
    p.add_argument("--force", action="store_true")
    add_registry(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("rank", help="rank registry sources for a target")
    p.add_argument("--target", required=True, help="embeddings file or profile name")
    p.add_argument("--top", type=_positive_int, default=None)
    p.add_argument("--baselines", action="store_true")
    add_estimator(p)
    add_registry(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("calibrate", help="grid-search k and the distance kind")
    p.add_argument("--truth", required=True,
                   help="CSV: target,source,perf_transfer,perf_scratch")
    p.add_argument("--out", required=True, help="grid CSV output path")
    p.add_argument("--grid", default=None, help="k grid as min:max:step; a "
                   "negative min needs the = form: --grid=-2:0:0.25")
    p.add_argument("--kinds", default=None, help="comma-separated distance kinds")
    add_registry(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="selection quality against ground truth")
    p.add_argument("--truth", required=True)
    add_estimator(p)
    add_registry(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("merge", help="merge registry profiles into one")
    p.add_argument("--name", required=True)
    p.add_argument("--members", required=True, help="comma-separated profile names")
    p.add_argument("--force", action="store_true")
    add_registry(p)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("simulate", help="run the synthetic end-to-end study")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sources", type=int, default=6)
    p.add_argument("--targets", type=int, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run one command; stdout is switched to UTF-8 whatever the locale."""
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StateError as exc:
        return _fail(str(exc), EXIT_STATE)
    except ReferentialError as exc:
        return _fail(str(exc), EXIT_REFERENTIAL)
    except (InputError, ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
