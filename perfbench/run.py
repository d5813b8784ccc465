#!/usr/bin/env python3
"""p2l benchmark: cold CLI workloads, end-to-end metrics, a traced run per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shelf --seed 1 --seconds 40 --trace 0

Every command runs the way users run it: a cold `python -m p2l.cli ...`
process, one client in a closed loop (the next command starts when the
previous one exits), with BLAS threads pinned to the CPUs this process may
use. A command that exits non-zero or fails its output check is a failed
operation. The workloads and their checks are described in workloads.py.

--trace 0 measures the end-to-end metrics:
  setup_s      build time of the workload's fixtures from the seed, divided by
               the yardstick's wall time around it and scaled to a yardstick of
               YARDSTICK_S seconds: median of three builds. The raw seconds
               are in the table
  wall_rel     wall time of one cold command divided by that of the yardstick
               process (reference.py) run just before and just after it: each
               command kind's median ratio, weighted by its share of the
               workload's cycle. The shared host's speed drifts by tens of
               percent over minutes; the ratio cancels that drift, and a change
               to p2l moves the command but not the yardstick
  cpu_rel      the same for user+sys CPU of the process (from wait4 rusage);
               it shows work moved onto extra threads
  peak_rss_mb  largest max-RSS of any CLI process in the run
The table above the JSON line also gives, with sample counts, each command
kind's median in seconds (rank_s and profile_s on shelf, calibrate_s and
simulate_s on oracle), the yardstick's median, the raw seconds mix (wall_s,
cpu_s) and the error rate. The oracle workload also runs, untimed, the
oracle study of seeds 1-5 and requires the ROADMAP headline (HEADLINE).

--trace 1 runs, in this process, one cycle of every workload's command mix
per pass, alternating untraced and traced passes, and reports the per-layer
metrics of spans.py from the traced passes (see LAYER_METRICS) plus the
tracing overhead: traced minus untraced wall time of the same commands.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# workloads.py and spans.py import numpy, so functions import them only after
# pin_threads() has set the BLAS thread variables.

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STUDY_SCRIPT = ROOT / "scripts" / "run_oracle_study.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_OUTPUT = "rows=2000 chars=75729 kl=134.91374556"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
# A fixed scale: setup_s is given in seconds on a machine where reference.py
# takes this long (it took 1.1-1.9 s on the 2-vCPU Xeon VM that recorded
# BASELINE.json, as the host's speed drifted).
YARDSTICK_S = 1.4
COMMAND_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The ROADMAP headline of `scripts/run_oracle_study.py --seeds 1 2 3 4 5`.
HEADLINE = ("mean over 5 seeds: rho=+0.640 (size-only +0.221)  hit ours/B1/B5 = "
            "0.50/0.20/0.38  picks ours/B1 = 1.73/2.70")

END_TO_END_UNITS = {"setup_s": "s", "wall_rel": "x", "cpu_rel": "x", "peak_rss_mb": "MB"}

# metric, unit, command whose spans it reads, span name, statistic, and the
# end-to-end figure it should move (workload in brackets)
LAYER_METRICS = [
    ("cli.main_self_s.rank", "s", "rank", "cli.main.rank", "self",
     "rank_s [shelf]: argparse and CSV formatting of every row"),
    ("cli.main_self_s.profile", "s", "profile", "cli.main.profile", "self",
     "profile_s [shelf]"),
    ("cli.main_self_s.calibrate", "s", "calibrate", "cli.main.calibrate", "self",
     "calibrate_s [oracle]: includes loading the task targets"),
    ("cli.main_self_s.simulate", "s", "simulate", "cli.main.simulate", "self",
     "simulate_s [oracle]"),
    ("io.read_embeddings_csv_s", "s", "profile", "io.read_embeddings_csv", "dur",
     "profile_s [shelf]"),
    ("io.read_embeddings_csv.values", "count", "profile", "io.read_embeddings_csv",
     "values", "profile_s [shelf]"),
    ("io.read_embeddings_bin_s", "s", "rank", "io.read_embeddings_bin", "dur",
     "rank_s [shelf]: small share"),
    ("io.registry_load_all_s", "s", "rank", "io.registry_load_all", "dur",
     "rank_s [shelf]: largest share; calibrate_s [oracle]: small"),
    ("io.registry_load_all.profiles", "count", "rank", "io.registry_load_all",
     "profiles", "rank_s [shelf]"),
    ("io.registry_load_all.bytes", "bytes", "rank", "io.registry_load_all",
     "bytes", "rank_s [shelf]"),
    ("io.registry_save_s", "s", "profile", "io.registry_save", "dur",
     "profile_s and setup_s [shelf]"),
    ("io.registry_save.profiles", "count", "profile", "io.registry_save", "calls",
     "profile_s [shelf]"),
    ("io.read_improvements_csv_s", "s", "calibrate", "io.read_improvements_csv", "dur",
     "calibrate_s [oracle]"),
    ("summarize.profile_from_matrix_s.mean", "s", "profile",
     "summarize.profile_from_matrix.mean", "dur", "profile_s [shelf]"),
    ("summarize.profile_from_matrix_s.trimmed", "s", "profile",
     "summarize.profile_from_matrix.trimmed", "dur", "profile_s [shelf]"),
    *[(f"estimator.score_sources_s.{k}", "s", "rank", f"estimator.score_sources.{k}",
       "dur", "rank_s [shelf]") for k in ("KL", "JSD", "CHI2", "EUC", "CITYBLOCK")],
    ("estimator.score_sources.candidates", "count", "rank",
     "estimator.score_sources.KL", "candidates", "rank_s [shelf]"),
    ("estimator.baseline_ranking_s.B5", "s", "rank",
     "estimator.baseline_ranking.B5", "dur", "rank_s [shelf]"),
    *[(f"divergence.distance_us.{k}", "us", "rank", f"divergence.distance.{k}",
       "us", "rank_s [shelf]; calibrate_s [oracle] through tune_k")
      for k in ("KL", "JSD", "CHI2", "EUC", "CITYBLOCK")],
    ("calibrate.tune_k_s", "s", "calibrate", "calibrate.tune_k", "dur",
     "calibrate_s [oracle]: largest share; simulate_s [oracle]"),
    ("calibrate.tune_k.evaluations", "count", "calibrate", "calibrate.tune_k",
     "evaluations", "calibrate_s [oracle]"),
    ("oracle.default_world_s", "s", "simulate", "oracle.default_world", "dur",
     "simulate_s [oracle]"),
    ("oracle.ground_truth_s", "s", "simulate", "oracle.ground_truth", "dur",
     "simulate_s [oracle]"),
    ("oracle.ground_truth.sgd_steps", "count", "simulate", "oracle.ground_truth",
     "sgd_steps", "simulate_s [oracle]"),
    ("oracle.calibration_tasks_s", "s", "simulate", "oracle.calibration_tasks", "dur",
     "simulate_s [oracle]"),
    ("oracle.run_study_s", "s", "simulate", "oracle.run_study", "dur",
     "simulate_s [oracle]"),
    ("oracle.write_study_files_s", "s", "simulate", "oracle.write_study_files", "dur",
     "simulate_s [oracle]"),
]


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float
    rss_mb: float
    failure: str | None
    ref_wall: float = 0.0   # mean yardstick wall time just before and after
    ref_cpu: float = 0.0


def checkout_ok() -> bool:
    return (SRC / "p2l" / "cli.py").is_file() and STUDY_SCRIPT.is_file()


def pin_threads() -> str:
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return threads


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "P2L_REGISTRY"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], work: Path, env: dict[str, str]):
    """Run one process to completion; return wall, rusage, exit code and stdout."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        # Kill by pid: the process stays a zombie, so its pid cannot be
        # reused, until wait4 below reaps it.
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            wall = time.perf_counter() - start
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, out_path.read_text()


def run_cli(op, work: Path, env: dict[str, str]) -> Sample:
    from workloads import outcome

    wall, usage, code, stdout = spawn([sys.executable, "-m", "p2l.cli", *op.argv],
                                      work, env)
    return Sample(op.kind, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, outcome(op, code, stdout))


def yardstick(work: Path, env: dict[str, str]) -> tuple[float, float]:
    """Run reference.py cold; return its wall and user+sys CPU time."""
    wall, usage, code, stdout = spawn([sys.executable, str(REFERENCE)], work, env)
    if code != 0 or stdout.strip() != REFERENCE_OUTPUT:
        raise RuntimeError(f"yardstick process: exit code {code}, output {stdout!r}")
    return wall, usage.ru_utime + usage.ru_stime


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    pct = int(100 - 1000 / n) if n > 20 else 0
    if pct <= 50:
        return ""
    return f"  p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f}"


def timing_line(name: str, values: list[float], unit: str) -> str:
    return (f"  {name:<14} median {statistics.median(values):10.4f} {unit:<3}"
            f" n={len(values)}{tail(values)}")


def setup_repeated(workload, work: Path, seed: int, sizes, env: dict[str, str]):
    """Build the fixtures SETUP_REPEATS times, a yardstick run before and after
    each; keep the last build. Return it, the build times, their ratios to the
    yardstick and the last yardstick (wall, cpu)."""
    times, ratios, state = [], [], None
    before = yardstick(work, env)
    for r in range(SETUP_REPEATS):
        if state is not None:
            shutil.rmtree(work / f"setup{r - 1}")
        start = time.perf_counter()
        state = workload.setup(work / f"setup{r}", seed, sizes)
        times.append(time.perf_counter() - start)
        after = yardstick(work, env)
        ratios.append(times[-1] / ((before[0] + after[0]) / 2))
        before = after
    return state, times, ratios, before


def quality_guard(env: dict[str, str], work: Path) -> str | None:
    wall, _, code, stdout = spawn(
        [sys.executable, str(STUDY_SCRIPT), "--seeds", "1", "2", "3", "4", "5"], work, env)
    last = stdout.splitlines()[-1] if stdout else ""
    print(f"quality guard ({wall:.1f} s, untimed): {last}")
    if code != 0 or last != HEADLINE:
        return f"oracle study headline {last!r}, expected {HEADLINE!r}"
    return None


def timed_run(name: str, seed: int, seconds: float, sizes, work: Path) -> dict:
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[name]
    env = cli_env()
    state, setup_times, setup_ratios, before = setup_repeated(workload, work, seed,
                                                               sizes, env)
    fixture_bytes, fixture_sha = digest(work / f"setup{SETUP_REPEATS - 1}")
    print(f"fixtures: {fixture_bytes} bytes, sha256 {fixture_sha}")

    samples: list[Sample] = []
    ops = workload.ops(state)
    deadline = time.perf_counter() + seconds
    # Start a command while a typical one and its yardstick still end inside
    # the window, and always finish the first cycle, so every command kind
    # has a sample.
    while (len(samples) < workload.cycle or time.perf_counter() + statistics.median(
            s.wall + s.ref_wall for s in samples) <= deadline):
        sample = run_cli(next(ops), work, env)
        after = yardstick(work, env)
        sample.ref_wall = (before[0] + after[0]) / 2
        sample.ref_cpu = (before[1] + after[1]) / 2
        samples.append(sample)
        before = after
    failures = [f"{s.kind}: {s.failure}" for s in samples if s.failure]
    attempted = len(samples)
    if name == "oracle":
        attempted += 1
        problem = quality_guard(env, work)
        if problem:
            failures.append(f"quality guard: {problem}")

    setup_s = YARDSTICK_S * statistics.median(setup_ratios)
    print(timing_line("setup_raw_s", setup_times, "s"))
    print(f"  {'setup_s':<14} median {setup_s:10.4f} s   at a {YARDSTICK_S} s yardstick")
    print(timing_line("yardstick_s", [s.ref_wall for s in samples], "s"))
    mix = {"wall_s": 0.0, "cpu_s": 0.0, "wall_rel": 0.0, "cpu_rel": 0.0}
    for kind, share in workload.mix.items():
        mine = [s for s in samples if s.kind == kind]
        good = [s for s in mine if s.failure is None] or mine
        series = {"wall_s": [s.wall for s in good], "cpu_s": [s.cpu for s in good],
                  "wall_rel": [s.wall / s.ref_wall for s in good],
                  "cpu_rel": [s.cpu / s.ref_cpu for s in good]}
        print(timing_line(f"{kind}_s", series["wall_s"], "s"))
        print(timing_line(f"{kind}_cpu_s", series["cpu_s"], "s"))
        print(timing_line(f"{kind}_rel", series["wall_rel"], "x"))
        print(timing_line(f"{kind}_cpu_rel", series["cpu_rel"], "x"))
        for key, values in series.items():
            mix[key] += share * statistics.median(values)
    peak = max(s.rss_mb for s in samples)
    for key, value in mix.items():
        print(f"  {key:<14} mix    {value:10.4f} {'s' if key.endswith('_s') else 'x'}")
    print(f"  {'peak_rss_mb':<14} max    {peak:10.4f} MB")
    print(f"  {'error_rate':<14} {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}")
    values = {"setup_s": setup_s, "wall_rel": mix["wall_rel"],
              "cpu_rel": mix["cpu_rel"], "peak_rss_mb": peak}
    return {"failures": failures, "attempted": attempted,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()}}


def run_inprocess(op, tracer=None) -> tuple[float, str | None]:
    """Run one command through p2l.cli.main in this process, under a span if traced."""
    import p2l.cli
    from workloads import outcome

    out, err = io.StringIO(), io.StringIO()
    span = nullcontext() if tracer is None else tracer.span(f"cli.main.{op.kind}")
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err), span:
        try:
            code = p2l.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is one failed operation
            return time.perf_counter() - start, f"raised {exc!r}"
    wall = time.perf_counter() - start
    return wall, outcome(op, code, out.getvalue())


def import_time(env: dict[str, str], work: Path) -> float:
    code = ("import time; t = time.perf_counter(); import p2l.cli; "
            "print(time.perf_counter() - t)")
    _, _, _, stdout = spawn([sys.executable, "-c", code], work, env)
    return float(stdout)


def layer_value(tracer, selfs: list[float], command: str, span: str,
                stat: str) -> tuple[float | None, int]:
    prefix = f"{command}:"
    picked = [i for i, s in enumerate(tracer.spans)
              if s.name == span and s.run_id.startswith(prefix)]
    if not picked:
        return None, 0
    if stat == "calls":
        return float(len(picked)), len(picked)
    if stat == "self":
        values = [selfs[i] for i in picked]
    elif stat == "dur":
        values = [tracer.spans[i].duration for i in picked]
    elif stat == "us":
        values = [tracer.spans[i].duration * 1e6 for i in picked]
    else:
        values = [tracer.spans[i].counts[stat] for i in picked]
    return float(statistics.median(values)), len(values)


def traced_run(seed: int, seconds: float, sizes, work: Path, spans_path: Path) -> dict:
    from spans import Tracer, installed
    from workloads import WORKLOADS

    env = cli_env()
    tracer = Tracer()
    states = {name: w.setup(work / name, seed, sizes) for name, w in WORKLOADS.items()}
    ops = {name: w.ops(states[name]) for name, w in WORKLOADS.items()}
    imports = [import_time(env, work) for _ in range(3)]

    failures, attempted = [], 0
    walls = {"untraced": 0.0, "traced": 0.0}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        # Alternate which mode goes first, so drift in machine speed cancels.
        for mode in sorted(walls, reverse=passes % 2 == 1):
            for name, w in WORKLOADS.items():
                for i in range(w.cycle):
                    op = next(ops[name])
                    tracer.run_id = f"{op.kind}:{name}:{passes}:{i}"
                    if mode == "traced":
                        with installed(tracer):
                            wall, failure = run_inprocess(op, tracer)
                    else:
                        wall, failure = run_inprocess(op)
                    walls[mode] += wall
                    attempted += 1
                    if failure:
                        failures.append(f"{name} {op.kind}: {failure}")
        passes += 1
    tracer.write(spans_path)

    selfs = tracer.self_times()
    overhead = 100.0 * (walls["traced"] - walls["untraced"]) / walls["untraced"]
    metrics = {"cli.import_s": {"value": statistics.median(imports), "unit": "s"}}
    print(f"traced run: {passes} pass pair(s), {len(tracer.spans)} spans -> "
          f"{spans_path.relative_to(ROOT)}")
    print(timing_line("cli.import_s", imports, "s") + "  moves every wall_rel")
    for metric, unit, command, span, stat, moves in LAYER_METRICS:
        value, n = layer_value(tracer, selfs, command, span, stat)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric:<40} {shown:>12} {unit:<5} n={n:<5} moves {moves}")
        metrics[metric] = {"value": 0.0 if value is None else value, "unit": unit}
    print(f"  {'trace.overhead_pct':<40} {overhead:12.4f} %     "
          f"traced {walls['traced']:.3f} s vs untraced {walls['untraced']:.3f} s")
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return {"failures": failures, "attempted": attempted, "metrics": metrics}


def describe_environment(threads: str) -> None:
    from importlib.metadata import PackageNotFoundError, version

    def installed_version(package: str) -> str:
        try:
            return version(package)
        except PackageNotFoundError:
            return "absent"

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), "unknown")
    loc = sum(len(p.read_text().splitlines()) for p in (SRC / "p2l").glob("*.py"))
    print(f"env: nproc={os.cpu_count()} cpu={cpu!r} python={sys.version.split()[0]} "
          f"numpy={installed_version('numpy')} scipy={installed_version('scipy')} "
          f"{'/'.join(THREAD_VARS)}={threads} src/p2l lines={loc}")


def run(workload: str, seed: int, seconds: float, trace: bool, sizes,
        threads: str) -> dict:
    import p2l.cli  # noqa: F401  compile the package once before anything is timed

    describe_environment(threads)
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        if trace:
            spans_path = RUN_DIR / f"spans-{workload}-seed{seed}.jsonl"
            result = traced_run(seed, seconds, sizes, work, spans_path)
        else:
            result = timed_run(workload, seed, seconds, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {"correct": not result["failures"], "attempted": result["attempted"],
            "failed": len(result["failures"]), "metrics": result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("shelf", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not checkout_ok():
        print(f"perfbench: no p2l source checkout at {ROOT}", file=sys.stderr)
        return 2
    threads = pin_threads()
    from workloads import FULL

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL, threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
