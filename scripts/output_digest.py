#!/usr/bin/env python3
"""Print a sha256 digest of every output p2l writes for a fixed set of inputs.

Builds its fixtures in a temporary directory with this checkout's own
src/, runs the CLI and the experiment scripts of this checkout on them, and
prints one `sha256  name` line per output: each command's stdout, its stderr
(with the temporary directory's path replaced by `<tmp>`) and every file it
writes (for merge, the merged profile). Two checkouts that print the same lines write byte-identical
outputs. Every rank, calibrate and evaluate command runs twice, first without
the registry's summary cache and then with the cache the first run left; the
script exits non-zero if the two runs print differently. Last come commands
that must fail: each must exit with its documented code, print nothing on
stdout and write no file, and only its stderr is shown. Takes no options;
see README for comparing a change with its parent.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from p2l import oracle  # noqa: E402
from p2l.core import EmbeddingMatrix  # noqa: E402
from p2l.io import ProfileRegistry, write_embeddings_bin, write_embeddings_csv  # noqa: E402
from p2l.summarize import profile_from_matrix  # noqa: E402

KINDS = ("KL", "JSD", "CHI2", "EUC", "CITYBLOCK")
# p2l.io.CACHE_NAME, spelled out so that this script also runs unchanged on a
# checkout from before the cache, as the README's comparison does.
CACHE_NAME = ".p2l-summaries.npz"


def show(name: str, data: bytes) -> None:
    print(f"{hashlib.sha256(data).hexdigest()}  {name}")


def show_files(name: str, paths) -> None:
    for path in sorted(paths):
        show(f"{name}/{path.name}", path.read_bytes())


def execute(tmp: Path, name: str, *argv: str, code: int = 0) -> tuple[bytes, bytes]:
    """Run `python argv...` in tmp; it must exit with code. Return its stdout
    and its stderr with tmp replaced by `<tmp>`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                          capture_output=True)
    if proc.returncode != code:
        sys.exit(f"{name} exited {proc.returncode}, not {code}:\n{proc.stderr.decode()}")
    return proc.stdout, proc.stderr.replace(str(tmp).encode(), b"<tmp>")


def run(tmp: Path, name: str, *argv: str) -> None:
    """Run `python argv...` in tmp and show its stdout and stderr."""
    stdout, stderr = execute(tmp, name, *argv)
    show(f"{name} stdout", stdout)
    show(f"{name} stderr", stderr)


def p2l(tmp: Path, name: str, *argv: str) -> None:
    run(tmp, name, "-m", "p2l.cli", *argv)


def p2l_cold_warm(tmp: Path, name: str, *argv: str) -> None:
    """Run a command without its registry's summary cache and show it, then
    run it again on the cache the first run left; exit if the two differ."""
    (tmp / argv[argv.index("--registry") + 1] / CACHE_NAME).unlink(missing_ok=True)
    cold = execute(tmp, name, "-m", "p2l.cli", *argv)
    show(f"{name} stdout", cold[0])
    show(f"{name} stderr", cold[1])
    if execute(tmp, name, "-m", "p2l.cli", *argv) != cold:
        sys.exit(f"{name} printed differently with a warm summary cache")


def simulate(tmp: Path) -> None:
    for seed, extra in (("1", ()), ("2", ()), ("3", ()),
                        ("7", ("--sources", "12", "--targets", "16", "--epochs", "30"))):
        p2l(tmp, f"simulate-{seed}", "simulate", "--seed", seed, "--out", f"sim{seed}",
            *extra)
        show_files(f"sim{seed}", (tmp / f"sim{seed}").iterdir())


def oracle_registry(tmp: Path) -> None:
    """The seed-7 simulate world's profiles; its ground truth is sim7's."""
    world = oracle.default_world(7, n_sources=12, n_targets=16)
    sources, targets = oracle.build_profiles(world)
    registry = ProfileRegistry.open(tmp / "oracle")
    for profile in sources + [targets[name] for name in world.target_names()]:
        registry.save(profile)


def shelf_registry(tmp: Path) -> None:
    """200 random source profiles at d=64 plus a binary target file."""
    rng = np.random.default_rng(11)
    registry = ProfileRegistry.open(tmp / "shelf")
    for i in range(200):
        rows = rng.gamma(2.0, 1.0, (int(rng.integers(5, 60)), 64))
        registry.save(profile_from_matrix(f"s{i:03d}", EmbeddingMatrix(rows, "ext")))
    write_embeddings_bin(tmp / "target.bin",
                         EmbeddingMatrix(rng.gamma(2.0, 1.0, (40, 64)), "ext"))


def registry_commands(tmp: Path) -> None:
    truth = "sim7/ground_truth.csv"
    for name, extra in (("default", ()), ("grid", ("--grid=-2:0:0.25", "--kinds", "KL,EUC"))):
        p2l_cold_warm(tmp, f"calibrate-{name}", "calibrate", "--registry", "oracle",
                      "--truth", truth, "--out", f"grid-{name}.csv", *extra)
        show(f"grid-{name}.csv", (tmp / f"grid-{name}.csv").read_bytes())
    for kind, k in (("KL", "-1.0"), ("EUC", "-0.85")):
        p2l_cold_warm(tmp, f"evaluate-{kind}", "evaluate", "--registry", "oracle",
                      "--truth", truth, "--distance", kind, "--k", k,
                      "--reference", "dom01", "--seed", "3")
    # Without --reference and --seed the B2 and B3 baselines do not run.
    p2l_cold_warm(tmp, "evaluate-bare", "evaluate", "--registry", "oracle",
                  "--truth", truth, "--k", "-1.0")
    p2l_cold_warm(tmp, "rank-oracle-bare", "rank", "--registry", "oracle",
                  "--target", "dom13", "--k", "-1.0", "--baselines")
    for kind in KINDS:
        p2l_cold_warm(tmp, f"rank-oracle-{kind}", "rank", "--registry", "oracle",
                      "--target", "dom13", "--distance", kind, "--k", "-1.0",
                      "--baselines", "--seed", "3", "--reference", "dom01")
        p2l_cold_warm(tmp, f"rank-shelf-{kind}", "rank", "--registry", "shelf",
                      "--target", "target.bin", "--distance", kind, "--k", "-0.5",
                      "--baselines", "--seed", "3", "--reference", "s007")
    # Last, as it adds a profile to the shelf.
    p2l(tmp, "merge", "merge", "--registry", "shelf", "--name", "s-merged",
        "--members", "s000,s001,s002")
    show_files("shelf", [tmp / "shelf" / "s-merged.profile.json"])


def profile_files(tmp: Path) -> None:
    rng = np.random.default_rng(5)
    write_embeddings_csv(tmp / "emb.csv",
                         EmbeddingMatrix(rng.gamma(2.0, 1.0, (50, 16)), "ext"))
    for name, summarizer in (("pmean", "mean"), ("ptrim", "trimmed:0.1")):
        p2l(tmp, f"profile-{name}", "profile", "--registry", "profiles",
            "--input", "emb.csv", "--name", name, "--summarizer", summarizer)
    show_files("profiles", (tmp / "profiles").glob("*.profile.json"))


CSV_HEADER = "# p2l-embeddings v1 dim=3 extractor=ext\n"


def unusual_csvs(tmp: Path) -> None:
    """profile of valid CSV files in forms write_embeddings_csv never writes."""
    for name, body in (("padded", " 1.5 ,\t2, 0.25 \n3 ,4,5\n"),
                       ("underscore", "1_0,2,3\n4,5_5,6\n"),
                       ("crlf", "1.5,2,0.25\r\n3,4,5\r\n")):
        (tmp / f"{name}.csv").write_bytes((CSV_HEADER + body).encode())
        p2l(tmp, f"profile-{name}", "profile", "--registry", "unusual",
            "--input", f"{name}.csv", "--name", name)
    show_files("unusual", (tmp / "unusual").glob("*.profile.json"))


def studies(tmp: Path) -> None:
    scripts = ROOT / "scripts"
    run(tmp, "run_oracle_study", str(scripts / "run_oracle_study.py"),
        "--seeds", "1", "2", "3", "4", "5")
    run(tmp, "run_merged_study", str(scripts / "run_merged_study.py"), "--out", "merged")
    show_files("merged", tmp.glob("merged.seed*.csv"))


def files(tmp: Path) -> dict[Path, tuple[int, int]]:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in tmp.rglob("*") if p.is_file()}


def refuse(tmp: Path, name: str, code: int, *argv: str) -> None:
    """Run p2l argv... in tmp: it must exit with code, print nothing on stdout
    and leave every file in tmp as it was. Show its stderr."""
    before = files(tmp)
    stdout, stderr = execute(tmp, name, "-m", "p2l.cli", *argv, code=code)
    if stdout or files(tmp) != before:
        sys.exit(f"{name} printed to stdout or wrote a file")
    show(f"{name} stderr", stderr)


def refusals(tmp: Path) -> None:
    """Inputs each command must refuse, with the exit code the CLI documents."""
    data = (tmp / "target.bin").read_bytes()
    (tmp / "truncated.bin").write_bytes(data[:-4])
    (tmp / "dim0.csv").write_text("# p2l-embeddings v1 dim=0 extractor=ext\n1\n")
    (tmp / "empty-line.csv").write_text(CSV_HEADER + "1,2,3\n\n4,5,6\n")
    (tmp / "inf.csv").write_text(CSV_HEADER + "1,2,3\n4,inf,6\n")
    truth = "sim7/ground_truth.csv"
    lines = (tmp / truth).read_text().splitlines(keepends=True)
    target, _, perfs = lines[1].split(",", 2)  # the first record names source ghost
    (tmp / "ghost-truth.csv").write_text("".join(
        [lines[0], f"{target},ghost,{perfs}", *lines[2:]]))
    (tmp / "two-records.csv").write_text("".join(lines[:3]))
    for name, code, *argv in (
        ("profile-truncated", 2, "profile", "--input", "truncated.bin", "--name", "t"),
        ("profile-dim0", 2, "profile", "--input", "dim0.csv", "--name", "d"),
        ("profile-empty-line", 2, "profile", "--input", "empty-line.csv", "--name", "e"),
        ("profile-inf", 2, "profile", "--input", "inf.csv", "--name", "i"),
        ("profile-existing", 3, "profile", "--input", "emb.csv", "--name", "pmean"),
    ):
        refuse(tmp, f"refuse-{name}", code, *argv, "--registry", "profiles")
    for name, code, *argv in (
        ("calibrate-grid", 2, "calibrate", "--truth", truth, "--out", "grid-bad.csv",
         "--grid=1:0:1"),
        ("rank-distance", 2, "rank", "--target", "dom13", "--distance", "XX", "--k", "-1"),
        ("rank-target", 4, "rank", "--target", "ghost", "--k", "-1"),
        ("evaluate-reference", 4, "evaluate", "--truth", truth, "--k", "-1",
         "--reference", "ghost"),
        ("calibrate-unknown-source", 4, "calibrate", "--truth", "ghost-truth.csv",
         "--out", "grid-bad.csv"),
        ("evaluate-unknown-source", 4, "evaluate", "--truth", "ghost-truth.csv",
         "--k", "-1"),
        ("calibrate-too-few", 2, "calibrate", "--truth", "two-records.csv",
         "--out", "grid-bad.csv"),
    ):
        refuse(tmp, f"refuse-{name}", code, *argv, "--registry", "oracle")
    refuse(tmp, "refuse-simulate-learn-rate", 2, "simulate", "--seed", "1",
           "--out", "sim-nan", "--learn-rate", "nan")


def main() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        simulate(tmp)
        oracle_registry(tmp)
        shelf_registry(tmp)
        registry_commands(tmp)
        profile_files(tmp)
        unusual_csvs(tmp)
        studies(tmp)
        refusals(tmp)


if __name__ == "__main__":
    main()
