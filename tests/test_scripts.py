"""Smoke tests of the experiment scripts: each runs and prints its summary."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p2l
from p2l.io import CACHE_NAME

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DIGEST_REFERENCE = Path(__file__).resolve().parent / "data" / "output_digest.txt"


def run_script(name, *args):
    src = str(Path(p2l.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_run_merged_study(tmp_path):
    result = run_script("run_merged_study.py", "--seeds", "1", "--out", str(tmp_path / "m"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("seed 1: reference=")
    lines = (tmp_path / "m.seed1.csv").read_text().splitlines()
    assert lines[0] == ("target,divergence_from_reference,perf_reference,"
                        "perf_merged,predicted,winner")
    rows = [line.split(",") for line in lines[1:]]
    assert sorted(r[0] for r in rows) == [f"dom{i:02d}" for i in range(14)]
    for _, _, ref, merged, _, winner in rows:
        expected = ("tie" if float(ref) == float(merged)
                    else "reference" if float(ref) > float(merged) else "merged")
        assert winner == expected


def test_run_merged_study_takes_no_reference():
    result = run_script("run_merged_study.py", "--reference", "dom01")
    assert result.returncode == 2
    assert "unrecognized arguments: --reference dom01" in result.stderr


@pytest.mark.parametrize("script", ["run_merged_study.py", "run_oracle_study.py"])
def test_study_scripts_take_no_world_size(script):
    # Both run the default world; its size is no setting of theirs.
    result = run_script(script, "--sources", "4")
    assert (result.returncode, result.stdout) == (2, "")
    assert "unrecognized arguments: --sources 4" in result.stderr


def test_run_oracle_study():
    result = run_script("run_oracle_study.py", "--seeds", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith("mean over 1 seeds: rho=")


def test_oracle_study_headline():
    # The headline result of ROADMAP.md, reproduced on the default world.
    result = run_script("run_oracle_study.py", "--seeds", "1", "2", "3", "4", "5")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == (
        "mean over 5 seeds: rho=+0.640 (size-only +0.221)  hit ours/B1/B5 = "
        "0.50/0.20/0.38  picks ours/B1 = 1.73/2.70")


def test_output_digest_deletes_the_cache_p2l_keeps():
    # The script spells the name out so that it also runs on older checkouts.
    text = (SCRIPTS / "output_digest.py").read_text()
    assert f'\nCACHE_NAME = "{CACHE_NAME}"\n' in text


def test_output_digest_matches_the_reference():
    # A change that alters an output on purpose refreshes the reference (README).
    result = run_script("output_digest.py")
    assert result.returncode == 0, result.stderr
    key, lines = result.stderr.rstrip("\n"), result.stdout.splitlines()
    recorded, *expected = DIGEST_REFERENCE.read_text().splitlines()
    if key != recorded:
        pytest.skip(f"reference recorded under {recorded!r}, this run is {key!r}")
    assert lines == expected
