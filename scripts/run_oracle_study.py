#!/usr/bin/env python3
"""Run the full synthetic selection study over several seeds.

For each seed: generate the default world, measure ground-truth transfer
improvements, calibrate (k, distance) on the world's tasks, score every
method, and print a per-seed summary beside the size-only (k = 0) rho.
"""
import argparse

import numpy as np

from p2l import oracle
from p2l.calibrate import EvaluationConfig, tune_k
from p2l.core import EstimatorConfig


def run_seed(seed):
    cfg = oracle.OracleConfig()
    world = oracle.default_world(seed, cfg)
    records = oracle.ground_truth(world, cfg)
    tasks, sources = oracle.calibration_tasks(world, records)
    report = tune_k(tasks, sources, EvaluationConfig())
    best = EstimatorConfig(distance=report.best_distance, k=report.best_k)
    study = oracle.run_study(world, cfg, best, records=records)
    # The grid's k = 0 cell ranks the z(ln size) scores a study at k = 0 ranks,
    # so its rho is the size-only study's, bit for bit.
    return report, study, dict(report.curve(report.best_distance))[0.0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args()

    rows = []
    for seed in args.seeds:
        report, study, size_only = run_seed(seed)
        rows.append((seed, report.best_k, report.best_distance.value,
                     study.mean_rho, size_only,
                     study.hit_rate["P2L"], study.hit_rate["B1"],
                     study.hit_rate["B5"], study.mean_picks["P2L"],
                     study.mean_picks["B1"]))
        print(f"seed {seed}: k={report.best_k:+.2f} {report.best_distance.value:>9s}"
              f"  rho={study.mean_rho:+.3f} (size-only {size_only:+.3f})"
              f"  hit ours/B1/B5 = {study.hit_rate['P2L']:.2f}/"
              f"{study.hit_rate['B1']:.2f}/{study.hit_rate['B5']:.2f}"
              f"  picks ours/B1 = {study.mean_picks['P2L']:.2f}/"
              f"{study.mean_picks['B1']:.2f}")

    arr = np.array([r[3:] for r in rows], dtype=float)
    mean = arr.mean(axis=0)
    print(f"mean over {len(rows)} seeds: rho={mean[0]:+.3f} "
          f"(size-only {mean[1]:+.3f})  hit ours/B1/B5 = "
          f"{mean[2]:.2f}/{mean[3]:.2f}/{mean[4]:.2f}  "
          f"picks ours/B1 = {mean[5]:.2f}/{mean[6]:.2f}")


if __name__ == "__main__":
    main()
