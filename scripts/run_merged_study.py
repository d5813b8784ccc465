#!/usr/bin/env python3
"""Merged-pool versus single-reference source experiment.

Pools every source domain into one training set, trains one model on it and
one on the reference source (the largest) alone, fine-tunes both on a family
of targets ordered by divergence from the reference, and reports who wins
where.
"""
import argparse

from p2l import oracle
from p2l.oracle import write_merged_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--out", default=None,
                        help="CSV path prefix; one file per seed")
    args = parser.parse_args()

    cfg = oracle.OracleConfig()
    for seed in args.seeds:
        world = oracle.default_world(seed, cfg)
        report = oracle.merged_source_study(world, cfg)
        if args.out:
            write_merged_csv(report, f"{args.out}.seed{seed}.csv")
        half = len(report.outcomes) // 2
        near = sum(o.winner == "reference" for o in report.outcomes[:half])
        far = sum(o.winner == "merged" for o in report.outcomes[half:])
        print(f"seed {seed}: reference={report.reference_name} "
              f"(size {report.reference_profile.size}, merged size "
              f"{report.merged_profile.size}); reference wins {near}/{half} "
              f"near targets, merged wins {far}/{len(report.outcomes) - half} "
              f"far targets")


if __name__ == "__main__":
    main()
