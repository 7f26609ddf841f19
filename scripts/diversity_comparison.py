#!/usr/bin/env python3
"""Detection-score spread: HMC synthesis vs a Gaussian-noise baseline.

For each seed the baseline perturbs the same pair midpoints with
sigma = step size and is truncated to the synthesized batch size, so the
standard deviations are directly comparable. Writes one CSV row per seed.
"""

import argparse
import csv
from pathlib import Path

from oodsynth.bench import BenchConfig, diversity_stds


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/diversity.csv")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    cfg = BenchConfig()
    rows = []
    for seed in range(args.seeds):
        std_h, std_g = diversity_stds(cfg, seed)
        rows.append((seed, std_h, std_g))
        print(f"seed {seed}: hmc std={std_h:.4f}  gaussian std={std_g:.4f}")
    wins = sum(h > g for _, h, g in rows)
    print(f"synthesis spread wins {wins}/{len(rows)}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "hmc_score_std", "gaussian_score_std"])
        for row in rows:
            writer.writerow([row[0], repr(row[1]), repr(row[2])])
    print(f"table -> {out}")


if __name__ == "__main__":
    main()
