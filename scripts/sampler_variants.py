#!/usr/bin/env python3
"""Compare every transition kernel (``SamplerVariant``) on the standard benchmark.

Emits one row per variant with detection metrics and per-batch synthesis
time in milliseconds.
"""

import argparse

from oodsynth.bench import BenchConfig, ablation_sweep
from oodsynth.samplers import SamplerVariant


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/sweep_variant")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = BenchConfig(seed=args.seed, iterations=5)
    variants = [v.value for v in SamplerVariant]
    rows = ablation_sweep(cfg, "variant", variants, out_dir=args.out_dir)
    for r in rows:
        print(
            f"{r.value:>11}: fpr95={r.fpr95:.4f} auroc={r.auroc:.4f} aupr={r.aupr:.4f} "
            f"batch={r.batch_size} synth={r.synth_time_ms:.1f}ms"
        )


if __name__ == "__main__":
    main()
