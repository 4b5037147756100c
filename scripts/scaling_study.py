#!/usr/bin/env python3
"""Round-count scaling study across the three reception models.

Sweeps a geometric grid of node counts at logarithmic density, writes the
per-run round logs and aggregate CSV under the output directory, and prints
one scaling fit per model:

  * unit-disk flooding: rounds vs field radius, log-log (expected slope ~1)
  * incoherent (SNR) expanding disk: rounds vs n, semilog
  * coherent (MIMO) two-phase broadcast: rounds vs n, log-log-x

A model whose round counts do not vary across n prints r^2 as nan.

Usage: scaling_study.py [--out DIR] [--max-exp 14] [--seeds 10]
"""

import argparse
import math
import sys

from coopcast.experiments import ExperimentConfig, fit_scaling, run_experiment
from coopcast.signal_model import SignalParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/scaling")
    ap.add_argument("--max-exp", type=int, default=14)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--density", type=float, default=8.0 / math.pi * 4.0,
                    help="density coefficient: rho = density * ln n")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        models=("udg", "snr", "mimo"),
        node_counts=tuple(2**k for k in range(10, args.max_exp + 1)),
        density=args.density,
        density_rule="log",
        seeds=tuple(range(args.seeds)),
        params=SignalParams(lam=0.1),
        c1=12.0,
        c2=0.02,
        output_dir=args.out,
    )
    result = run_experiment(cfg)
    print(f"wrote {len(result.log_paths)} logs and {result.csv_path}")
    for model, n, seed, err, _ in result.failures:
        print(f"FAILED {model} n={n} seed={seed}: {err}", file=sys.stderr)

    transforms = {"udg": "loglog", "snr": "semilog", "mimo": "loglogx"}
    for model, transform in transforms.items():
        pts = {}
        for row in result.rows:
            if row["model"] == model:
                n = row["n"]
                x = cfg.radius_for(n) if model == "udg" else float(n)
                pts.setdefault(x, []).append(row["rounds"])
        points = sorted((x, sum(r) / len(r)) for x, r in pts.items())
        if len(points) < 4:
            continue
        fit = fit_scaling(points, transform)
        print(f"{model}: {transform} slope {fit.slope:.3f} "
              f"(r^2 {fit.r_squared:.3f})")
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
