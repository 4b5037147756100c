#!/usr/bin/env python3
"""Round-count scaling study across the three reception models.

Sweeps a geometric grid of node counts at logarithmic density, writes the
per-run round logs and aggregate CSV under the output directory, and prints:

  * unit-disk flooding: one log-log fit of rounds vs field radius (expected
    slope ~1), once the grid has at least four node counts; r^2 is nan when
    the round counts do not vary across n
  * incoherent (SNR) expanding disk and coherent (MIMO) two-phase broadcast:
    one line per node count with the measured rounds (under MIMO the
    beamforming rounds, phase2_rounds) beside the length of the job's radius
    schedule, and how many of the seeds' runs informed every node (a failed
    job counts as a miss), e.g.

      snr n=4096: rounds 2-2 of 3 radii, 4/4 fully informed

At the sizes this study can run the paper's SNR and MIMO round bounds are
flat, so no fit across n could test them.  A bad configuration, such as
--max-exp below 10, --seeds 0 or a density that leaves rho <= 16 (where
the SNR schedule does not grow), prints ``error: ...`` and exits 2.

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

    try:
        # c1 and c2 stay pinned here until the library's defaults move.
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
        lengths = {(model, n): len(cfg.schedule(model, n))
                   for model in ("snr", "mimo") for n in cfg.node_counts}
        result = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.log_paths)} logs and {result.csv_path}")
    for model, n, seed, err, _ in result.failures:
        print(f"FAILED {model} n={n} seed={seed}: {err}", file=sys.stderr)

    udg = {}
    for row in result.rows:
        if row["model"] == "udg":
            udg.setdefault(cfg.radius_for(row["n"]), []).append(row["rounds"])
    points = sorted((x, sum(r) / len(r)) for x, r in udg.items())
    if len(points) >= 4:
        fit = fit_scaling(points)
        print(f"udg: loglog slope {fit.slope:.3f} (r^2 {fit.r_squared:.3f})")

    for model, key in (("snr", "rounds"), ("mimo", "phase2_rounds")):
        for n in cfg.node_counts:
            rows = [row for row in result.rows if (row["model"], row["n"]) == (model, n)]
            rounds = [row[key] for row in rows]
            span = f"{min(rounds)}-{max(rounds)}" if rounds else "none"
            informed = sum(row["fully_informed"] for row in rows)
            print(f"{model} n={n}: rounds {span} of {lengths[model, n]} radii, "
                  f"{informed}/{len(cfg.seeds)} fully informed")
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
