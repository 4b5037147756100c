"""Command line entry point.

Subcommands: ``simulate`` (experiment sweeps), ``fieldmap`` (per-round PGM
coverage or energy maps), ``prove`` (certified inequality suite),
``calibrate-c1`` (schedule-constant search), and ``fit`` (scaling-law fits
on CSV points).

Configuration precedence for ``simulate``: command-line flags beat the JSON
config file, which beats built-in defaults.  The output directory can also
be set with the ``COOPCAST_OUTPUT_DIR`` environment variable (flags still
win).  Exit codes: 0 all assertions passed, 1 assertion failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .broadcast import BootstrapFailure
from .experiments import (
    DEFAULT_C1,
    ExperimentConfig,
    calibrate_c1,
    emit_fieldmaps,
    fit_scaling,
    run_experiment,
    _atomic_write,
    _run_single,
)
from .nodefield import sample_field
from .prover import inequality_suite, prove
from .signal_model import GridSpec, SignalParams

OUTPUT_DIR_ENV = "COOPCAST_OUTPUT_DIR"

# Flags that override the JSON config; each is stored under its own name.
_OPTION_NAMES = (
    "models", "node_counts", "density", "density_rule", "seeds", "lam",
    "beta_N0", "c_f", "c1", "c2", "output_dir", "workers",
)


def _default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "runs")


def _signal_params(opts: dict) -> SignalParams:
    return SignalParams(
        lam=opts.get("lam", 0.1),
        beta_N0=opts.get("beta_N0", 1.0),
        c_f=opts.get("c_f", 2.0),
    )


def _merged_options(args: argparse.Namespace) -> dict:
    """JSON config overlaid with any explicitly passed flags (flags win)."""
    opts: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            opts.update(json.load(fh))
    for key in _OPTION_NAMES:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = value
    opts.setdefault("output_dir", _default_output_dir())
    return opts


def _cmd_simulate(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    cfg = ExperimentConfig(
        models=tuple(opts.get("models", ["udg"])),
        node_counts=tuple(int(n) for n in opts.get("node_counts", [1024])),
        density=float(opts.get("density", 64.0)),
        density_rule=opts.get("density_rule", "fixed"),
        seeds=tuple(int(s) for s in opts.get("seeds", [0, 1, 2])),
        params=_signal_params(opts),
        c1=float(opts.get("c1", DEFAULT_C1)),
        c2=float(opts.get("c2", 1.0)),
        output_dir=opts["output_dir"],
        workers=int(opts.get("workers", 4)),
    )
    result = run_experiment(cfg)
    print(f"wrote {len(result.log_paths)} round logs and {result.csv_path}")
    for model, n, seed, error in result.failures:
        print(f"FAILED {model} n={n} seed={seed}: {error}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_fieldmap(args: argparse.Namespace) -> int:
    opts = _merged_options(args)
    params = _signal_params(opts)
    cfg = ExperimentConfig(
        models=(args.model,),
        node_counts=(args.n,),
        density=float(opts.get("density", 64.0)),
        density_rule=opts.get("density_rule", "fixed"),
        seeds=(args.seed,),
        params=params,
        c1=float(opts.get("c1", DEFAULT_C1)),
        c2=float(opts.get("c2", 1.0)),
        output_dir=opts["output_dir"],
    )
    radius = cfg.radius_for(args.n)
    fld = sample_field(args.n, radius, args.seed)
    try:
        log = _run_single(cfg, args.model, args.n, args.seed)
    except BootstrapFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    half = radius * 1.05
    grid = GridSpec(-half, half, -half, half, args.grid, args.grid)
    paths = emit_fieldmaps(fld, log, params, grid, args.model.upper(), opts["output_dir"])
    print(f"wrote {len(paths)} field maps to {opts['output_dir']}")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    tasks = inequality_suite()
    if args.task is not None:
        tasks = [t for t in tasks if t.name == args.task]
        if not tasks:
            print(f"unknown task {args.task!r}", file=sys.stderr)
            return 2
    out_dir = args.output_dir or _default_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    all_proved = True
    for task in tasks:
        result = prove(task, max_boxes=args.max_boxes)
        print(
            f"{task.name}: {result.verdict} "
            f"({result.boxes_processed} boxes, depth {result.max_depth_reached})"
        )
        _atomic_write(
            os.path.join(out_dir, f"certificate_{task.name}.json"),
            result.certificate_json() + "\n",
        )
        all_proved &= result.verdict == "proved"
    return 0 if all_proved else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    params = SignalParams(lam=args.lam)
    value = calibrate_c1(
        density=args.density,
        params=params,
        c2=args.c2,
        seeds=tuple(range(args.seeds)),
        n=args.n,
    )
    print(f"c1 = {value}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    points = []
    with open(args.csv) as fh:
        for line in fh:
            line = line.strip()
            if not line or line[0].isalpha():
                continue
            x, y = line.split(",")[:2]
            points.append((float(x), float(y)))
    fit = fit_scaling(points, transform=args.transform)
    print(f"slope={fit.slope} intercept={fit.intercept} r_squared={fit.r_squared}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopcast")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run broadcast experiment sweeps")
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--models", nargs="+", choices=["udg", "snr", "mimo"])
    sim.add_argument("--node-counts", dest="node_counts", type=_int_list)
    sim.add_argument("--density", type=float)
    sim.add_argument("--density-rule", dest="density_rule", choices=["fixed", "log"])
    sim.add_argument("--seeds", type=_int_list)
    sim.add_argument("--lam", type=float)
    sim.add_argument("--beta-n0", dest="beta_N0", type=float)
    sim.add_argument("--c-f", dest="c_f", type=float)
    sim.add_argument("--c1", type=float)
    sim.add_argument("--c2", type=float)
    sim.add_argument("--workers", type=int)
    sim.add_argument("--output-dir", dest="output_dir")
    sim.set_defaults(func=_cmd_simulate)

    fmap = sub.add_parser("fieldmap", help="write per-round PGM coverage or energy maps")
    fmap.add_argument("--config", help="JSON config file; flags override it")
    fmap.add_argument("--model", required=True, choices=["udg", "snr", "mimo"])
    fmap.add_argument("--n", type=int, required=True)
    fmap.add_argument("--seed", type=int, default=0)
    fmap.add_argument("--grid", type=int, default=128, help="cells per axis")
    fmap.add_argument("--density", type=float)
    fmap.add_argument("--density-rule", dest="density_rule", choices=["fixed", "log"])
    fmap.add_argument("--lam", type=float)
    fmap.add_argument("--beta-n0", dest="beta_N0", type=float)
    fmap.add_argument("--c-f", dest="c_f", type=float)
    fmap.add_argument("--c1", type=float)
    fmap.add_argument("--c2", type=float)
    fmap.add_argument("--output-dir", dest="output_dir")
    fmap.set_defaults(func=_cmd_fieldmap)

    prv = sub.add_parser("prove", help="run the certified inequality suite")
    group = prv.add_mutually_exclusive_group()
    group.add_argument("--suite", action="store_true", help="all tasks (default)")
    group.add_argument("--task", help="a single task by name")
    prv.add_argument("--max-boxes", dest="max_boxes", type=int, default=2**24)
    prv.add_argument("--output-dir", dest="output_dir")
    prv.set_defaults(func=_cmd_prove)

    cal = sub.add_parser("calibrate-c1", help="search the schedule constant")
    cal.add_argument("--density", type=float, default=64.0)
    cal.add_argument("--lam", type=float, default=0.1)
    cal.add_argument("--c2", type=float, default=1.0)
    cal.add_argument("--seeds", type=int, default=50)
    cal.add_argument("--n", type=int, default=4096)
    cal.set_defaults(func=_cmd_calibrate)

    fit = sub.add_parser("fit", help="fit a scaling law to CSV points")
    fit.add_argument("csv", help="two-column x,y CSV file")
    fit.add_argument("--transform", default="loglog", choices=["loglog", "semilog", "loglogx"])
    fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
