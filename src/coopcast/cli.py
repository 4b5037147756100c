"""Command line entry point.

Subcommands: ``simulate`` (experiment sweeps), ``fieldmap`` (per-round PGM
coverage or energy maps), ``prove`` (certified inequality suite, its
tasks in forked workers, one per usable CPU), and ``calibrate-c1``
(schedule-constant search).

``simulate``, ``fieldmap`` and ``calibrate-c1`` share their physical flags
and build their ``ExperimentConfig`` in one place.  A setting that no flag
gives takes the default of ``ExperimentConfig`` or ``SignalParams``, the
output directory of ``prove`` too.  Exit codes: 0 all assertions passed,
1 assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from . import prover
from .broadcast import BootstrapFailure
from .experiments import (
    C1_CANDIDATES,
    DENSITY_RULES,
    ExperimentConfig,
    atomic_write,
    calibrate_c1,
    emit_fieldmaps,
    run_experiment,
    usable_cpus,
)
from .nodefield import sample_field
from .prover import inequality_suite, prove
from .signal_model import MODELS, SignalParams


def _given(args: argparse.Namespace, keys) -> dict:
    """The flags among ``keys`` that the command line set."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _experiment_config(args: argparse.Namespace, **defaults) -> ExperimentConfig:
    """The config of a command: each field of :class:`ExperimentConfig` and
    :class:`SignalParams` that a flag of its name gives, over ``defaults``."""
    keys = (f.name for f in fields(ExperimentConfig) if f.name != "params")
    opts = {**defaults, **_given(args, keys)}
    settings = {key: tuple(v) if isinstance(v, list) else v for key, v in opts.items()}
    params = SignalParams(**_given(args, (f.name for f in fields(SignalParams))))
    return ExperimentConfig(params=params, **settings)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args, models=("udg",), node_counts=(1024,))
    result = run_experiment(cfg)
    print(f"wrote {len(result.log_paths)} round logs and {result.csv_path}")
    for model, n, seed, error, trace in result.failures:
        print(f"FAILED {model} n={n} seed={seed}: {error}", file=sys.stderr)
        print(trace, end="", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_fieldmap(args: argparse.Namespace) -> int:
    cfg = _experiment_config(
        args, models=(args.model,), node_counts=(args.n,), seeds=(args.seed,)
    )
    fld = sample_field(args.n, cfg.radius_for(args.n), args.seed)
    try:
        paths = emit_fieldmaps(cfg, args.model, fld, args.grid)
    except BootstrapFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(paths)} field maps to {cfg.output_dir}")
    return 0


def _cmd_prove(args: argparse.Namespace) -> int:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    tasks = inequality_suite()
    if args.task is not None:
        tasks = [t for t in tasks if t.name == args.task]
        if not tasks:
            print(f"unknown task {args.task!r}", file=sys.stderr)
            return 2
    out_dir = args.output_dir or ExperimentConfig.output_dir
    opts = _given(args, ("max_boxes",))
    workers = min(len(tasks), usable_cpus())
    pool = None
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # Forked workers start without importing numpy and scipy again.  They
        # run only prover code, never BLAS: after `import scipy.spatial` this
        # process holds OpenBLAS's idle threads (3 OS threads in all), so
        # Python >= 3.12 may warn at the fork.  Workers get `prover.prove` by
        # module reference: this module's own name `prove` may be wrapped,
        # as a tracer does, by a closure that does not pickle.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        results = pool.map(functools.partial(prover.prove, **opts), tasks)
    else:  # a lone task or a single CPU: in this process
        results = map(functools.partial(prove, **opts), tasks)
    all_proved = True
    try:
        # In suite order: a task that raises stops the run after the
        # certificates of the tasks before it, and a run whose first task
        # raises makes no output directory.
        for task, result in zip(tasks, results):
            print(
                f"{task.name}: {result.verdict} "
                f"({result.boxes_processed} boxes, depth {result.max_depth_reached})"
            )
            print(f"{task.name}: {result.elapsed_s:.3f} s", file=sys.stderr)
            os.makedirs(out_dir, exist_ok=True)
            atomic_write(
                os.path.join(out_dir, f"certificate_{task.name}.json"),
                result.certificate_json() + "\n",
            )
            all_proved &= result.verdict == "proved"
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return 0 if all_proved else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _experiment_config(
        args, models=("mimo",), node_counts=(args.n,), seeds=tuple(range(args.seed_count))
    )
    try:
        value = calibrate_c1(cfg)
    except RuntimeError as exc:  # no candidate met the success rate
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"c1 = {value}")
    if value == C1_CANDIDATES[-1]:
        print(f"{value} is the largest candidate: a lower bound, "
              "not the largest constant that works")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coopcast")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags of simulate, fieldmap and calibrate-c1.
    physical = argparse.ArgumentParser(add_help=False)
    physical.add_argument("--density", type=float)
    physical.add_argument("--density-rule", dest="density_rule", choices=DENSITY_RULES)
    physical.add_argument("--lam", type=float)
    physical.add_argument("--beta-n0", dest="beta_N0", type=float)
    physical.add_argument("--c-f", dest="c_f", type=float)
    physical.add_argument("--c2", type=float)
    # Flags of simulate and fieldmap only: calibrate-c1 searches c1 and
    # writes no file.
    shared = argparse.ArgumentParser(add_help=False, parents=[physical])
    shared.add_argument("--c1", type=float)
    shared.add_argument("--output-dir", dest="output_dir")

    sim = sub.add_parser("simulate", parents=[shared], help="run broadcast experiment sweeps")
    sim.add_argument("--models", nargs="+", choices=MODELS)
    sim.add_argument("--node-counts", dest="node_counts", type=_int_list)
    sim.add_argument("--seeds", type=_int_list)
    sim.add_argument("--workers", type=int, help="job threads (default: the usable CPUs)")
    sim.set_defaults(func=_cmd_simulate)

    fmap = sub.add_parser(
        "fieldmap", parents=[shared], help="write per-round PGM coverage or energy maps"
    )
    fmap.add_argument("--model", required=True, choices=MODELS)
    fmap.add_argument("--n", type=int, required=True)
    fmap.add_argument("--seed", type=int, default=0)
    fmap.add_argument("--grid", type=int, default=128, help="cells per axis")
    fmap.set_defaults(func=_cmd_fieldmap)

    prv = sub.add_parser("prove", help="run the certified inequality suite")
    group = prv.add_mutually_exclusive_group()
    group.add_argument("--suite", action="store_true", help="all tasks (default)")
    group.add_argument("--task", help="a single task by name")
    prv.add_argument("--max-boxes", dest="max_boxes", type=int)
    prv.add_argument("--output-dir", dest="output_dir")
    prv.set_defaults(func=_cmd_prove)

    cal = sub.add_parser(
        "calibrate-c1", parents=[physical], help="search the schedule constant"
    )
    cal.add_argument("--n", type=int, default=4096)
    cal.add_argument("--seeds", dest="seed_count", metavar="N", type=int, default=50,
                     help="fields of seeds 0 to N - 1")
    cal.set_defaults(func=_cmd_calibrate)
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
