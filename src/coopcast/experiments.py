"""Batch simulation runs, the log-log scaling fit, and calibration helpers.

An experiment sweeps models, node counts, and seeds, writes one round-log
JSON per run plus an aggregate CSV, and is deterministic for a fixed
configuration.  Runs execute concurrently across (model, n, seed) but the
aggregate is assembled in a fixed order, and files are written atomically
(temp file + rename) so partially written outputs never appear under the
final names.
"""

from __future__ import annotations

import math
import os
import traceback
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import miso_upper_schedule, snr_upper_schedule
from .broadcast import (
    BootstrapFailure,
    BroadcastConfig,
    OnRound,
    RoundLog,
    run_expanding_disk,
    run_miso_broadcast,
    run_udg_flood,
)
from .nodefield import NodeField, sample_field
from .signal_model import MODELS, SignalParams, field_map, to_pgm

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ScalingFit",
    "DEFAULT_C1",
    "C1_CANDIDATES",
    "DENSITY_RULES",
    "run_experiment",
    "fit_scaling",
    "emit_fieldmaps",
    "calibrate_c1",
    "atomic_write",
    "usable_cpus",
]

#: Analysis constant of the doubly-exponential schedule (far more
#: conservative than what simulations support, see :func:`calibrate_c1`).
DEFAULT_C1 = 9.0 / (8.0 * 4480.0 * math.pi * math.sqrt(2.0))

#: The schedule constants :func:`calibrate_c1` tries, in increasing order.
C1_CANDIDATES = tuple(2.0**exponent for exponent in range(-14, 6))

#: The density rules of :meth:`ExperimentConfig.rho`.
DENSITY_RULES = ("fixed", "log")


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple[str, ...]  # subset of MODELS
    node_counts: tuple[int, ...]
    density: float = 64.0
    density_rule: str = "fixed"  # one of DENSITY_RULES
    seeds: tuple[int, ...] = (0, 1, 2)
    params: SignalParams = field(default_factory=SignalParams)
    c1: float = DEFAULT_C1
    c2: float = 1.0
    output_dir: str = "runs"
    workers: int = field(default_factory=usable_cpus)  # threads running jobs

    def __post_init__(self):
        unknown = set(self.models) - set(MODELS)
        if unknown or not self.models:
            raise ValueError(
                f"models must be a nonempty subset of {'/'.join(MODELS)}, got {self.models}"
            )
        if self.density_rule not in DENSITY_RULES:
            raise ValueError(f"unknown density rule {self.density_rule!r}")
        for name in ("density", "c1", "c2"):
            value = getattr(self, name)
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.node_counts:
            raise ValueError("need at least one node count")
        # A repeated model or node count would run jobs twice into one log.
        for name, values in (("models", self.models), ("node counts", self.node_counts)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {values}")
        # rho = density ln n is positive only from n = 2 on.
        least = 2 if self.density_rule == "log" else 1
        if min(self.node_counts) < least:
            raise ValueError(
                f"node counts must be at least {least} under the {self.density_rule} "
                f"density rule, got {min(self.node_counts)}"
            )
        if len(set(self.seeds)) != len(self.seeds) or not self.seeds:
            raise ValueError("seeds must be nonempty and distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {min(self.seeds)}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if "snr" in self.models:
            for n in self.node_counts:
                self.schedule("snr", n)  # raises where rho(n) <= 16

    def rho(self, n: int) -> float:
        if self.density_rule == "log":
            return self.density * math.log(n)
        return self.density

    def radius_for(self, n: int) -> float:
        return math.sqrt(n / (math.pi * self.rho(n)))

    def schedule(self, model: str, n: int) -> tuple[float, ...]:
        """The radii of an "snr" or "mimo" job on n nodes, from rho(n) and radius_for(n)."""
        rho, radius = self.rho(n), self.radius_for(n)
        if model == "snr":
            return tuple(snr_upper_schedule(rho, radius).radii)
        if model != "mimo":
            raise ValueError(f"a {model!r} job has no radius schedule")
        return tuple(miso_upper_schedule(rho, self.params.lam, self.c1, self.c2, radius).radii)


@dataclass
class ExperimentResult:
    rows: list[dict]
    log_paths: list[str]
    csv_path: str
    # (model, n, seed, error, traceback) of each job that raised.
    failures: list[tuple[str, int, int, str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    r_squared: float


def atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string pieces written one
    at a time, to ``path`` through a temporary file and a rename.

    The temporary file is created with mode 0666, which the OS masks with
    the process umask as it would for ``open(path, "w")``, under a random
    name that ``O_EXCL`` keeps from clobbering another writer's."""
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_single(
    cfg: ExperimentConfig, model: str, fld: NodeField, on_round: OnRound | None = None
) -> RoundLog:
    if model == "udg":
        return run_udg_flood(fld, on_round=on_round)
    config = BroadcastConfig(model, cfg.schedule(model, fld.n), cfg.params)
    driver = run_expanding_disk if model == "snr" else run_miso_broadcast
    return driver(fld, config, on_round=on_round)


def _summary_row(cfg: ExperimentConfig, model: str, n: int, seed: int, log: RoundLog) -> dict:
    """One ``summary.csv`` row; its keys, in order, are the columns.
    ``uninformed`` counts the nodes no round informed (the origin starts
    informed), so a run that misses one node shows it."""
    return {
        "model": model,
        "n": n,
        "rho": cfg.rho(n),
        "lambda": cfg.params.lam,
        "seed": seed,
        "rounds": log.total_rounds,
        "fully_informed": log.fully_informed,
        "propagation_time": log.propagation_time,
        "phase1_rounds": log.phase1_rounds,
        "phase2_rounds": log.phase2_rounds,
        "schedule_exhausted": log.schedule_exhausted,
        "uninformed": n - 1 - sum(len(r.newly_informed) for r in log.rounds),
    }


def _csv_cell(value) -> str:
    return "" if value is None else str(int(value) if isinstance(value, bool) else value)


#: The ``summary.csv`` header: the keys of :func:`_summary_row`.
CSV_HEADER = ",".join(_summary_row(ExperimentConfig(("udg",), (1,)), "udg", 1, 0, RoundLog()))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    os.makedirs(cfg.output_dir, exist_ok=True)
    jobs = [
        (model, n, seed)
        for model in cfg.models
        for n in cfg.node_counts
        for seed in cfg.seeds
    ]

    def log_path(model, n, seed):
        return os.path.join(cfg.output_dir, f"{model}_n{n}_seed{seed}.json")

    def work(job):
        """Run one job and write its round log; return its summary row or
        its failure and traceback.  Only the log's writer holds the log, so
        a sweep holds the logs of the jobs running at once, not of every job."""
        model, n, seed = job
        try:
            log = _run_single(cfg, model, sample_field(n, cfg.radius_for(n), seed))
        except Exception as exc:  # noqa: BLE001 - recorded, run continues
            return None, (f"{type(exc).__name__}: {exc}", traceback.format_exc())
        path = log_path(model, n, seed)
        try:
            atomic_write(path, log.json_pieces())
        except OSError as exc:  # aborts the sweep: not a job failure
            raise OSError(f"writing round log {path}: {exc}") from exc
        return _summary_row(cfg, model, n, seed, log), None

    result = ExperimentResult([], [], os.path.join(cfg.output_dir, "summary.csv"))
    lines = [CSV_HEADER]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        # In job order; the first log that cannot be written raises here and
        # cancels the jobs not yet started.
        for job, (row, error) in zip(jobs, pool.map(work, jobs)):
            if error is not None:
                result.failures.append((*job, *error))
                continue
            result.rows.append(row)
            lines.append(",".join(_csv_cell(v) for v in row.values()))
            result.log_paths.append(log_path(*job))
    try:
        atomic_write(result.csv_path, "\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"writing summary {result.csv_path}: {exc}") from exc
    return result


def fit_scaling(points) -> ScalingFit:
    """Least-squares line through the (log x, log y) of ``points``, so a
    power law y = a x^k has slope k.  Every x and y must be finite and
    positive.  ``r_squared`` is NaN when every y is equal.
    """
    if len(points) < 4:
        raise ValueError("need at least four points to fit")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    for x, y in zip(xs.tolist(), ys.tolist()):
        if not (0.0 < x < math.inf and 0.0 < y < math.inf):
            raise ValueError(
                f"a log-log fit needs finite x > 0 and y > 0, got the point ({x}, {y})"
            )
    xs, ys = np.log(xs), np.log(ys)
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate fit: all x values coincide")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = ys - np.mean(ys)
    ss_tot = float(total @ total)
    # A flat series has no variance to explain: its r^2 is undefined, not 1.
    r_squared = math.nan if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return ScalingFit(slope=float(slope), r_squared=r_squared)


def emit_fieldmaps(cfg: ExperimentConfig, model: str, field_: NodeField, cells: int) -> list[str]:
    """Run ``model`` on ``field_`` and write one PGM map per round to
    ``cfg.output_dir``: the field of that round's senders, with their phases,
    on ``cells`` x ``cells`` cells over the square of half-width 1.05 R about
    the origin.  UDG rounds, a MISO run's bootstrap too, map unit-disk
    coverage (``round_<k>_udg.pgm``); SNR and MIMO rounds map received
    energy against beta N0.  A run that raises writes no map."""
    if cells < 1:
        raise ValueError(f"a map needs at least one cell per axis, got {cells}")
    maps = {}  # path -> PGM text, written once the run returns
    half_width = field_.R * 1.05

    def draw(record, round_model, senders):
        values = field_map(senders, half_width, cells, cfg.params, round_model)
        threshold = 1.0 if round_model == "udg" else cfg.params.beta_N0
        name = f"round_{record.round_index}_{round_model}.pgm"
        maps[os.path.join(cfg.output_dir, name)] = to_pgm(values, threshold)

    _run_single(cfg, model, field_, on_round=draw)
    os.makedirs(cfg.output_dir, exist_ok=True)
    for path, text in maps.items():
        atomic_write(path, text)
    return list(maps)


def calibrate_c1(cfg: ExperimentConfig, success_rate: float = 0.99) -> float:
    """Largest schedule constant c1 in :data:`C1_CANDIDATES` under which the
    MISO broadcast reliably informs every node.

    Each candidate runs the "mimo" job of ``run_experiment(cfg)``, with c1
    replaced by the candidate, on each (n, seed) field of ``cfg``.  A run
    succeeds when it is fully informed; a
    :class:`~coopcast.broadcast.BootstrapFailure` is a miss.  Each
    candidate's schedule is computed once per n, and candidates with the
    same schedule share one run per field.  Returns the largest candidate
    whose success fraction over the fields reaches ``success_rate``; when
    that is the last candidate, it is only a lower bound on the constants
    that work.  ``cfg``'s c1, ``models``, ``output_dir`` and ``workers``
    are not read.
    """
    schedules = {}  # n -> {candidate: radii}
    for n in cfg.node_counts:
        schedules[n] = {cand: replace(cfg, c1=cand).schedule("mimo", n) for cand in C1_CANDIDATES}
        bootstrap = schedules[n][C1_CANDIDATES[0]][0]  # 15 c2/lam, whatever c1
        radius = cfg.radius_for(n)
        if bootstrap >= radius:
            raise ValueError(
                f"bootstrap radius 15 c2/lam = {bootstrap} reaches field radius {radius}; "
                "shrink it with a smaller --c2 or a larger --lam, "
                "or widen the field with a larger --n or a smaller --density"
            )
    successes = dict.fromkeys(C1_CANDIDATES, 0)
    for n, by_candidate in schedules.items():
        for seed in cfg.seeds:
            fld = sample_field(n, cfg.radius_for(n), seed)
            # c1 enters a run only through its schedule: one run per schedule.
            succeeded = {}
            for cand, radii in by_candidate.items():
                if radii not in succeeded:
                    try:
                        log = run_miso_broadcast(fld, BroadcastConfig("mimo", radii, cfg.params))
                    except BootstrapFailure:
                        succeeded[radii] = False
                    else:
                        succeeded[radii] = log.fully_informed
                successes[cand] += succeeded[radii]
    fields = len(cfg.node_counts) * len(cfg.seeds)
    passed = [c for c in C1_CANDIDATES if successes[c] / fields >= success_rate]
    if not passed:
        raise RuntimeError("no candidate constant met the target success rate")
    return passed[-1]
