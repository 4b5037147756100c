"""Round-synchronous broadcast algorithms over a node field.

The paper's three broadcasts share one round loop: UDG flooding (BFS), the
SNR expanding disk (only informed nodes within the schedule radius r_j
transmit in round j), and the two-phase MISO broadcast (UDG bootstrap of a
small disk, then expanding-disk MIMO rounds).  MIMO senders always transmit
with center-synchronized phases.  Reception in a round is always evaluated
against the complete transmitting set of that round; there is no intra-round
chaining.  :func:`informs` is the one reception rule, which the round
engine and the acceptance criteria decide by, and the only code that
compares a level with beta N0; its arithmetic (distances, screens,
kernels) is in :mod:`coopcast.signal_model`.  No round cap
applies: a flood ends when a round informs nobody, an expanding disk when
its schedule does.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .signal_model import (
    MODELS,
    SenderSet,
    SignalParams,
    center_sync_phases,
    mimo_tier32,
    mimo_tier64,
    nearest_sender_within_one,
    received_phasor,
    receiver_blocks,
    snr_level_bounds,
    snr_received_energy,
)

__all__ = [
    "RoundRecord",
    "RoundLog",
    "BroadcastConfig",
    "BootstrapFailure",
    "informs",
    "run_udg_flood",
    "run_expanding_disk",
    "run_miso_broadcast",
]


class BootstrapFailure(RuntimeError):
    """Phase 1 of the MISO broadcast could not cover its bootstrap disk."""


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    # The nodes this round informed, as the engine's read-only index array
    # (ascending); a hand-built record may hold any integer sequence.
    newly_informed: np.ndarray
    frontier_radius: float
    senders_active: int
    # Candidates the round evaluated: the engine's waiting nodes, less, under
    # UDG, those beyond the reach of the farthest sender.
    receivers: int
    # Receiver x sender pairs evaluated: every candidate's pairs under MIMO,
    # where the screens evaluate them all (the float32 tier those within its
    # phase limit, the float64 tier the rows it leaves open) and the exact
    # kernel re-evaluates the rows both leave open; under SNR the pairs of
    # the candidates that the bounds from |q| - P and |q| + P (P the largest
    # sender radius) leave to the kernel; 0 under UDG.  Summed over the
    # round's row blocks, whose size changes no count.
    pairs_evaluated: int
    disk_radius_r_j: float | None = None


@dataclass
class RoundLog:
    rounds: list[RoundRecord] = field(default_factory=list)
    total_rounds: int = 0
    fully_informed: bool = False
    # The sum of the rounds' travel: a UDG round's farthest hop to a newly
    # informed node, and an SNR or MIMO round's disk radius r_j.
    propagation_time: float = 0.0
    # True only when an SNR or MIMO run used every radius of its schedule,
    # each below the field radius R, and left nodes waiting.  A run stops
    # after its first radius r_j >= R without setting it, even if a node
    # that disk covered stays uninformed (one in an interference null), so
    # such a run reads fully_informed False and schedule_exhausted False.
    schedule_exhausted: bool = False
    phase1_rounds: int | None = None
    phase2_rounds: int | None = None

    def to_json(self) -> str:
        """``json.dumps`` of the log with ``indent=2``, each round's
        ``newly_informed`` sorted: the pieces of :meth:`json_pieces`, joined."""
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """The text of :meth:`to_json` in pieces of at most one slice of
        indices each, made as they are asked for, in time linear in the
        log's size.

        The index lists are nearly all of a log's bytes, and ``json`` encodes
        in pure Python when it indents.  So ``json`` encodes the skeleton,
        where a nonempty list is the placeholder string ``"@"`` (the skeleton
        holds no other string value), and each list is laid out here with
        the separator and indentation ``json`` would give it.  A list is
        converted in slices of ``_JSON_SLICE`` indices, so no Python int or
        str per node is alive beyond one slice.
        """
        doc = _fields_of(self)
        doc["rounds"] = [
            {**_fields_of(r), "newly_informed": "@" if len(r.newly_informed) else []}
            for r in self.rounds
        ]
        lists = (r.newly_informed for r in self.rounds if len(r.newly_informed))
        parts = json.dumps(doc, indent=2).split('"@"')
        for part, indices in zip(parts, lists):
            yield part
            yield from _json_index_list(indices)
        yield parts[-1]


#: Indices a round log converts to text at a time (see :meth:`RoundLog.json_pieces`).
_JSON_SLICE = 4096


def _json_index_list(indices):
    """The pieces of a nonempty index list, sorted, as ``json.dumps(...,
    indent=2)`` lays it out at a round record's depth."""
    ordered = np.sort(np.asarray(indices, dtype=np.intp))
    sep = ",\n        "
    yield "[\n        "
    for k in range(0, ordered.size, _JSON_SLICE):
        if k:
            yield sep
        yield sep.join(map(str, ordered[k : k + _JSON_SLICE].tolist()))
    yield "\n      ]"


def _fields_of(record) -> dict:
    # A shallow dataclasses.asdict: asdict would deep-copy every node index.
    return {f.name: getattr(record, f.name) for f in fields(record)}


#: The per-round hook of the drivers: ``on_round(record, model, senders)``.
OnRound = Callable[[RoundRecord, str, SenderSet], None]


@dataclass(frozen=True)
class BroadcastConfig:
    """How a broadcast runs: a UDG flood, which takes no schedule, or an SNR
    or MIMO expanding disk over ``radius_schedule``, which runs one round per
    radius and none when the schedule is empty."""

    model: str  # one of MODELS
    radius_schedule: tuple[float, ...] = ()
    params: SignalParams = field(default_factory=SignalParams)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        radii = self.radius_schedule
        if self.model == "udg" and radii:
            raise ValueError("a UDG broadcast floods and takes no radius schedule")
        if any(map(math.isnan, radii)) or any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("the radius schedule must be increasing, with no NaN radius")


def _senders(field_, active: np.ndarray, config: BroadcastConfig) -> SenderSet:
    """The nodes ``active`` as transmitters; MIMO senders center-synchronize."""
    pos = field_.positions[active]
    phases = center_sync_phases(pos, config.params.lam) if config.model == "mimo" else None
    return SenderSet.build(pos, phases=phases)


def informs(
    model: str, senders: SenderSet, q, params: SignalParams, rows=None
) -> tuple[np.ndarray, float | None, int]:
    """Which receivers the ``senders`` inform in one round under ``model``
    ("udg", "snr" or "mimo"), as a boolean mask; the farthest hop under
    UDG, the largest distance from an informed receiver to its nearest
    sender (0 if none), and None under SNR and MIMO; and how many receiver
    x sender pairs were evaluated (see :class:`RoundRecord`).  The
    receivers are the rows of ``q`` (k, 2) or, given the integer index
    array ``rows``, the rows ``q[rows]``; the mask has an entry for each.

    UDG informs within distance 1 of a sender, by one nearest-sender query
    over all the receivers, gathered at once, which also gives the hop.
    SNR and MIMO inform where the received level reaches beta N0, boundary
    included, and query no distance.  They decide the receivers in row
    blocks of :func:`~coopcast.signal_model.receiver_blocks`, each sliced
    from ``q`` or gathered by its indices only when its turn comes, so a
    round's per-receiver positions and temporaries stay one block's; each
    block runs the cascade of :func:`_decide`.  A row's bounds and level
    depend only on that row and the senders, so neither the mask nor the
    pairs depend on the block size, nor on whether the rows were gathered
    before the call.  ``params`` is read only under SNR and MIMO.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    q = np.asarray(q, dtype=float)
    if model == "udg":
        if rows is not None:
            q = q[rows]
        d_min = nearest_sender_within_one(senders, q)
        informed = d_min <= 1.0
        return informed, float(d_min[informed].max(initial=0.0)), 0
    snr = model == "snr"
    k = len(q) if rows is None else len(rows)
    informed = np.empty(k, dtype=bool)
    kernel_rows = 0
    for block in receiver_blocks(k):
        receivers = q[block] if rows is None else q[rows[block]]
        informed[block], open_rows = _decide(snr, senders, receivers, params)
        kernel_rows += open_rows
    pairs = senders.m * (kernel_rows if snr else k)
    return informed, None, pairs


def _decide(snr: bool, senders: SenderSet, q: np.ndarray, params: SignalParams):
    """The SNR (``snr``) or MIMO decision of :func:`informs` on receivers
    ``q``: the mask, and how many rows the exact kernel decided.

    The model's screens run in order on the rows still open: a lower level
    bound at or above beta N0 informs, an upper bound below it rejects, and
    every other row, a NaN bound included, goes on to the next screen and
    after the last to the exact kernel, so every decision is the kernel's.
    Screens and kernels are looked up in this module when called.
    """
    beta = params.beta_N0
    # A coherent sum can cancel: phasor screens, not distances, bound it.
    screens = (snr_level_bounds,) if snr else (mimo_tier32, mimo_tier64)
    informed = np.zeros(len(q), dtype=bool)
    is_open, q_open = np.ones(len(q), dtype=bool), q  # the rows no stage has decided
    for screen in screens:
        if len(q_open) == 0:
            break
        lower, upper = screen(senders, q_open, params)
        reaches = lower >= beta
        informed[is_open] = reaches
        still_open = ~reaches & ~(upper < beta)
        is_open[is_open] = still_open
        q_open = q_open[still_open]
    if len(q_open):
        if snr:
            level = snr_received_energy(senders, q_open, params)
        else:
            level = np.abs(received_phasor(senders, q_open, params)) ** 2
        informed[is_open] = level >= beta
    return informed, len(q_open)


# A UDG receiver q hears a sender s only if |q - s| <= 1, so |q| <= |s| + 1:
# a UDG round drops every candidate with radius above
# (max sender radius + 1)(1 + _UDG_REACH_TOL) before it queries the kd-tree.
# The margin covers the rounding between the computed values and that bound,
# in units of u = 2^-53: hypot for the candidate's radius and for the
# sender's (1 ulp each, at most 2u each); the kd-tree distance (differences,
# squares, their sum, then sqrt, about 4u), counted as if accepted up to
# the query's bound 1 + 2u, though informs keeps d <= 1; the addition of 1
# (u) and the product by 1 + tol (u).  They sum to 12u;
# tol = 2^-44 = 512u is more than forty times that, and a node it keeps in
# vain costs one kd-tree query.
_UDG_REACH_TOL = 2.0**-44


def _origin_informed(field_) -> np.ndarray:
    if field_.n < 1:
        raise ValueError("empty field")
    informed = np.zeros(field_.n, dtype=bool)
    informed[0] = True
    return informed


def _run_rounds(
    field_,
    config: BroadcastConfig,
    informed: np.ndarray,
    on_round: OnRound | None = None,
    log: RoundLog | None = None,
    extent: float = math.inf,
) -> RoundLog:
    """The round engine of every driver.

    Only ``waiting`` nodes, the uninformed ones within ``extent`` of the
    origin in ascending order, can be informed; each round's newly informed
    leave it.  A UDG flood sends from the nodes informed in the previous
    round (an older informed node within distance 1 of a node would already
    have informed it) to the waiting nodes within reach of its farthest
    sender (see ``_UDG_REACH_TOL``); round j of an SNR or MIMO expanding
    disk sends from the informed nodes within r_j of the origin to every
    waiting node.  A flood stops once a round informs nobody; an expanding
    disk runs until its schedule ends or r_j reaches the field radius.

    After each logged round, ``on_round(record, model, senders)`` gets its
    record, its model and the :class:`SenderSet` it transmitted with.
    """
    radii = field_.radii
    if log is None:
        log = RoundLog()
    flood = config.model == "udg"
    schedule = itertools.repeat(None) if flood else config.radius_schedule
    waiting = np.flatnonzero(~informed & (radii <= extent))
    newly = np.flatnonzero(informed)
    frontier = radii[newly].max()  # the largest informed radius, kept as a running maximum
    for r_j in schedule:
        if waiting.size == 0:
            break
        if flood:
            active = newly
            reach = (radii[active].max(initial=-np.inf) + 1.0) * (1.0 + _UDG_REACH_TOL)
            candidates = waiting[radii[waiting] <= reach]
        else:
            active = np.flatnonzero(informed & (radii <= r_j))
            candidates = waiting
        senders = _senders(field_, active, config)
        hit, hop, pairs = informs(
            config.model, senders, field_.positions, config.params, rows=candidates
        )
        newly = candidates[hit]
        del hit  # one entry per candidate: not kept through the next round
        if flood and newly.size == 0:
            break
        newly.setflags(write=False)  # held by the round's record
        informed[newly] = True
        waiting = waiting[~informed[waiting]]
        frontier = radii[newly].max(initial=frontier)
        record = RoundRecord(
            round_index=len(log.rounds) + 1,
            newly_informed=newly,
            frontier_radius=float(frontier),
            senders_active=int(active.size),
            receivers=int(candidates.size),
            pairs_evaluated=pairs,
            disk_radius_r_j=r_j,
        )
        log.rounds.append(record)
        log.propagation_time += hop if flood else r_j
        if on_round is not None:
            on_round(record, config.model, senders)
        if not flood and r_j >= field_.R:
            break
    else:  # the schedule ran out
        log.schedule_exhausted = waiting.size > 0
    log.total_rounds = len(log.rounds)
    log.fully_informed = waiting.size == 0
    return log


def run_udg_flood(
    field_, restrict_radius: float | None = None, on_round: OnRound | None = None
) -> RoundLog:
    """Synchronous BFS from the center node on the unit-disk graph.

    Round t informs exactly BFS layer t.  With ``restrict_radius`` the flood
    only runs among nodes within that distance of the origin.
    """
    extent = math.inf if restrict_radius is None else restrict_radius
    return _run_rounds(field_, BroadcastConfig("udg"), _origin_informed(field_), on_round,
                       extent=extent)


def run_expanding_disk(
    field_, config: BroadcastConfig, on_round: OnRound | None = None
) -> RoundLog:
    """Expanding-disk broadcast: round j activates informed nodes within
    the schedule radius r_j of the origin."""
    if not config.radius_schedule:
        raise ValueError("an expanding disk needs a radius schedule")
    return _run_rounds(field_, config, _origin_informed(field_), on_round=on_round)


def run_miso_broadcast(
    field_, config: BroadcastConfig, on_round: OnRound | None = None
) -> RoundLog:
    """Two-phase MISO broadcast over the radius schedule of a "mimo"
    ``config``, whose first radius is the bootstrap disk's.

    Phase 1 informs the bootstrap disk by UDG flooding restricted to it.
    Phase 2 runs expanding-disk MIMO rounds with center-synchronized phases
    over the whole schedule (a job's is ``ExperimentConfig.schedule``).
    """
    if config.model != "mimo" or not config.radius_schedule:
        raise ValueError("a MISO broadcast needs a MIMO config with a radius schedule")
    bootstrap_radius = config.radius_schedule[0]
    log = run_udg_flood(field_, restrict_radius=bootstrap_radius, on_round=on_round)
    if not log.fully_informed:
        raise BootstrapFailure(
            f"UDG bootstrap left nodes uninformed inside radius {bootstrap_radius}"
        )
    log.phase1_rounds = log.total_rounds
    # The bootstrap informed its whole disk.
    informed = field_.radii <= bootstrap_radius
    informed[0] = True
    log = _run_rounds(field_, config, informed, on_round=on_round, log=log)
    log.phase2_rounds = log.total_rounds - log.phase1_rounds
    return log
