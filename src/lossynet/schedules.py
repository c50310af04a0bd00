"""Per-link, per-iteration delivery indicators with a bounded-outage window.

A schedule records, for every directed edge and every iteration t in 1..T,
whether the broadcast over that link was delivered (1) or dropped (0).  All
generators and validators work with the window property "every link delivers
at least once in any B consecutive iterations".
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IncompleteTableError,
    IterationOutOfRangeError,
    NeverReliableLinkError,
)
from .graphs import DirectedGraph

__all__ = [
    "FailureSchedule",
    "scripted_schedule",
    "bernoulli_b_bounded",
    "periodic_adversarial",
    "all_reliable",
    "verify_b_bounded",
    "worst_gap",
    "write_schedule_csv",
    "read_schedule_csv",
]


@dataclass(frozen=True, eq=False)
class FailureSchedule:
    """Delivery indicators for every edge of ``graph`` over iterations 1..T.

    ``indicators[t - 1, k]`` is the indicator of the k-th edge (lexicographic
    order) at iteration t.  ``window`` is a B such that every link delivers at
    least once in any B consecutive iterations: generators store the declared
    B, scripted schedules store the smallest one that holds.
    """

    graph: DirectedGraph
    indicators: np.ndarray
    window: int
    seed: int | None = None

    def __post_init__(self):
        ind = np.ascontiguousarray(self.indicators, dtype=np.uint8)
        if ind.ndim != 2 or ind.shape[1] != self.graph.num_edges:
            raise ValueError(
                f"indicator table must have shape (T, {self.graph.num_edges}), "
                f"got {ind.shape}"
            )
        if ind.size and ind.max() > 1:
            raise ValueError("indicators must be 0 or 1")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        ind.setflags(write=False)
        object.__setattr__(self, "indicators", ind)

    @property
    def horizon(self) -> int:
        return int(self.indicators.shape[0])

    def delivered(self, t: int) -> np.ndarray:
        """Boolean delivery mask over edges for iteration t (1-based)."""
        if not 1 <= t <= self.horizon:
            raise IterationOutOfRangeError(
                f"iteration {t} outside 1..{self.horizon}"
            )
        return self.indicators[t - 1].astype(bool)


def _max_outage_run(indicators: np.ndarray) -> int:
    """Longest run of consecutive zeros in any single column."""
    T, E = indicators.shape
    worst = 0
    for k in range(E):
        ones = np.flatnonzero(indicators[:, k])
        if ones.size == 0:
            worst = max(worst, T)
            continue
        lead = int(ones[0])
        trail = int(T - 1 - ones[-1])
        inner = int((np.diff(ones) - 1).max(initial=0))
        worst = max(worst, lead, trail, inner)
    return worst


def worst_gap(schedule: FailureSchedule) -> int:
    """Smallest B the stored indicators actually satisfy (1 when all-reliable)."""
    return _max_outage_run(schedule.indicators) + 1


def verify_b_bounded(schedule: FailureSchedule, B: int) -> bool:
    """Check that every length-B window inside [1, T] contains a delivery
    for every link.  Windows that do not fit the horizon are vacuous."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    return _max_outage_run(schedule.indicators) <= B - 1


def scripted_schedule(g: DirectedGraph, T: int, table: dict) -> FailureSchedule:
    """Schedule from an explicit map ((i, j), t) -> {0, 1}.

    The table must cover edges x [1, T] exactly.  The stored window is the
    smallest B the data satisfies; a link with no delivery at all has no such
    B inside the horizon and is rejected.
    """
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    ind = np.zeros((T, g.num_edges), dtype=np.uint8)
    expected = {(edge, t) for edge in g.edges for t in range(1, T + 1)}
    for key, value in table.items():
        edge = (int(key[0][0]), int(key[0][1]))
        t = int(key[1])
        if (edge, t) not in expected:
            raise IncompleteTableError(
                f"unexpected table entry for edge {edge} at iteration {t}"
            )
        expected.remove((edge, t))
        if value not in (0, 1):
            raise ValueError(f"indicator for {edge} at t={t} must be 0 or 1")
        ind[t - 1, g.edges.index(edge)] = value
    if expected:
        edge, t = sorted(expected)[0]
        raise IncompleteTableError(
            f"table is missing edge {edge} at iteration {t} "
            f"({len(expected)} entries missing in total)"
        )
    if T >= 1:
        dead = np.flatnonzero(ind.sum(axis=0) == 0)
        if dead.size:
            raise NeverReliableLinkError(
                f"link {g.edges[int(dead[0])]} never delivers within horizon {T}"
            )
    return FailureSchedule(g, ind, _max_outage_run(ind) + 1)


def bernoulli_b_bounded(
    g: DirectedGraph, p_drop: float, B: int, T: int, seed: int | None = None
) -> FailureSchedule:
    """Independent drops with probability ``p_drop``, except that a link which
    has been down for B - 1 consecutive iterations is forced to deliver.

    Deterministic given ``seed``; the stored window is the declared B.
    """
    if not 0.0 <= p_drop < 1.0:
        raise ValueError(f"p_drop must lie in [0, 1), got {p_drop}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    rng = np.random.default_rng(seed)
    E = g.num_edges
    proposed_drop = rng.random((T, E)) < p_drop
    ind = np.ones((T, E), dtype=np.uint8)
    run = np.zeros(E, dtype=np.intp)
    for t in range(T):
        drop = proposed_drop[t] & (run < B - 1)
        ind[t, drop] = 0
        run = np.where(drop, run + 1, 0)
    return FailureSchedule(g, ind, B, seed=seed)


def periodic_adversarial(g: DirectedGraph, B: int, T: int) -> FailureSchedule:
    """Every link delivers exactly at iterations t with t % B == 0, the
    worst case allowed by a window of B."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    ticks = (np.arange(1, T + 1) % B == 0).astype(np.uint8)
    ind = np.repeat(ticks[:, None], g.num_edges, axis=1)
    return FailureSchedule(g, ind, B)


def all_reliable(g: DirectedGraph, T: int) -> FailureSchedule:
    """Every link delivers at every iteration."""
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    return FailureSchedule(g, np.ones((T, g.num_edges), dtype=np.uint8), 1)


def write_schedule_csv(schedule: FailureSchedule, path) -> None:
    """Write rows (src, dst, t, indicator), edge-major then time-ascending."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "t", "indicator"])
        for k, (i, j) in enumerate(schedule.graph.edges):
            for t in range(1, schedule.horizon + 1):
                writer.writerow([i, j, t, int(schedule.indicators[t - 1, k])])


def read_schedule_csv(g: DirectedGraph, path) -> FailureSchedule:
    """Read a schedule written by :func:`write_schedule_csv` and validate it
    against ``g`` (completeness, known edges, delivery within horizon)."""
    table: dict = {}
    horizon = 0
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            t = int(row["t"])
            horizon = max(horizon, t)
            key = ((int(row["src"]), int(row["dst"])), t)
            if key in table:
                raise IncompleteTableError(
                    f"row {reader.line_num} repeats edge {key[0]} at iteration {t}"
                )
            table[key] = int(row["indicator"])
    return scripted_schedule(g, horizon, table)
