"""Synchronous-round push-sum protocols over lossy directed links.

Three variants of ratio consensus are provided.  ``run_push_sum`` assumes a
reliable network.  ``run_robust_push_sum`` tolerates dropped broadcasts by
exchanging cumulative totals, so a late delivery carries everything that was
missed; its per-link buffers empty completely whenever a delivery goes
through.  ``run_convergent_robust_push_sum`` additionally pushes a share of
the freshly aggregated mass back into each buffer every round, which keeps
the buffer contents decaying geometrically and makes the worst-case ratio
error certifiable by :func:`consensus_rate_bound`.

Both cumulative variants share one round, ``_CumulativeState.robust_round``:
convergent = robust + re-share.  ``run_push_sum`` deliberately keeps its own
loop.  With every link delivering, the robust round reduces to it exactly,
and the test suite uses it as the independent reference for that reduction,
so routing it through the shared round would compare the code with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IterationOutOfRangeError,
    NegativeInputError,
    ScheduleTooShortError,
    ZeroWeightError,
)
from .graphs import AugmentedGraph, DirectedGraph, augment
from .schedules import FailureSchedule

__all__ = [
    "ConsensusTrace",
    "run_push_sum",
    "run_robust_push_sum",
    "run_convergent_robust_push_sum",
    "consensus_error",
    "consensus_rate_bound",
    "contraction_constants",
    "certify_consensus_bound",
    "ConsensusCertificate",
]


def _input_matrix(y, n: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise DimensionMismatchError(
            f"inputs must have shape ({n},) or ({n}, d), got {np.shape(y)}"
        )
    return arr.copy()


class _NodeTrace:
    """Accessors shared by the traces over the augmented node set; a subclass
    provides ``augmented``, ``values`` (T+1, m, d) and ``weights`` (T+1, m)."""

    @property
    def graph(self) -> DirectedGraph:
        return self.augmented.base

    @property
    def horizon(self) -> int:
        return int(self.values.shape[0] - 1)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.augmented.m

    @property
    def dim(self) -> int:
        return int(self.values.shape[2])

    def _check_t(self, t: int) -> None:
        if not 0 <= t <= self.horizon:
            raise IterationOutOfRangeError(f"iteration {t} outside 0..{self.horizon}")

    def ratios(self, t: int) -> np.ndarray:
        """Real-agent value/weight ratios at iteration t, shape (n, d); rows
        with a zero weight are undefined and reported as NaN."""
        self._check_t(t)
        w = self.weights[t, : self.n]
        out = np.full((self.n, self.dim), np.nan)
        ok = w != 0.0
        out[ok] = self.values[t, : self.n][ok] / w[ok, None]
        return out


@dataclass(frozen=True, eq=False)
class ConsensusTrace(_NodeTrace):
    """Full history of one run on the augmented node set.

    ``values[t, p]`` and ``weights[t, p]`` hold the value vector and weight of
    augmented node id p + 1 after iteration t.  Positions 0..n-1 are the real
    agents; position n + k is the buffer of the k-th edge in lexicographic
    order and stores the mass in flight over that link.
    """

    augmented: AugmentedGraph
    inputs: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    @property
    def average_input(self) -> np.ndarray:
        return self.inputs.mean(axis=0)

    def value_total(self, t: int) -> np.ndarray:
        self._check_t(t)
        return self.values[t].sum(axis=0)

    def weight_total(self, t: int) -> float:
        self._check_t(t)
        return float(self.weights[t].sum())


class _CumulativeState:
    """Live network state for the cumulative-total protocols.

    Tracks each agent's value/weight, the running totals it has broadcast,
    and per incoming link the totals that actually arrived.  Buffer contents
    are reconstructed as sent-minus-delivered rather than stored.
    """

    def __init__(self, g: DirectedGraph, inputs: np.ndarray):
        n, d = inputs.shape
        self.src = g.edge_sources
        self.dst = g.edge_destinations
        self.shares = (g.out_degrees + 1).astype(float)
        self.z = inputs.copy()
        self.w = np.ones(n)
        self.sent_values = np.zeros((n, d))
        self.sent_weights = np.zeros(n)
        self.delivered_values = np.zeros((g.num_edges, d))
        self.delivered_weights = np.zeros(g.num_edges)

    def in_flight(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.sent_values[self.src] - self.delivered_values,
            self.sent_weights[self.src] - self.delivered_weights,
        )

    def robust_round(self, delivered: np.ndarray) -> None:
        D = self.shares
        sent_v = self.sent_values + self.z / D[:, None]
        sent_w = self.sent_weights + self.w / D
        new_dv = np.where(delivered[:, None], sent_v[self.src], self.delivered_values)
        new_dw = np.where(delivered, sent_w[self.src], self.delivered_weights)
        z = self.z / D[:, None]
        w = self.w / D
        np.add.at(z, self.dst, new_dv - self.delivered_values)
        np.add.at(w, self.dst, new_dw - self.delivered_weights)
        self.z, self.w = z, w
        self.sent_values, self.sent_weights = sent_v, sent_w
        self.delivered_values, self.delivered_weights = new_dv, new_dw

    def convergent_round(self, delivered: np.ndarray) -> None:
        self.robust_round(delivered)
        # Second half of the round: broadcast a share of the fresh aggregate
        # as well, so buffers never sit on stale mass.
        D = self.shares
        self.sent_values = self.sent_values + self.z / D[:, None]
        self.sent_weights = self.sent_weights + self.w / D
        self.z = self.z / D[:, None]
        self.w = self.w / D

    def record(self, values: np.ndarray, weights: np.ndarray, t: int) -> None:
        """Write the agent rows and the in-flight buffer rows into row t."""
        n = self.w.size
        values[t, :n] = self.z
        weights[t, :n] = self.w
        values[t, n:], weights[t, n:] = self.in_flight()


def _check_schedule(g: DirectedGraph, schedule: FailureSchedule, T: int) -> None:
    if schedule.graph != g:
        raise DimensionMismatchError("schedule was built for a different graph")
    if schedule.horizon < T:
        raise ScheduleTooShortError(
            f"schedule covers {schedule.horizon} iterations, run needs {T}"
        )


def _allocate(ag: AugmentedGraph, inputs: np.ndarray, T: int):
    n, d = inputs.shape
    values = np.zeros((T + 1, ag.m, d))
    weights = np.zeros((T + 1, ag.m))
    values[0, :n] = inputs
    weights[0, :n] = 1.0
    return values, weights


def run_push_sum(g: DirectedGraph, y, T: int) -> ConsensusTrace:
    """Ratio consensus over a reliable network.

    Parameters
    ----------
    g : DirectedGraph
        Strongly connected communication graph.
    y : array_like
        Inputs, shape (n,) or (n, d).  Agent i starts from value y_i and
        weight 1.
    T : int
        Number of synchronous rounds.

    Returns
    -------
    ConsensusTrace
        Each round every agent splits value and weight into equal shares for
        itself and its out-neighbors; the value/weight ratio of every agent
        approaches the input average.  Buffer rows stay zero because nothing
        is ever in flight.
    """
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    inputs = _input_matrix(y, g.n)
    ag = augment(g)
    values, weights = _allocate(ag, inputs, T)
    src, dst = g.edge_sources, g.edge_destinations
    D = (g.out_degrees + 1).astype(float)
    z = inputs.copy()
    w = np.ones(g.n)
    for t in range(1, T + 1):
        zs = z / D[:, None]
        ws = w / D
        z = zs.copy()
        w = ws.copy()
        np.add.at(z, dst, zs[src])
        np.add.at(w, dst, ws[src])
        values[t, : g.n] = z
        weights[t, : g.n] = w
    return ConsensusTrace(ag, inputs, values, weights)


def _run_cumulative(g, y, schedule, T, step_name) -> ConsensusTrace:
    inputs = _input_matrix(y, g.n)
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    _check_schedule(g, schedule, T)
    ag = augment(g)
    values, weights = _allocate(ag, inputs, T)
    state = _CumulativeState(g, inputs)
    step = getattr(state, step_name)
    for t in range(1, T + 1):
        step(schedule.delivered(t))
        state.record(values, weights, t)
    return ConsensusTrace(ag, inputs, values, weights)


def run_robust_push_sum(
    g: DirectedGraph, y, schedule: FailureSchedule, T: int
) -> ConsensusTrace:
    """Push-sum over lossy links via cumulative totals.

    Agents broadcast running totals of everything sent so far; receivers
    difference consecutive deliveries, so any single delivery catches up on
    all drops before it.  Total value and weight over agents plus buffers are
    preserved every round, but buffer mass can stay large between deliveries,
    so no worst-case rate certificate applies to this variant.
    """
    return _run_cumulative(g, y, schedule, T, "robust_round")


def run_convergent_robust_push_sum(
    g: DirectedGraph, y, schedule: FailureSchedule, T: int
) -> ConsensusTrace:
    """Robust push-sum with a second half-round that re-shares the fresh
    aggregate, emptying delivered buffers into live mass immediately.

    On any schedule whose links all deliver at least once in every window of
    B iterations, the worst agent ratio error after t rounds is bounded by
    :func:`consensus_rate_bound`.
    """
    return _run_cumulative(g, y, schedule, T, "convergent_round")


def contraction_constants(g: DirectedGraph, B: int) -> tuple[float, float, int]:
    """(beta, gamma, block) for graph ``g`` under window ``B``.

    beta is the smallest positive entry any single mixing step can produce,
    1 / max_i (d_i + 1)^2.  Over a block of n B + 1 consecutive iterations
    every pairwise influence is at least beta**block, so each block contracts
    disagreement by at least gamma = 1 - beta**block.
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    beta = 1.0 / float((g.out_degrees + 1).max()) ** 2
    block = g.n * B + 1
    return beta, 1.0 - beta**block, block


def consensus_rate_bound(g: DirectedGraph, B: int, y, t: int) -> float:
    """A-priori bound on the worst ratio error of the convergent protocol.

    Valid for nonnegative inputs on any B-window schedule:
    ||z_i[t] / w_i[t] - avg(y)|| <= ||sum(y)|| / (n beta**block) *
    gamma**floor(t / block).
    """
    inputs = _input_matrix(y, g.n)
    if np.any(inputs < 0):
        raise NegativeInputError("the rate bound is stated for nonnegative inputs")
    if t < 1:
        raise IterationOutOfRangeError(f"iteration must be >= 1, got {t}")
    beta, gamma, block = contraction_constants(g, B)
    total = float(np.linalg.norm(inputs.sum(axis=0)))
    floor = beta**block
    if floor == 0.0:
        # beta**block underflowed: the bound lies above the float range.
        return math.inf if total > 0.0 else 0.0
    return total / (g.n * floor) * gamma ** (t // block)


def consensus_error(trace: ConsensusTrace, t: int) -> float:
    """Worst real-agent distance ||z_i[t]/w_i[t] - avg(y)||."""
    trace._check_t(t)
    w = trace.weights[t, : trace.n]
    if np.any(w <= 0.0):
        raise ZeroWeightError(f"agent weight not positive at iteration {t}")
    ratios = trace.values[t, : trace.n] / w[:, None]
    return float(np.linalg.norm(ratios - trace.average_input, axis=1).max())


@dataclass(frozen=True)
class ConsensusCertificate:
    """Outcome of checking the rate bound at every iteration of a trace."""

    horizon: int
    worst_t: int | None
    worst_error: float | None
    worst_bound: float | None
    final_error: float | None
    passed: bool


def certify_consensus_bound(trace: ConsensusTrace, B: int) -> ConsensusCertificate:
    """Check consensus_error(t) <= consensus_rate_bound(t) for t in 1..T.

    The reported worst point maximizes error - bound, so ``worst_error`` and
    ``worst_bound`` are the measured-versus-bound pair closest to violation.
    """
    T = trace.horizon
    if T < 1:
        return ConsensusCertificate(T, None, None, None, None, True)
    g = trace.graph
    worst_margin = -np.inf
    worst = (None, None, None)
    passed = True
    for t in range(1, T + 1):
        err = consensus_error(trace, t)
        bound = consensus_rate_bound(g, B, trace.inputs, t)
        if err > bound:
            passed = False
        if worst[0] is None or err - bound > worst_margin:
            worst_margin = err - bound
            worst = (t, err, bound)
    final = consensus_error(trace, T)
    return ConsensusCertificate(T, worst[0], worst[1], worst[2], final, passed)
