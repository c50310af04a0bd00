"""Synchronous-round push-sum protocols over lossy directed links.

Three variants of ratio consensus are provided.  ``run_push_sum`` assumes a
reliable network.  ``run_robust_push_sum`` tolerates dropped broadcasts by
exchanging cumulative totals, so a late delivery carries everything that was
missed; its per-link buffers empty completely whenever a delivery goes
through.  ``run_convergent_robust_push_sum`` additionally pushes a share of
the freshly aggregated mass back into each buffer every round, which keeps
the buffer contents decaying geometrically and makes the worst-case ratio
error certifiable by :func:`consensus_rate_bound`.

Every variant applies each linear step to an agent's value vector and its
weight alike, so the protocol state is one mass array whose first d columns
are the values and whose last column is the weight; a run's history is one
(T+1, m, d+1) array, and a trace's ``values`` and ``weights`` are its views.

Both cumulative variants, and distributed dual averaging, iterate one
run-level driver, the generator ``_CumulativeState.rounds``: convergent =
robust + re-share.  It binds a run's work arrays, history views and (T, E,
d+1) delivery masks once, before the first round, does each round in place,
writes round t's agent rows and in-flight buffer rows straight into history
row t and yields t; dual averaging adds its subgradients to those agent rows
before the next round reads them.  The one array a round allocates is the
(E, d+1) ``np.where`` result that becomes the delivered totals, so nothing
history-sized is allocated and nothing is copied afterwards.
``run_push_sum`` deliberately keeps its own loop.  With every link
delivering, the robust round reduces to it exactly, and the test suite uses
it as the independent reference for that reduction, so routing it through
the shared round would compare the code with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    IterationOutOfRangeError,
    ScheduleTooShortError,
    ZeroWeightError,
    _check_horizon,
    _horizon_fits,
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
    "Certificate",
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
    provides ``augmented``, ``values`` (T+1, m, d) and ``weights`` (T+1, m),
    the value and weight views of one mass history."""

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
    """One run of a cumulative-total protocol: its live network state and
    the driver of its rounds, bound once before the first round.

    Each quantity is one mass array whose first d columns are the value
    vector and whose last column is the weight, so every step of the round
    moves both at once: ``sent`` (n, d+1) the running totals each agent has
    broadcast, and ``delivered`` (E, d+1) per link the totals that actually
    arrived.  Buffer contents are reconstructed as sent-minus-delivered
    rather than stored.

    The run writes into ``history``, a C-contiguous (T+1, m, d+1) mass
    history whose row 0 holds the start: round t reads the n agent rows of
    row t-1 and writes round t's agent rows and in-flight buffer rows into
    row t.  The delivery masks of rounds 1..T are one (T, E, d+1) boolean
    view of the schedule's indicators, each link's indicator repeated over
    the columns by a zero stride.  The state's work arrays (the totals
    offered on each link, the per-link increments, a flat destination index)
    and the views the rounds use are made here or when the rounds start, and
    belong to this run alone.
    """

    def __init__(self, g: DirectedGraph, schedule: FailureSchedule, history: np.ndarray):
        d1 = history.shape[2]
        self.src = g.edge_sources
        # The divisor of each mass entry, full width: a broadcast (n, 1)
        # divisor takes a slower loop for the same quotients.
        self.shares = np.repeat((g.out_degrees + 1).astype(float)[:, None], d1, axis=1)
        self.sent = np.zeros((g.n, d1))
        self.delivered = np.zeros((g.num_edges, d1))
        self._offered = np.empty((g.num_edges, d1))
        self._increments = np.empty((g.num_edges, d1))
        # np.add.at over flat positions takes numpy's 1-d fast path; each
        # entry still receives its links' increments in edge order.
        self._flat_dst = (g.edge_destinations[:, None] * d1 + np.arange(d1)).ravel()
        # A view with the shape of the totals, so that ``np.where`` does not
        # broadcast it; it allocates nothing.
        T = len(history) - 1
        self._masks = np.broadcast_to(
            schedule.indicators[:T].view(bool)[:, :, None], (T, g.num_edges, d1)
        )
        self._history = history

    def rounds(self, reshare: bool):
        """Run rounds 1..T, yielding t once history row t is written.

        Round t divides each agent's mass by its out-degree + 1, adds the
        shares to ``sent``, offers sent[src] on every link and takes, per
        link, arrived = where(delivered mask, offered, delivered); each
        receiver gains arrived - delivered (``np.add.at`` in edge order) and
        ``delivered`` becomes ``arrived``.  So a dropped link adds
        delivered - delivered, and non-finite totals propagate as they would
        through ``where``.  ``reshare`` adds the convergent variant's second
        half-round before the buffer rows, sent[src] - delivered, are
        written.  The ``where`` result is the only array a round allocates.

        A caller may change the agent rows of row t while the generator is
        suspended there: round t+1 reads them (dual averaging adds its
        subgradients so).
        """
        n = len(self.sent)
        shares, sent, offered, increments = self.shares, self.sent, self._offered, self._increments
        take, src, flat_dst = sent.take, self.src, self._flat_dst
        flat_increments = increments.reshape(-1)
        # Local names: a round pays no module or attribute lookup for them.
        add_at, divide, add, subtract, where = np.add.at, np.divide, np.add, np.subtract, np.where
        agents = self._history[:, :n]
        flat_agents = agents.reshape(len(agents), -1)
        # Row t's views, made by iterating the arrays: cheaper than indexing.
        rows = zip(self._masks, agents[1:], flat_agents[1:], self._history[1:, n:])
        delivered = self.delivered
        mass = agents[0]
        for t, (mask, new, flat_new, buffers) in enumerate(rows, 1):
            divide(mass, shares, new)
            add(sent, new, sent)
            # Edge sources are valid indices; mode "clip" writes straight
            # into ``offered``, where "raise" would go through a temporary.
            take(src, 0, offered, "clip")
            arrived = where(mask, offered, delivered)
            subtract(arrived, delivered, increments)
            add_at(flat_new, flat_dst, flat_increments)
            self.delivered = delivered = arrived
            if reshare:
                # Second half of the round: broadcast a share of the fresh
                # aggregate as well, so buffers never sit on stale mass.
                divide(new, shares, new)
                add(sent, new, sent)
                take(src, 0, offered, "clip")
            subtract(offered, delivered, buffers)
            mass = new
            yield t


def _check_schedule(g: DirectedGraph, schedule: FailureSchedule, T: int) -> None:
    if schedule.graph != g:
        raise DimensionMismatchError("schedule was built for a different graph")
    if schedule.horizon < T:
        raise ScheduleTooShortError(
            f"schedule covers {schedule.horizon} iterations, run needs {T}"
        )


def _allocate(ag: AugmentedGraph, inputs: np.ndarray, T: int):
    """A zeroed (T+1, m, d+1) mass history holding the standard start (inputs
    and unit weights on the agents), with its value and weight views."""
    n, d = inputs.shape
    with _horizon_fits(T):
        mass = np.zeros((T + 1, ag.m, d + 1))
    mass[0, :n, :d] = inputs
    mass[0, :n, d] = 1.0
    return mass, mass[..., :d], mass[..., d]


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
    _check_horizon(T)
    inputs = _input_matrix(y, g.n)
    ag = augment(g)
    mass, values, weights = _allocate(ag, inputs, T)
    src, dst = g.edge_sources, g.edge_destinations
    D = (g.out_degrees + 1).astype(float)[:, None]
    for t in range(1, T + 1):
        share = mass[t - 1, : g.n] / D
        mass[t, : g.n] = share
        np.add.at(mass[t, : g.n], dst, share[src])
    return ConsensusTrace(ag, inputs, values, weights)


def _run_cumulative(g, y, schedule, T, reshare) -> ConsensusTrace:
    inputs = _input_matrix(y, g.n)
    _check_horizon(T)
    _check_schedule(g, schedule, T)
    ag = augment(g)
    mass, values, weights = _allocate(ag, inputs, T)
    for _ in _CumulativeState(g, schedule, mass).rounds(reshare):
        pass
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
    return _run_cumulative(g, y, schedule, T, reshare=False)


def run_convergent_robust_push_sum(
    g: DirectedGraph, y, schedule: FailureSchedule, T: int
) -> ConsensusTrace:
    """Robust push-sum with a second half-round that re-shares the fresh
    aggregate, emptying delivered buffers into live mass immediately.

    On any schedule whose links all deliver at least once in every window of
    B iterations, the worst agent ratio error after t rounds is bounded by
    :func:`consensus_rate_bound`.
    """
    return _run_cumulative(g, y, schedule, T, reshare=True)


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
    return beta, 1.0 - _block_floor(beta, block)[0], block


def _block_floor(beta: float, block: int) -> tuple[float, float]:
    """(beta**block, block * log10(beta)): the least pairwise influence over
    a block, 1 - gamma, and its log10, which does not underflow.  Where
    ``block`` lies beyond the float range, their limits: (0.0, -inf), and
    (1.0, 0.0) for beta = 1, a single node."""
    try:
        return beta**block, block * math.log10(beta)
    except OverflowError:
        return (1.0, 0.0) if beta == 1.0 else (0.0, -math.inf)


def consensus_rate_bound(g: DirectedGraph, B: int, y, t: int) -> float:
    """A-priori bound on the worst ratio error of the convergent protocol.

    Valid on any B-window schedule: for nonnegative inputs,
    ||z_i[t] / w_i[t] - avg(y)|| <= ||sum(y)|| / (n beta**block) *
    gamma**floor(t / block).  Signed inputs take the bound of the inputs
    shifted per coordinate by min(0, min_i y_i): ratios and their average
    move alike under a shift, so the errors stay the same.
    """
    inputs = _input_matrix(y, g.n)
    if t < 1:
        raise IterationOutOfRangeError(f"iteration must be >= 1, got {t}")
    return float(_rate_bounds(g, B, inputs, np.array([t]))[0])


def _rate_bounds(g: DirectedGraph, B: int, inputs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """consensus_rate_bound at each iteration of ``ts``."""
    beta, gamma, block = contraction_constants(g, B)
    sums = (inputs - np.minimum(0.0, inputs.min(axis=0))).sum(axis=0)
    with np.errstate(over="ignore"):
        total = float(_rescue_norms(sums, np.linalg.norm(sums)))
    floor = _block_floor(beta, block)[0]
    if floor == 0.0:
        # beta**block underflowed: the bound lies above the float range.
        return np.full(ts.shape, math.inf if total > 0.0 else 0.0)
    # gamma**k by Python's float power on an object array: numpy's own float
    # power may take a SIMD path that differs from it in the last bit.  The
    # k = t // block are Python ints too, which take a block beyond int64.
    decay = (gamma ** (ts.astype(object) // block)).astype(float)
    return total / (g.n * floor) * decay


def _rescue_norms(x: np.ndarray, norms) -> np.ndarray:
    """``norms``, the Euclidean norms of x over its last axis, where they
    are finite; where squaring overflowed although x is finite, the norm of
    x over its largest |entry|, scaled back.  Finite norms keep their bits.
    Callers run it under ``np.errstate(over="ignore")``: a norm beyond the
    float range stays infinite.  With no infinite norm, ``norms`` comes back
    as given (as an array) after one pass over it; otherwise the rescued
    norms are a copy."""
    norms = np.asarray(norms, dtype=float)
    infinite = np.isinf(norms)
    if not infinite.any():
        return norms
    norms = norms.copy()
    redo = infinite & np.isfinite(x).all(axis=-1)
    if redo.any():
        rows = x[redo]
        scale = np.abs(rows).max(axis=-1)
        norms[redo] = scale * np.linalg.norm(rows / scale[..., None], axis=-1)
    return norms


# numpy's add.reduce sums an axis pairwise, in blocks of 8, where it is the
# inner loop of the reduction: a contiguous axis of 8 or more entries, or a
# node axis of 8 or more that a single coordinate leaves innermost.  Other
# axes it adds from +0 left to right, which a loop over slices repeats bit
# for bit in fewer numpy passes.
_PAIRWISE = 8


def _node_sums(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=1)`` of a (k, m, d) view of a mass history, bit for
    bit: the m node slices added from +0 left to right, or numpy's own
    pairwise sum where it takes one (d = 1 and m >= 8).  The loop adds (d, k)
    slices, rounds along the rows, and returns their transpose."""
    k, m, d = values.shape
    if d == 1 and m >= _PAIRWISE:
        return values.sum(axis=1)
    total = np.zeros((d, k))
    for node in values.transpose(1, 2, 0):
        total += node
    return total.T


def _ratio_errors(values, weights, center, first_t: int) -> np.ndarray:
    """max_i ||z_i / w_i - c|| per round: ``values`` (k, n, d) and ``weights``
    (k, n) are the real agents over k rounds from iteration ``first_t`` on,
    ``center`` is (d,) or (k, d).  Weights must be positive; a non-finite
    error is left to the certificates to fail, without a numpy warning.

    With d < 8 the norms are built one coordinate at a time in C-ordered
    (n, k) arrays, one row per agent, their squares added left to right as
    ``np.linalg.norm`` adds them over a short axis; the maximum over the
    agents then runs across whole rows.  Where a round's largest norm
    overflowed, and for every d >= 8, the whole-array expression with the
    rescued norms is taken instead; both give the same bits."""
    bad = weights <= 0.0
    if bad.any():
        t = first_t + np.argwhere(bad)[0, 0]
        raise ZeroWeightError(f"agent weight not positive at iteration {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        if values.shape[2] < _PAIRWISE:
            for c, coordinate in enumerate(values.T):
                diff = np.divide(coordinate, weights.T, np.empty(weights.T.shape))
                diff -= center[..., c]
                diff *= diff
                if c:
                    squares += diff
                else:
                    squares = diff
            errors = np.sqrt(squares, squares).max(axis=0)
            if not np.isinf(errors).any():
                return errors
        diffs = values / weights[..., None] - np.expand_dims(center, -2)
        return _rescue_norms(diffs, np.linalg.norm(diffs, axis=2)).max(axis=1)


@dataclass(frozen=True)
class Certificate:
    """One verdict on a claim of the paper.

    ``measured`` is the value at the worst point and ``where`` names that
    point: ``{"worst_t": t}``, ``{"worst_agent": i}`` or ``{"window": (r,
    t)}``.  ``allowance`` is 0 but for two checks.  The gap certificate
    passes only when measured + allowance <= bound, its reference's
    allowance taken on the safe side; the contraction certificate passes
    when measured <= bound + allowance, its rounding allowance.  ``detail``
    holds only the values a caller reports beside the verdict."""

    measured: float | None
    bound: float | None
    passed: bool
    where: dict = field(default_factory=dict)
    allowance: float = 0.0
    detail: dict = field(default_factory=dict)


def _worst_point(measured: np.ndarray, bound, allowance: float = 0.0) -> tuple[int, bool]:
    """A certificate's worst point and verdict: the first non-finite
    measurement, which fails, else the first largest measured - bound (with a
    single bound, the largest measurement: subtracting a large bound can round
    distinct measurements together), which passes if measured + allowance <=
    bound."""
    nonfinite = np.flatnonzero(~np.isfinite(measured))
    if nonfinite.size:
        return int(nonfinite[0]), False
    i = int(np.argmax(measured - bound if np.ndim(bound) else measured))
    return i, bool(measured[i] + allowance <= np.broadcast_to(bound, measured.shape)[i])


def consensus_error(trace: ConsensusTrace, t: int) -> float:
    """Worst real-agent distance ||z_i[t]/w_i[t] - avg(y)||."""
    trace._check_t(t)
    values, weights = trace.values[t : t + 1, : trace.n], trace.weights[t : t + 1, : trace.n]
    return float(_ratio_errors(values, weights, trace.average_input, t)[0])


def certify_consensus_bound(trace: ConsensusTrace, B: int) -> Certificate:
    """Check consensus_error(t) <= consensus_rate_bound(t) for t in 1..T,
    signed inputs included.

    ``where`` is ``{"worst_t": t}`` for the t that maximizes error - bound, so
    ``measured`` and ``bound`` are the pair closest to violation; a trace with
    no round passes with no point.
    """
    T = trace.horizon
    if T < 1:
        return Certificate(None, None, True)
    n = trace.n
    errors = _ratio_errors(trace.values[1:, :n], trace.weights[1:, :n], trace.average_input, 1)
    bounds = _rate_bounds(trace.graph, B, trace.inputs, np.arange(1, T + 1))
    i, passed = _worst_point(errors, bounds)
    return Certificate(float(errors[i]), float(bounds[i]), passed, {"worst_t": i + 1})
