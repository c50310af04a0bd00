"""Dual averaging over lossy directed networks.

The distributed method runs one collision-free aggregation round per
iteration (the convergent cumulative-counter protocol from
:mod:`lossynet.consensus`), then each agent adds a local subgradient to its
dual value and projects the value/weight ratio back onto the feasible set.
The proximal function is psi(x) = (1/2)||x||^2 throughout, so the
dual-to-primal map is a Euclidean projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .consensus import (
    Certificate,
    _allocate,
    _block_floor,
    _check_schedule,
    _CumulativeState,
    _NodeTrace,
    _node_sums,
    _ratio_errors,
    _worst_point,
    contraction_constants,
)
from .errors import (
    DimensionMismatchError,
    HorizonTooShortError,
    IterationOutOfRangeError,
    _check_horizon,
    _horizon_fits,
)
from .problems import OptProblem, ReferenceSolution, solve_reference
from .schedules import FailureSchedule
from .graphs import AugmentedGraph, DirectedGraph, augment

__all__ = [
    "StepSizeSchedule",
    "OptTrace",
    "run_distributed_dual_averaging",
    "running_average",
    "mixing_error_bound",
    "optimality_gap_bound",
    "certify_mixing_error",
    "certify_optimality_gap",
]


@dataclass(frozen=True)
class StepSizeSchedule:
    """Steps alpha[0] = A and alpha[t] = A / sqrt(t) for t >= 1."""

    constant: float

    def __post_init__(self):
        if not (np.isfinite(self.constant) and self.constant > 0):
            raise ValueError(f"step constant must be positive, got {self.constant}")

    def alpha(self, t: int) -> float:
        if t < 0:
            raise IterationOutOfRangeError(f"step index must be >= 0, got {t}")
        if t == 0:
            return float(self.constant)
        return float(self.constant) / math.sqrt(t)


@dataclass(frozen=True, eq=False)
class OptTrace(_NodeTrace):
    """Distributed dual-averaging trajectory over the augmented node set.

    ``values`` and ``weights`` cover all m augmented nodes (real agents
    first, then one buffer per link); ``estimates`` and ``subgradients``
    exist for real agents only.  Value rows for real agents already include
    the subgradient added in the same iteration.
    """

    problem: OptProblem
    augmented: AugmentedGraph
    step: StepSizeSchedule
    estimates: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    subgradients: np.ndarray


def run_distributed_dual_averaging(
    g: DirectedGraph,
    problem: OptProblem,
    schedule: FailureSchedule,
    steps: StepSizeSchedule,
    T: int,
) -> OptTrace:
    """One aggregation round, one subgradient, one projection per iteration.

    Agent i holds a dual value z_i (initially 0) and a weight w_i (initially
    1).  Iteration t runs the convergent cumulative-counter round on (z, w),
    adds g_i in the subdifferential of agent i's cost at the previous
    estimate to z_i, then sets the estimate to the projection of
    -alpha[t-1] * z_i / w_i.  Buffer rows of the returned trace hold the
    in-flight totals after the round, which never receive subgradients.
    """
    if problem.n_components != g.n:
        raise DimensionMismatchError(
            f"problem has {problem.n_components} components for {g.n} agents"
        )
    _check_horizon(T)
    _check_schedule(g, schedule, T)
    n, d = g.n, problem.dim
    ag = augment(g)
    mass, values, weights = _allocate(ag, np.zeros((n, d)), T)
    with _horizon_fits(T):
        estimates = np.zeros((T + 1, n, d))
        subgradients = np.zeros((T, n, d))

    # Everything a round uses is bound here, once per run: the round
    # driver, the subgradient kernel with its scratch and the projection
    # with its bounds.
    # Each step writes where the trace keeps it, with the operations and
    # operand order of the textbook update, so every entry has the bits an
    # allocating loop gives: the round fills mass[t]; g = subgradients[t-1]
    # at estimates[t-1]; z += g on the agent rows of mass[t]; estimates[t]
    # = z / w, then times -alpha(t-1), then projected onto the feasible set.
    rounds = _CumulativeState(g, schedule, mass).rounds(reshare=True)
    kernel = problem._subgradient_kernel()
    project = problem.feasible._projector((n, d))
    alpha = steps.alpha
    add, divide, multiply = np.add, np.divide, np.multiply
    # Round t's views, made by iterating the arrays alongside the rounds:
    # estimates[t-1], subgradients[t-1], then z, w and estimates[t].
    steps_views = zip(
        rounds, estimates, subgradients, mass[1:, :n, :d], mass[1:, :n, d:], estimates[1:]
    )
    # A squared norm that overflows is rescaled by the kernel; numpy's
    # overflow warning for it is silenced here rather than once per round,
    # so any other overflow in the loop shows only as a non-finite value,
    # which the certificates fail on.
    with np.errstate(over="ignore"):
        for t, previous, grads, z, w, x in steps_views:
            add(z, kernel(previous, grads), z)
            divide(z, w, x)
            project(multiply(x, -alpha(t - 1), x), x)
    return OptTrace(problem, ag, steps, estimates, values, weights, subgradients)


def running_average(trace: OptTrace, agent: int) -> np.ndarray:
    """(1/T) * sum of agent's estimates over iterations 1..T, the horizon."""
    if trace.horizon < 1:
        raise IterationOutOfRangeError(f"need a horizon of at least 1, got {trace.horizon}")
    if not 1 <= agent <= trace.n:
        raise IterationOutOfRangeError(f"agent {agent} outside 1..{trace.n}")
    return trace.estimates[1:, agent - 1].mean(axis=0)


def _network_factor(beta: float, gamma: float, block: int) -> float:
    """1 / (beta**block (1 - gamma**(1/block)) gamma**((block-1)/block)), the
    network constant of both dual-averaging bounds.

    Infinite when gamma = 0 (a single agent) or beta**block underflows, and
    rounds to infinity when it lies above the float range.
    """
    floor = _block_floor(beta, block)[0]
    if gamma == 0.0 or floor == 0.0:
        return math.inf
    # 1 - gamma**(1/block) with gamma = 1 - floor, without the cancellation
    # that rounds it to 0 once floor / block is below the float epsilon.
    root_gap = -math.expm1(math.log1p(-floor) / block)
    return 1.0 / floor / root_gap / gamma ** ((block - 1) / block)


def mixing_error_bound(g: DirectedGraph, B: int, L: float) -> float:
    """Uniform bound on the dual disagreement for t >= n*B + 1.

    Returns 0 for L = 0 and infinity for the single-agent network, where the
    contraction factor degenerates; the measured error is 0 in both cases.
    """
    if L < 0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {L}")
    if L == 0.0:
        return 0.0
    return L * _network_factor(*contraction_constants(g, B))


def optimality_gap_bound(
    problem: OptProblem,
    g: DirectedGraph,
    B: int,
    steps: StepSizeSchedule,
    T: int,
) -> float:
    """Guaranteed gap of every agent's running average after T iterations.

    Sum of an approximation term, a proximal-radius term, and a network
    term; valid for T >= n*B + 1 and infinite on the single-agent network
    unless the objective is constant.
    """
    beta, gamma, block = contraction_constants(g, B)
    if T < block:
        raise HorizonTooShortError(f"bound needs T >= {block}, got {T}")
    L = problem.lipschitz_bound
    A = steps.constant
    r_sq = problem.feasible.psi_radius_sq
    root = math.sqrt(T)
    approx = 2.0 * (L * L) * A / T * (2.0 * root + 1.0)
    radius = r_sq / (A * root)
    if L == 0.0:
        network = 0.0
    else:
        network = 3.0 * (L * L) * A * _network_factor(beta, gamma, block) * (2.0 * root + 1.0) / T
    return approx + radius + network


def certify_mixing_error(trace: OptTrace, B: int) -> Certificate:
    """Check max_i ||zbar[t] - z_i[t]/w_i[t]|| against its uniform bound,
    where zbar[t] sums the dual values over all m nodes and divides by n.

    Evaluates every t from n*B + 1 through the trace horizon; ``where`` is
    ``{"worst_t": t}`` for the iteration with the least margin, or the first
    non-finite measurement.
    """
    _, _, block = contraction_constants(trace.graph, B)
    T = trace.horizon
    if T < block:
        raise HorizonTooShortError(f"certification needs T >= {block}, got {T}")
    bound = mixing_error_bound(trace.graph, B, trace.problem.lipschitz_bound)
    n = trace.n
    values, weights = trace.values[block:], trace.weights[block:]
    errors = _ratio_errors(values[:, :n], weights[:, :n], _node_sums(values) / n, block)
    worst, passed = _worst_point(errors, bound)
    return Certificate(float(errors[worst]), bound, passed, {"worst_t": worst + block})


def certify_optimality_gap(
    trace: OptTrace, B: int, reference: ReferenceSolution | None = None
) -> Certificate:
    """Check every agent's running-average gap against the guarantee.

    The gap is measured against :func:`~lossynet.problems.solve_reference`
    of the trace's problem, whose value may lie above the minimum by its
    ``slack`` (0 where exact, else L times the grid step).  That allowance
    goes on the safe side: the certificate passes only when the worst gap
    plus it is at most the bound.  ``where`` is ``{"worst_agent": i}``, the
    first agent with the largest gap or a non-finite one, which fails;
    ``detail`` holds every agent's gap, ``per_agent_gap``.

    ``reference`` may only be that same solution: any other raises
    ValueError, since a value above the minimum would shrink every gap.
    """
    T = trace.horizon
    bound = optimality_gap_bound(trace.problem, trace.graph, B, trace.step, T)
    own = solve_reference(trace.problem)
    if reference is not None and reference is not own:
        raise ValueError("the gap is measured against solve_reference(trace.problem) only")
    averages = np.array([running_average(trace, agent) for agent in range(1, trace.n + 1)])
    gaps = trace.problem.objective_at(averages) - own.value
    worst, passed = _worst_point(gaps, bound, own.slack)
    return Certificate(
        float(gaps[worst]), bound, passed, {"worst_agent": worst + 1}, own.slack,
        {"per_agent_gap": tuple(gaps.tolist())},
    )
