"""Dual averaging, centralized and over lossy directed networks.

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
    _allocate,
    _check_schedule,
    _CumulativeState,
    _NodeTrace,
    contraction_constants,
)
from .errors import (
    DimensionMismatchError,
    HorizonTooShortError,
    IterationOutOfRangeError,
)
from .problems import Ball, Box, OptProblem, ReferenceSolution, solve_reference
from .schedules import FailureSchedule
from .graphs import AugmentedGraph, DirectedGraph, augment

__all__ = [
    "StepSizeSchedule",
    "proximal_projection",
    "CentralizedTrace",
    "run_centralized_dual_averaging",
    "OptTrace",
    "run_distributed_dual_averaging",
    "running_average",
    "dual_identity_error",
    "measured_mixing_error",
    "mixing_error_bound",
    "optimality_gap_bound",
    "MixingCertificate",
    "certify_mixing_error",
    "GapCertificate",
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

    def partial_sum(self, T: int) -> float:
        """sum_{t=1}^{T} alpha(t-1), which stays below 2*A*sqrt(T) + A."""
        if T <= 0:
            return 0.0
        inv_roots = 1.0 / np.sqrt(np.arange(1, T, dtype=float))
        return float(self.constant) * (1.0 + float(inv_roots.sum()))


def proximal_projection(z, alpha: float, feasible: Box | Ball) -> np.ndarray:
    """argmin over the feasible set of <z, x> + (1/alpha) * (1/2)||x||^2.

    For the quadratic proximal function this is the Euclidean projection of
    -alpha * z.  Accepts a batch of dual vectors in the leading axes.
    """
    if not alpha > 0:
        raise ValueError(f"step must be positive, got {alpha}")
    return feasible.project(-alpha * np.asarray(z, dtype=float))


@dataclass(frozen=True, eq=False)
class CentralizedTrace:
    """Single-machine dual-averaging trajectory."""

    problem: OptProblem
    step: StepSizeSchedule
    estimates: np.ndarray
    duals: np.ndarray

    @property
    def horizon(self) -> int:
        return self.estimates.shape[0] - 1

    def running_average(self, T: int | None = None) -> np.ndarray:
        T = self.horizon if T is None else T
        if not 1 <= T <= self.horizon:
            raise IterationOutOfRangeError(f"need 1 <= T <= {self.horizon}, got {T}")
        return self.estimates[1 : T + 1].mean(axis=0)


def run_centralized_dual_averaging(
    problem: OptProblem, steps: StepSizeSchedule, T: int
) -> CentralizedTrace:
    """Classic dual averaging on the full objective.

    Starting from z = x = 0, each iteration adds a subgradient of the
    averaged objective to z and sets x to the projection of the scaled dual.
    """
    if T < 0:
        raise IterationOutOfRangeError(f"horizon must be >= 0, got {T}")
    d = problem.dim
    estimates = np.zeros((T + 1, d))
    duals = np.zeros((T + 1, d))
    z = np.zeros(d)
    x = np.zeros(d)
    for t in range(1, T + 1):
        z = z + problem.objective_subgradient(x)
        x = proximal_projection(z, steps.alpha(t - 1), problem.feasible)
        duals[t] = z
        estimates[t] = x
    return CentralizedTrace(problem, steps, estimates, duals)


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

    def dual_average(self, t: int) -> np.ndarray:
        """Sum of the dual values over all m nodes, divided by n."""
        self._check_t(t)
        return self.values[t].sum(axis=0) / self.n

    def dual_average_reference(self, t: int) -> np.ndarray:
        """The same average rebuilt from raw subgradients alone."""
        self._check_t(t)
        return self.subgradients[:t].sum(axis=(0, 1)) / self.n


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
    _check_schedule(g, schedule, T)
    n, d = g.n, problem.dim
    ag = augment(g)
    duals = np.zeros((n, d))
    state = _CumulativeState(g, duals)
    values, weights = _allocate(ag, duals, T)
    estimates = np.zeros((T + 1, n, d))
    subgradients = np.zeros((T, n, d))

    x = np.zeros((n, d))
    for t in range(1, T + 1):
        state.convergent_round(schedule.delivered(t))
        grads = np.stack(
            [problem.components[i].subgradient(x[i]) for i in range(n)]
        )
        state.z += grads
        x = proximal_projection(
            state.z / state.w[:, None], steps.alpha(t - 1), problem.feasible
        )
        subgradients[t - 1] = grads
        estimates[t] = x
        state.record(values, weights, t)
    return OptTrace(problem, ag, steps, estimates, values, weights, subgradients)


def running_average(trace: OptTrace, agent: int, T: int | None = None) -> np.ndarray:
    """(1/T) * sum of agent's estimates over iterations 1..T."""
    T = trace.horizon if T is None else T
    if not 1 <= T <= trace.horizon:
        raise IterationOutOfRangeError(f"need 1 <= T <= {trace.horizon}, got {T}")
    if not 1 <= agent <= trace.n:
        raise IterationOutOfRangeError(f"agent {agent} outside 1..{trace.n}")
    return trace.estimates[1 : T + 1, agent - 1].mean(axis=0)


def dual_identity_error(trace: OptTrace, t: int) -> float:
    """Distance between the trace dual average and its subgradient rebuild."""
    return float(
        np.abs(trace.dual_average(t) - trace.dual_average_reference(t)).max()
    )


def measured_mixing_error(trace: OptTrace, t: int) -> float:
    """max_i ||zbar[t] - z_i[t]/w_i[t]|| over real agents."""
    trace._check_t(t)
    diffs = trace.ratios(t) - trace.dual_average(t)
    return float(np.linalg.norm(diffs, axis=1).max())


def _network_factor(beta: float, gamma: float, block: int) -> float:
    """1 / (beta**block (1 - gamma**(1/block)) gamma**((block-1)/block)), the
    network constant of both dual-averaging bounds.

    Infinite when gamma = 0 (a single agent) or beta**block underflows, and
    rounds to infinity when it lies above the float range.
    """
    floor = beta**block
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
    approx = 2.0 * L**2 * A / T * (2.0 * root + 1.0)
    radius = r_sq / (A * root)
    if L == 0.0:
        network = 0.0
    else:
        network = 3.0 * L**2 * A * _network_factor(beta, gamma, block) * (2.0 * root + 1.0) / T
    return approx + radius + network


@dataclass(frozen=True)
class MixingCertificate:
    horizon: int
    first_t: int
    bound: float
    worst_t: int
    worst_error: float
    passed: bool


def certify_mixing_error(trace: OptTrace, B: int, slack: float = 0.0) -> MixingCertificate:
    """Check measured dual disagreement against its uniform bound.

    Evaluates every t from n*B + 1 through the trace horizon and reports the
    iteration with the least margin.
    """
    _, _, block = contraction_constants(trace.graph, B)
    T = trace.horizon
    if T < block:
        raise HorizonTooShortError(f"certification needs T >= {block}, got {T}")
    bound = mixing_error_bound(trace.graph, B, trace.problem.lipschitz_bound)
    n = trace.n
    zbar = trace.values.sum(axis=1) / n
    ratios = trace.values[:, :n] / trace.weights[:, :n, None]
    errors = np.linalg.norm(ratios - zbar[:, None, :], axis=2).max(axis=1)
    window = errors[block : T + 1]
    worst = int(np.argmax(window)) + block
    worst_error = float(errors[worst])
    passed = bool(worst_error <= bound + slack)
    return MixingCertificate(T, block, bound, worst, worst_error, passed)


@dataclass(frozen=True)
class GapCertificate:
    horizon: int
    bound: float
    reference_value: float
    gaps: tuple
    worst_agent: int
    worst_gap: float
    passed: bool


def certify_optimality_gap(
    trace: OptTrace,
    B: int,
    reference: ReferenceSolution | None = None,
    slack: float = 0.0,
) -> GapCertificate:
    """Check every agent's running-average gap against the guarantee.

    ``slack`` absorbs the tolerance of a grid-based reference value; pass
    L * grid_step when the reference was found numerically.
    """
    T = trace.horizon
    bound = optimality_gap_bound(trace.problem, trace.graph, B, trace.step, T)
    if reference is None:
        reference = solve_reference(trace.problem)
    gaps = []
    for agent in range(1, trace.n + 1):
        x_hat = running_average(trace, agent, T)
        gaps.append(trace.problem.objective(x_hat) - reference.value)
    worst = int(np.argmax(gaps))
    passed = bool(gaps[worst] <= bound + slack)
    return GapCertificate(
        T, bound, reference.value, tuple(gaps), worst + 1, float(gaps[worst]), passed
    )
