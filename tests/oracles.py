"""Reference code for the tests: routines the package does not run, kept as
the independent side of a comparison or to build test inputs.

- ``run_centralized_dual_averaging`` is classic dual averaging on the full
  objective, with its step ``proximal_projection``.  On a single agent with
  reliable links the distributed method reduces to it exactly (acceptance
  criterion 10).
- ``subgradients`` is the batched subgradient of every component at its own
  point, through the kernel a distributed run binds.
- ``scripted_schedule`` and ``write_schedule_csv`` build a schedule from an
  explicit table and write the CSV that ``read_schedule_csv`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lossynet import Ball, Box, FailureSchedule, OptProblem, StepSizeSchedule
from lossynet.errors import IterationOutOfRangeError, _check_horizon
from lossynet.graphs import DirectedGraph
from lossynet.schedules import _table_schedule


def subgradients(problem: OptProblem, x) -> np.ndarray:
    """Row i: a subgradient of component i at x[i], for x of shape (n, d)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return problem._subgradient_kernel()(x, np.empty((problem.n_components, problem.dim)))


def objective_subgradient(problem: OptProblem, x) -> np.ndarray:
    """A subgradient of the averaged objective at x: the mean of every
    component's subgradient there."""
    x = np.broadcast_to(np.asarray(x, dtype=float), (problem.n_components, problem.dim))
    return problem._mean(subgradients(problem, x))


def proximal_projection(z, alpha: float, feasible: Box | Ball) -> np.ndarray:
    """argmin over the feasible set of <z, x> + (1/alpha) * (1/2)||x||^2.

    For the quadratic proximal function this is the Euclidean projection of
    -alpha * z.  Accepts a batch of dual vectors in the leading axes.
    """
    if not alpha > 0:
        raise ValueError(f"step must be positive, got {alpha}")
    y = np.multiply(np.asarray(z, dtype=float), -alpha)
    return feasible.project(y)


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
    _check_horizon(T)
    d = problem.dim
    estimates = np.zeros((T + 1, d))
    duals = np.zeros((T + 1, d))
    z = np.zeros(d)
    x = np.zeros(d)
    for t in range(1, T + 1):
        z = z + objective_subgradient(problem, x)
        x = proximal_projection(z, steps.alpha(t - 1), problem.feasible)
        duals[t] = z
        estimates[t] = x
    return CentralizedTrace(problem, steps, estimates, duals)


def scripted_schedule(g: DirectedGraph, T: int, table: dict) -> FailureSchedule:
    """Schedule from an explicit map ((i, j), t) -> {0, 1}.

    The table must cover edges x [1, T] exactly.  The stored window is the
    smallest B the data satisfies; a link with no delivery at all has no such
    B inside the horizon and is rejected.
    """
    _check_horizon(T)
    entries = [
        (int(key[0][0]), int(key[0][1]), int(key[1]), int(value) if value in (0, 1) else -1)
        for key, value in table.items()
    ]
    src, dst, t, value = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    return _table_schedule(g, T, src, dst, t, value)


def write_schedule_csv(schedule: FailureSchedule, path) -> None:
    """Write rows (src, dst, t, indicator), edge-major then time-ascending."""
    row = "%d,%d,%d,%d\n"
    ts = range(1, schedule.horizon + 1)
    with open(path, "w", newline="") as fh:
        fh.write("src,dst,t,indicator\n")
        for (i, j), column in zip(schedule.graph.edges, schedule.indicators.T.tolist()):
            fh.write("".join([row % (i, j, t, v) for t, v in zip(ts, column)]))
