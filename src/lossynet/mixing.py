"""Row-stochastic mixing matrices of the convergent protocol.

Each iteration of the convergent robust push-sum moves mass between the m
augmented nodes (agents plus per-edge buffers) linearly: stacking values as a
row vector v, one round is v <- v @ M[t].  This module builds M[t] from a
failure schedule, forms window products, and certifies the two facts the
convergence argument rests on, a positive lower bound on every entry of long
enough products and geometric decay of the column spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .consensus import ConsensusTrace, _allocate, _input_matrix, contraction_constants
from .errors import (
    DimensionMismatchError,
    IterationOutOfRangeError,
    NotRowStochasticError,
    WindowTooShortError,
)
from .graphs import AugmentedGraph
from .schedules import FailureSchedule

__all__ = [
    "iteration_matrix",
    "matrix_product",
    "evolve_by_matrices",
    "delta_coefficient",
    "lambda_coefficient",
    "certify_entry_lower_bound",
    "certify_contraction",
    "EntryBoundReport",
    "ContractionReport",
]

ROW_SUM_TOL = 1e-8


@lru_cache(maxsize=8)
def _round_tables(ag: AugmentedGraph) -> dict:
    """The parts of M[t] that do not depend on the round's deliveries: the
    flat position of each entry group and the degree terms of its formula."""
    g = ag.base
    n, shape = g.n, (ag.m, ag.m)
    D = (g.out_degrees + 1).astype(float)
    src, dst = g.edge_sources, g.edge_destinations
    buf = n + np.arange(g.num_edges)
    Ds = D[src]
    f, k = g.relay_pairs
    at = np.ravel_multi_index
    return {
        "agents": at((np.arange(n), np.arange(n)), shape),
        "agent_keep": 1.0 / D**2,
        "agent_out": at((src, dst), shape),
        "agent_out_den": Ds * D[dst],
        "buffer_out": at((buf, dst), shape),
        "buffer_out_den": D[dst],
        "sender_keep": at((src, buf), shape),
        "sender_keep_base": 1.0 / Ds**2,
        "sender_keep_den": Ds,
        "buffer_keep": at((buf, buf), shape),
        "relay_edges": f,
        "relay": at((src[f], buf[k]), shape),
        "relay_den": D[src[f]] * Ds[k],
        "buffer_relay": at((buf[f], buf[k]), shape),
        "buffer_relay_den": Ds[k],
    }


def iteration_matrix(ag: AugmentedGraph, schedule: FailureSchedule, t: int) -> np.ndarray:
    """The m x m matrix M[t] with M[source, destination] entries.

    Row p says how node p + 1 splits its mass this round.  An agent keeps
    1/(d+1)^2 of what it had (it shares over d+1 recipients twice within one
    round), delivered links carry shares onward, and a dropped link leaves
    the edge's buffer holding its own mass plus the sender's fresh share.
    """
    if schedule.graph != ag.base:
        raise DimensionMismatchError("schedule was built for a different graph")
    b = schedule.delivered(t).astype(float)
    tab = _round_tables(ag)
    M = np.zeros((ag.m, ag.m))
    entries = M.reshape(-1)
    entries[tab["agents"]] = tab["agent_keep"]
    entries[tab["agent_out"]] = b / tab["agent_out_den"]
    entries[tab["buffer_out"]] = b / tab["buffer_out_den"]
    entries[tab["sender_keep"]] = tab["sender_keep_base"] + (1.0 - b) / tab["sender_keep_den"]
    entries[tab["buffer_keep"]] = 1.0 - b
    # Mass arriving at the sender of edge k this round is re-shared
    # immediately, so anything edge f delivers there also reaches k's buffer.
    bf = b[tab["relay_edges"]]
    entries[tab["relay"]] = bf / tab["relay_den"]
    entries[tab["buffer_relay"]] = bf / tab["buffer_relay_den"]
    return M


def _check_window(schedule: FailureSchedule, r: int, t: int) -> None:
    if r < 1 or t > schedule.horizon or r > t + 1:
        raise IterationOutOfRangeError(
            f"window [{r}, {t}] invalid for horizon {schedule.horizon}"
        )


def matrix_product(
    ag: AugmentedGraph, schedule: FailureSchedule, r: int, t: int
) -> np.ndarray:
    """M[r] @ M[r+1] @ ... @ M[t]; the identity when r == t + 1."""
    _check_window(schedule, r, t)
    return _window_product(ag, schedule, r, t)


def _window_product(ag, schedule, r, t, lambdas=None) -> np.ndarray:
    """M[r] @ ... @ M[t] in two m x m buffers that swap roles each round;
    with a list ``lambdas``, also appends lambda(M[k]) for every round."""
    product, spare = np.eye(ag.m), np.empty((ag.m, ag.m))
    for k in range(r, t + 1):
        M = iteration_matrix(ag, schedule, k)
        np.matmul(product, M, out=spare)
        product, spare = spare, product
        if lambdas is not None:
            lambdas.append(lambda_coefficient(M))
    return product


def evolve_by_matrices(
    ag: AugmentedGraph, schedule: FailureSchedule, y, T: int
) -> ConsensusTrace:
    """Run the matrix recursion v[t] = v[t-1] @ M[t] from the standard start
    (inputs and unit weights on agents, empty buffers).

    Must reproduce :func:`~lossynet.consensus.run_convergent_robust_push_sum`
    up to floating-point noise; the simulation and the matrices are two
    independent encodings of the same round.
    """
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    if schedule.horizon < T:
        raise IterationOutOfRangeError(
            f"schedule covers {schedule.horizon} iterations, run needs {T}"
        )
    inputs = _input_matrix(y, ag.base.n)
    _, values, weights = _allocate(ag, inputs, T)
    for t in range(1, T + 1):
        M = iteration_matrix(ag, schedule, t)
        values[t] = M.T @ values[t - 1]
        weights[t] = M.T @ weights[t - 1]
    return ConsensusTrace(ag, inputs, values, weights)


def _check_row_stochastic(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotRowStochasticError(f"expected a square matrix, got shape {A.shape}")
    sums = A.sum(axis=1)
    # A NaN or infinite entry makes its row sum non-finite as well.
    if not np.isfinite(sums).all():
        raise NotRowStochasticError("matrix has a non-finite entry or row sum")
    if A.size and (A.min() < -ROW_SUM_TOL or np.abs(sums - 1.0).max() > ROW_SUM_TOL):
        raise NotRowStochasticError(
            "matrix is not row stochastic within tolerance "
            f"{ROW_SUM_TOL} (min entry {A.min()}, worst row-sum error "
            f"{np.abs(sums - 1.0).max()})"
        )
    return A


def delta_coefficient(A) -> float:
    """Largest spread within any column, max_j (max_i A_ij - min_i A_ij).

    Zero exactly when all rows are identical; at most 1 for row-stochastic
    input.
    """
    A = _check_row_stochastic(A)
    return float((A.max(axis=0) - A.min(axis=0)).max())


def lambda_coefficient(A) -> float:
    """1 minus the smallest overlap between any two rows.

    The overlap of rows a and b is sum_j min(a_j, b_j); disjoint supports give
    coefficient 1, identical rows give 0.  Products contract column spread at
    least this fast.
    """
    A = _check_row_stochastic(A)
    if A.min() >= 0.0:
        # Two rows with disjoint supports overlap by exactly 0, and no pair
        # overlaps by less.  A negative entry within tolerance can make an
        # overlap negative, so that case takes the row-by-row minimum.
        # Row 0 against every other row first: one gather, and the m x m
        # support Gram matrix only when that finds no disjoint pair.
        support = A > 0.0
        if not support[:, support[0]].any(axis=1).all():
            return 1.0
        support = support.astype(float)
        if (support @ support.T == 0.0).any():
            return 1.0
    overlap = np.min([np.minimum(row, A).sum(axis=1).min() for row in A])
    return float(1.0 - overlap)


@dataclass(frozen=True)
class EntryBoundReport:
    """Positive lower bound check on every entry of a window product."""

    window: tuple[int, int]
    min_entry: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ContractionReport:
    """Column-spread decay check for a window product."""

    window: tuple[int, int]
    delta: float
    lambda_product: float
    gamma_bound: float
    passed: bool


def _audit_window(
    ag: AugmentedGraph,
    schedule: FailureSchedule,
    r: int,
    t: int,
    B: int,
    contraction_slack: float = 1e-10,
    entry_slack: float = 1e-12,
) -> tuple[np.ndarray, ContractionReport, EntryBoundReport | None]:
    """Both certificates of M[r] ... M[t] from one pass over the window.

    Each M[k] is built once, advances the product and contributes its
    lambda.  Returns the product, the contraction report, and the entry
    report, which is None when the window is shorter than one block.
    """
    if r > t:
        raise IterationOutOfRangeError(f"window [{r}, {t}] is empty")
    beta, gamma, block = contraction_constants(ag.base, B)
    _check_window(schedule, r, t)
    lambdas: list[float] = []
    product = _window_product(ag, schedule, r, t, lambdas)
    lam = math.prod(lambdas)
    delta = delta_coefficient(product)
    gamma_bound = gamma ** ((t - r + 1) // block)
    passed = delta <= lam + contraction_slack and delta <= gamma_bound + contraction_slack
    contraction = ContractionReport((r, t), delta, lam, gamma_bound, passed)
    entry = None
    if t - r + 1 >= block:
        min_entry = float(product.min())
        bound = beta**block
        entry = EntryBoundReport((r, t), min_entry, bound, min_entry >= bound - entry_slack)
    return product, contraction, entry


def certify_entry_lower_bound(
    ag: AugmentedGraph,
    schedule: FailureSchedule,
    r: int,
    t: int,
    B: int,
    slack: float = 1e-12,
) -> EntryBoundReport:
    """Every entry of M[r] ... M[t] is at least beta**(n B + 1) once the
    window spans at least n B + 1 iterations of a B-window schedule."""
    _, _, block = contraction_constants(ag.base, B)
    if t - r + 1 < block:
        raise WindowTooShortError(
            f"window [{r}, {t}] spans {t - r + 1} < {block} iterations"
        )
    return _audit_window(ag, schedule, r, t, B, entry_slack=slack)[2]


def certify_contraction(
    ag: AugmentedGraph,
    schedule: FailureSchedule,
    r: int,
    t: int,
    B: int,
    slack: float = 1e-10,
) -> ContractionReport:
    """Check both contraction certificates on M[r] ... M[t]:

    delta(product) <= prod_k lambda(M[k]) and
    delta(product) <= gamma**floor(window / (n B + 1)).
    """
    return _audit_window(ag, schedule, r, t, B, contraction_slack=slack)[1]
