"""Row-stochastic mixing matrices of the convergent protocol.

Each iteration of the convergent robust push-sum moves mass between the m
augmented nodes (agents plus per-edge buffers) linearly: stacking values as a
row vector v, one round is v <- v @ M[t].  This module builds M[t] from a
failure schedule, forms window products, and certifies the two facts the
convergence argument rests on, a positive lower bound on every entry of long
enough products and geometric decay of the column spread.

A window product, and so the audit, fills one round-matrix buffer per
window: each round rewrites only the entries a delivery changes, choosing
each from a per-graph table of its delivered and dropped values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .consensus import (
    ConsensusTrace, _allocate, _check_schedule, _input_matrix, contraction_constants
)
from .errors import (
    DimensionMismatchError,
    IterationOutOfRangeError,
    NotRowStochasticError,
    WindowTooShortError,
    _check_horizon,
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
# The default slacks of the two window-product certificates.  The entry
# certificate needs none: it allows for the product's rounding itself.
CONTRACTION_SLACK = 1e-10
ENTRY_SLACK = 0.0
# Unit roundoff of float64, u = 2**-53.
_UNIT_ROUNDOFF = 2.0**-53


@lru_cache(maxsize=8)
def _round_tables(ag: AugmentedGraph) -> dict:
    """Everything about M[t] but the round's deliveries: the agent diagonal,
    and for each delivery-dependent entry its flat position, its edge, and
    its value when that edge delivers and when it drops.  No two entries
    share a position."""
    g = ag.base
    n, shape = g.n, (ag.m, ag.m)
    D = (g.out_degrees + 1).astype(float)
    src, dst = g.edge_sources, g.edge_destinations
    edges = np.arange(g.num_edges)
    buf = n + edges
    Ds = D[src]
    # Mass arriving at the sender of edge k this round is re-shared
    # immediately, so anything edge f delivers there also reaches k's buffer.
    f, k = g.relay_pairs

    def values(b: np.ndarray) -> np.ndarray:
        # The entries, in the order of "positions", for per-edge deliveries b.
        bf = b[f]
        return np.concatenate([
            b / (Ds * D[dst]),
            b / D[dst],
            1.0 / Ds**2 + (1.0 - b) / Ds,
            1.0 - b,
            bf / (D[src[f]] * Ds[k]),
            bf / Ds[k],
        ])

    at = np.ravel_multi_index
    return {
        "agents": at((np.arange(n), np.arange(n)), shape),
        "agent_keep": 1.0 / D**2,
        "positions": np.concatenate([
            at((src, dst), shape),
            at((buf, dst), shape),
            at((src, buf), shape),
            at((buf, buf), shape),
            at((src[f], buf[k]), shape),
            at((buf[f], buf[k]), shape),
        ]),
        "edges": np.concatenate([edges, edges, edges, edges, f, f]),
        "delivered": values(np.ones(g.num_edges)),
        "dropped": values(np.zeros(g.num_edges)),
    }


def _round_buffer(ag: AugmentedGraph, schedule: FailureSchedule) -> tuple[np.ndarray, dict]:
    """An m x m round matrix with only the agent diagonal written, which no
    delivery changes, and the tables that fill in the rest of a round."""
    if schedule.graph != ag.base:
        raise DimensionMismatchError("schedule was built for a different graph")
    tab = _round_tables(ag)
    M = np.zeros((ag.m, ag.m))
    M.reshape(-1)[tab["agents"]] = tab["agent_keep"]
    return M, tab


def _fill_round(M: np.ndarray, tab: dict, schedule: FailureSchedule, t: int) -> None:
    """Write round t's delivery-dependent entries into the round matrix M."""
    delivered = schedule.delivered(t)[tab["edges"]]
    M.reshape(-1)[tab["positions"]] = np.where(delivered, tab["delivered"], tab["dropped"])


def iteration_matrix(ag: AugmentedGraph, schedule: FailureSchedule, t: int) -> np.ndarray:
    """The m x m matrix M[t] with M[source, destination] entries.

    Row p says how node p + 1 splits its mass this round.  An agent keeps
    1/(d+1)^2 of what it had (it shares over d+1 recipients twice within one
    round), delivered links carry shares onward, and a dropped link leaves
    the edge's buffer holding its own mass plus the sender's fresh share.
    """
    M, tab = _round_buffer(ag, schedule)
    _fill_round(M, tab, schedule, t)
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
    with a list ``lambdas``, also appends lambda(M[k]) for every round.
    Every M[k] is filled into one round buffer: the agent diagonal once per
    window, the delivery-dependent entries once per round."""
    M, tab = _round_buffer(ag, schedule)
    product, spare = np.eye(ag.m), np.empty((ag.m, ag.m))
    for k in range(r, t + 1):
        _fill_round(M, tab, schedule, k)
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
    _check_horizon(T)
    _check_schedule(ag.base, schedule, T)
    inputs = _input_matrix(y, ag.base.n)
    _, values, weights = _allocate(ag, inputs, T)
    for t in range(1, T + 1):
        M = iteration_matrix(ag, schedule, t)
        values[t] = M.T @ values[t - 1]
        weights[t] = M.T @ weights[t - 1]
    return ConsensusTrace(ag, inputs, values, weights)


def _check_row_stochastic(A: np.ndarray) -> tuple[np.ndarray, float]:
    """A as a float array, and its smallest entry."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise NotRowStochasticError(f"expected a non-empty square matrix, got shape {A.shape}")
    sums = A.sum(axis=1)
    # A NaN or infinite entry makes its row sum non-finite as well.
    if not np.isfinite(sums).all():
        raise NotRowStochasticError("matrix has a non-finite entry or row sum")
    low = A.min()
    if low < -ROW_SUM_TOL or np.abs(sums - 1.0).max() > ROW_SUM_TOL:
        raise NotRowStochasticError(
            "matrix is not row stochastic within tolerance "
            f"{ROW_SUM_TOL} (min entry {low}, worst row-sum error "
            f"{np.abs(sums - 1.0).max()})"
        )
    return A, low


def delta_coefficient(A) -> float:
    """Largest spread within any column, max_j (max_i A_ij - min_i A_ij).

    Zero exactly when all rows are identical; at most 1 for row-stochastic
    input.
    """
    A, _ = _check_row_stochastic(A)
    return float((A.max(axis=0) - A.min(axis=0)).max())


def lambda_coefficient(A) -> float:
    """1 minus the smallest overlap between any two rows.

    The overlap of rows a and b is sum_j min(a_j, b_j); disjoint supports give
    coefficient 1, identical rows give 0.  Products contract column spread at
    least this fast.
    """
    A, low = _check_row_stochastic(A)
    if low >= 0.0:
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
    log10_gamma_bound: float
    passed: bool


def _audit_window(
    ag: AugmentedGraph,
    schedule: FailureSchedule,
    r: int,
    t: int,
    B: int,
    contraction_slack: float = CONTRACTION_SLACK,
    entry_slack: float = ENTRY_SLACK,
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
    blocks = (t - r + 1) // block
    gamma_bound = gamma**blocks
    passed = delta <= lam + contraction_slack and delta <= gamma_bound + contraction_slack
    contraction = ContractionReport(
        (r, t), delta, lam, gamma_bound, _log10_gamma_bound(beta**block, blocks), passed
    )
    entry = None
    if t - r + 1 >= block:
        min_entry = float(product.min())
        bound = beta**block
        floor = bound * (1.0 + _product_gamma(t - r + 1, ag.m))
        entry = EntryBoundReport((r, t), min_entry, bound, min_entry >= floor - entry_slack)
    return product, contraction, entry


def _log10_gamma_bound(shortfall: float, blocks: int) -> float:
    """log10 of gamma**blocks for gamma = 1 - shortfall, which neither rounds
    to 1 nor underflows to 0 at large out-degrees or long blocks: 0.0 for no
    block, and -inf where gamma is 0 (a single node, whose shortfall is 1)."""
    if blocks == 0:
        return 0.0
    if shortfall == 1.0:
        return -math.inf
    return blocks * math.log1p(-shortfall) / math.log(10)


def _product_gamma(length: int, m: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) (*Accuracy and Stability of
    Numerical Algorithms*, section 3.5), the rounding allowance of the entry
    check on a product of ``length`` m x m round matrices: k = length *
    (m + 3), and 0 for a single node, whose round matrix is [1].

    Every matrix here is nonnegative, so each rounding is relative to the
    value it makes, and relative errors compose: (1 + gamma_a)(1 + gamma_b)
    <= 1 + gamma_(a + b).  A round matrix's entry is exact (0, 1 - b), one
    quotient of small integers whose products are exact (1 / D**2,
    1 / (D_i D_j), 1 / D), or 1 / D**2 + 1 / D, a sum of two such positive
    quotients; so each carries at most gamma_2.  The product starts from
    the identity, which the first round copies exactly, and each later
    round's inner products have m terms, so each adds gamma_m.  So the
    computed product P' and the exact P satisfy |P' - P| <= gamma_a P
    entrywise, a = 2 * length + m * (length - 1).

    The check computes the bound too: beta = 1 / D**2 carries one rounding,
    which beta**block raises to block = n B + 1 of them, pow adds at most
    one, and the threshold beta**block * (1 + gamma_k) two more: block + 3
    in all.  With block <= length, and m >= 3 whenever a node has a link,
    a + block + 3 <= k.  So a computed smallest entry at or above the computed
    threshold shows that every exact entry is at least beta**(n B + 1);
    the check needs no absolute slack.  The analysis holds while no partial
    product underflows into the subnormal range.  A bound that underflows
    to 0.0 cannot fail: every computed entry is at least 0.0."""
    if m == 1:
        return 0.0
    ku = length * (m + 3) * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def certify_entry_lower_bound(
    ag: AugmentedGraph,
    schedule: FailureSchedule,
    r: int,
    t: int,
    B: int,
    slack: float = ENTRY_SLACK,
) -> EntryBoundReport:
    """Every entry of M[r] ... M[t] is at least beta**(n B + 1) once the
    window spans at least n B + 1 iterations of a B-window schedule.  The
    computed product passes when its smallest entry is at least that bound
    times 1 + gamma_k, its rounding allowance (:func:`_product_gamma`),
    minus ``slack``."""
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
    slack: float = CONTRACTION_SLACK,
) -> ContractionReport:
    """Check both contraction certificates on M[r] ... M[t]:

    delta(product) <= prod_k lambda(M[k]) and
    delta(product) <= gamma**floor(window / (n B + 1)).
    """
    return _audit_window(ag, schedule, r, t, B, contraction_slack=slack)[1]
