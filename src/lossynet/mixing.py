"""Row-stochastic mixing matrices of the convergent protocol.

Each iteration of the convergent robust push-sum moves mass between the m
augmented nodes (agents plus per-edge buffers) linearly: stacking values as a
row vector v, one round is v <- v @ M[t].  This module builds M[t] from a
failure schedule, forms window products, and certifies the two facts the
convergence argument rests on, a positive lower bound on every entry of long
enough products and geometric decay of the column spread.  Each verdict is a
:class:`~lossynet.consensus.Certificate` located by its window: the entry
certificate measures the product's smallest entry against beta**(n B + 1),
the contraction certificate its column spread against the smaller of the
lambda product and gamma**blocks.

A window product, and so the audit, fills one round-matrix buffer per
window: each round rewrites only the entries a delivery changes, choosing
each from a per-graph table of its delivered and dropped values.  The
tables are certified once per graph to fill a row-stochastic matrix for
every delivery pattern, so the audit checks no round matrix row by row.
The tables also tell once per graph whether some row can never meet row
0's support, which makes every round's lambda 1.0; only the rounds of
other graphs take the dense coefficient.  The matrix recursion fills the
same buffer.  The product starts as a copy of its first round matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .consensus import (
    Certificate, ConsensusTrace, _allocate, _block_floor, _check_schedule, _input_matrix,
    contraction_constants,
)
from .errors import (
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
]

ROW_SUM_TOL = 1e-8
# The contraction certificate's rounding allowance.  The entry certificate
# takes none: it allows for the product's rounding itself.
CONTRACTION_SLACK = 1e-10
# Unit roundoff of float64, u = 2**-53.
_UNIT_ROUNDOFF = 2.0**-53


def _table_entries(ag: AugmentedGraph) -> dict:
    """Everything about M[t] but the round's deliveries: the agent diagonal,
    and for each delivery-dependent entry its flat position, its edge, and
    its value when that edge delivers and when it drops."""
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


@lru_cache(maxsize=8)
def _round_tables(ag: AugmentedGraph) -> dict:
    """The tables of :func:`_table_entries`, certified row stochastic for
    every delivery pattern (:func:`_certify_tables`), and ``"disjoint"``,
    whether lambda is 1.0 in every round (:func:`_always_disjoint`)."""
    tab = _table_entries(ag)
    _certify_tables(ag, tab)
    tab["disjoint"] = _always_disjoint(ag.m, tab)
    return tab


def _certify_tables(ag: AugmentedGraph, tab: dict) -> None:
    """Raise NotRowStochasticError, naming the node and the link, unless
    every round matrix the tables can fill passes the dense check of
    :func:`_check_row_stochastic`, whatever the deliveries.

    Positions: distinct, inside m x m and off the agent diagonal, so a
    round buffer holds the agent keeps, one value of each entry, and zeros.
    Values: each agent keep and each entry's delivered and dropped value
    finite and at least -ROW_SUM_TOL.  Row sums: row r holds its agent keep
    kappa_r (0 for a buffer) and entries j with values delta_j and rho_j on
    edges e_j, at most m in all.  Each entry follows the delivery of one
    edge, so under deliveries b the exact row sum is affine,
    s_r(b) - 1 = x_r + sum_e c_re b_e with x_r = kappa_r + sum_j rho_j - 1
    and c_re = sum_(e_j = e) (delta_j - rho_j).  Over all b it ranges
    exactly over [x_r + N_r, x_r + P_r], P_r and N_r the sums of the
    positive and of the negative c_re, so the worst |s_r(b) - 1| is
    Q_r = max(|x_r + P_r|, |x_r + N_r|).  The groups (r, e) come from a
    sort of the entries' keys: O(P) memory for P entries.

    Rounding allowance, with Higham's gamma_k (:func:`_gamma`) and
    S_r = |kappa_r| + sum_j (|delta_j| + |rho_j|).  The dense check sums a
    row of m entries: its computed sum lies within gamma_(m-1) S_r of
    s_r(b), and subtracting 1 from it is exact (Sterbenz) near 1, so it
    passes on every round when Q_r + gamma_(m-1) S_r <= ROW_SUM_TOL.  The
    computed certificate: x'_r sums at most m terms and then subtracts 1,
    exactly wherever the row can pass (x_r lies between x_r + N_r and
    x_r + P_r, so |x'_r| <= ROW_SUM_TOL there), and lies within
    gamma_(m-1) S_r of x_r; each delta_j - rho_j is rounded once and each
    c_re sums at most m of them, so the c'_re lie within gamma_m S_r of the
    c_re in all ((1 + u)(1 + gamma_(m-1)) <= 1 + gamma_m); and summing
    the parts of the c'_re, adding x'_r and taking the larger magnitude
    costs a relative gamma_m on values of at most 2 ROW_SUM_TOL where the
    row passes, below gamma_m S_r / 10**7, as S_r >= s_r(b) >= 1/2.  So
    Q_r + gamma_(m-1) S_r <= Q'_r + 4 gamma_m S_r.  The computed S'_r, at
    most 2 m terms, is at least (1 - gamma_(2 m)) S_r, so the allowance
    4 gamma_(2 m) S'_r, less the roundings of adding it and comparing,
    covers 4 gamma_m S_r: a row whose computed Q'_r plus its allowance is
    at most ROW_SUM_TOL passes the dense check in every round of every
    window, with ROW_SUM_TOL unchanged."""
    g, m, n = ag.base, ag.m, ag.base.n
    positions, edges = tab["positions"], tab["edges"]
    delivered, dropped, keep = tab["delivered"], tab["dropped"], tab["agent_keep"]
    rows, cols = np.divmod(positions, m)

    def fail(node: int, edge: int | None) -> NotRowStochasticError:
        link = "no link" if edge is None else f"link {g.edges[edge]}"
        return NotRowStochasticError(
            f"round tables: the row of node {node + 1} of {m}, {link}, is not row "
            f"stochastic within {ROW_SUM_TOL} for every delivery pattern"
        )

    def valid(value: np.ndarray) -> np.ndarray:
        return np.isfinite(value) & (value >= -ROW_SUM_TOL)

    order = np.argsort(positions, kind="stable")
    shared = np.zeros(positions.size, dtype=bool)
    shared[order[1:]] = positions[order[1:]] == positions[order[:-1]]
    bad = (positions < 0) | (positions >= m * m) | ((rows == cols) & (rows < n)) | shared
    bad |= ~valid(delivered) | ~valid(dropped)
    if bad.any():
        j = int(np.argmax(bad))
        raise fail(int(rows[j]), int(edges[j]))
    keys = edges * m + rows
    groups = np.sort(keys)
    new = np.ones(groups.size, dtype=bool)
    new[1:] = groups[1:] != groups[:-1]
    groups = groups[new]
    swing = np.bincount(np.searchsorted(groups, keys), weights=delivered - dropped,
                        minlength=groups.size)
    group_rows = groups % m
    owners = np.concatenate([rows, np.arange(n)])
    offset = np.bincount(owners, weights=np.concatenate([dropped, keep]), minlength=m) - 1.0
    rise = np.bincount(group_rows, weights=np.maximum(swing, 0.0), minlength=m)
    fall = np.bincount(group_rows, weights=np.minimum(swing, 0.0), minlength=m)
    error = np.maximum(np.abs(offset + rise), np.abs(offset + fall))
    size = np.abs(np.concatenate([delivered, dropped, keep]))
    size = np.bincount(np.concatenate([rows, owners]), weights=size, minlength=m)
    bad = ~(error + 4.0 * _gamma(2 * m) * size <= ROW_SUM_TOL)
    bad[:n] |= ~valid(keep)
    if bad.any():
        r = int(np.argmax(bad))
        mine = np.flatnonzero(rows == r)
        raise fail(r, int(edges[mine[0]]) if mine.size else None)


def _always_disjoint(m: int, tab: dict) -> bool:
    """Whether lambda is 1.0 in every round the tables can fill: every table
    value is at least 0, and some row has no agent-diagonal or table entry
    in any column row 0 can reach, so it never meets row 0's support: the
    two rows overlap by exactly 0 in :func:`lambda_coefficient`, and no pair
    by less.  A negative value (within tolerance) can make an overlap
    negative, so the rounds of such tables take the dense coefficient."""
    if min(tab["agent_keep"].min(initial=0.0), tab["delivered"].min(initial=0.0),
           tab["dropped"].min(initial=0.0)) < 0.0:
        return False
    rows, cols = np.divmod(np.concatenate([tab["agents"], tab["positions"]]), m)
    reach = np.zeros(m, dtype=bool)
    reach[cols[rows == 0]] = True
    return not np.bincount(rows[reach[cols]], minlength=m).all()


def _round_buffer(ag: AugmentedGraph, schedule: FailureSchedule) -> tuple[np.ndarray, dict]:
    """An m x m round matrix with only the agent diagonal written, which no
    delivery changes, and the tables that fill in the rest of a round."""
    _check_schedule(ag.base, schedule, 0)
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
    window, the delivery-dependent entries once per round.  The product
    starts as a copy of M[r]: np.eye(m) @ M[r] has the same entries, since
    every term besides 1 * M[r][i, j] is an exact 0 for the finite,
    certified entries (:func:`_certify_tables`); an empty window gives the
    identity."""
    M, tab = _round_buffer(ag, schedule)
    product, spare = np.empty_like(M), np.empty_like(M)
    for k in range(r, t + 1):
        _fill_round(M, tab, schedule, k)
        if k == r:
            np.copyto(product, M)
        else:
            np.matmul(product, M, out=spare)
            product, spare = spare, product
        if lambdas is not None:
            lambdas.append(1.0 if tab["disjoint"] else lambda_coefficient(M))
    return product if r <= t else np.eye(ag.m)


def evolve_by_matrices(
    ag: AugmentedGraph, schedule: FailureSchedule, y, T: int
) -> ConsensusTrace:
    """Run the matrix recursion v[t] = v[t-1] @ M[t] from the standard start
    (inputs and unit weights on agents, empty buffers).

    Must reproduce :func:`~lossynet.consensus.run_convergent_robust_push_sum`
    up to floating-point noise; the simulation and the matrices are two
    independent encodings of the same round.  Each M[t] is filled into one
    round buffer, as in a window product.
    """
    _check_horizon(T)
    _check_schedule(ag.base, schedule, T)
    inputs = _input_matrix(y, ag.base.n)
    _, values, weights = _allocate(ag, inputs, T)
    M, tab = _round_buffer(ag, schedule)
    for t in range(1, T + 1):
        _fill_round(M, tab, schedule, t)
        values[t] = M.T @ values[t - 1]
        weights[t] = M.T @ weights[t - 1]
    return ConsensusTrace(ag, inputs, values, weights)


def _check_row_stochastic(A: np.ndarray) -> np.ndarray:
    """A as a float array."""
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
    overlap = np.min([np.minimum(row, A).sum(axis=1).min() for row in A])
    return float(1.0 - overlap)


def _audit_window(
    ag: AugmentedGraph, schedule: FailureSchedule, r: int, t: int, B: int
) -> tuple[np.ndarray, Certificate, Certificate | None]:
    """Both certificates of M[r] ... M[t] from one pass over the window.

    Each M[k] is built once, advances the product and contributes its
    lambda.  Returns the product, the contraction certificate, and the entry
    certificate, which is None when the window is shorter than one block.
    The contraction's bound is min(prod lambda, gamma**blocks): rounding is
    monotone, so adding the slack to the smaller one gives the verdict of
    both checks.
    """
    if r > t:
        raise IterationOutOfRangeError(f"window [{r}, {t}] is empty")
    beta, gamma, block = contraction_constants(ag.base, B)
    floor, log10_floor = _block_floor(beta, block)
    _check_window(schedule, r, t)
    lambdas: list[float] = []
    product = _window_product(ag, schedule, r, t, lambdas)
    lam = math.prod(lambdas)
    delta = delta_coefficient(product)
    blocks = (t - r + 1) // block
    gamma_bound = gamma**blocks
    bound = min(lam, gamma_bound)
    contraction = Certificate(
        delta, bound, delta <= bound + CONTRACTION_SLACK, {"window": (r, t)}, CONTRACTION_SLACK,
        {"lambda_product": lam, "gamma_bound": gamma_bound,
         "log10_gamma_bound": _log10_gamma_bound(floor, blocks),
         "beta_bound": floor, "log10_beta_bound": log10_floor},
    )
    entry = None
    if t - r + 1 >= block:
        min_entry = float(product.min())
        threshold = floor * (1.0 + _product_gamma(t - r + 1, ag.m))
        entry = Certificate(min_entry, floor, min_entry >= threshold, {"window": (r, t)})
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
    quotients; so each carries at most gamma_2.  The product starts as an
    exact copy of the first round matrix, and each later round's inner
    products have m terms, so each adds gamma_m.  So the computed
    product P' and the exact P satisfy |P' - P| <= gamma_a P
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
    return 0.0 if m == 1 else _gamma(length * (m + 3))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u of float64."""
    ku = k * _UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def certify_entry_lower_bound(
    ag: AugmentedGraph, schedule: FailureSchedule, r: int, t: int, B: int
) -> Certificate:
    """Every entry of M[r] ... M[t] is at least beta**(n B + 1) once the
    window spans at least n B + 1 iterations of a B-window schedule.  The
    computed product passes when its smallest entry, ``measured``, is at
    least that ``bound`` times 1 + gamma_k, its rounding allowance
    (:func:`_product_gamma`); ``where`` is ``{"window": (r, t)}``."""
    _, _, block = contraction_constants(ag.base, B)
    if t - r + 1 < block:
        raise WindowTooShortError(
            f"window [{r}, {t}] spans {t - r + 1} < {block} iterations"
        )
    return _audit_window(ag, schedule, r, t, B)[2]


def certify_contraction(
    ag: AugmentedGraph, schedule: FailureSchedule, r: int, t: int, B: int
) -> Certificate:
    """Check both contraction certificates on M[r] ... M[t]:

    delta(product) <= prod_k lambda(M[k]) and
    delta(product) <= gamma**floor(window / (n B + 1)),

    each up to :data:`CONTRACTION_SLACK`, the record's ``allowance``.
    ``measured`` is delta, ``bound`` the smaller of the two, ``where`` is
    ``{"window": (r, t)}``, and ``detail`` holds ``lambda_product``,
    ``gamma_bound``, ``log10_gamma_bound``, and the block floor
    beta**(n B + 1) as ``beta_bound`` with its log10, ``log10_beta_bound``.
    """
    return _audit_window(ag, schedule, r, t, B)[1]
