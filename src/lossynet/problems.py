"""Convex objective components, feasible sets, and a reference solver.

A problem is a mean of per-agent convex costs minimized over a box or a
Euclidean ball.  Component oracles return a value and one subgradient; at
kinks where 0 is a valid subgradient they return 0, so runs are deterministic.

Each cost kind is declared once, as a class naming its parameter field
(``_PARAM``) and spec name (``_NAME``), with scalar
``value``/``subgradient`` oracles and batched kernels that give their bits.
:class:`OptProblem` stacks its components once, an (n, d) parameter array
and a row mask per kind, which ``objective_at`` and the subgradient kernel
both read.  A run's subgradient kernel (``OptProblem._subgradient_kernel``)
is made once, before the first round, with scratch of its own.  A call
subtracts one offset per row, x[i] minus row i's own parameter, and runs
each kind on all n rows of it at once, the first kind writing every row of
a caller's array and each further kind its own rows (``where=``), so a
round gathers, scatters and allocates nothing in it.  The L2 rows divide by
their norms in one plain call, or, when some row's offset has a zero or
overflowing norm, in the rescued, masked division that keeps the scalar
oracle's +0; both give the same bits.  Likewise a feasible set's
``_projector`` binds one run's projection, the box with its bounds broadcast
to the batch shape.  A finite offset or point whose squared norm overflows
gets the norm rescaled by its largest |entry|, as the certificates' norms
do, in values, subgradients and projections, scalar and batched alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .consensus import _PAIRWISE, _rescue_norms
from .errors import DimensionMismatchError, DimensionTooLargeError

__all__ = [
    "Box",
    "Ball",
    "LinearCost",
    "AbsDistanceCost",
    "L2DistanceCost",
    "OptProblem",
    "ReferenceSolution",
    "solve_reference",
]

GRID_STEP_FRACTION = 1e-4
COARSE_POINTS = 201
# Points per block in OptProblem.objective_at, which keeps its temporaries
# near 1 MB for 8 components at d = 2 however many points it gets.
POINTS_PER_BLOCK = 4096
# OptProblem._mean sums fewer columns than this as Python floats.
FEW_COLUMNS = 8


def _writes(where) -> dict:
    """The ufunc keywords that write where the mask ``where`` is true, or
    none, which write every entry, for ``where`` None: a ``where=True`` adds
    to the cost of a call on a small batch."""
    return {} if where is None else {"where": where}


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each bit for bit the
    ``np.linalg.norm`` of its row.

    That norm is sqrt(x @ x), a BLAS dot that may fuse multiply-adds; the
    stacked row-by-column product takes the same dot, which
    ``(x * x).sum(-1)`` and ``np.linalg.norm(x, axis=-1)`` do not.
    """
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def _shrink(radius: float, x, out) -> np.ndarray:
    """x scaled into the ball of ``radius`` into ``out``, each point by
    radius / its norm where that norm exceeds the radius.  A norm whose
    square overflowed is rescued after one cheap check (as in
    ``L2DistanceCost._kernel``); callers silence numpy's overflow warning."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if not sum(norms.ravel().tolist()) < math.inf:
        norms = _rescue_norms(x, norms[..., 0])[..., None]
    scale = np.where(norms > radius, radius / np.where(norms == 0, 1, norms), 1.0)
    return np.multiply(x, scale, out=out)


def _clip(lower, upper, x, out) -> np.ndarray:
    """x clipped to [lower, upper] into ``out``: ``np.maximum`` then
    ``np.minimum`` give the bits of ``np.clip`` at about 60% of its call
    cost on an (8, 2) batch."""
    return np.minimum(np.maximum(x, lower, out=out), upper, out=out)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("box bounds must be equal-length 1-d arrays")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    @property
    def diameter(self) -> float:
        with np.errstate(over="ignore"):
            width = self.upper - self.lower
            return float(_rescue_norms(width, np.linalg.norm(width)))

    @property
    def psi_radius_sq(self) -> float:
        """The largest (1/2)||x||^2 over the box."""
        with np.errstate(over="ignore"):
            return float(0.5 * np.maximum(self.lower**2, self.upper**2).sum())

    def project(self, x) -> np.ndarray:
        """The nearest point of the box to each point of x."""
        return _clip(self.lower, self.upper, np.asarray(x, dtype=float), None)

    def _projector(self, shape):
        """``project(x)`` written into ``out`` (which may be x itself), as
        ``projector(x, out)`` for one run's float batches of ``shape``,
        with the bounds broadcast to that shape once: a ufunc call with
        equal-shape operands costs less than half of one that broadcasts."""
        return partial(_clip, *(np.broadcast_to(b, shape).copy() for b in (self.lower, self.upper)))

    def contains(self, x, tol: float = 1e-12):
        """Whether x lies in the box up to ``tol``: a bool for one point, a
        boolean array over the leading axes for a batch of points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bounds = zip((self.lower - tol).tolist(), (self.upper + tol).tolist())
        # One coordinate slice at a time: fewer passes than a (k, d) test
        # reduced over its last axis.
        for k, (lo, hi) in enumerate(bounds):
            coordinate = x[..., k]
            if k:
                inside &= coordinate >= lo
            else:
                inside = coordinate >= lo
            inside &= coordinate <= hi
        return bool(inside) if x.ndim == 1 else inside

    # The solver's chord and grid, for its unit sets, whose bounds lie
    # within (-2, 2) (see _unit_set).
    def _axis_interval(self, x, k: int) -> tuple[float, float]:
        return float(self.lower[k]), float(self.upper[k])

    def _grid_axes(self, points: int) -> list[np.ndarray]:
        bounds = zip(self.lower.tolist(), self.upper.tolist())
        return [np.linspace(lo, hi, points) for lo, hi in bounds]


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball of given radius centered at the origin."""

    radius: float
    dim: int

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")

    @property
    def diameter(self) -> float:
        return 2.0 * float(self.radius)

    @property
    def psi_radius_sq(self) -> float:
        """The largest (1/2)||x||^2 over the ball, (1/2) radius**2; infinite
        when the radius squared passes the float range."""
        radius = float(self.radius)
        return 0.5 * (radius * radius)

    def project(self, x) -> np.ndarray:
        """The nearest point of the ball to each point of x.  A finite point
        whose squared norm overflows is scaled by its rescued norm."""
        with np.errstate(over="ignore"):
            return _shrink(self.radius, np.asarray(x, dtype=float), None)

    def _projector(self, shape):
        """``project(x)`` written into ``out`` (which may be x itself), as
        ``projector(x, out)`` for one run's float batches of ``shape``;
        callers run it under ``np.errstate(over="ignore")``."""
        return partial(_shrink, self.radius)

    def contains(self, x, tol: float = 1e-12):
        """Whether x lies in the ball up to ``tol``: a bool for one point, a
        boolean array over the leading axes for a batch of points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore"):
            inside = _rescue_norms(x, _row_norms(x)) <= self.radius + tol
        return bool(inside) if x.ndim == 1 else inside

    # The solver's chord and grid, for its unit sets, whose radius lies
    # within (0, 2) (see _unit_set), so no square leaves the float range.
    def _axis_interval(self, x, k: int) -> tuple[float, float]:
        """The chord of the ball through x along axis k."""
        rest = np.delete(np.asarray(x, dtype=float), k)
        half = float(np.sqrt(max(self.radius**2 - float(np.sum(rest**2)), 0.0)))
        return -half, half

    def _grid_axes(self, points: int) -> list[np.ndarray]:
        return [np.linspace(-self.radius, self.radius, points) for _ in range(self.dim)]


class _Cost:
    """A cost kind: the parameter field ``_PARAM`` names is kept as a 1-d
    float array, whose size is the dimension; ``_NAME`` is its spec name.

    Batched kernels for OptProblem.  ``_values`` takes the parameters of j
    costs of a kind stacked as (j, d); callers silence numpy's overflow
    warning for it.  ``_kernel(params, diff, rows, where)`` makes one run's
    subgradient kernel, ``kernel(out)``, over the (n, d) ``params`` holding
    each row's own parameter and the (n, d) offsets ``diff`` = x - params,
    which the caller fills before each call: row i of ``out`` becomes the
    subgradient at x[i] for a cost of this kind with parameter params[i],
    on every row for ``where`` None, else where the (n, d) mask ``where`` is
    true.  ``rows`` is the (n, 1) mask of this kind's rows.
    """

    def __post_init__(self):
        value = np.atleast_1d(np.asarray(getattr(self, self._PARAM), dtype=float))
        object.__setattr__(self, self._PARAM, value)

    @property
    def dim(self) -> int:
        return int(getattr(self, self._PARAM).size)


@dataclass(frozen=True, eq=False)
class LinearCost(_Cost):
    """h(x) = <c, x>."""

    c: np.ndarray
    _PARAM, _NAME = "c", "linear"

    @property
    def lipschitz(self) -> float:
        with np.errstate(over="ignore"):
            return float(_rescue_norms(self.c, np.linalg.norm(self.c)))

    def value(self, x) -> float:
        return float(self.c @ np.asarray(x, dtype=float))

    def subgradient(self, x) -> np.ndarray:
        return self.c.copy()

    @staticmethod
    def _values(params: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(j, k) values at k points (k, d), each the dot of ``value``."""
        return (params[:, None, None, :] @ points[None, :, :, None])[..., 0, 0]

    @staticmethod
    def _kernel(params: np.ndarray, diff: np.ndarray, rows: np.ndarray, where):
        return partial(np.copyto, src=params, **_writes(where))


@dataclass(frozen=True, eq=False)
class AbsDistanceCost(_Cost):
    """h(x) = sum_k |x_k - a_k|; the scalar absolute distance when d = 1."""

    a: np.ndarray
    _PARAM, _NAME = "a", "abs_distance"

    @property
    def lipschitz(self) -> float:
        return float(np.sqrt(self.dim))

    def value(self, x) -> float:
        return float(np.abs(np.asarray(x, dtype=float) - self.a).sum())

    def subgradient(self, x) -> np.ndarray:
        # sign() is 0 at kinks, where 0 is a valid subgradient; an offset
        # beyond the float range is an infinite one of the same sign.
        with np.errstate(over="ignore"):
            return np.sign(np.asarray(x, dtype=float) - self.a)

    @staticmethod
    def _values(params: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(j, k) values at k points (k, d), each the sum of ``value``.  With
        d < 8 the |offsets| are added one coordinate at a time, left to right
        as numpy sums a short axis."""
        if points.shape[1] >= _PAIRWISE:
            return np.abs(points[None, :, :] - params[:, None, :]).sum(axis=2)
        for k, (coordinate, param) in enumerate(zip(points.T, params.T)):
            term = np.subtract(coordinate, param[:, None])
            np.abs(term, term)
            if k:
                total += term
            else:
                total = term
        return total

    @staticmethod
    def _kernel(params: np.ndarray, diff: np.ndarray, rows: np.ndarray, where):
        return partial(np.sign, diff, **_writes(where))


@dataclass(frozen=True, eq=False)
class L2DistanceCost(_Cost):
    """h(x) = ||x - a||_2."""

    a: np.ndarray
    _PARAM, _NAME = "a", "l2_distance"

    @property
    def lipschitz(self) -> float:
        return 1.0

    def value(self, x) -> float:
        diff = np.asarray(x, dtype=float) - self.a
        with np.errstate(over="ignore"):
            return float(_rescue_norms(diff, np.linalg.norm(diff)))

    def subgradient(self, x) -> np.ndarray:
        diff = np.asarray(x, dtype=float) - self.a
        with np.errstate(over="ignore"):
            norm = _rescue_norms(diff, np.linalg.norm(diff))
        if norm == 0.0:
            return np.zeros_like(diff)
        return diff / norm

    @staticmethod
    def _values(params: np.ndarray, points: np.ndarray) -> np.ndarray:
        diffs = points[None, :, :] - params[:, None, :]
        return _rescue_norms(diffs, _row_norms(diffs))

    @staticmethod
    def _kernel(params: np.ndarray, diff: np.ndarray, rows: np.ndarray, where):
        # Scratch of this kernel alone: the offsets' stacked row and column
        # views for the norm dot of _row_norms, the norms (also as a flat
        # view) and the mask of rows to divide.
        stacked, cols = diff[:, None, :], diff[:, :, None]
        squares = np.empty((len(diff), 1, 1))
        norms, flat_norms = squares[:, :, 0], squares.reshape(-1)
        divided = np.empty(norms.shape, dtype=bool)
        where = True if where is None else where

        def kernel(out):
            np.sqrt(np.matmul(stacked, cols, squares), squares)
            # One check per call, and the cheapest, on the listed norms:
            # their Python sum is finite unless a squared norm overflowed, a
            # norm is NaN or the norms add up beyond the float range.  With
            # a finite sum and no zero norm, one plain division is the
            # masked one below on every row it writes.
            listed = flat_norms.tolist()
            if sum(listed) < math.inf and 0.0 not in listed:
                return np.divide(diff, norms, out, where=where)
            # The rescue changes only the infinite norms of finite offsets.
            # Rows whose norm is 0 (x == a, or an offset whose square
            # underflows) keep the scalar oracle's +0.  Rows of other kinds
            # are skipped: an offset of theirs beyond the float range would
            # divide inf by inf, and warn, for a result that is discarded.
            flat_norms[:] = _rescue_norms(diff, flat_norms)
            np.logical_and(np.not_equal(norms, 0.0, divided), rows, divided)
            np.copyto(out, 0.0, where=where)
            return np.divide(diff, norms, out=out, where=divided)

        return kernel


_COST_KINDS = (LinearCost, AbsDistanceCost, L2DistanceCost)


@dataclass(frozen=True, eq=False)
class OptProblem:
    """Minimize the average of the component costs over the feasible set.

    The bounds' Lipschitz constant is the largest component constant
    (``lipschitz_bound``).  ``optimum`` may carry a known minimizer, which
    :func:`solve_reference` returns directly.
    Components must be ``LinearCost``, ``AbsDistanceCost`` or
    ``L2DistanceCost``; their parameters are copied into one stack here,
    so later changes to a component's array are not seen.
    """

    components: tuple
    feasible: Box | Ball
    optimum: np.ndarray | None = None

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("a problem needs at least one component")
        d = self.feasible.dim
        for c in components:
            if type(c) not in _COST_KINDS:
                raise TypeError(f"unknown cost component {c!r}")
            if c.dim != d:
                raise DimensionMismatchError(
                    f"component dimension {c.dim} != feasible-set dimension {d}"
                )
        object.__setattr__(self, "components", components)
        # The components stacked once for the batched kernels: one (n, d)
        # array of each row's own parameter, and (kind, (n, 1) row mask)
        # for each kind present.
        params = np.array([getattr(c, c._PARAM) for c in components])
        rows = [np.array([[type(c) is kind] for c in components]) for kind in _COST_KINDS]
        kinds = tuple((kind, mask) for kind, mask in zip(_COST_KINDS, rows) if mask.any())
        object.__setattr__(self, "_kinds", kinds)
        object.__setattr__(self, "_params", params)
        # Each kind's own rows and their parameters, for objective_at.
        stacks = tuple((kind, rows[:, 0], params[rows[:, 0]]) for kind, rows in kinds)
        object.__setattr__(self, "_stacks", stacks)
        if self.optimum is not None:
            object.__setattr__(
                self, "optimum", np.atleast_1d(np.asarray(self.optimum, dtype=float))
            )

    @property
    def dim(self) -> int:
        return self.feasible.dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def lipschitz_bound(self) -> float:
        return max(c.lipschitz for c in self.components)

    def _mean(self, rows: np.ndarray) -> np.ndarray:
        """Mean over components of per-component rows (n, k), summed from
        zero in component order; ``np.sum`` may round differently.  Where
        that sum leaves the float range, the rows are summed divided by the
        number of components instead.  A few columns are summed as Python
        floats, which add in IEEE double left to right: the same bits at a
        lower call cost than a numpy pass per row."""
        if rows.shape[1] < FEW_COLUMNS:
            return np.array([_float_mean(column, self.n_components) for column in rows.T.tolist()])
        total = np.zeros(rows.shape[1:])
        with np.errstate(over="ignore"):
            for row in rows:
                total += row
            mean = total / self.n_components
            lost = ~np.isfinite(mean)
            if lost.any():
                mean[lost] = sum(row[lost] / self.n_components for row in rows)
        return mean

    def objective_at(self, points) -> np.ndarray:
        """The objective at each of k points (k, d), as (k,).  A value
        beyond the float range is infinite, and a mean of opposite
        infinities NaN, without a numpy warning."""
        points = np.asarray(points, dtype=float)
        out = np.empty(points.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, points.shape[0], POINTS_PER_BLOCK):
                block = points[start : start + POINTS_PER_BLOCK]
                values = np.empty((self.n_components, block.shape[0]))
                for kind, own, params in self._stacks:
                    values[own] = kind._values(params, block)
                out[start : start + block.shape[0]] = self._mean(values)
        return out

    def _subgradient_kernel(self):
        """One run's ``kernel(x, out)``: row i of ``out`` becomes a
        subgradient of component i at x[i], for x of shape (n, d), with the
        kernel's scratch bound once; callers run it under
        ``np.errstate(over="ignore")``, since a squared norm may overflow
        before it is rescued.

        A call subtracts the offsets x - params once, each row against its
        own parameter, and every kind reads them.  The first kind's kernel
        fills every row of ``out``; each further kind then writes its own
        rows, with ``where=`` an (n, d) mask of them, over the first kind's
        results there.  The L2 rows take one plain division when no row's
        offset has a zero or non-finite norm, and otherwise the rescued,
        masked division, which skips the rows of other kinds; both give the
        same bits where both apply.  Nothing is stored on the problem, so
        runs share no scratch.
        """
        params = self._params
        diff = np.empty(params.shape)
        kernels = tuple(
            kind._kernel(params, diff, rows, np.repeat(rows, self.dim, axis=1) if k else None)
            for k, (kind, rows) in enumerate(self._kinds)
        )

        def kernel(x, out):
            np.subtract(x, params, diff)
            for kind_kernel in kernels:
                kind_kernel(out)
            return out

        return kernel

    def objective(self, x) -> float:
        return float(self.objective_at(np.reshape(x, (1, self.dim)))[0])


def _float_mean(values: list, n: int) -> float:
    """The mean of the floats ``values`` over n, summed from zero left to
    right, or, where that sum leaves the float range, summed divided by n:
    one column of ``OptProblem._mean``.  The loops are explicit: Python's
    ``sum`` compensates its float additions from 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    mean = total / n
    if math.isfinite(mean):
        return mean
    mean = 0.0
    for value in values:
        mean += value / n
    return mean


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    x: np.ndarray
    value: float


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_cut(a, b):
    """a + invphi * (b - a), the golden-section point from a towards b."""
    return a + _INVPHI * (b - a)


def _golden_refine(fun, x: np.ndarray, feasible, step: float, cycles: int = 4) -> np.ndarray:
    """Cyclic per-coordinate golden-section refinement down to width ``step``
    over a unit set (see :func:`_unit_set`); ``fun`` maps k points (k, d) to
    their k values."""
    x = x.copy()
    for _ in range(cycles):
        for k in range(x.size):
            lo, hi = feasible._axis_interval(x, k)
            a, b = lo, hi
            if b - a <= step:
                continue
            c = _golden_cut(b, a)
            d = _golden_cut(a, b)
            xc, xd = x.copy(), x.copy()
            xc[k], xd[k] = c, d
            fc, fd = fun(np.array([xc, xd]))
            while b - a > step:
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = _golden_cut(b, a)
                    xc[k] = c
                    fc = fun(xc[None])[0]
                else:
                    a, c, fc = c, d, fd
                    d = _golden_cut(a, b)
                    xd[k] = d
                    fd = fun(xd[None])[0]
            x[k] = 0.5 * (a + b)
    return x


def _exact_reference(p: OptProblem) -> bool:
    """Whether :func:`solve_reference` gives p's minimum exactly: a known
    optimum is attached, or every component is linear, whose mean has a
    closed-form minimizer."""
    return p.optimum is not None or [kind for kind, _ in p._kinds] == [LinearCost]


def _unit_set(fs: Box | Ball) -> tuple[Box | Ball, int]:
    """``fs`` scaled by 2**-e, and e: e = frexp(top)[1] - 1 for top the
    largest |bound| (a ball's radius), or 0 for top = 0, so that every bound
    of the unit set lies within (-2, 2).  Scaling by a power of two is exact
    while no value leaves the normal range, so a grid, chord, cut or step
    taken on the unit set and scaled back has the bits of the one taken on
    ``fs`` wherever that stays in range, and none of them can overflow."""
    ball = isinstance(fs, Ball)
    top = float(fs.radius) if ball else float(np.abs(np.append(fs.lower, fs.upper)).max())
    e = math.frexp(top)[1] - 1 if top else 0
    if ball:
        return Ball(math.ldexp(top, -e), fs.dim), e
    return Box(np.ldexp(fs.lower, -e), np.ldexp(fs.upper, -e)), e


def _reference_slack(p: OptProblem) -> float:
    """How far the value of :func:`solve_reference` may lie above p's
    minimum: 0 where it is exact, else lipschitz * its grid step, which is
    infinite where it passes the float range."""
    if _exact_reference(p):
        return 0.0
    unit, e = _unit_set(p.feasible)
    with np.errstate(over="ignore"):
        return float(np.ldexp((p.lipschitz_bound * GRID_STEP_FRACTION) * unit.diameter, e))


def _check_reference_dim(p: OptProblem) -> None:
    """The one reference rule: d <= 2, unless :func:`solve_reference` is exact for p."""
    if p.dim > 2 and not _exact_reference(p):
        raise DimensionTooLargeError(
            f"grid search covers d <= 2 only, got d = {p.dim}; a higher dimension needs "
            "linear components only, whose optimum has a closed form, or a known optimum "
            "attached to the OptProblem, which only the library API takes"
        )


def solve_reference(p: OptProblem) -> ReferenceSolution:
    """Reference minimizer and value.

    Uses a known optimum when attached, the closed form for purely linear
    objectives, and otherwise a coarse grid plus golden-section refinement
    for d <= 2, keeping the grid's best point where the refined point's
    value is not at most its value; the value error of the grid path is at
    most about lipschitz * grid step, a step of 1e-4 of the set diameter.
    The grid path runs on the set scaled by 2**-e (``_unit_set``), whose
    points are scaled back before each objective call.  Its grid filter
    lets a point lie 1e-12 outside the set, or 1e-12 * 2**e where the
    set's scale 2**e is below 1.
    """
    _check_reference_dim(p)
    fs = p.feasible
    if _exact_reference(p):
        if p.optimum is not None:
            x = fs.project(p.optimum)
        else:
            cbar = np.mean(p._params, axis=0)
            if isinstance(fs, Ball):
                norm = np.linalg.norm(cbar)
                x = np.zeros(fs.dim) if norm == 0.0 else -fs.radius * cbar / norm
            else:
                zero = fs.project(np.zeros(fs.dim))
                x = np.where(cbar > 0, fs.lower, np.where(cbar < 0, fs.upper, zero))
        return ReferenceSolution(x, p.objective(x))

    unit, e = _unit_set(fs)
    axes = unit._grid_axes(COARSE_POINTS)
    if p.dim == 1:
        candidates = axes[0][:, None]
    else:
        xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
        candidates = np.column_stack([xs.ravel(), ys.ravel()])
        candidates = candidates[unit.contains(candidates, tol=math.ldexp(1e-12, -max(e, 0)))]

    def fun(points):
        return p.objective_at(np.ldexp(points, e))

    # argmin takes the first of tied grid points, as min() over the rows does.
    # A NaN value (a mean of opposite infinities) ranks as +inf.
    values = fun(candidates)
    values[np.isnan(values)] = math.inf
    best = np.argmin(values)
    step = GRID_STEP_FRACTION * unit.diameter
    x = np.ldexp(_golden_refine(fun, candidates[best], unit, step), e)
    value = p.objective(x)
    # A section as wide as a huge box may stop at a point worse than the
    # grid point it started from; the grid point then stays the reference.
    if not value <= values[best]:
        x = np.ldexp(candidates[best], e)
        value = p.objective(x)
    return ReferenceSolution(x, value)
