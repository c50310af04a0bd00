"""Convex objective components, feasible sets, and a reference solver.

A problem is a mean of per-agent convex costs minimized over a box or a
Euclidean ball.  Component oracles return a value and one subgradient; at
kinks where 0 is a valid subgradient they return 0, so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "problem_from_spec",
]

GRID_STEP_FRACTION = 1e-4
COARSE_POINTS = 201


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}."""

    lower: np.ndarray
    upper: np.ndarray
    radius_sq: float | None = None

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
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def psi_radius_sq(self) -> float:
        """Upper bound on (1/2)||x||^2 over the set, overridable via radius_sq."""
        if self.radius_sq is not None:
            return float(self.radius_sq)
        return float(0.5 * np.maximum(self.lower**2, self.upper**2).sum())

    def project(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def axis_interval(self, x, k: int) -> tuple[float, float]:
        return float(self.lower[k]), float(self.upper[k])

    def grid_axes(self, points: int) -> list[np.ndarray]:
        return [np.linspace(self.lower[k], self.upper[k], points) for k in range(self.dim)]


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball of given radius centered at the origin."""

    radius: float
    dim: int
    radius_sq: float | None = None

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
        if self.radius_sq is not None:
            return float(self.radius_sq)
        return 0.5 * float(self.radius) ** 2

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        scale = np.where(norms > self.radius, self.radius / np.where(norms == 0, 1, norms), 1.0)
        return x * scale

    def contains(self, x, tol: float = 1e-12) -> bool:
        return bool(np.linalg.norm(np.asarray(x, dtype=float)) <= self.radius + tol)

    def axis_interval(self, x, k: int) -> tuple[float, float]:
        rest = float(np.sum(np.delete(np.asarray(x, dtype=float), k) ** 2))
        half = float(np.sqrt(max(self.radius**2 - rest, 0.0)))
        return -half, half

    def grid_axes(self, points: int) -> list[np.ndarray]:
        return [np.linspace(-self.radius, self.radius, points) for _ in range(self.dim)]


@dataclass(frozen=True, eq=False)
class LinearCost:
    """h(x) = <c, x>."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))

    @property
    def dim(self) -> int:
        return int(self.c.size)

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.c))

    def value(self, x) -> float:
        return float(self.c @ np.asarray(x, dtype=float))

    def subgradient(self, x) -> np.ndarray:
        return self.c.copy()


@dataclass(frozen=True, eq=False)
class AbsDistanceCost:
    """h(x) = sum_k |x_k - a_k|; the scalar absolute distance when d = 1."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))

    @property
    def dim(self) -> int:
        return int(self.a.size)

    @property
    def lipschitz(self) -> float:
        return float(np.sqrt(self.dim))

    def value(self, x) -> float:
        return float(np.abs(np.asarray(x, dtype=float) - self.a).sum())

    def subgradient(self, x) -> np.ndarray:
        # sign() is 0 at kinks, where 0 is a valid subgradient.
        return np.sign(np.asarray(x, dtype=float) - self.a)


@dataclass(frozen=True, eq=False)
class L2DistanceCost:
    """h(x) = ||x - a||_2."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))

    @property
    def dim(self) -> int:
        return int(self.a.size)

    @property
    def lipschitz(self) -> float:
        return 1.0

    def value(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.a))

    def subgradient(self, x) -> np.ndarray:
        diff = np.asarray(x, dtype=float) - self.a
        norm = np.linalg.norm(diff)
        if norm == 0.0:
            return np.zeros_like(diff)
        return diff / norm


@dataclass(frozen=True, eq=False)
class OptProblem:
    """Minimize the average of the component costs over the feasible set.

    ``lipschitz`` may be supplied when a tighter uniform bound is known;
    otherwise the worst component bound is used.  ``optimum`` may carry a
    known minimizer, which :func:`solve_reference` returns directly.
    """

    components: tuple
    feasible: Box | Ball
    lipschitz: float | None = None
    optimum: np.ndarray | None = None

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ValueError("a problem needs at least one component")
        d = self.feasible.dim
        for c in components:
            if c.dim != d:
                raise DimensionMismatchError(
                    f"component dimension {c.dim} != feasible-set dimension {d}"
                )
        object.__setattr__(self, "components", components)
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
        if self.lipschitz is not None:
            return float(self.lipschitz)
        return max(c.lipschitz for c in self.components)

    def objective(self, x) -> float:
        return sum(c.value(x) for c in self.components) / self.n_components

    def objective_subgradient(self, x) -> np.ndarray:
        total = np.zeros(self.dim)
        for c in self.components:
            total += c.subgradient(x)
        return total / self.n_components


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    x: np.ndarray
    value: float


def _golden_refine(fun, x: np.ndarray, feasible, step: float, cycles: int = 4) -> np.ndarray:
    """Cyclic per-coordinate golden-section refinement down to width ``step``."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x = x.copy()
    for _ in range(cycles):
        for k in range(x.size):
            lo, hi = feasible.axis_interval(x, k)
            a, b = lo, hi
            if b - a <= step:
                continue
            c = b - invphi * (b - a)
            d = a + invphi * (b - a)
            xc, xd = x.copy(), x.copy()
            xc[k], xd[k] = c, d
            fc, fd = fun(xc), fun(xd)
            while b - a > step:
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - invphi * (b - a)
                    xc[k] = c
                    fc = fun(xc)
                else:
                    a, c, fc = c, d, fd
                    d = a + invphi * (b - a)
                    xd[k] = d
                    fd = fun(xd)
            x[k] = 0.5 * (a + b)
    return x


def solve_reference(p: OptProblem, grid_step: float | None = None) -> ReferenceSolution:
    """Reference minimizer and value.

    Uses a known optimum when attached, the closed form for purely linear
    objectives, and otherwise a coarse grid plus golden-section refinement
    for d <= 2; the value error of the grid path is at most about
    lipschitz * grid_step (default step 1e-4 of the set diameter).
    """
    fs = p.feasible
    if p.optimum is not None:
        x = fs.project(p.optimum)
        return ReferenceSolution(x, p.objective(x))

    if all(isinstance(c, LinearCost) for c in p.components):
        cbar = np.mean([c.c for c in p.components], axis=0)
        if isinstance(fs, Ball):
            norm = np.linalg.norm(cbar)
            x = np.zeros(fs.dim) if norm == 0.0 else -fs.radius * cbar / norm
        else:
            x = np.where(cbar > 0, fs.lower, np.where(cbar < 0, fs.upper, fs.project(np.zeros(fs.dim))))
        return ReferenceSolution(x, p.objective(x))

    if p.dim > 2:
        raise DimensionTooLargeError(
            f"grid search covers d <= 2 only, got d = {p.dim}; attach a known optimum"
        )
    step = GRID_STEP_FRACTION * fs.diameter if grid_step is None else float(grid_step)
    axes = fs.grid_axes(COARSE_POINTS)
    if p.dim == 1:
        candidates = axes[0][:, None]
    else:
        xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
        candidates = np.column_stack([xs.ravel(), ys.ravel()])
        keep = [fs.contains(c) for c in candidates]
        candidates = candidates[np.array(keep)]
    best = min(candidates, key=p.objective)
    x = _golden_refine(p.objective, np.asarray(best, dtype=float), fs, step)
    return ReferenceSolution(x, p.objective(x))


def _set_from_spec(spec: dict) -> Box | Ball:
    kind = spec.get("kind")
    if kind == "box":
        return Box(spec["lower"], spec["upper"], radius_sq=spec.get("radius_sq"))
    if kind == "ball":
        return Ball(float(spec["radius"]), int(spec["d"]), radius_sq=spec.get("radius_sq"))
    raise ValueError(f"unknown feasible-set kind {kind!r}")


_COMPONENT_KINDS = {
    "linear": lambda params: LinearCost(params["c"]),
    "abs_distance": lambda params: AbsDistanceCost(params["a"]),
    "l2_distance": lambda params: L2DistanceCost(params["a"]),
}


def problem_from_spec(spec: dict) -> OptProblem:
    """Build a problem from its JSON description.

    Expected shape: {"d": int, "set": {"kind": "box"|"ball", ...},
    "components": [{"kind": "linear"|"abs_distance"|"l2_distance", ...}, ...],
    "L": optional float}.
    """
    d = int(spec["d"])
    set_spec = dict(spec["set"])
    set_spec.setdefault("d", d)
    fs = _set_from_spec(set_spec)
    if fs.dim != d:
        raise DimensionMismatchError(f"feasible set dimension {fs.dim} != d = {d}")
    components = []
    for comp in spec["components"]:
        kind = comp.get("kind")
        if kind not in _COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
        components.append(_COMPONENT_KINDS[kind](comp))
    lipschitz = spec.get("L")
    return OptProblem(tuple(components), fs, None if lipschitz is None else float(lipschitz))
