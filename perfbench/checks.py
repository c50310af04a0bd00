"""Output checks, each computed apart from lossynet.

Every check returns a list of failure messages; an empty list means the
output is right.  The reference numbers (input sums and means, the
objective and its minimum, the entry floor, the column spread) are
computed here from the benchmark's own inputs and the raw artifacts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MASS_RTOL = 1e-9
RATIO_ATOL = 1e-9
ROW_SUM_ATOL = 1e-9
STATE_RTOL = 1e-9
# The running averages may exceed the centralized dual-averaging bound by
# this factor; see perfbench/README.md for the derivation.
GAP_FACTOR = 3.0


def _summary(out_dir: Path) -> dict:
    return json.loads((out_dir / "summary.json").read_text())


def check_consensus(out_dir: Path, code: int, inputs, m: int, T: int) -> list:
    """Exit code and pass flag; per-round value and weight totals over all
    m nodes against the inputs' own sums; final agent ratios against the
    inputs' mean."""
    if code != 0:
        return [f"exit code {code}"]
    fails = []
    if _summary(out_dir).get("pass") is not True:
        fails.append("summary pass is not true")
    path = out_dir / "trace.csv"
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "t,node_id,kind,z_0,w,ratio_0":
        return fails + [f"unexpected trace header {header!r}"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1, 3, 4), ndmin=2)
    if data.shape[0] != (T + 1) * m:
        return fails + [f"trace has {data.shape[0]} rows, expected {(T + 1) * m}"]
    t, node, z, w = (data[:, k].reshape(T + 1, m) for k in range(4))
    if np.any(t != np.arange(T + 1)[:, None]) or np.any(node != np.arange(1, m + 1)):
        return fails + ["trace rows are not ordered by round, then node"]
    y = np.asarray(inputs, dtype=float)
    n = y.size
    value_dev = np.abs(z.sum(axis=1) - y.sum())
    weight_dev = np.abs(w.sum(axis=1) - n)
    for label, dev, scale in (("value", value_dev, abs(y.sum())), ("weight", weight_dev, n)):
        bad = np.flatnonzero(dev > MASS_RTOL * scale)
        if bad.size:
            fails.append(f"{label} mass off by {dev[bad[0]]:.3g} in round {bad[0]}")
    ratio_err = np.abs(z[T, :n] / w[T, :n] - y.mean())
    if not ratio_err.max() <= RATIO_ATOL:
        fails.append(f"final ratio of agent {int(np.argmax(ratio_err)) + 1} "
                     f"off the input mean by {ratio_err.max():.3g}")
    return fails


def objective(points, anchors, is_abs) -> np.ndarray:
    """Mean over agents of |x - a_i|_1 (is_abs) or |x - a_i|_2, for points
    of shape (..., 2)."""
    diff = np.asarray(points, dtype=float)[..., None, :] - anchors
    l1 = np.abs(diff).sum(axis=-1)
    l2 = np.sqrt((diff**2).sum(axis=-1))
    return np.where(is_abs, l1, l2).mean(axis=-1)


def minimum(anchors, is_abs, lo: float, hi: float, points: int = 201, zooms: int = 10) -> float:
    """Minimum of ``objective`` over the square [lo, hi]^2 by a zooming grid.

    The first grid alone is within L * h / sqrt(2) of the minimum (h the grid
    step, L <= sqrt(2) the Lipschitz constant); each zoom keeps a 4-cell
    margin around the best point and only lowers the value found.
    """
    a, b = np.array([lo, lo]), np.array([hi, hi])
    best = math.inf
    for _ in range(zooms):
        axes = [np.linspace(a[k], b[k], points) for k in range(2)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        values = objective(grid, anchors, is_abs)
        k = np.unravel_index(np.argmin(values), values.shape)
        best = min(best, float(values[k]))
        h = (b - a) / (points - 1)
        a = np.maximum(grid[k] - 4 * h, lo)
        b = np.minimum(grid[k] + 4 * h, hi)
    return best


def gap_tolerance(T: int, step: float, lipschitz: float, psi_radius: float) -> float:
    """GAP_FACTOR times the centralized dual-averaging bound
    psi(x*)/(A sqrt(T)) + L^2 A (2 sqrt(T) + 1)/(2T): O(1/sqrt(T))."""
    root = math.sqrt(T)
    central = psi_radius / (step * root) + lipschitz**2 * step * (2 * root + 1) / (2 * T)
    return GAP_FACTOR * central


def check_optimize(estimates, anchors, is_abs, box, f_star: float, tolerance: float,
                   certificates: dict) -> list:
    """Estimates inside the box; every agent's running average within
    ``tolerance`` of the benchmark's own minimum; both certificates pass."""
    fails = []
    lo, hi = box
    x = np.asarray(estimates)
    if x.min() < lo or x.max() > hi:
        fails.append(f"estimate outside the box [{lo}, {hi}]: {x.min():.6g}..{x.max():.6g}")
    averages = x[1:].mean(axis=0)
    gaps = objective(averages, anchors, is_abs) - f_star
    if not gaps.max() <= tolerance:
        fails.append(f"agent {int(np.argmax(gaps)) + 1} running-average gap "
                     f"{gaps.max():.4g} exceeds {tolerance:.4g}")
    fails += [f"certificate {name} failed" for name, ok in certificates.items() if not ok]
    return fails


def read_psi(path: Path, m: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    psi = np.full((m, m), np.nan)
    psi[data[:, 0].astype(int) - 1, data[:, 1].astype(int) - 1] = data[:, 2]
    if data.shape[0] != m * m or np.isnan(psi).any():
        raise ValueError(f"psi.csv does not hold every entry of a {m} x {m} matrix")
    return psi


def check_audit(out_dir: Path, code: int, m: int, floor: float, start_state,
                end_state) -> list:
    """Exit code; psi rows sum to 1 and entries are >= 0 and >= the entry
    floor; the summary's delta is the column spread of psi; the start state
    times psi is the simulated state at the window end.

    ``start_state`` and ``end_state`` are (m, 2) arrays of (value, weight)."""
    if code != 0:
        return [f"exit code {code}"]
    fails = []
    try:
        psi = read_psi(out_dir / "psi.csv", m)
    except ValueError as exc:
        return [str(exc)]
    row_sums = psi.sum(axis=1)
    worst = int(np.argmax(np.abs(row_sums - 1.0)))
    if not abs(row_sums[worst] - 1.0) <= ROW_SUM_ATOL:
        fails.append(f"psi row {worst + 1} sums to {row_sums[worst]!r}")
    if psi.min() < 0.0:
        fails.append(f"negative psi entry {psi.min():.3g}")
    elif psi.min() < floor:
        fails.append(f"smallest psi entry {psi.min():.3g} below beta^(nB+1) = {floor:.3g}")
    spread = float((psi.max(axis=0) - psi.min(axis=0)).max())
    delta = _summary(out_dir).get("delta")
    if delta != spread:
        fails.append(f"summary delta {delta!r} is not the column spread {spread!r}")
    start = np.asarray(start_state, dtype=float)
    end = np.asarray(end_state, dtype=float)
    moved = start.T @ psi
    err = np.abs(moved - end.T).max(axis=1) / np.maximum(np.abs(end).max(axis=0), 1.0)
    if not err.max() <= STATE_RTOL:
        fails.append(f"start state times psi is off the simulated window end by {err.max():.3g}")
    return fails
