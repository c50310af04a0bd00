"""Config-driven experiment runner with deterministic artifacts.

A JSON config fully describes one experiment: the graph, the link-failure
schedule, the algorithm inputs, and the horizon.  ``run_experiment`` executes
it, writes a trace CSV and a summary JSON into the output directory, and
reports a pass flag that is the conjunction of every certification attempted.
Given the same config and seed, every output byte is reproducible: floats are
always printed with 17 significant digits, keys are sorted, and nothing
time- or host-dependent is written.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import itertools
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import schedules
from .consensus import (
    Certificate,
    ConsensusTrace,
    certify_consensus_bound,
    consensus_error,
    contraction_constants,
    run_convergent_robust_push_sum,
    run_push_sum,
    run_robust_push_sum,
)
from .dual_averaging import (
    StepSizeSchedule,
    certify_mixing_error,
    certify_optimality_gap,
    run_distributed_dual_averaging,
)
from .errors import ConfigError, DimensionMismatchError
from .graphs import DirectedGraph, augment, graph_from_spec
from .mixing import _audit_window
from .problems import _COST_KINDS, Ball, Box, OptProblem, _check_reference_dim, solve_reference
from .schedules import FailureSchedule

__all__ = [
    "ExperimentConfig",
    "RunArtifact",
    "load_config",
    "problem_from_spec",
    "run_experiment",
    "write_json",
]

# The consensus algorithms, by the name a config gives them.
_RUNNERS = {
    "plain": lambda g, y, sched, T: run_push_sum(g, y, T),
    "robust": run_robust_push_sum,
    "convergent": run_convergent_robust_push_sum,
}


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _only(spec: dict, keys, what: str) -> None:
    """The one unknown-key rule of every config object."""
    extra = set(spec) - set(keys)
    _require(not extra, f"unknown {what} keys: {sorted(extra, key=str)}")


def _field(spec, key: str, where: str):
    """``spec[key]``, or a ConfigError when ``spec`` is not an object with it."""
    _require(isinstance(spec, dict) and key in spec, f"{where} needs {key!r}")
    return spec[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number(value, what: str) -> float:
    _require(_is_finite_number(value), f"{what} must be a finite number, got {value!r}")
    return float(value)


def _vector(spec, key: str, where: str) -> np.ndarray:
    """``spec[key]``, a finite number or a nonempty list of them, as floats."""
    value = _field(spec, key, where)
    items = value if isinstance(value, list) else [value]
    _require(
        items and all(map(_is_finite_number, items)),
        f"{where} {key} must be a finite number or a list of them, got {value!r}",
    )
    return np.array(items, dtype=float)


def _as_positive_int(value, key: str) -> int:
    _require(_is_int(value), f"{key} must be an integer")
    _require(value >= 1, f"{key} must be >= 1, got {value}")
    return value


def _as_horizon(value) -> int:
    _require(_is_int(value) and value >= 0, f"horizon must be a nonnegative integer, got {value!r}")
    return value


def _one_of(value, table: dict, what: str):
    """``value`` when it names an entry of ``table``."""
    names = tuple(table)
    _require(value in names, f"{what} must be one of {names}, got {value!r}")
    return value


def _as_inputs(raw, horizon) -> tuple:
    _require(raw is not None, "consensus mode needs inputs")
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0, "inputs must be a nonempty list")
    flat = all(_is_number(v) for v in raw)
    rows = [[v] for v in raw] if flat else raw
    width = None
    for row in rows:
        _require(
            isinstance(row, (list, tuple)) and all(_is_number(v) for v in row),
            "inputs must be a list of numbers or a list of equal-length number lists",
        )
        width = len(row) if width is None else width
        _require(len(row) == width and width > 0, "input rows must have equal positive length")
    _require(all(_is_finite_number(v) for row in rows for v in row), "inputs must be finite")
    for k, column in enumerate(zip(*rows)):
        # Python float sums overflow to inf without a numpy warning.
        _require(
            math.isfinite(sum(abs(float(v)) for v in column)),
            f"inputs overflow: their magnitudes in coordinate {k} sum beyond the float range",
        )
    values = tuple(tuple(float(v) for v in row) for row in rows)
    return tuple(v for (v,) in values) if flat else values


def _set_from_spec(spec, d: int) -> Box | Ball:
    _require(isinstance(spec, dict), "problem set must be an object")
    kind = spec.get("kind")
    # Compared, not hashed, so any JSON value is looked up.
    keys = ("lower", "upper") if kind == "box" else ("radius",) if kind == "ball" else None
    _require(keys is not None, f"unknown feasible-set kind {kind!r}")
    _only(spec, ("kind", *keys), f"{kind} set")
    if kind == "box":
        cls, args = Box, [_vector(spec, key, "box set") for key in keys]
    else:
        cls, args = Ball, (_number(_field(spec, "radius", "ball set"), "ball set radius"), d)
    try:
        return cls(*args)
    except ValueError as exc:  # lower above upper, unequal lengths, radius <= 0
        raise ConfigError(f"{kind} set: {exc}") from exc


def problem_from_spec(spec: dict) -> OptProblem:
    """Build a problem from its JSON description.

    Expected shape: {"d": int, "set": {"kind": "box"|"ball", ...},
    "components": [{"kind": "linear"|"abs_distance"|"l2_distance", ...}, ...]};
    a key that none of its objects takes is a ConfigError.  The bounds'
    Lipschitz constant and psi radius come from the components and the set
    (``OptProblem.lipschitz_bound``, ``psi_radius_sq``), so no key sets them.
    """
    d = _field(spec, "d", "problem")
    _only(spec, ("d", "set", "components"), "problem")
    _require(_is_int(d) and d >= 1, f"problem d must be a positive integer, got {d!r}")
    fs = _set_from_spec(_field(spec, "set", "problem"), d)
    if fs.dim != d:
        raise DimensionMismatchError(f"feasible set dimension {fs.dim} != d = {d}")
    comps = _field(spec, "components", "problem")
    _require(
        isinstance(comps, list) and comps and all(isinstance(c, dict) for c in comps),
        "problem components must be a nonempty list of objects",
    )
    components = []
    for comp in comps:
        # Names are compared, not hashed, so any JSON value is looked up.
        kind = next((k for k in _COST_KINDS if k._NAME == comp.get("kind")), None)
        _require(kind is not None, f"unknown component kind {comp.get('kind')!r}")
        _only(comp, ("kind", kind._PARAM), f"{kind._NAME} component")
        components.append(kind(_vector(comp, kind._PARAM, f"{kind._NAME} component")))
    return OptProblem(tuple(components), fs)


def _as_problem(value, horizon) -> dict:
    _require(isinstance(value, dict), "optimize mode needs a problem object")
    _check_reference_dim(problem_from_spec(value))
    return copy.deepcopy(value)


def _as_step_constant(value, horizon) -> float:
    _require(
        _is_finite_number(value) and value > 0,
        f"step_constant must be positive and finite, got {value!r}",
    )
    return float(value)


def _as_window(window, horizon) -> dict:
    _require(isinstance(window, dict), 'matrix-audit mode needs {"window": {start, end}}')
    _only(window, ("start", "end"), "window")
    start = _as_positive_int(_field(window, "start", "window"), "window start")
    end = _as_positive_int(_field(window, "end", "window"), "window end")
    _require(start <= end, f"window start {start} exceeds end {end}")
    _require(end <= horizon, f"window end {end} exceeds horizon {horizon}")
    return {"start": start, "end": end}


def _check_graph_spec(spec) -> None:
    """A graph spec is exactly ``{"path": str}`` or exactly ``{"n", "edges"}``."""
    path = isinstance(spec, dict) and isinstance(spec.get("path"), str)
    _require(
        path or isinstance(spec, dict) and {"n", "edges"} <= set(spec),
        'graph needs either {"path": ...} or {"n": ..., "edges": ...}',
    )
    _only(spec, ("path",) if path else ("n", "edges"), "graph")


def _check_bernoulli(spec: dict) -> None:
    p = spec.get("p_drop")
    _require(_is_number(p) and 0.0 <= p < 1.0, f"p_drop must lie in [0, 1), got {p!r}")
    _as_positive_int(spec.get("B"), "schedule B")
    _check_seed(spec.get("seed", 0))


def _check_seed(seed) -> None:
    """The one seed rule, for a config's seed and for an override."""
    _require(_is_int(seed) and seed >= 0, "schedule seed must be a nonnegative integer")


@dataclass(frozen=True)
class _ScheduleKind:
    """A schedule kind: the keys its spec may hold besides ``kind``, its
    ``build(spec, graph, horizon, seed, root)``, the check of the keys'
    values, and whether the schedule is generated over the horizon rather
    than read with its own length."""

    keys: tuple
    build: Callable
    check: Callable = lambda spec: None
    generated: bool = True


SCHEDULE_KINDS = {
    "all_reliable": _ScheduleKind((), lambda s, g, T, seed, root: schedules.all_reliable(g, T)),
    "bernoulli": _ScheduleKind(
        ("p_drop", "B", "seed"),
        lambda s, g, T, seed, root: schedules.bernoulli_b_bounded(g, s["p_drop"], s["B"], T, seed),
        _check_bernoulli,
    ),
    "periodic": _ScheduleKind(
        ("B",),
        lambda s, g, T, seed, root: schedules.periodic_adversarial(g, s["B"], T),
        lambda s: _as_positive_int(s.get("B"), "schedule B"),
    ),
    "csv": _ScheduleKind(
        ("path",),
        lambda s, g, T, seed, root: schedules.read_schedule_csv(g, _located(s["path"], root)),
        lambda s: _require(isinstance(s.get("path"), str), "csv schedule needs a path string"),
        generated=False,
    ),
}


def _check_schedule_spec(spec) -> dict:
    _require(isinstance(spec, dict), "schedule must be an object")
    kind = SCHEDULE_KINDS[_one_of(spec.get("kind"), SCHEDULE_KINDS, "schedule kind")]
    _only(spec, ("kind", *kind.keys), f"{spec['kind']} schedule")
    kind.check(spec)
    return copy.deepcopy(spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable description of one experiment.

    ``from_dict`` and ``to_dict`` round-trip exactly.  A field that
    :data:`MODES` gives to one mode keeps its default under the others.
    ``root`` is the directory that a relative ``graph.path`` or
    ``schedule.path`` is read against: :func:`load_config` sets the config
    file's directory, and None means the working directory.  ``to_dict``
    leaves it out and echoes each path as the config wrote it, so a config
    echoed into a summary reads the same on every host, and re-runs as-is
    from the original config's directory.
    """

    mode: str
    graph: dict
    horizon: int
    schedule: dict | None = None
    algorithm: str = "convergent"
    inputs: tuple | None = None
    problem: dict | None = None
    step_constant: float | None = None
    window: dict | None = None
    root: Path | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        # ``root`` is where the config was read from, not a key of it.
        _only(raw, [f.name for f in fields(ExperimentConfig) if f.name != "root"], "config")
        name = _one_of(raw.get("mode"), MODES, "mode")
        mode = MODES[name]

        graph = raw.get("graph")
        _check_graph_spec(graph)
        horizon = _as_horizon(raw.get("horizon"))
        # Another mode's key is rejected when present, even as null; an own
        # key left out is parsed from its field's default.
        foreign = sorted((set(raw) - set(mode.keys)) & {k for m in MODES.values() for k in m.keys})
        _require(not foreign, f"{name} mode does not take {', '.join(foreign)}: it {mode.does}")
        own = {
            key: parse(raw.get(key, getattr(ExperimentConfig, key)), horizon)
            for key, parse in mode.keys.items()
        }

        schedule = raw.get("schedule")
        if own.get("algorithm") == "plain":
            _require(
                schedule is None,
                "the plain algorithm assumes reliable links; omit the schedule",
            )
        else:
            _require(schedule is not None, f"{name} mode needs a schedule")
            schedule = _check_schedule_spec(schedule)

        return ExperimentConfig(
            mode=name,
            graph=copy.deepcopy(graph),
            horizon=horizon,
            schedule=schedule,
            **own,
        )

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode, "graph": copy.deepcopy(self.graph), "horizon": self.horizon}
        if self.schedule is not None:
            out["schedule"] = copy.deepcopy(self.schedule)
        for key in MODES[self.mode].keys:
            out[key] = _jsonable(getattr(self, key))
        return out


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not text in the locale's encoding
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _read_config(path) -> tuple:
    """A JSON config file's content and the directory that its relative
    ``graph.path`` and ``schedule.path`` are read against: its own."""
    path = Path(path)
    return _read_json(path, "config"), path.resolve().parent


def _located(path: str, root: Path | None) -> str:
    """A file a config names, taken against ``root`` when relative."""
    return path if root is None else str((root / path).resolve())


def load_config(path) -> ExperimentConfig:
    """Parse a config file; relative file references are read against it."""
    raw, root = _read_config(path)
    return replace(ExperimentConfig.from_dict(raw), root=root)


@dataclass(frozen=True, eq=False)
class RunArtifact:
    """Everything one experiment produced.

    ``wall_clock`` is measured but deliberately kept out of the files so that
    identical config and seed give byte-identical artifacts.
    """

    summary: dict
    passed: bool
    trace_path: str | None
    summary_path: str
    wall_clock: float


def _build_graph(spec, root: Path | None) -> DirectedGraph:
    """The graph of a config's graph spec: inline ``{"n": ..., "edges": ...}``
    or ``{"path": ...}`` naming a JSON file that holds the inline form."""
    _check_graph_spec(spec)
    where = "graph"
    if isinstance(spec.get("path"), str):
        path = _located(spec["path"], root)
        where = f"graph file {path}"
        spec = _read_json(Path(path), "graph file")
    _require(
        isinstance(spec, dict) and {"n", "edges"} <= set(spec),
        f'{where} needs {{"n": ..., "edges": ...}}',
    )
    _only(spec, ("n", "edges"), where)
    _as_positive_int(spec["n"], f"{where} n")
    edges = spec["edges"]
    _require(
        isinstance(edges, (list, tuple))
        and all(isinstance(e, (list, tuple)) and len(e) == 2 for e in edges)
        and all(_is_int(v) for e in edges for v in e),
        f"{where} edges must be a list of [i, j] integer pairs",
    )
    return graph_from_spec(spec)


def _build_schedule(
    spec: dict | None, T: int, g: DirectedGraph, seed: int | None, root: Path | None
) -> tuple[FailureSchedule | None, int | None]:
    """Instantiate the schedule; returns it with the seed that took effect,
    None unless its kind takes one."""
    if seed is not None:
        _check_seed(seed)
    if spec is None:
        return None, None
    kind = SCHEDULE_KINDS[spec["kind"]]
    if "seed" not in kind.keys:
        seed = None
    elif seed is None:
        seed = spec.get("seed", 0)
    return kind.build(spec, g, T, seed, root), seed


def schedule_verdict(path, seed: int | None = None) -> dict:
    """Whether the schedule of a ``{"graph", "schedule", "B", "horizon"}``
    config file delivers every link within ``B`` rounds, read as a run
    config is.  ``horizon`` sizes generated schedules; a schedule read from
    a file has its own length and may omit it."""
    raw, root = _read_config(path)
    _require(
        isinstance(raw, dict), 'verify-schedule config needs {"graph", "schedule", "B", "horizon"}'
    )
    _only(raw, ("graph", "schedule", "B", "horizon"), "verify-schedule config")
    g = _build_graph(raw.get("graph"), root)
    B = _as_positive_int(raw.get("B"), "B")
    spec = _check_schedule_spec(raw.get("schedule"))
    horizon = raw.get("horizon")
    generated = SCHEDULE_KINDS[spec["kind"]].generated
    horizon = _as_horizon(0 if horizon is None and not generated else horizon)
    schedule, _ = _build_schedule(spec, horizon, g, seed, root)
    worst_gap = schedules.worst_gap(schedule)
    return {
        "b_window": B,
        "satisfied": worst_gap <= B,
        "worst_gap": worst_gap,
        "schedule_window": schedule.window,
        "horizon": schedule.horizon,
    }


def _ceil_power(y: int) -> float:
    """The smallest double at or above 10**y, from exact integers."""
    t = float(10**y) if y >= 0 else 1 / 10**-y
    num, den = t.as_integer_ratio()
    power_num, power_den = (10**y, 1) if y >= 0 else (1, 10**-y)
    return t if num * power_den >= power_num * den else math.nextafter(t, math.inf)


_SPLITTER = 2.0**27 + 1  # Veltkamp's constant for binary64
_TEXT_WIDTH = 24  # sign, "0.000", 17 digits and at least one space
_FALLBACK = 42  # the group of values left to %.17g; fixed groups are 0..41


@functools.cache
def _text_tables():
    """Built on the first ``_texts`` call: the smallest doubles at or above
    10**-4 ... 10**17; 10**P for P = 0..20 with its Veltkamp split; and the
    4-digit ASCII blocks as uint32 words, the second half with trailing
    zeros as spaces."""
    powers = np.array([_ceil_power(y) for y in range(-4, 18)])
    scale = np.array([float(10**p) for p in range(21)])
    c = _SPLITTER * scale
    scale_hi = c - (c - scale)
    digits = np.empty((10000, 4), dtype=np.uint8)
    rest = np.arange(10000)
    for place in (3, 2, 1, 0):
        rest, digits[:, place] = np.divmod(rest, 10)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    digits += ord("0")
    spaced = np.where(trailing, np.uint8(ord(" ")), digits)
    quad = np.concatenate([digits, spaced]).view(np.uint32).reshape(-1)
    return powers, scale, scale_hi, scale - scale_hi, quad


def _fixed_digits(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-notation digits of float bit patterns ``keys`` (int64):
    each key's group, X + 4 + 21 * (sign bit) for a decimal exponent X in
    -4..16 or ``_FALLBACK`` for a text that ``%.17g`` must make, and its 17
    ASCII digits (an (n, 17) uint8 array), trailing zeros as spaces.

    No rounding error.  Take a = |x|.  X = floor(log10 a) is exact for
    10**-4 <= a < 10**17: a lies between the smallest doubles at or above
    10**X and 10**(X + 1).  Outside, as for ±0, subnormals, ±inf and NaN
    (which sorts last), X is -5 or 17, an exponent-form text.  With
    P = 16 - X, 10**16 <= a * 10**P < 10**17.  For the fixed X (-4..16), P
    is 0..20 and 10**P = 5**P * 2**P, with 5**P < 2**53, is a double: its
    double-double residual is 0.  Dekker's product with Veltkamp splits
    (Numer. Math. 1971; no FMA) then gives a * 10**P = p + e exactly, as
    a >= 10**-4 and a * 10**P <= 10**17 keep every split and partial
    product far from overflow and underflow.  p >= 10**16 > 2**53 is an
    even integer and |e| <= ulp(p) / 2 <= 8, so D = p + rint(e) is
    a * 10**P rounded half to even, the rounding of ``%.17g``: the error is
    0, so no margin around ties is needed.  D is below 10**17 unless
    a * 10**P >= 10**17 - 1/2 rounds up a decade; such a value falls back
    (no double next to a power of ten in the fixed range does).  So do
    ±0, subnormals, NaN, ±inf and exponent-form texts (X < -4 or X >= 17).
    The float temporaries are reused in place and freed before the digit
    stage."""
    powers, scale, scale_hi, scale_lo, quad = _text_tables()
    a = np.abs(keys.view(np.float64))
    X = np.searchsorted(powers, a, side="right")
    X -= 5
    slow = (X < -4) | (X > 16)
    # Rows left to %.17g compute the digits of 10**16, with no overflow.
    a[slow] = 1e16
    P = 16 - X
    P[slow] = 0
    # Dekker's product, term by term in the order
    # e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo.
    p = scale[P]
    p *= a
    b_hi, b_lo = scale_hi[P], scale_lo[P]
    a_hi = _SPLITTER * a
    e = a_hi - a
    a_hi -= e
    a -= a_hi  # a_lo
    np.multiply(a_hi, b_hi, out=e)
    e -= p
    e += np.multiply(a_hi, b_lo, out=a_hi)
    e += np.multiply(a, b_hi, out=b_hi)
    e += np.multiply(a, b_lo, out=b_lo)
    D = p.astype(np.int64)
    D += np.rint(e, out=e).astype(np.int64)
    del a, p, e, a_hi, b_hi, b_lo
    slow |= D >= 10**17
    # D as a lead digit and four 4-digit blocks; a block followed by zero
    # blocks only takes its ASCII from the half with trailing spaces.
    # In D's and P's buffers: D // 10**8 and D % 10**8, then the lead.
    blocks = np.empty((4, D.size), dtype=np.int64)
    np.divmod(D, 10**8, out=(D, P))
    np.divmod(P, 10**4, out=(blocks[2], blocks[3]))
    lead, hi = np.divmod(D, 10**8, out=(P, D))
    np.divmod(hi, 10**4, out=(blocks[0], blocks[1]))
    zeros = np.logical_and.accumulate(blocks[:0:-1] == 0)[::-1]
    np.add(blocks[:3], 10000, out=blocks[:3], where=zeros)
    blocks[3] += 10000
    words = np.empty((D.size, 5), dtype=np.uint32)
    words[:, 1:] = quad[blocks.T]
    digits = words.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + ord("0")
    X += 4
    X[keys < 0] += 21
    X[slow] = _FALLBACK
    return X, digits


def _laid_out(keys: np.ndarray) -> tuple[np.ndarray, bytes]:
    """The groups of ``keys`` (as ``_fixed_digits`` gives them) and their
    fixed-notation texts, one per key, as an ASCII buffer of n rows of 24
    bytes, space-padded; a fallback row holds a ``?`` placeholder.

    Each row gets its key's digits laid out per group: ``ddd.ddd`` (integer
    zeros kept, ``.`` dropped when nothing follows) or ``0.000ddd``.  Sorted
    keys put each group in one run of rows, so a few slice copies fill the
    buffer; any order gives the same texts.  The digits end with this call,
    before the caller splits the buffer."""
    group, digits = _fixed_digits(keys)
    out = np.full((keys.size, _TEXT_WIDTH), ord(" "), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [keys.size]):
        row, d = out[start:stop], digits[start:stop]
        if group[start] == _FALLBACK:  # a placeholder, replaced by _texts
            row[:, 0] = ord("?")
            continue
        negative, exp = divmod(int(group[start]), 21)
        exp -= 4
        if negative:
            row[:, 0] = ord("-")
            row = row[:, 1:]
        if exp < 0:
            row[:, : 1 - exp] = ord("0")
            row[:, 1] = ord(".")
            row[:, 1 - exp : 18 - exp] = d
        else:
            np.bitwise_or(d[:, : exp + 1], 0x10, out=row[:, : exp + 1])  # " " | 0x10 is "0"
            if exp < 16:
                np.minimum(d[:, exp + 1], ord("."), out=row[:, exp + 1])  # "." unless " "
                row[:, exp + 2 : 18] = d[:, exp + 1 :]
    return group, out.tobytes()


def _texts(keys: np.ndarray) -> np.ndarray:
    """The ``%.17g`` texts of float bit patterns ``keys`` (int64), as an
    object array of ASCII bytes: one whitespace split of the buffer of
    ``_laid_out``, with its fallback rows from ``%.17g`` itself."""
    group, buffer = _laid_out(keys)
    texts = buffer.split()
    slow = np.flatnonzero(group == _FALLBACK)
    printf = (b"%.17g\n" * slow.size % tuple(keys[slow].view(np.float64).tolist())).split()
    for i, text in zip(slow.tolist(), printf):
        texts[i] = text
    return np.array(texts, dtype=object)


# Cells per block of ``_emit_lines``: a writer formats a block of rounds or
# matrix rows at once, so that values repeated across a block are formatted
# once and numpy's cost per call is paid once per block, while the memory a
# block takes stays bounded whatever the horizon or matrix size.
_BLOCK_CELLS = 16384


def _emit_lines(emit, template: bytes, blocks) -> None:
    """One ``emit`` per group (a round, a matrix row) of ``blocks``, which
    yields (labels, values) with one row of values per label: the bytes of
    ``template`` with each ``\\0`` set to the label and each ``%s`` to a
    value's ``%.17g`` text.  Values repeat (equal shares on one sender's
    out-links, entries a window product repeats across rows), so a block
    keys them on their bits, which keeps ``-0`` apart from ``0``, and
    formats each key once."""
    for labels, values in blocks:
        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        keys, inverse = np.unique(bits, return_inverse=True)
        texts = _texts(keys)[inverse.reshape(bits.shape)]
        for label, row in zip(labels, texts.tolist()):
            emit(template.replace(b"\0", b"%d" % label) % tuple(row))


def _stream_trace(emit, trace, estimates=None) -> None:
    """``trace.csv`` through ``emit``, as ASCII bytes: the header, then one
    call per round.  Per node t, id, kind, z and w, then the ratio z / w
    (NaN for a zero weight), or with ``estimates`` the agents' x and empty
    buffer cells."""
    n, m, d = trace.n, trace.m, trace.dim
    last = "ratio" if estimates is None else "x"
    header = ["t", "node_id", "kind", *(f"z_{k}" for k in range(d)), "w",
              *(f"{last}_{k}" for k in range(d))]
    emit(",".join(header).encode() + b"\n")
    # One template per round, node ids and kinds filled in.  Optimize
    # buffers print no x: their x cells are empty text in the template, and
    # their values stop at w.
    width = 2 * d + 1
    buffer_tail = b",%s" * d if estimates is None else b"," * d
    template = b"".join(
        [b"\0,%d,real%s\n" % (p + 1, b",%s" * width) for p in range(n)]
        + [b"\0,%d,virtual%s%s\n" % (p + 1, b",%s" * (d + 1), buffer_tail) for p in range(n, m)]
    )
    rounds = max(1, _BLOCK_CELLS // (m * width))
    values = np.empty((rounds, m, width))

    def blocks():
        for start in range(0, trace.horizon + 1, rounds):
            stop = min(start + rounds, trace.horizon + 1)
            k = stop - start
            v, w = values[:k], trace.weights[start:stop, :, None]
            v[:, :, :d] = trace.values[start:stop]
            v[:, :, d : d + 1] = w
            if estimates is None:
                v[:, :, d + 1 :] = np.nan
                np.divide(v[:, :, :d], w, out=v[:, :, d + 1 :], where=w != 0)
                cells = v.reshape(k, -1)
            else:
                v[:, :n, d + 1 :] = estimates[start:stop]
                cells = np.hstack((v[:, :n].reshape(k, -1), v[:, n:, : d + 1].reshape(k, -1)))
            yield range(start, stop), cells

    _emit_lines(emit, template, blocks())


def _stream_psi(emit, product: np.ndarray) -> None:
    """``psi.csv`` for a window product through ``emit``, as ASCII bytes:
    the header, then one call per matrix row of ``row,col,value`` lines,
    values with 17 significant digits."""
    m = product.shape[0]
    emit(b"row,col,value\n")
    rows = max(1, _BLOCK_CELLS // m)
    _emit_lines(
        emit,
        b"".join(b"\0,%d,%%s\n" % (j + 1) for j in range(m)),
        ((range(start + 1, start + rows + 1), product[start : start + rows])
         for start in range(0, m, rows)),
    )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a summary")


def _render_json(obj, indent: int) -> str:
    pad = "  " * (indent + 1)
    close = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"NaN"'
        if math.isinf(obj):
            return '"Infinity"' if obj > 0 else '"-Infinity"'
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(not isinstance(v, (dict, list)) for v in obj):
            inline = "[" + ", ".join(_render_json(v, 0) for v in obj) + "]"
            if len(inline) <= 72:
                return inline
        items = [f"{pad}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    if not obj:
        return "{}"
    items = [
        f"{pad}{json.dumps(k)}: {_render_json(obj[k], indent + 1)}" for k in sorted(obj)
    ]
    return "{\n" + ",\n".join(items) + f"\n{close}}}"


def write_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats,
    non-finite floats as the strings "Infinity", "-Infinity", "NaN"."""
    return _render_json(_jsonable(obj), 0) + "\n"


def _certification(cert: Certificate) -> dict:
    """One entry of a summary's ``certifications``: the record's measured
    value, its bound, the verdict, and where the certificate was taken."""
    return {"measured": cert.measured, "bound": cert.bound, "passed": cert.passed, **cert.where}


# The mass certificates' allowance: mass is conserved exactly, so the
# relative deviation they pass is float rounding only.
MASS_RTOL = 1e-9


def _mass_certificates(trace: ConsensusTrace) -> dict[str, Certificate]:
    totals = trace.values.sum(axis=1)
    target = trace.inputs.sum(axis=0)
    scale = max(1.0, float(np.abs(target).max()))
    value_dev = float(np.abs(totals - target).max()) / scale
    weight_dev = float(np.abs(trace.weights.sum(axis=1) - trace.n).max()) / trace.n
    return {
        f"{name}_mass_conservation": Certificate(dev, MASS_RTOL, dev <= MASS_RTOL)
        for name, dev in (("value", value_dev), ("weight", weight_dev))
    }


def _run_consensus(cfg, g, schedule, emit) -> dict:
    y = np.asarray(cfg.inputs, dtype=float)
    trace = _RUNNERS[cfg.algorithm](g, y, schedule, cfg.horizon)
    _stream_trace(emit, trace)

    certificates: dict[str, Certificate] = {}
    if cfg.horizon >= 1:
        certificates = _mass_certificates(trace)
        if cfg.algorithm == "convergent":
            certificates["consensus_rate_bound"] = certify_consensus_bound(trace, schedule.window)
    return {
        "n": g.n,
        "algorithm": cfg.algorithm,
        "average_input": trace.average_input,
        "final_error": consensus_error(trace, trace.horizon),
        "certifications": {name: _certification(c) for name, c in certificates.items()},
    }


def _run_optimize(cfg, g, schedule, emit) -> dict:
    problem = problem_from_spec(cfg.problem)
    steps = StepSizeSchedule(cfg.step_constant)
    trace = run_distributed_dual_averaging(g, problem, schedule, steps, cfg.horizon)
    _stream_trace(emit, trace, trace.estimates)

    B = schedule.window
    _, _, block = contraction_constants(g, B)
    certifications: dict = {}
    reference = solve_reference(problem)
    summary = {
        "n": g.n,
        "dim": trace.dim,
        "step_constant": cfg.step_constant,
        "b_window": B,
        "reference": {"x": reference.x, "value": reference.value},
        "certifications": certifications,
    }
    if cfg.horizon >= block:
        gap = certify_optimality_gap(trace, B)
        certifications["optimality_gap_bound"] = {**_certification(gap), "slack": gap.allowance}
        summary["per_agent_gap"] = list(gap.detail["per_agent_gap"])
        certifications["mixing_error_bound"] = _certification(certify_mixing_error(trace, B))
    return summary


def _run_audit(cfg, g, schedule, emit) -> dict:
    ag = augment(g)
    B = schedule.window
    start, end = cfg.window["start"], cfg.window["end"]
    product, contraction, entry = _audit_window(ag, schedule, start, end, B)
    _stream_psi(emit, product)
    return {
        "n": g.n,
        "b_window": B,
        "window": {"start": start, "end": end},
        "delta": contraction.measured,
        # lambda_product, gamma_bound, log10_gamma_bound, beta_bound and
        # log10_beta_bound.
        **contraction.detail,
        # The entry certificate measured the product's minimum already.
        "min_entry": float(product.min()) if entry is None else entry.measured,
        "pass_flags": {
            "entry_lower_bound": None if entry is None else entry.passed,
            "row_contraction": contraction.passed,
        },
    }


def _collect_pass(summary: dict) -> bool:
    flags = [c["passed"] for c in summary.get("certifications", {}).values()]
    flags += [v for v in summary.get("pass_flags", {}).values() if v is not None]
    return all(flags)


@dataclass(frozen=True)
class _Mode:
    """An experiment mode: its config keys with their parsers ``(value,
    horizon)``, its runner ``(cfg, graph, schedule, emit) -> summary``, the
    file the runner streams, and what it does (CLI help, error messages)."""

    keys: dict
    run: Callable
    artifact: str
    does: str


MODES = {
    "consensus": _Mode(
        {"algorithm": lambda value, horizon: _one_of(value, _RUNNERS, "algorithm"),
         "inputs": _as_inputs},
        _run_consensus, "trace.csv",
        "runs a push-sum variant and certifies its conservation and rate bounds",
    ),
    "optimize": _Mode(
        {"problem": _as_problem, "step_constant": _as_step_constant}, _run_optimize, "trace.csv",
        "runs dual averaging over the convergent protocol and certifies its gap and mixing bounds",
    ),
    "matrix-audit": _Mode(
        {"window": _as_window}, _run_audit, "psi.csv",
        "multiplies the convergent protocol's round matrices over a window and certifies the "
        "product's bounds",
    ),
}


def run_experiment(
    cfg: ExperimentConfig, out_dir, seed: int | None = None, tee_csv: bool = False
) -> RunArtifact:
    """Execute one experiment and write its artifacts into ``out_dir``.

    ``seed`` overrides the schedule seed from the config; it only matters for
    randomized schedules.  The returned artifact's ``passed`` flag is the
    conjunction of every certification in the summary.  The trace CSV and
    ``summary.json`` are written under ``.tmp`` names and renamed once both
    are complete; a run that raises removes them and leaves neither, and
    removes the directories it created for ``out_dir`` too, leaf first,
    while each is empty.
    """
    started = time.perf_counter()
    g = _build_graph(cfg.graph, cfg.root)
    schedule, effective_seed = _build_schedule(cfg.schedule, cfg.horizon, g, seed, cfg.root)
    out_dir = Path(out_dir)
    created = list(itertools.takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))
    out_dir.mkdir(parents=True, exist_ok=True)

    mode = MODES[cfg.mode]
    paths = (out_dir / mode.artifact, out_dir / "summary.json")
    staged = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        with open(staged[0], "wb") as fh:

            def emit(data: bytes) -> None:
                fh.write(data)
                if tee_csv:
                    print(data.decode("ascii"), end="")

            summary = mode.run(cfg, g, schedule, emit)

        passed = _collect_pass(summary)
        summary.update(
            {"mode": cfg.mode, "horizon": cfg.horizon, "seed": effective_seed, "pass": passed,
             "config": cfg.to_dict()}
        )

        artifact = RunArtifact(
            summary=summary,
            passed=passed,
            trace_path=str(paths[0]),
            summary_path=str(paths[1]),
            wall_clock=time.perf_counter() - started,
        )
        staged[1].write_text(write_json(summary))
        for tmp, path in zip(staged, paths):
            tmp.replace(path)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            for path in created:
                path.rmdir()
        raise
    return artifact
