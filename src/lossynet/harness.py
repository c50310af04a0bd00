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
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import schedules
from .consensus import (
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
from .errors import ConfigError, DimensionMismatchError, _horizon_fits
from .graphs import DirectedGraph, augment, graph_from_spec
from .mixing import CONTRACTION_SLACK, ENTRY_SLACK, _audit_window
from .problems import (
    _COST_KINDS, Ball, Box, OptProblem, _check_reference_dim, _reference_slack, solve_reference
)
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
    _only(spec, ("kind", "radius_sq", *keys), f"{kind} set")
    radius_sq = spec.get("radius_sq")
    if radius_sq is not None:
        radius_sq = _number(radius_sq, f"{kind} set radius_sq")
    if kind == "box":
        cls, args = Box, [_vector(spec, key, "box set") for key in keys]
    else:
        cls, args = Ball, (_number(_field(spec, "radius", "ball set"), "ball set radius"), d)
    try:
        return cls(*args, radius_sq=radius_sq)
    except ValueError as exc:  # lower above upper, unequal lengths, radius <= 0, radius_sq < 0
        raise ConfigError(f"{kind} set: {exc}") from exc


def problem_from_spec(spec: dict) -> OptProblem:
    """Build a problem from its JSON description.

    Expected shape: {"d": int, "set": {"kind": "box"|"ball", ...},
    "components": [{"kind": "linear"|"abs_distance"|"l2_distance", ...}, ...],
    "L": optional float}; a key that none of its objects takes is a ConfigError.
    """
    d = _field(spec, "d", "problem")
    _only(spec, ("d", "set", "components", "L"), "problem")
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
    lipschitz = spec.get("L")
    if lipschitz is not None:
        lipschitz = _number(lipschitz, "problem L")
        _require(lipschitz >= 0, f"problem L must be >= 0, got {lipschitz!r}")
    return OptProblem(tuple(components), fs, lipschitz)


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
    _require(set(window) == {"start", "end"}, "window needs exactly start and end")
    start = _as_positive_int(window.get("start"), "window start")
    end = _as_positive_int(window.get("end"), "window end")
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
    seed = spec.get("seed", 0)
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
    tolerances: dict = field(default_factory=dict)
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

        tolerances = raw.get("tolerances", {})
        _require(isinstance(tolerances, dict), "tolerances must be an object")
        _only(tolerances, mode.tolerances, f"{name} tolerance")
        if "rate_slack" in tolerances:
            algorithm = own["algorithm"]
            _require(
                algorithm == "convergent",
                f"rate_slack needs the convergent algorithm: the {algorithm} one has no rate bound",
            )
        for key, value in tolerances.items():
            _require(_is_number(value), f"tolerance {key} must be a number, got {value!r}")
            _require(_is_finite_number(value), f"tolerance {key} must be finite, got {value!r}")
        tolerances = {k: float(v) for k, v in sorted(tolerances.items())}

        return ExperimentConfig(
            mode=name,
            graph=copy.deepcopy(graph),
            horizon=horizon,
            schedule=schedule,
            tolerances=tolerances,
            **own,
        )

    def to_dict(self) -> dict:
        out: dict = {"mode": self.mode, "graph": copy.deepcopy(self.graph), "horizon": self.horizon}
        if self.schedule is not None:
            out["schedule"] = copy.deepcopy(self.schedule)
        for key in MODES[self.mode].keys:
            out[key] = _jsonable(getattr(self, key))
        if self.tolerances:
            out["tolerances"] = dict(self.tolerances)
        return out

    def tolerance(self, key: str) -> float:
        """The config's value of one of its mode's tolerances, else the mode's default."""
        value = self.tolerances.get(key, MODES[self.mode].tolerances[key])
        return float(value(self) if callable(value) else value)


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


def _build_graph(spec, root: Path | None = None) -> DirectedGraph:
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
    spec: dict | None, T: int, g: DirectedGraph, seed: int | None, root: Path | None = None
) -> tuple[FailureSchedule | None, int | None]:
    """Instantiate the schedule; returns it with the seed that took effect,
    None unless its kind takes one."""
    _require(seed is None or seed >= 0, "schedule seed must be a nonnegative integer")
    if spec is None:
        return None, None
    kind = SCHEDULE_KINDS[spec["kind"]]
    if "seed" not in kind.keys:
        seed = None
    elif seed is None:
        seed = spec.get("seed", 0)
    with _horizon_fits(T) if kind.generated else contextlib.nullcontext():
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


def _texts(keys: np.ndarray) -> np.ndarray:
    """The ``%.17g`` texts of float bit patterns ``keys`` (int64), as an
    object array, in one format call."""
    text = ("%.17g\n" * keys.size % tuple(keys.view(np.float64).tolist())).split("\n")
    return np.array(text[:-1], dtype=object)


def _g17(a: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of every entry of a float array, as an object
    array of its shape.  Each distinct bit pattern is formatted once, in one
    format call: values repeat (the equal shares on one sender's out-links,
    the entries a window product repeats across its rows), and keying on
    bits rather than on equality keeps ``-0`` apart from ``0``."""
    bits = np.asarray(a, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    return _texts(keys)[inverse.reshape(bits.shape)]


# Cells per call of ``_g17``: a writer formats a block of rounds or matrix
# rows at once, so that values repeated across a block are formatted once
# and numpy's cost per call is paid once per block, while the memory a block
# takes stays bounded whatever the horizon or matrix size.
_BLOCK_CELLS = 4096


def _stream_trace(emit, trace, estimates=None) -> None:
    """``trace.csv`` through ``emit``: the header, then one call per round.
    Per node t, id, kind, z and w, then the ratio z / w (NaN for a zero
    weight), or with ``estimates`` the agents' x and empty buffer cells."""
    n, m, d = trace.n, trace.m, trace.dim
    last = "ratio" if estimates is None else "x"
    header = ["t", "node_id", "kind", *(f"z_{k}" for k in range(d)), "w",
              *(f"{last}_{k}" for k in range(d))]
    emit(",".join(header) + "\n")
    # One format per round, node ids and kinds filled in; the cells are t,
    # then the texts of z, w, and the ratio or x (empty for optimize buffers).
    width = 2 * d + 1
    fmt = "".join(
        f"%d,{p + 1},{'real' if p < n else 'virtual'}{',%s' * width}\n" for p in range(m)
    )
    block = max(1, _BLOCK_CELLS // (m * width))
    values = np.empty((block, m, width))
    # Optimize buffers print no x: a constant keeps those cells to one format.
    values[:, n:, d + 1 :] = 0.0
    cells = np.empty((block, m, width + 1), dtype=object)
    for start in range(0, trace.horizon + 1, block):
        stop = min(start + block, trace.horizon + 1)
        v, c = values[: stop - start], cells[: stop - start]
        w = trace.weights[start:stop, :, None]
        v[:, :, :d] = trace.values[start:stop]
        v[:, :, d : d + 1] = w
        if estimates is None:
            v[:, :, d + 1 :] = np.nan
            np.divide(v[:, :, :d], w, out=v[:, :, d + 1 :], where=w != 0)
        else:
            v[:, :n, d + 1 :] = estimates[start:stop]
        c[:, :, 0] = np.arange(start, stop)[:, None]
        c[:, :, 1:] = _g17(v)
        if estimates is not None:
            c[:, n:, d + 2 :] = ""
        for row in c.reshape(stop - start, -1).tolist():
            emit(fmt % tuple(row))


def _stream_psi(emit, product: np.ndarray) -> None:
    """``psi.csv`` for a window product through ``emit``: the header, then
    one call per matrix row of ``row,col,value`` lines, values with 17
    significant digits."""
    m = product.shape[0]
    emit("row,col,value\n")
    # One template for every row with the column ids filled in: each row
    # puts its id in once with ``str.replace``, then ``%`` fills in the
    # row's entry texts.
    template = "".join([f"\0,{j + 1},%s\n" for j in range(m)])
    block = max(1, _BLOCK_CELLS // m)
    # A near-rank-one product repeats its values from block to block: each
    # block looks its bit keys up among the previous block's sorted keys and
    # texts, and formats only the keys it does not find there.
    keys, texts = np.empty(0, dtype=np.int64), np.empty(0, dtype=object)
    for start in range(0, m, block):
        bits = np.asarray(product[start : start + block], dtype=np.float64).view(np.int64)
        new, inverse = np.unique(bits, return_inverse=True)
        at = np.searchsorted(keys, new)
        known = at < keys.size
        known[known] = keys[at[known]] == new[known]
        carried = np.empty(new.size, dtype=object)
        carried[known] = texts[at[known]]
        carried[~known] = _texts(new[~known])
        keys, texts = new, carried
        rows = texts[inverse.reshape(bits.shape)].tolist()
        for i, row in enumerate(rows, start + 1):
            emit(template.replace("\0", str(i)) % tuple(row))


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


def _certification(measured, bound, passed, **where) -> dict:
    """One entry of a summary's ``certifications``: the measured value, its
    bound, the verdict, and where the certificate was taken."""
    return {"measured": measured, "bound": bound, "passed": passed, **where}


def _mass_certifications(trace: ConsensusTrace, rtol: float) -> dict:
    totals = trace.values.sum(axis=1)
    target = trace.inputs.sum(axis=0)
    scale = max(1.0, float(np.abs(target).max()))
    value_dev = float(np.abs(totals - target).max()) / scale
    weight_dev = float(np.abs(trace.weights.sum(axis=1) - trace.n).max()) / trace.n
    return {
        f"{name}_mass_conservation": _certification(dev, rtol, dev <= rtol)
        for name, dev in (("value", value_dev), ("weight", weight_dev))
    }


def _run_consensus(cfg, g, schedule, emit) -> dict:
    y = np.asarray(cfg.inputs, dtype=float)
    trace = _RUNNERS[cfg.algorithm](g, y, schedule, cfg.horizon)
    _stream_trace(emit, trace)

    certifications: dict = {}
    if cfg.horizon >= 1:
        certifications = _mass_certifications(trace, cfg.tolerance("mass_rtol"))
        if cfg.algorithm == "convergent":
            cert = certify_consensus_bound(trace, schedule.window, cfg.tolerance("rate_slack"))
            certifications["consensus_rate_bound"] = _certification(
                cert.worst_error, cert.worst_bound, cert.passed, worst_t=cert.worst_t
            )
    return {
        "n": g.n,
        "algorithm": cfg.algorithm,
        "average_input": trace.average_input,
        "final_error": consensus_error(trace, trace.horizon),
        "certifications": certifications,
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
        gap_slack = cfg.tolerance("gap_slack")
        gap = certify_optimality_gap(trace, B, reference, slack=gap_slack)
        certifications["optimality_gap_bound"] = _certification(
            gap.worst_gap, gap.bound, gap.passed, slack=gap_slack, worst_agent=gap.worst_agent
        )
        summary["per_agent_gap"] = list(gap.gaps)
        mixing = certify_mixing_error(trace, B, slack=cfg.tolerance("mixing_slack"))
        certifications["mixing_error_bound"] = _certification(
            mixing.worst_error, mixing.bound, mixing.passed, worst_t=mixing.worst_t
        )
    return summary


def _run_audit(cfg, g, schedule, emit) -> dict:
    ag = augment(g)
    B = schedule.window
    start, end = cfg.window["start"], cfg.window["end"]
    beta, _, block = contraction_constants(g, B)
    product, contraction, entry = _audit_window(
        ag, schedule, start, end, B,
        cfg.tolerance("contraction_slack"), cfg.tolerance("entry_slack"),
    )
    _stream_psi(emit, product)
    return {
        "n": g.n,
        "b_window": B,
        "window": {"start": start, "end": end},
        "delta": contraction.delta,
        "lambda_product": contraction.lambda_product,
        "gamma_bound": contraction.gamma_bound,
        "min_entry": float(product.min()),
        "beta_bound": beta**block,
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
    file the runner streams, what it does (CLI help, error messages), and
    its tolerances with their defaults, each a number or a function of the
    config."""

    keys: dict
    run: Callable
    artifact: str
    does: str
    tolerances: dict


MODES = {
    "consensus": _Mode(
        {"algorithm": lambda value, horizon: _one_of(value, _RUNNERS, "algorithm"),
         "inputs": _as_inputs},
        _run_consensus, "trace.csv",
        "runs a push-sum variant and certifies its conservation and rate bounds",
        {"mass_rtol": 1e-9, "rate_slack": 0.0},
    ),
    "optimize": _Mode(
        {"problem": _as_problem, "step_constant": _as_step_constant}, _run_optimize, "trace.csv",
        "runs dual averaging over the convergent protocol and certifies its gap and mixing bounds",
        {"gap_slack": lambda cfg: _reference_slack(problem_from_spec(cfg.problem)),
         "mixing_slack": 0.0},
    ),
    "matrix-audit": _Mode(
        {"window": _as_window}, _run_audit, "psi.csv",
        "multiplies the convergent protocol's round matrices over a window and certifies the "
        "product's bounds",
        {"contraction_slack": CONTRACTION_SLACK, "entry_slack": ENTRY_SLACK},
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
    removes ``out_dir`` too when it created it and the directory is empty.
    """
    started = time.perf_counter()
    g = _build_graph(cfg.graph, cfg.root)
    schedule, effective_seed = _build_schedule(cfg.schedule, cfg.horizon, g, seed, cfg.root)
    out_dir = Path(out_dir)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)

    mode = MODES[cfg.mode]
    paths = (out_dir / mode.artifact, out_dir / "summary.json")
    staged = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        with open(staged[0], "w") as fh:

            def emit(text: str) -> None:
                fh.write(text)
                if tee_csv:
                    print(text, end="")

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
        if created:
            with contextlib.suppress(OSError):
                out_dir.rmdir()
        raise
    return artifact
