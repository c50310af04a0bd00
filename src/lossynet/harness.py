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

import copy
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field, fields
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
from .errors import ConfigError, LossyNetError
from .graphs import DirectedGraph, augment, graph_from_spec
from .mixing import _audit_window
from .problems import GRID_STEP_FRACTION, LinearCost, problem_from_spec, solve_reference
from .schedules import FailureSchedule

__all__ = [
    "ExperimentConfig",
    "RunArtifact",
    "load_config",
    "run_experiment",
    "emit_summary",
    "write_json",
]

MODES = ("consensus", "optimize", "matrix-audit")
ALGORITHMS = ("plain", "robust", "convergent")
SCHEDULE_KINDS = ("all_reliable", "bernoulli", "periodic", "csv")
TOLERANCE_KEYS = (
    "mass_rtol",
    "rate_slack",
    "entry_slack",
    "contraction_slack",
    "gap_slack",
    "mixing_slack",
)

_RUNNERS = {
    "plain": lambda g, y, sched, T: run_push_sum(g, y, T),
    "robust": run_robust_push_sum,
    "convergent": run_convergent_robust_push_sum,
}


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_positive_int(value, key: str) -> int:
    _require(_is_int(value), f"{key} must be an integer")
    _require(value >= 1, f"{key} must be >= 1, got {value}")
    return value


def _normalize_inputs(raw) -> tuple:
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0, "inputs must be a nonempty list")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        return tuple(float(v) for v in raw)
    rows = []
    width = None
    for row in raw:
        _require(
            isinstance(row, (list, tuple))
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row),
            "inputs must be a list of numbers or a list of equal-length number lists",
        )
        width = len(row) if width is None else width
        _require(len(row) == width and width > 0, "input rows must have equal positive length")
        rows.append(tuple(float(v) for v in row))
    return tuple(rows)


def _check_graph_spec(spec) -> None:
    _require(
        isinstance(spec, dict)
        and (isinstance(spec.get("path"), str) or {"n", "edges"} <= set(spec)),
        'graph needs either {"path": ...} or {"n": ..., "edges": ...}',
    )


def _check_schedule_spec(spec) -> dict:
    _require(isinstance(spec, dict), "schedule must be an object")
    kind = spec.get("kind")
    _require(kind in SCHEDULE_KINDS, f"schedule kind must be one of {SCHEDULE_KINDS}, got {kind!r}")
    allowed = {
        "all_reliable": {"kind"},
        "bernoulli": {"kind", "p_drop", "B", "seed"},
        "periodic": {"kind", "B"},
        "csv": {"kind", "path"},
    }[kind]
    extra = set(spec) - allowed
    _require(not extra, f"schedule keys {sorted(extra)} not allowed for kind {kind!r}")
    if kind == "bernoulli":
        p = spec.get("p_drop")
        _require(
            isinstance(p, (int, float)) and not isinstance(p, bool) and 0.0 <= p < 1.0,
            f"p_drop must lie in [0, 1), got {p!r}",
        )
        _as_positive_int(spec.get("B"), "schedule B")
        if "seed" in spec:
            _require(
                _is_int(spec["seed"]) and spec["seed"] >= 0,
                "schedule seed must be a nonnegative integer",
            )
    elif kind == "periodic":
        _as_positive_int(spec.get("B"), "schedule B")
    elif kind == "csv":
        _require(isinstance(spec.get("path"), str), "csv schedule needs a path string")
    return copy.deepcopy(spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable description of one experiment.

    ``from_dict`` and ``to_dict`` round-trip exactly, so a config echoed into
    a summary can be re-run as-is.
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

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
        _require(not unknown, f"unknown config keys: {sorted(unknown)}")
        mode = raw.get("mode")
        _require(mode in MODES, f"mode must be one of {MODES}, got {mode!r}")

        graph = raw.get("graph")
        _check_graph_spec(graph)

        horizon = raw.get("horizon")
        _require(
            _is_int(horizon) and horizon >= 0,
            f"horizon must be a nonnegative integer, got {horizon!r}",
        )

        algorithm = raw.get("algorithm", "convergent")
        inputs = raw.get("inputs")
        problem = raw.get("problem")
        step_constant = raw.get("step_constant")
        window = raw.get("window")

        if mode == "consensus":
            _require(algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}")
            _require(inputs is not None, "consensus mode needs inputs")
            inputs = _normalize_inputs(inputs)
            _require(problem is None, "consensus mode does not take a problem")
            _require(step_constant is None, "consensus mode does not take step_constant")
            _require(window is None, "consensus mode does not take a window")
        elif mode == "optimize":
            _require("algorithm" not in raw, "optimize mode always runs the convergent protocol")
            _require(isinstance(problem, dict), "optimize mode needs a problem object")
            problem = copy.deepcopy(problem)
            _require(
                isinstance(step_constant, (int, float))
                and not isinstance(step_constant, bool)
                and step_constant > 0,
                f"step_constant must be positive, got {step_constant!r}",
            )
            step_constant = float(step_constant)
            _require(inputs is None, "optimize mode does not take inputs")
            _require(window is None, "optimize mode does not take a window")
        else:
            _require("algorithm" not in raw, "matrix-audit mode has no algorithm choice")
            _require(isinstance(window, dict), 'matrix-audit mode needs {"window": {start, end}}')
            _require(set(window) == {"start", "end"}, "window needs exactly start and end")
            start = _as_positive_int(window.get("start"), "window start")
            end = _as_positive_int(window.get("end"), "window end")
            _require(start <= end, f"window start {start} exceeds end {end}")
            _require(end <= horizon, f"window end {end} exceeds horizon {horizon}")
            window = {"start": start, "end": end}
            _require(inputs is None, "matrix-audit mode does not take inputs")
            _require(problem is None, "matrix-audit mode does not take a problem")
            _require(step_constant is None, "matrix-audit mode does not take step_constant")

        schedule = raw.get("schedule")
        if mode == "consensus" and algorithm == "plain":
            _require(
                schedule is None,
                "the plain algorithm assumes reliable links; omit the schedule",
            )
        elif schedule is None:
            raise ConfigError(f"{mode} mode needs a schedule")
        else:
            schedule = _check_schedule_spec(schedule)

        tolerances = raw.get("tolerances", {})
        _require(isinstance(tolerances, dict), "tolerances must be an object")
        bad = set(tolerances) - set(TOLERANCE_KEYS)
        _require(not bad, f"unknown tolerance keys: {sorted(bad)}")
        tolerances = {
            k: float(v) for k, v in sorted(tolerances.items())
        }

        return ExperimentConfig(
            mode=mode,
            graph=copy.deepcopy(graph),
            horizon=horizon,
            schedule=schedule,
            algorithm=algorithm,
            inputs=inputs,
            problem=problem,
            step_constant=step_constant,
            window=window,
            tolerances=tolerances,
        )

    def to_dict(self) -> dict:
        out: dict = {
            "mode": self.mode,
            "graph": copy.deepcopy(self.graph),
            "horizon": self.horizon,
        }
        if self.schedule is not None:
            out["schedule"] = copy.deepcopy(self.schedule)
        if self.mode == "consensus":
            out["algorithm"] = self.algorithm
            out["inputs"] = [
                list(row) if isinstance(row, tuple) else row for row in self.inputs
            ]
        elif self.mode == "optimize":
            out["problem"] = copy.deepcopy(self.problem)
            out["step_constant"] = self.step_constant
        else:
            out["window"] = dict(self.window)
        if self.tolerances:
            out["tolerances"] = dict(self.tolerances)
        return out

    def tolerance(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _read_config(path):
    """Parse a JSON config file and resolve a relative ``graph.path`` or
    ``schedule.path`` against the file's directory."""
    path = Path(path)
    raw = _read_json(path, "config")
    if isinstance(raw, dict):
        for key in ("graph", "schedule"):
            spec = raw.get(key)
            if isinstance(spec, dict) and isinstance(spec.get("path"), str):
                spec["path"] = str((path.resolve().parent / spec["path"]).resolve())
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse a config file, resolving relative file references against it."""
    return ExperimentConfig.from_dict(_read_config(path))


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
    config: ExperimentConfig
    seed: int | None
    wall_clock: float


def _build_graph(spec) -> DirectedGraph:
    """The graph of a config's graph spec: inline ``{"n": ..., "edges": ...}``
    or ``{"path": ...}`` naming a JSON file that holds the inline form."""
    _check_graph_spec(spec)
    where = "graph"
    if isinstance(spec.get("path"), str):
        where = f"graph file {spec['path']}"
        spec = _read_json(Path(spec["path"]), "graph file")
    _require(
        isinstance(spec, dict) and {"n", "edges"} <= set(spec),
        f'{where} needs {{"n": ..., "edges": ...}}',
    )
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
    spec: dict | None, T: int, g: DirectedGraph, seed: int | None
) -> tuple[FailureSchedule | None, int | None]:
    """Instantiate the schedule; returns it with the seed that took effect."""
    if spec is None:
        return None, seed
    kind = spec["kind"]
    if kind == "all_reliable":
        return schedules.all_reliable(g, T), seed
    if kind == "bernoulli":
        effective = seed if seed is not None else spec.get("seed", 0)
        return (
            schedules.bernoulli_b_bounded(g, spec["p_drop"], spec["B"], T, seed=effective),
            effective,
        )
    if kind == "periodic":
        return schedules.periodic_adversarial(g, spec["B"], T), seed
    return schedules.read_schedule_csv(g, spec["path"]), seed


def _float_cell(x: float) -> str:
    return f"{float(x):.17g}"


def _node_rows(trace, estimates=None):
    """CSV rows over (iteration, augmented node), reals before buffers."""
    n, m, d = trace.n, trace.m, trace.dim
    for t in range(trace.horizon + 1):
        values = trace.values[t]
        weights = trace.weights[t]
        for p in range(m):
            kind = "real" if p < n else "virtual"
            row = [str(t), str(p + 1), kind]
            row += [_float_cell(v) for v in values[p]]
            row.append(_float_cell(weights[p]))
            if estimates is None:
                w = weights[p]
                ratio = values[p] / w if w != 0.0 else np.full(d, np.nan)
                row += [_float_cell(v) for v in ratio]
            elif p < n:
                row += [_float_cell(v) for v in estimates[t, p]]
            else:
                row += [""] * d
            yield row


def _write_csv(path: Path, header: list, rows, tee: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _write_text(path, buf.getvalue(), tee)


def _write_trace(out_dir: Path, trace, tee: bool, estimates=None) -> str:
    """``trace.csv``: per node z and w, then the ratio z / w, or the
    estimate x when ``estimates`` are given."""
    last = "ratio" if estimates is None else "x"
    d = range(trace.dim)
    header = ["t", "node_id", "kind", *(f"z_{k}" for k in d), "w", *(f"{last}_{k}" for k in d)]
    return _write_csv(out_dir / "trace.csv", header, _node_rows(trace, estimates), tee)


def _write_text(path: Path, text: str, tee: bool) -> str:
    path.write_text(text)
    if tee:
        print(text, end="")
    return str(path)


def _psi_text(product: np.ndarray) -> str:
    """``psi.csv`` for a window product: one ``row,col,value`` line per entry,
    row-major, the same bytes ``_write_csv`` gives with ``_float_cell`` values."""
    m = product.shape[0]
    row = "%d,%d,%.17g\n"
    cells = product.ravel().tolist()
    return "row,col,value\n" + "".join(
        [row % (i + 1, j + 1, cells[i * m + j]) for i in range(m) for j in range(m)]
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


def _mass_certifications(trace: ConsensusTrace, rtol: float) -> dict:
    totals = trace.values.sum(axis=1)
    target = trace.inputs.sum(axis=0)
    scale = max(1.0, float(np.abs(target).max()))
    value_dev = float(np.abs(totals - target).max()) / scale
    weight_dev = float(np.abs(trace.weights.sum(axis=1) - trace.n).max()) / trace.n
    return {
        f"{name}_mass_conservation": {"measured": dev, "bound": rtol, "passed": dev <= rtol}
        for name, dev in (("value", value_dev), ("weight", weight_dev))
    }


def _run_consensus(cfg, g, schedule, out_dir: Path, tee: bool) -> tuple[dict, str]:
    y = np.asarray(cfg.inputs, dtype=float)
    trace = _RUNNERS[cfg.algorithm](g, y, schedule, cfg.horizon)
    trace_path = _write_trace(out_dir, trace, tee)

    certifications: dict = {}
    if cfg.horizon >= 1:
        certifications = _mass_certifications(trace, cfg.tolerance("mass_rtol", 1e-9))
        if cfg.algorithm == "convergent":
            cert = certify_consensus_bound(trace, schedule.window)
            slack = cfg.tolerance("rate_slack", 0.0)
            certifications["consensus_rate_bound"] = {
                "worst_t": cert.worst_t,
                "measured": cert.worst_error,
                "bound": cert.worst_bound,
                "passed": cert.worst_error <= cert.worst_bound + slack,
            }
    summary = {
        "n": g.n,
        "algorithm": cfg.algorithm,
        "average_input": trace.average_input,
        "final_error": consensus_error(trace, trace.horizon),
        "certifications": certifications,
    }
    return summary, trace_path


def _grid_reference_slack(problem) -> float:
    if problem.optimum is not None:
        return 0.0
    if all(isinstance(c, LinearCost) for c in problem.components):
        return 0.0
    return problem.lipschitz_bound * GRID_STEP_FRACTION * problem.feasible.diameter


def _run_optimize(cfg, g, schedule, out_dir: Path, tee: bool) -> tuple[dict, str]:
    problem = problem_from_spec(cfg.problem)
    steps = StepSizeSchedule(cfg.step_constant)
    trace = run_distributed_dual_averaging(g, problem, schedule, steps, cfg.horizon)
    d = trace.dim
    trace_path = _write_trace(out_dir, trace, tee, trace.estimates)

    B = schedule.window
    _, _, block = contraction_constants(g, B)
    certifications: dict = {}
    reference = solve_reference(problem)
    summary = {
        "n": g.n,
        "dim": d,
        "step_constant": cfg.step_constant,
        "b_window": B,
        "reference": {"x": reference.x, "value": reference.value},
        "certifications": certifications,
    }
    if cfg.horizon >= block:
        gap_slack = cfg.tolerance("gap_slack", _grid_reference_slack(problem))
        gap = certify_optimality_gap(trace, B, reference, slack=gap_slack)
        certifications["optimality_gap_bound"] = {
            "measured": gap.worst_gap,
            "bound": gap.bound,
            "slack": gap_slack,
            "worst_agent": gap.worst_agent,
            "passed": gap.passed,
        }
        summary["per_agent_gap"] = list(gap.gaps)
        mixing = certify_mixing_error(trace, B, slack=cfg.tolerance("mixing_slack", 0.0))
        certifications["mixing_error_bound"] = {
            "measured": mixing.worst_error,
            "bound": mixing.bound,
            "worst_t": mixing.worst_t,
            "passed": mixing.passed,
        }
    return summary, trace_path


def _run_audit(cfg, g, schedule, out_dir: Path, tee: bool) -> tuple[dict, str]:
    ag = augment(g)
    B = schedule.window
    start, end = cfg.window["start"], cfg.window["end"]
    beta, _, block = contraction_constants(g, B)
    product, contraction, entry = _audit_window(
        ag,
        schedule,
        start,
        end,
        B,
        contraction_slack=cfg.tolerance("contraction_slack", 1e-10),
        entry_slack=cfg.tolerance("entry_slack", 1e-12),
    )
    trace_path = _write_text(out_dir / "psi.csv", _psi_text(product), tee)
    summary = {
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
    return summary, trace_path


def _collect_pass(summary: dict) -> bool:
    flags = [c["passed"] for c in summary.get("certifications", {}).values()]
    flags += [v for v in summary.get("pass_flags", {}).values() if v is not None]
    return all(flags)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    seed: int | None = None,
    tee_csv: bool = False,
) -> RunArtifact:
    """Execute one experiment and write its artifacts into ``out_dir``.

    ``seed`` overrides the schedule seed from the config; it only matters for
    randomized schedules.  The returned artifact's ``passed`` flag is the
    conjunction of every certification in the summary.
    """
    started = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g = _build_graph(cfg.graph)
    schedule, effective_seed = _build_schedule(cfg.schedule, cfg.horizon, g, seed)

    if cfg.mode == "consensus":
        summary, trace_path = _run_consensus(cfg, g, schedule, out_dir, tee_csv)
    elif cfg.mode == "optimize":
        summary, trace_path = _run_optimize(cfg, g, schedule, out_dir, tee_csv)
    else:
        summary, trace_path = _run_audit(cfg, g, schedule, out_dir, tee_csv)

    passed = _collect_pass(summary)
    summary["mode"] = cfg.mode
    summary["horizon"] = cfg.horizon
    summary["seed"] = effective_seed
    summary["pass"] = passed
    summary["config"] = cfg.to_dict()

    summary_path = out_dir / "summary.json"
    artifact = RunArtifact(
        summary=summary,
        passed=passed,
        trace_path=trace_path,
        summary_path=str(summary_path),
        config=cfg,
        seed=effective_seed,
        wall_clock=time.perf_counter() - started,
    )
    summary_path.write_text(emit_summary(artifact))
    return artifact


def emit_summary(artifact: RunArtifact) -> str:
    """Render the summary deterministically; wall-clock never appears."""
    return write_json(artifact.summary)
