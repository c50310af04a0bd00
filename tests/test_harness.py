import copy
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    Ball,
    ConfigError,
    ExperimentConfig,
    LossyNetError,
    all_reliable,
    StepSizeSchedule,
    augment,
    bernoulli_b_bounded,
    certify_consensus_bound,
    certify_mixing_error,
    certify_optimality_gap,
    graph_from_spec,
    load_config,
    problem_from_spec,
    run_convergent_robust_push_sum,
    run_distributed_dual_averaging,
    run_experiment,
    solve_reference,
    write_json,
)
from lossynet import cli, dual_averaging, harness, mixing, problems, schedules
from lossynet.cli import main
from lossynet.harness import _RUNNERS, _stream_psi, _stream_trace

from mutants import leak_agent_1, move_entry
from oracles import write_schedule_csv
from random_graphs import random_strongly_connected
from test_mixing import _audit_benchmark_graph


# Oracle: the per-cell trace writer the streamed one replaced (rows of
# f-string cells through csv.writer); the files must match it byte for byte.
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


def _csv_text(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _oracle_trace_text(trace, estimates=None) -> str:
    last = "ratio" if estimates is None else "x"
    d = range(trace.dim)
    header = ["t", "node_id", "kind", *(f"z_{k}" for k in d), "w", *(f"{last}_{k}" for k in d)]
    return _csv_text(header, _node_rows(trace, estimates))


CONSENSUS_RAW = {
    "mode": "consensus",
    "graph": {"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
    "horizon": 400,
    "algorithm": "convergent",
    "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 3, "seed": 7},
    "inputs": [0.0, 1.0, 0.25],
}
OPTIMIZE_RAW = {
    "mode": "optimize",
    "graph": {"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
    "horizon": 300,
    "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 3, "seed": 7},
    "problem": {
        "d": 1,
        "set": {"kind": "box", "lower": [0.0], "upper": [1.0]},
        "components": [
            {"kind": "abs_distance", "a": [0.0]},
            {"kind": "abs_distance", "a": [0.5]},
            {"kind": "abs_distance", "a": [1.0]},
        ],
    },
    "step_constant": 1.0,
}
AUDIT_RAW = {
    "mode": "matrix-audit",
    "graph": {"n": 2, "edges": [[1, 2], [2, 1]]},
    "horizon": 3,
    "schedule": {"kind": "all_reliable"},
    "window": {"start": 1, "end": 3},
}


class TestConfigValidation:
    def test_round_trips(self):
        for raw in (CONSENSUS_RAW, OPTIMIZE_RAW, AUDIT_RAW):
            cfg = ExperimentConfig.from_dict(raw)
            assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("raw", [CONSENSUS_RAW, OPTIMIZE_RAW, AUDIT_RAW],
                             ids=["consensus", "optimize", "matrix-audit"])
    def test_echo_holds_every_own_key(self, raw):
        # Each raw config sets all of its mode's own keys.
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.to_dict() == raw
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_vector_inputs_echo_as_lists(self):
        inputs = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        cfg = ExperimentConfig.from_dict(dict(CONSENSUS_RAW, inputs=inputs))
        assert cfg.inputs == ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0))
        assert cfg.to_dict()["inputs"] == inputs
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("mode, key", [
        ("consensus", "problem"), ("consensus", "step_constant"), ("consensus", "window"),
        ("optimize", "algorithm"), ("optimize", "inputs"), ("optimize", "window"),
        ("matrix-audit", "algorithm"), ("matrix-audit", "inputs"), ("matrix-audit", "problem"),
        ("matrix-audit", "step_constant"),
    ])
    def test_another_modes_key_is_rejected_even_as_null(self, mode, key):
        raw = {"consensus": CONSENSUS_RAW, "optimize": OPTIMIZE_RAW, "matrix-audit": AUDIT_RAW}[mode]
        value = {"algorithm": "convergent", "inputs": [0.0, 1.0], "problem": OPTIMIZE_RAW["problem"],
                 "step_constant": 1.0, "window": {"start": 1, "end": 3}}[key]
        for present in (value, None):
            with pytest.raises(ConfigError, match=f"{mode} mode does not take {key}"):
                ExperimentConfig.from_dict({**raw, key: present})

    def test_requires_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(["consensus"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, "extra": 1})

    @pytest.mark.parametrize("edit, message", [
        ({"tolerances": {"mass_tol": 1e-9}}, "unknown config keys: ['tolerances']"),
        ({"schedule": {"kind": "all_reliable", "B": 2}},
         "unknown all_reliable schedule keys: ['B']"),
        ({"schedule": {**CONSENSUS_RAW["schedule"], "p": 0.5}},
         "unknown bernoulli schedule keys: ['p']"),
        ({"graph": {**CONSENSUS_RAW["graph"], "path": "ring.json"}},
         "unknown graph keys: ['edges', 'n']"),
        ({"graph": {**CONSENSUS_RAW["graph"], "directed": True}},
         "unknown graph keys: ['directed']"),
        ({"graph": {"path": "ring.json", "n": 3}}, "unknown graph keys: ['n']"),
    ])
    def test_every_object_rejects_unknown_keys(self, edit, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, **edit})

    def test_root_is_not_a_config_key(self):
        # The directory paths are read against comes from where the config
        # file lies, never from the config itself.
        with pytest.raises(ConfigError, match=r"unknown config keys: \['root'\]"):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, "root": "/elsewhere"})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, "mode": "simulate"})

    def test_graph_shape(self):
        with pytest.raises(ConfigError, match="graph"):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, "graph": {"nodes": 3}})

    def test_horizon_type(self):
        for bad in (-1, 1.5, True, "10"):
            with pytest.raises(ConfigError, match="horizon"):
                ExperimentConfig.from_dict({**CONSENSUS_RAW, "horizon": bad})

    def test_consensus_needs_inputs(self):
        raw = dict(CONSENSUS_RAW)
        del raw["inputs"]
        with pytest.raises(ConfigError, match="inputs"):
            ExperimentConfig.from_dict(raw)

    def test_ragged_inputs(self):
        with pytest.raises(ConfigError, match="equal positive length"):
            ExperimentConfig.from_dict(
                {**CONSENSUS_RAW, "inputs": [[0.0, 1.0], [1.0]]}
            )

    def test_plain_forbids_schedule(self):
        with pytest.raises(ConfigError, match="reliable links"):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, "algorithm": "plain"})

    def test_plain_without_schedule_is_valid(self):
        raw = dict(CONSENSUS_RAW, algorithm="plain")
        del raw["schedule"]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.schedule is None

    def test_lossy_modes_need_schedule(self):
        raw = dict(CONSENSUS_RAW)
        del raw["schedule"]
        with pytest.raises(ConfigError, match="needs a schedule"):
            ExperimentConfig.from_dict(raw)

    def test_optimize_fixes_the_algorithm(self):
        with pytest.raises(ConfigError, match="convergent"):
            ExperimentConfig.from_dict({**OPTIMIZE_RAW, "algorithm": "convergent"})

    def test_optimize_needs_positive_step(self):
        for bad in (0.0, -1.0, None, "1"):
            with pytest.raises(ConfigError, match="step_constant"):
                ExperimentConfig.from_dict({**OPTIMIZE_RAW, "step_constant": bad})

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 10**400], ids=["inf", "nan", "huge"])
    def test_optimize_step_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="step_constant must be positive and finite"):
            ExperimentConfig.from_dict({**OPTIMIZE_RAW, "step_constant": bad})

    def test_audit_window_checks(self):
        for bad in (
            {"start": 2, "end": 1},
            {"start": 1, "end": 4},
            {"start": 0, "end": 2},
            {"start": 1, "end": 2, "step": 1},
            {"start": 1},
        ):
            with pytest.raises(ConfigError, match="window"):
                ExperimentConfig.from_dict({**AUDIT_RAW, "window": bad})
        for bad, message in (
            ({"start": 1, "end": 3, "stride": 2}, "unknown window keys: ['stride']"),
            ({"start": 1}, "window needs 'end'"),
            ({"end": 3}, "window needs 'start'"),
        ):
            with pytest.raises(ConfigError, match=re.escape(message)):
                ExperimentConfig.from_dict({**AUDIT_RAW, "window": bad})

    def test_schedule_spec_checks(self):
        cases = [
            {"kind": "gilbert"},
            {"kind": "all_reliable", "B": 2},
            {"kind": "bernoulli", "p_drop": 1.0, "B": 2},
            {"kind": "bernoulli", "p_drop": -0.1, "B": 2},
            {"kind": "bernoulli", "p_drop": 0.5, "B": 0},
            {"kind": "bernoulli", "p_drop": 0.5, "B": 2, "seed": -1},
            {"kind": "periodic"},
            {"kind": "csv"},
        ]
        for bad in cases:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({**CONSENSUS_RAW, "schedule": bad})


RAWS = {"consensus": CONSENSUS_RAW, "optimize": OPTIMIZE_RAW, "matrix-audit": AUDIT_RAW}
# A run of the robust protocol, whose mass certificates fail once
# :func:`mutants.leak_agent_1` takes mass away.
LEAKY_RAW = {
    "mode": "consensus",
    "graph": {"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [3, 1]]},
    "horizon": 50,
    "algorithm": "robust",
    "schedule": {"kind": "bernoulli", "p_drop": 0.6, "B": 2, "seed": 1},
    "inputs": [0.2, 0.7, 0.4],
}

# Tolerance names that configs once took.  The allowances are constants of
# their certificates, so a ``tolerances`` object, even an empty one, is an
# unknown config key.
RETIRED_TOLERANCES = (
    "contraction_slack", "entry_slack", "gap_slack", "mass_rtol", "mixing_slack", "rate_slack"
)


class TestTolerances:
    @pytest.mark.parametrize(
        "tolerances", [{}] + [{key: 0.0} for key in RETIRED_TOLERANCES],
        ids=["empty", *RETIRED_TOLERANCES],
    )
    @pytest.mark.parametrize("mode", RAWS)
    def test_tolerances_key_exits_1(self, tmp_path, capsys, mode, tolerances):
        config = _write(tmp_path, "c.json", dict(RAWS[mode], tolerances=tolerances))
        out = tmp_path / "out"
        assert main([mode, "--config", config, "--out", str(out)]) == 1
        assert "error: unknown config keys: ['tolerances']" in capsys.readouterr().err
        assert not out.exists()

    def test_allowances_are_constants_of_their_certificates(self, tmp_path):
        assert harness.MASS_RTOL == 1e-9 and mixing.CONTRACTION_SLACK == 1e-10
        summary = run_experiment(ExperimentConfig.from_dict(CONSENSUS_RAW), tmp_path).summary
        for name in ("value", "weight"):
            assert summary["certifications"][f"{name}_mass_conservation"]["bound"] == 1e-9

    def test_entry_certificate_takes_no_slack(self, tmp_path, monkeypatch):
        # The entry bound here is about 1e-174, so an absolute slack of
        # 1e-170 would pass a product with a zero entry; the check has none.
        g = _audit_benchmark_graph()
        block = g.n * 3 + 1
        raw = {
            "mode": "matrix-audit",
            "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
            "horizon": block,
            "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 3, "seed": 1},
            "window": {"start": 1, "end": block},
        }
        out = tmp_path / "out"
        move_entry(monkeypatch, 0.0)
        config = _write(tmp_path, "c.json", raw)
        assert main(["matrix-audit", "--config", config, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_entry"] == 0.0
        assert summary["pass_flags"]["entry_lower_bound"] is False

    def test_gap_slack_is_the_references_error_bound(self, tmp_path):
        cfg = ExperimentConfig.from_dict(OPTIMIZE_RAW)
        gap = run_experiment(cfg, tmp_path).summary["certifications"]["optimality_gap_bound"]
        slack = solve_reference(problem_from_spec(OPTIMIZE_RAW["problem"])).slack
        assert slack > 0.0 and gap["slack"] == slack

    def test_gap_slack_of_a_box_whose_width_squared_overflows(self, tmp_path):
        # The box's psi radius overflows as it should (the gap bound is
        # infinite); the slack, lipschitz * grid step, does not.
        problem = copy.deepcopy(OPTIMIZE_RAW["problem"])
        problem["set"]["lower"] = [-1e308]
        cfg = ExperimentConfig.from_dict(dict(OPTIMIZE_RAW, problem=problem))
        summary = run_experiment(cfg, tmp_path).summary
        slack = summary["certifications"]["optimality_gap_bound"]["slack"]
        assert math.isfinite(slack) and slack == pytest.approx(1e304, rel=1e-15)

    def test_gap_slack_of_a_box_whose_diameter_overflows(self, tmp_path, monkeypatch):
        # The diameter 2e308 is not a float; the grid step and the slack
        # are taken on the box scaled by a power of two (problems._unit_set)
        # and scaled back, so the refinement runs.  The gap bound stays
        # infinite: the psi radius overflows.
        problem = copy.deepcopy(OPTIMIZE_RAW["problem"])
        problem["set"].update(lower=[-1e308], upper=[1e308])
        cfg = ExperimentConfig.from_dict(dict(OPTIMIZE_RAW, problem=problem))
        calls = _count_refinement_calls(monkeypatch)
        summary = run_experiment(cfg, tmp_path).summary
        gap = summary["certifications"]["optimality_gap_bound"]
        assert math.isfinite(gap["slack"]) and gap["slack"] == pytest.approx(2e304, rel=1e-15)
        assert gap["bound"] == math.inf
        # The coarse grid's best point is 0, of value 0.5; the refinement
        # runs and does not end above it.
        assert len(calls) > 10
        assert summary["reference"]["value"] <= 0.5
        assert -1e308 <= summary["reference"]["x"][0] <= 1e308
        assert summary["reference"]["value"] - 1 / 3 <= gap["slack"]

    def test_gap_slack_of_a_ball_whose_diameter_overflows(self, tmp_path, monkeypatch):
        # The diameter 2e308 is not a float; the grid step, the slack and
        # the golden-section search's chords are taken on the ball scaled by
        # a power of two (problems._unit_set) and scaled back, so the
        # refinement runs.
        problem = dict(OPTIMIZE_RAW["problem"], set={"kind": "ball", "radius": 1e308})
        cfg = ExperimentConfig.from_dict(dict(OPTIMIZE_RAW, problem=problem))
        calls = _count_refinement_calls(monkeypatch)
        summary = run_experiment(cfg, tmp_path).summary
        slack = summary["certifications"]["optimality_gap_bound"]["slack"]
        assert math.isfinite(slack) and slack == pytest.approx(2e304, rel=1e-15)
        # The coarse grid's best point is 0, of value 0.5; the refinement
        # runs and does not end above it.
        assert len(calls) > 10
        assert summary["reference"]["value"] <= 0.5
        assert abs(summary["reference"]["x"][0]) <= 1e308
        assert summary["reference"]["value"] - 1 / 3 <= slack


def _count_refinement_calls(monkeypatch) -> list:
    """The sizes of the point batches the golden-section refinement of
    ``solve_reference`` evaluates, filled in as it runs."""
    calls = []
    original = problems._golden_refine

    def counting(fun, *args, **kwargs):
        def counted(points):
            calls.append(len(points))
            return fun(points)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(problems, "_golden_refine", counting)
    return calls


class TestLoadConfig:
    def test_resolves_referenced_files(self, tmp_path):
        (tmp_path / "ring.json").write_text(
            json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]})
        )
        raw = dict(CONSENSUS_RAW, graph={"path": "ring.json"})
        (tmp_path / "run.json").write_text(json.dumps(raw))
        cfg = load_config(tmp_path / "run.json")
        artifact = run_experiment(cfg, tmp_path / "out")
        assert artifact.summary["n"] == 3

    def test_summary_echoes_paths_as_written(self, tmp_path):
        # One config tree copied into two directories whose names differ in
        # length: neither summary may hold the directory.
        tree = tmp_path / "tree"
        tree.mkdir()
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        (tree / "ring.json").write_text(json.dumps(CONSENSUS_RAW["graph"]))
        write_schedule_csv(bernoulli_b_bounded(ring, 0.5, 3, 40, seed=3), tree / "s.csv")
        refs = {"graph": {"path": "ring.json"}, "schedule": {"kind": "csv", "path": "s.csv"}}
        _write(tree, "c.json", dict(CONSENSUS_RAW, horizon=40, **refs))
        summaries = []
        for name in ("a", "a-longer-name"):
            shutil.copytree(tree, tmp_path / name)
            out = tmp_path / name / "out"
            assert main(["consensus", "--config", str(tmp_path / name / "c.json"),
                         "--out", str(out)]) == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]
        echoed = json.loads(summaries[0])["config"]
        assert {key: echoed[key] for key in refs} == refs
        # The echoed config re-runs as-is from the original config's directory.
        _write(tmp_path / "a", "echoed.json", echoed)
        out = tmp_path / "a" / "again"
        assert main(["consensus", "--config", str(tmp_path / "a" / "echoed.json"),
                     "--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == summaries[0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)


class TestConsensusRuns:
    def test_convergent_lossy_run_passes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(CONSENSUS_RAW)
        artifact = run_experiment(cfg, tmp_path)
        assert artifact.passed
        summary = artifact.summary
        assert summary["pass"] is True
        assert summary["final_error"] < 1e-8
        assert summary["average_input"] == [pytest.approx(1.25 / 3)]
        certs = summary["certifications"]
        assert set(certs) == {
            "value_mass_conservation",
            "weight_mass_conservation",
            "consensus_rate_bound",
        }
        assert all(c["passed"] for c in certs.values())
        assert summary["seed"] == 7

    def test_trace_csv_shape(self, tmp_path):
        cfg = ExperimentConfig.from_dict(CONSENSUS_RAW)
        artifact = run_experiment(cfg, tmp_path)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,node_id,kind,z_0,w,ratio_0"
        assert len(lines) == 1 + 401 * 6
        assert lines[1].startswith("1,1,real,") or lines[1].startswith("0,1,real,")

    def test_zero_horizon_has_no_certifications(self, tmp_path):
        raw = dict(CONSENSUS_RAW, horizon=0)
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.summary["certifications"] == {}
        assert artifact.passed

    def test_leaked_mass_forces_failure(self, tmp_path, monkeypatch):
        leak_agent_1(monkeypatch)
        artifact = run_experiment(ExperimentConfig.from_dict(LEAKY_RAW), tmp_path)
        assert not artifact.passed
        assert artifact.summary["pass"] is False
        certs = artifact.summary["certifications"]
        for name in ("value", "weight"):
            cert = certs[f"{name}_mass_conservation"]
            assert cert["passed"] is False and cert["measured"] > cert["bound"]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig.from_dict(CONSENSUS_RAW)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("summary.json", "trace.csv"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second

    def test_seed_override_wins(self, tmp_path):
        cfg = ExperimentConfig.from_dict(CONSENSUS_RAW)
        a = run_experiment(cfg, tmp_path / "a", seed=1)
        b = run_experiment(cfg, tmp_path / "b", seed=2)
        assert a.summary["seed"] == 1
        assert b.summary["seed"] == 2
        assert a.summary["final_error"] != b.summary["final_error"]

    def test_vector_inputs(self, tmp_path):
        raw = dict(CONSENSUS_RAW, inputs=[[0.0, 2.0], [1.0, 4.0], [0.5, 0.0]], horizon=50)
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.passed
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,node_id,kind,z_0,z_1,w,ratio_0,ratio_1"


class TestOptimizeRuns:
    def test_median_run_passes(self, tmp_path):
        artifact = run_experiment(ExperimentConfig.from_dict(OPTIMIZE_RAW), tmp_path)
        assert artifact.passed
        summary = artifact.summary
        assert summary["reference"]["value"] == pytest.approx(1.0 / 3.0, abs=2e-4)
        assert len(summary["per_agent_gap"]) == 3
        certs = summary["certifications"]
        assert certs["optimality_gap_bound"]["passed"]
        assert certs["mixing_error_bound"]["passed"]
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,node_id,kind,z_0,w,x_0"

    def test_single_agent_bound_renders_as_infinity(self, tmp_path):
        raw = {
            "mode": "optimize",
            "graph": {"n": 1, "edges": []},
            "horizon": 10,
            "schedule": {"kind": "all_reliable"},
            "problem": {
                "d": 1,
                "set": {"kind": "box", "lower": [0.0], "upper": [1.0]},
                "components": [{"kind": "abs_distance", "a": [0.5]}],
            },
            "step_constant": 1.0,
        }
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.passed
        text = (tmp_path / "summary.json").read_text()
        assert '"bound": "Infinity"' in text
        assert artifact.summary["certifications"]["optimality_gap_bound"]["bound"] == math.inf

    @pytest.mark.parametrize("feasible", [
        {"kind": "box", "lower": [0.0], "upper": [1.0]}, {"kind": "ball", "radius": 1.0},
    ], ids=["box", "ball"])
    def test_all_linear_reference_is_exact(self, tmp_path, feasible):
        # The mean cost is -x/6, minimized in closed form at x = 1.
        components = [{"kind": "linear", "c": [c]} for c in (1.0, -2.0, 0.5)]
        problem = dict(OPTIMIZE_RAW["problem"], set=feasible, components=components)
        artifact = run_experiment(ExperimentConfig.from_dict(dict(OPTIMIZE_RAW, problem=problem)),
                                  tmp_path)
        assert artifact.summary["reference"]["x"] == [1.0]
        assert artifact.summary["certifications"]["optimality_gap_bound"]["slack"] == 0.0

    def test_short_horizon_skips_certification(self, tmp_path):
        raw = dict(OPTIMIZE_RAW, horizon=2)
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.summary["certifications"] == {}
        assert "per_agent_gap" not in artifact.summary
        assert artifact.passed


class TestAuditRuns:
    def test_reliable_two_cycle_window(self, tmp_path):
        artifact = run_experiment(ExperimentConfig.from_dict(AUDIT_RAW), tmp_path)
        assert artifact.passed
        summary = artifact.summary
        assert summary["b_window"] == 1
        assert summary["min_entry"] == 0.1875
        assert summary["beta_bound"] == 0.015625
        assert summary["delta"] == 0.125
        assert summary["lambda_product"] == 1.0
        assert summary["gamma_bound"] == 0.984375
        assert summary["pass_flags"] == {
            "entry_lower_bound": True,
            "row_contraction": True,
        }
        lines = (tmp_path / "psi.csv").read_text().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 1 + 16

    def test_log10_bounds_match_the_bounds(self, tmp_path):
        summary = run_experiment(ExperimentConfig.from_dict(AUDIT_RAW), tmp_path).summary
        # beta = 1/4 and one block of nB + 1 = 3 rounds.
        assert summary["log10_beta_bound"] == 3 * math.log10(0.25)
        assert 10 ** summary["log10_beta_bound"] == pytest.approx(summary["beta_bound"], rel=1e-14)
        assert 10 ** summary["log10_gamma_bound"] == pytest.approx(
            summary["gamma_bound"], rel=1e-14
        )

    @staticmethod
    def _ring_audit(tmp_path, n: int, B: int, end: int) -> dict:
        """The summary of an audit of [1, end] on a directed n-ring, where
        beta = 1/4 and a block is nB + 1 rounds."""
        raw = {
            "mode": "matrix-audit",
            "graph": {"n": n, "edges": [[i, i % n + 1] for i in range(1, n + 1)]},
            "horizon": end,
            "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": B, "seed": 1},
            "window": {"start": 1, "end": end},
        }
        return run_experiment(ExperimentConfig.from_dict(raw), tmp_path).summary

    def test_log10_gamma_bound_where_gamma_bound_rounds_to_one(self, tmp_path):
        summary = self._ring_audit(tmp_path, 40, 2, 81)
        beta_bound = 0.25**81
        assert summary["beta_bound"] == beta_bound and summary["gamma_bound"] == 1.0
        assert summary["log10_gamma_bound"] < 0.0
        assert summary["log10_gamma_bound"] == pytest.approx(-beta_bound / math.log(10), rel=1e-12)

    def test_log10_beta_bound_where_beta_bound_underflows(self, tmp_path):
        # 4**-541 is below the smallest subnormal; one window round is no block.
        summary = self._ring_audit(tmp_path, 60, 9, 2)
        assert summary["beta_bound"] == 0.0
        assert summary["log10_beta_bound"] == 541 * math.log10(0.25)
        assert -326 < summary["log10_beta_bound"] < -325
        assert summary["gamma_bound"] == 1.0 and summary["log10_gamma_bound"] == 0.0

    def test_log10_bounds_of_a_single_node(self, tmp_path):
        # beta = 1, so gamma = 0: two blocks of nB + 1 = 2 rounds.
        raw = {
            "mode": "matrix-audit",
            "graph": {"n": 1, "edges": []},
            "horizon": 4,
            "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 1, "seed": 1},
            "window": {"start": 1, "end": 4},
        }
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.passed
        summary = artifact.summary
        assert summary["beta_bound"] == 1.0 and summary["log10_beta_bound"] == 0.0
        assert summary["gamma_bound"] == 0.0
        assert summary["log10_gamma_bound"] == -math.inf

    def test_short_window_skips_entry_bound(self, tmp_path):
        raw = dict(AUDIT_RAW, window={"start": 1, "end": 1})
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert artifact.summary["pass_flags"]["entry_lower_bound"] is None
        assert artifact.summary["pass_flags"]["row_contraction"] is True
        assert artifact.passed
        assert '"entry_lower_bound": null' in (tmp_path / "summary.json").read_text()

    def test_psi_text_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        product = rng.uniform(0.0, 1.0, size=(7, 7)) ** 3
        product /= product.sum(axis=1, keepdims=True)
        product[0, 0] = 0.0
        product[0, 1] = 1e-300 / 3.0
        # Some entries need all 17 significant digits to round-trip.
        assert any(float(f"{x:.16g}") != x for x in product.ravel())
        rows = (
            [str(i + 1), str(j + 1), _float_cell(product[i, j])]
            for i in range(7)
            for j in range(7)
        )
        (tmp_path / "expected.csv").write_text(_csv_text(["row", "col", "value"], rows))
        chunks = []
        _stream_psi(chunks.append, product)
        assert len(chunks) == 1 + 7
        assert b"".join(chunks) == (tmp_path / "expected.csv").read_bytes()


class TestCertificateRecords:
    """Every verdict of a summary is one ``Certificate``: each entry of
    ``certifications`` is ``harness._certification`` of the record its
    certify function returns, and the audit's ``pass_flags`` are its two
    records' ``passed``."""

    def test_consensus_entries_are_their_records(self, tmp_path):
        summary = run_experiment(ExperimentConfig.from_dict(CONSENSUS_RAW), tmp_path).summary
        g = graph_from_spec(CONSENSUS_RAW["graph"])
        schedule = bernoulli_b_bounded(g, 0.5, 3, 400, seed=7)
        trace = run_convergent_robust_push_sum(g, CONSENSUS_RAW["inputs"], schedule, 400)
        records = harness._mass_certificates(trace)
        records["consensus_rate_bound"] = certify_consensus_bound(trace, 3)
        assert summary["certifications"] == {
            name: harness._certification(cert) for name, cert in records.items()
        }
        assert summary["certifications"]["consensus_rate_bound"]["worst_t"] >= 1

    def test_optimize_entries_are_their_records(self, tmp_path):
        summary = run_experiment(ExperimentConfig.from_dict(OPTIMIZE_RAW), tmp_path).summary
        g = graph_from_spec(OPTIMIZE_RAW["graph"])
        problem = problem_from_spec(OPTIMIZE_RAW["problem"])
        trace = run_distributed_dual_averaging(
            g, problem, bernoulli_b_bounded(g, 0.5, 3, 300, seed=7), StepSizeSchedule(1.0), 300
        )
        gap = certify_optimality_gap(trace, 3, solve_reference(problem))
        assert gap.allowance == solve_reference(problem).slack
        assert summary["certifications"] == {
            "optimality_gap_bound": {**harness._certification(gap), "slack": gap.allowance},
            "mixing_error_bound": harness._certification(certify_mixing_error(trace, 3)),
        }
        assert summary["per_agent_gap"] == list(gap.detail["per_agent_gap"])

    def test_optimize_solves_its_reference_once(self, tmp_path, monkeypatch):
        # One grid solve per problem: a run's summary and gap certificate
        # share it, and so do repeated certificates of one trace.
        runs = []
        original = problems._golden_refine

        def counting(*args):
            runs.append(args)
            return original(*args)

        monkeypatch.setattr(problems, "_golden_refine", counting)
        run_experiment(ExperimentConfig.from_dict(OPTIMIZE_RAW), tmp_path)
        assert len(runs) == 1
        g = graph_from_spec(OPTIMIZE_RAW["graph"])
        problem = problem_from_spec(OPTIMIZE_RAW["problem"])
        trace = run_distributed_dual_averaging(
            g, problem, bernoulli_b_bounded(g, 0.5, 3, 300, seed=7), StepSizeSchedule(1.0), 300
        )
        reference = solve_reference(problem)
        assert certify_optimality_gap(trace, 3, reference) == certify_optimality_gap(trace, 3)
        assert len(runs) == 2

    @pytest.mark.parametrize("start, end", [(1, 3), (2, 3), (1, 9)])
    def test_audit_flags_are_their_records(self, tmp_path, start, end):
        raw = dict(AUDIT_RAW, horizon=9, window={"start": start, "end": end},
                   schedule={"kind": "bernoulli", "p_drop": 0.5, "B": 1, "seed": 2})
        summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path).summary
        g = graph_from_spec(raw["graph"])
        schedule = bernoulli_b_bounded(g, 0.5, 1, 9, seed=2)
        _, contraction, entry = mixing._audit_window(augment(g), schedule, start, end, 1)
        assert summary["pass_flags"] == {
            "entry_lower_bound": None if entry is None else entry.passed,
            "row_contraction": contraction.passed,
        }
        assert (entry is None) == (end - start + 1 < 3)
        assert summary["delta"] == contraction.measured
        assert contraction.where == {"window": (start, end)}
        for key, value in contraction.detail.items():
            assert summary[key] == value

    def test_gap_allowance_sits_on_the_safe_side(self, tmp_path, monkeypatch):
        # The reference may lie above the minimum by the allowance, so a
        # worst gap within the allowance below the bound does not show that
        # the true gap meets it: a bound strictly between the worst gap and
        # the worst gap plus the allowance fails.
        cfg = ExperimentConfig.from_dict(OPTIMIZE_RAW)
        gap = run_experiment(cfg, tmp_path / "a").summary["certifications"]["optimality_gap_bound"]
        bound = gap["measured"] + gap["slack"] / 2
        assert gap["measured"] < bound < gap["measured"] + gap["slack"]
        monkeypatch.setattr(dual_averaging, "optimality_gap_bound", lambda *args: bound)
        artifact = run_experiment(cfg, tmp_path / "b")
        gap = artifact.summary["certifications"]["optimality_gap_bound"]
        assert gap["bound"] == bound and gap["passed"] is False
        assert not artifact.passed


class TestTraceBytes:
    """The streamed ``trace.csv`` and ``--tee-csv`` output against the
    per-cell csv.writer oracle."""

    @pytest.mark.parametrize("algorithm", sorted(_RUNNERS))
    @pytest.mark.parametrize(
        "inputs", [[0.0, 1.0, 0.25], [[0.0, 2.0], [1.0, 4.5], [1e-300, 1.0 / 3.0]]]
    )
    def test_consensus_trace_matches_oracle(self, tmp_path, algorithm, inputs):
        raw = dict(CONSENSUS_RAW, algorithm=algorithm, inputs=inputs, horizon=40)
        schedule = None
        g = graph_from_spec(raw["graph"])
        if algorithm == "plain":
            del raw["schedule"]
        else:
            schedule = bernoulli_b_bounded(g, 0.5, 3, 40, seed=7)
        run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        trace = _RUNNERS[algorithm](g, np.asarray(inputs, dtype=float), schedule, 40)
        expected = _oracle_trace_text(trace)
        # The buffers start with zero weight: their ratio cells are NaN.
        assert ",virtual,0,0,nan\n" in expected or ",virtual,0,0,0,nan,nan\n" in expected
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("d", [1, 2])
    def test_optimize_trace_and_tee_match_oracle(self, tmp_path, capsys, d):
        raw = OPTIMIZE_RAW
        if d == 2:
            raw = dict(OPTIMIZE_RAW, problem={
                "d": 2,
                "set": {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                "components": [
                    {"kind": "abs_distance", "a": [0.5, -0.25]},
                    {"kind": "l2_distance", "a": [0.0, 0.75]},
                    {"kind": "linear", "c": [0.25, -0.5]},
                ],
            })
        config = _write(tmp_path, "o.json", raw)
        out = tmp_path / "out"
        assert main(["optimize", "--config", config, "--out", str(out), "--tee-csv"]) == 0
        g = graph_from_spec(raw["graph"])
        trace = run_distributed_dual_averaging(
            g,
            problem_from_spec(raw["problem"]),
            bernoulli_b_bounded(g, 0.5, 3, raw["horizon"], seed=7),
            StepSizeSchedule(raw["step_constant"]),
            raw["horizon"],
        )
        expected = _oracle_trace_text(trace, trace.estimates)
        # Buffers have no estimate: their d x cells are empty.
        buffers = [line for line in expected.splitlines() if ",virtual," in line]
        assert len(buffers) == 3 * (raw["horizon"] + 1)
        assert all(line.endswith("," * d) and not line.endswith("," * (d + 1)) for line in buffers)
        assert (out / "trace.csv").read_bytes() == expected.encode()
        assert capsys.readouterr().out == expected


# `lossynet optimize` on a 6-agent graph with two components of each kind,
# interleaved, on a box and on a ball.  The digests were made by the
# per-component scalar oracles, before the problems were evaluated in batch;
# they hold on a host whose BLAS dot gives the same bits.
OPTIMIZE_DIGESTS = {
    ("box", 1): ("0f376aef1344b2b2a4022fdf6661cd3a1fe494410af658433055254732179527",
                 "fe03280d1c3bb4fb04f485cb96447c619a60394de0d35968e9a3e717e7bb5584"),
    ("box", 5): ("76d32526a25bb6f66bcf590668fa5215fd16f6e97cecc78c15981e8a52abc74d",
                 "5522e578d33d6d28b27f5cb26c095661a0613463b0e6d4d39f31e12647165eb5"),
    ("box", 2027): ("c1de8af70e9e31baa4c2ade00e8df4d02be81a5a8cad9c2472eda84f5d5dd890",
                    "b127eb8346d6f40cacc799498d89cfdae446280eab0e7a5e7304cc4f0fc339bd"),
    ("ball", 1): ("f902a507f858cdbfa499726c14748cb90c45347a1b230ea9a7b2a53aa5906628",
                  "d23b378190e1c09d851b18454d115ff42d7ed37845e573cd8034d0591409a1f1"),
    ("ball", 5): ("b7a882d00769f23e9089c51235a1674bd1552a059c55c9e21fd4278a08113402",
                  "4fdc9e21773a6fad3ee894901f56e14f572f528fe61cb610a624bcbabe12d053"),
    ("ball", 2027): ("20e5e763de6b4cb84731d13530ce494bda0c2e3394e132ee281e88252a8fd161",
                     "8e4ba787fa388f741f1066c84d6c0c26c41e27c2b84f7d85c7b58bbff38ea0ee"),
}
DIGEST_SETS = {
    "box": {"kind": "box", "lower": [-1.0, -0.5], "upper": [1.0, 1.5]},
    "ball": {"kind": "ball", "radius": 1.25},
}


DIGEST_GRAPH = {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1],
                                  [1, 4], [3, 6], [5, 2]]}


def _seeded_optimize_raw(seed: int, set_name: str) -> dict:
    rng = np.random.default_rng(seed)
    components = []
    for k in range(6):
        kind = ("linear", "abs_distance", "l2_distance")[k % 3]
        key = "c" if kind == "linear" else "a"
        components.append({"kind": kind, key: rng.uniform(-1.0, 1.0, 2).tolist()})
    return {
        "mode": "optimize",
        "graph": DIGEST_GRAPH,
        "horizon": 200,
        "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 2, "seed": seed},
        "problem": {"d": 2, "set": DIGEST_SETS[set_name], "components": components},
        "step_constant": 1.0,
    }


# Oracles: the writers that formatted every cell with %.17g, one format
# string per round or matrix row, before each distinct value was formatted
# once; the deduplicating writers must match them byte for byte.
def _oracle_stream_trace(emit, trace, estimates=None) -> None:
    n, m, d = trace.n, trace.m, trace.dim
    last = "ratio" if estimates is None else "x"
    header = ["t", "node_id", "kind", *(f"z_{k}" for k in range(d)), "w",
              *(f"{last}_{k}" for k in range(d))]
    emit(",".join(header) + "\n")
    zw, tail = ",%.17g" * (d + 1), ",%.17g" * d
    buffer_tail = tail if estimates is None else "," * d
    fmt = "".join(
        [f"%d,{p + 1},real{zw}{tail}\n" for p in range(n)]
        + [f"%d,{p + 1},virtual{zw}{buffer_tail}\n" for p in range(n, m)]
    )
    cells = np.empty((m, 2 * d + 2))
    buffer_cells = cells.shape[1] if estimates is None else d + 2
    for t in range(trace.horizon + 1):
        values, w = trace.values[t], trace.weights[t][:, None]
        cells[:, 0] = t
        cells[:, 1 : d + 1] = values
        cells[:, d + 1 : d + 2] = w
        if estimates is None:
            cells[:, d + 2 :] = np.nan
            np.divide(values, w, out=cells[:, d + 2 :], where=w != 0)
        else:
            cells[:n, d + 2 :] = estimates[t]
        emit(fmt % tuple(cells[:n].ravel().tolist() + cells[n:, :buffer_cells].ravel().tolist()))


def _oracle_stream_psi(emit, product: np.ndarray) -> None:
    m = product.shape[0]
    emit("row,col,value\n")
    fmt = "".join([f"%d,{j + 1},%.17g\n" for j in range(m)])
    cells = np.empty((m, 2))
    for i in range(m):
        cells[:, 0] = i + 1
        cells[:, 1] = product[i]
        emit(fmt % tuple(cells.ravel().tolist()))


def _streamed(writer, *args) -> list:
    """The chunks ``writer`` emits, as text.  The package's writers emit
    ASCII bytes, every chunk; the oracles emit text."""
    chunks = []
    writer(chunks.append, *args)
    if writer in (_stream_trace, _stream_psi):
        assert all(type(chunk) is bytes for chunk in chunks)
        return [chunk.decode("ascii") for chunk in chunks]
    return chunks


# One round's values, weights and estimates holding both zeros, NaN, both
# infinities, a subnormal, 1e300 and repeats; no ratio overflows or is
# invalid, so numpy raises no warning.
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 1.0 / 3.0, -0.0, 1e300]
SPECIAL_WEIGHTS = [1.0, 2.0, 0.0, -0.0, 0.5, math.nan, 1.0, 3.0, 1.0, 0.25]


def _fake_trace(n: int, values: np.ndarray, weights: np.ndarray) -> SimpleNamespace:
    """What the writers read of a trace, for values no run produces."""
    T1, m, d = values.shape
    return SimpleNamespace(n=n, m=m, dim=d, horizon=T1 - 1, values=values, weights=weights)


class TestDistinctValueWriters:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("seed", [1, 2027])
    def test_consensus_trace_matches_oracle(self, d, seed):
        g = graph_from_spec(DIGEST_GRAPH)
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, (g.n, d))
        trace = run_convergent_robust_push_sum(
            g, y, bernoulli_b_bounded(g, 0.5, 3, 200, seed=seed), 200
        )
        assert _streamed(_stream_trace, trace) == _streamed(_oracle_stream_trace, trace)

    def test_optimize_trace_matches_oracle(self):
        raw = _seeded_optimize_raw(5, "box")
        g = graph_from_spec(raw["graph"])
        trace = run_distributed_dual_averaging(
            g, problem_from_spec(raw["problem"]),
            bernoulli_b_bounded(g, 0.5, 2, 80, seed=5), StepSizeSchedule(1.0), 80,
        )
        chunks = _streamed(_stream_trace, trace, trace.estimates)
        assert chunks == _streamed(_oracle_stream_trace, trace, trace.estimates)
        buffers = [line for chunk in chunks[1:] for line in chunk.splitlines() if ",virtual," in line]
        assert len(buffers) == 9 * 81
        assert all(line.endswith(",,") and not line.endswith(",,,") for line in buffers)

    @pytest.mark.parametrize("estimates", [False, True])
    def test_special_values_match_oracle(self, estimates):
        m, n = len(SPECIAL), 4
        values = np.array([SPECIAL, SPECIAL[::-1]]).T.reshape(1, m, 2)
        weights = np.array([SPECIAL_WEIGHTS])
        trace = _fake_trace(n, np.concatenate([values, values[:, ::-1]]),
                            np.concatenate([weights, weights[:, ::-1]]))
        x = values[:, :n][:, ::-1].repeat(2, axis=0) if estimates else None
        chunks = _streamed(_stream_trace, trace, x)
        assert chunks == _streamed(_oracle_stream_trace, trace, x)
        cells = set(chunks[1].replace("\n", ",").split(","))
        assert {"0", "-0", "nan", "inf", "-inf"} | {f"{v:.17g}" for v in SPECIAL} <= cells

    def test_psi_with_repeated_entries_matches_oracle(self):
        rng = np.random.default_rng(7)
        product = rng.choice([0.0, -0.0, 0.25, 1.0 / 3.0, 1e-300 / 3.0], size=(9, 9))
        product[2] = product[5] = rng.uniform(0.0, 1.0, 9)
        chunks = _streamed(_stream_psi, product)
        assert len(chunks) == 1 + 9
        assert chunks == _streamed(_oracle_stream_psi, product)
        assert ",-0\n" in "".join(chunks) and ",0\n" in "".join(chunks)

    @pytest.mark.parametrize("cells", [1, 40, 200])
    def test_block_size_keeps_the_bytes(self, monkeypatch, cells):
        # One round or row per block, and blocks that end mid-horizon.
        monkeypatch.setattr(harness, "_BLOCK_CELLS", cells)
        raw = _seeded_optimize_raw(1, "ball")
        g = graph_from_spec(raw["graph"])
        trace = run_distributed_dual_averaging(
            g, problem_from_spec(raw["problem"]),
            bernoulli_b_bounded(g, 0.5, 2, 30, seed=1), StepSizeSchedule(1.0), 30,
        )
        for x in (None, trace.estimates):
            assert _streamed(_stream_trace, trace, x) == _streamed(_oracle_stream_trace, trace, x)
        product = np.random.default_rng(cells).choice([0.0, -0.0, 0.5, 1.0 / 3.0], size=(11, 11))
        assert _streamed(_stream_psi, product) == _streamed(_oracle_stream_psi, product)

    # Value pools of consecutive blocks, cycled: a value in block 1, absent
    # from block 2 and back in block 3; -0 and 0 on either side of every
    # boundary; and blocks that share no value at all.  No block borrows a
    # text from another, so each formats every bit pattern it holds.
    CARRY_POOLS = {
        "returning": [[1.0 / 3.0, 0.25, 0.5], [0.25, 0.5, 0.75], [1.0 / 3.0, 0.75, 0.25]],
        "signed_zero": [[-0.0, 0.5], [0.0, 0.5]],
        "disjoint": [[1e300, 0.25], [1.0 / 3.0, 2.0 / 3.0, 5e-324], [0.75, 1.0]],
    }

    @staticmethod
    def _pooled(pools, groups: int, per_block: int, size: int) -> np.ndarray:
        """``groups`` rows of ``size`` values, each block of ``per_block``
        rows drawn from the next pool."""
        rng = np.random.default_rng(len(pools) + per_block)
        return np.array([
            rng.permutation(np.resize(pools[g // per_block % len(pools)], size))
            for g in range(groups)
        ])

    @staticmethod
    def _counted_texts(monkeypatch) -> list:
        """The number of keys of each ``_texts`` call, from now on."""
        formatted = []
        texts = harness._texts

        def counting(keys):
            formatted.append(keys.size)
            return texts(keys)

        monkeypatch.setattr(harness, "_texts", counting)
        return formatted

    @pytest.mark.parametrize("case", sorted(CARRY_POOLS))
    @pytest.mark.parametrize("cells", ["1", "m - 1", "m", "2m"])
    def test_psi_blocks_carry_texts(self, monkeypatch, case, cells):
        m = 6
        cells = {"1": 1, "m - 1": m - 1, "m": m, "2m": 2 * m}[cells]
        monkeypatch.setattr(harness, "_BLOCK_CELLS", cells)
        rows = max(1, cells // m)
        product = self._pooled(self.CARRY_POOLS[case], m, rows, m)
        formatted = self._counted_texts(monkeypatch)
        chunks = _streamed(_stream_psi, product)
        assert chunks == _streamed(_oracle_stream_psi, product)
        # Each block formats each of its distinct bit patterns once.
        blocks = [set(product[i : i + rows].view(np.int64).ravel()) for i in range(0, m, rows)]
        assert formatted == [len(b) for b in blocks]
        if case == "signed_zero":
            assert ",-0\n" in "".join(chunks) and ",0\n" in "".join(chunks)

    @pytest.mark.parametrize("case", sorted(CARRY_POOLS))
    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("estimates", [False, True])
    def test_trace_blocks_carry_texts(self, monkeypatch, case, rounds, estimates):
        # Unit weights, so each round's ratios are its values; the agents'
        # x are their values too, and optimize buffers format no x.
        n, m, d, T = 2, 5, 1, 7
        monkeypatch.setattr(harness, "_BLOCK_CELLS", rounds * m * (2 * d + 1))
        values = self._pooled(self.CARRY_POOLS[case], T + 1, rounds, m * d).reshape(T + 1, m, d)
        trace = _fake_trace(n, values, np.ones((T + 1, m)))
        x = values[:, :n] if estimates else None
        formatted = self._counted_texts(monkeypatch)
        chunks = _streamed(_stream_trace, trace, x)
        assert chunks == _streamed(_oracle_stream_trace, trace, x)
        assert len(chunks) == 1 + T + 1
        one = np.float64(1.0).view(np.int64)
        blocks = [set(values[t : t + rounds].view(np.int64).ravel()) | {one}
                  for t in range(0, T + 1, rounds)]
        assert formatted == [len(b) for b in blocks]
        if case == "signed_zero":
            assert ",-0," in "".join(chunks) and ",0," in "".join(chunks)

    def test_trace_memory_does_not_grow_with_horizon(self):
        g = graph_from_spec(DIGEST_GRAPH)
        y = np.random.default_rng(1).uniform(-1.0, 1.0, g.n)
        peaks = []
        # Rounds per block at d = 1 (z, w and the ratio per node): both
        # horizons span several blocks.
        rounds = harness._BLOCK_CELLS // (3 * (g.n + g.num_edges))
        for T in (2 * rounds, 8 * rounds):
            trace = run_convergent_robust_push_sum(g, y, bernoulli_b_bounded(g, 0.5, 3, T, seed=1), T)
            calls = [0]

            def emit(text):
                calls[0] += 1

            tracemalloc.start()
            try:
                _stream_trace(emit, trace)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert calls == [T + 2]
        assert peaks[1] <= 2 * peaks[0]


class TestTexts:
    """``harness._texts`` against ``%.17g``, value by value."""

    @staticmethod
    def _assert_printf(values) -> None:
        values = np.ravel(np.asarray(values, dtype=np.float64))
        texts = harness._texts(values.view(np.int64))
        assert texts.dtype == object and texts.shape == values.shape
        assert texts.tolist() == (b"%.17g\n" * values.size % tuple(values.tolist())).split()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_in_any_order(self, values):
        self._assert_printf(values)

    @pytest.mark.parametrize("kind", ["bits", "uniform", "log_uniform"])
    def test_random_values(self, kind):
        rng = np.random.default_rng(1)
        size = 200_000
        values = {
            "bits": lambda: rng.integers(-(2**63), 2**63, size, dtype=np.int64).view(np.float64),
            "uniform": lambda: rng.uniform(0.0, 10.0, size),
            "log_uniform": lambda: rng.choice([-1.0, 1.0], size) * 10 ** rng.uniform(-240, 240, size),
        }[kind]()
        # Sorted on their bits, as the writers pass them; the property
        # above covers any order.
        self._assert_printf(np.sort(values.view(np.int64)).view(np.float64))

    def test_exact_17th_digit_ties_round_half_to_even(self):
        # a * 10**P ends in exactly .5: 1234567890123456.2 and .8.
        ties = [1234567890123456.25, 1234567890123456.75, 0.5, 2.5]
        self._assert_printf([*ties, *(-t for t in ties)])
        texts = harness._texts(np.array([1234567890123456.25]).view(np.int64))
        assert texts[0] == b"1234567890123456.2"

    def test_powers_of_ten_and_their_neighbours(self):
        # The 1e-5/1e-4 and 1e16/1e17 switches between the fixed and the
        # exponent form, and every decade between them.
        powers = [float(10**k) if k >= 0 else 1 / 10**-k for k in range(-6, 19)]
        values = [np.nextafter(p, d) for p in powers for d in (-np.inf, np.inf)] + powers
        self._assert_printf([*values, *(-v for v in values)])

    def test_no_fixed_text_rounds_up_a_decade(self):
        # The largest double below 10**j is the one nearest to it from
        # below; as it does not print as 10**j, no double below does.  So
        # the round-up fallback of a fixed-range value is never taken.
        for j in range(-4, 18):
            below = math.nextafter(harness._ceil_power(j), 0.0)
            assert float("%.17g" % below) < harness._ceil_power(j)

    def test_values_that_round_up_a_decade(self):
        # The doubles nearest these powers lie below them and print as the
        # power (exponent form, so from %.17g); also the largest doubles
        # below 1e-4, 1 and 1e17.
        values = [1e-305, 1e-174, 1e-79, 1e-14, 1e98, 1e220, 0.9999999999999999,
                  np.nextafter(1e-4, 0), np.nextafter(1e17, 0), 99999999999999999.0]
        self._assert_printf([*values, *(-v for v in values)])

    def test_special_values(self):
        nans = np.array([0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001,
                         0x7FF4000000000123, -0x000FFFFFFFFFFFFF], dtype=np.int64)
        specials = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                    1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]
        self._assert_printf(specials)
        texts = harness._texts(nans)
        assert texts.tolist() == [b"%.17g" % v for v in nans.view(np.float64).tolist()]
        assert set(texts.tolist()) == {b"nan"}

    # One value for each way to %.17g: exponent-form texts below 1e-4 and
    # from 1e17 (5e-5, 9e-5, 2e17 and 1.2e17, decimal exponent -5 and 17);
    # zero, subnormal, infinite and NaN bit patterns.
    FALLBACKS = [5e-5, 2e17, 9e-5, 1.2e17, 0.0, 1e-310, math.inf, math.nan]

    def test_one_value_per_fallback(self):
        for value in self.FALLBACKS:
            self._assert_printf([value, -value, 0.25, value])
        # Fixed texts on either side of each switch.
        self._assert_printf([1e-4, 1.0000000000000001e-4, 99999999999999984.0, 7e16, 6.2e-5])

    def test_layout_of_each_group(self):
        # Integer zeros kept, "." dropped when nothing follows, "0.000ddd".
        values = [1.5, 10.0, 120.0, 100.25, 1e16, 1234567890123456.8, 0.1, 0.0123,
                  0.00012, -0.000123, 3.0, -0.5]
        assert harness._texts(np.array(values).view(np.int64)).tolist() == [
            b"1.5", b"10", b"120", b"100.25", b"10000000000000000", b"1234567890123456.8",
            b"0.10000000000000001", b"0.0123", b"0.00012", b"-0.00012300000000000001", b"3",
            b"-0.5",
        ]

    def test_empty(self):
        assert harness._texts(np.array([], dtype=np.int64)).tolist() == []

    def test_digit_blocks_match_their_byte_strings(self):
        # The 4-digit blocks against the byte strings they spell: each q in
        # 0..9999 as "%04d", then again with trailing zeros as spaces.
        quads = [b"%04d" % q for q in range(10000)]
        quads += [q.rstrip(b"0").ljust(4) for q in quads]
        expected = np.frombuffer(b"".join(quads), dtype=np.uint32)
        quad = harness._text_tables()[4]
        assert quad.dtype == expected.dtype and quad.shape == expected.shape
        assert quad.tobytes() == expected.tobytes()


class TestOptimizeDigests:
    @pytest.mark.parametrize("set_name, seed", sorted(OPTIMIZE_DIGESTS))
    def test_artifacts_keep_their_bytes(self, tmp_path, capsys, set_name, seed):
        config = _write(tmp_path, "o.json", _seeded_optimize_raw(seed, set_name))
        out = tmp_path / "out"
        assert main(["optimize", "--config", config, "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.json", "trace.csv")
        )
        assert digests == OPTIMIZE_DIGESTS[set_name, seed]


# `lossynet consensus` on the same graph for each algorithm, d = 1 and 2,
# with seeded signed inputs and, except for plain, Bernoulli drops.  The
# digests were made while values and weights were still stored as separate
# arrays; like the optimize digests they hold on a host whose BLAS dot gives
# the same bits.
CONSENSUS_DIGESTS = {
    ("plain", 1, 1): ("dc477e2e74ef36b706c30efd0036c23bca24700d1aea151136a9793f5d0f671a",
        "7454b27b88713207a0ba4ee9431b425709d6166114eef57a31affd5880216504"),
    ("plain", 1, 5): ("8e297e1beedc8ef1b81e526cdf9cf4b1fc171897d52d605904129e768931e791",
        "8d2fb80ec8a20da77e893dea26bbc54e2589eddf313050fd19b8f5011d14b264"),
    ("plain", 1, 2027): ("d2448774dcee5b830f9a2e9b2bb11a1ce3b50b7fcb44bb95bdd263119f5d7cbc",
        "21cbe25a21a0e78e1426e9f3463e59273232df64be8a99a6e50fa894e776c54a"),
    ("plain", 2, 1): ("90856fd9c366eaece698ca7d534702285deb3ba61930cd73c4ff2b56279f6d1e",
        "7f55922e372aa6fcaa4a9d40106e1a9875d920f3dde6c937150dbf921dbae08a"),
    ("plain", 2, 5): ("e4e9cfee102ae3bbc3da2304d5f14bdf3f1d6d9f77a032cb7f2f3c941b565ed8",
        "ddc2ee58e0630f5cc1096ebf4d0db3a0b0c5d3b48ee799c6d5cf07cd0798b5b1"),
    ("plain", 2, 2027): ("e5e65c8670770303154a8fa4141850c577115caa611af00f28a05be06916a654",
        "fa723504f3afb438c4f191c2bdc17f21d429ec8ffe90f92ac081fc0d54041ef1"),
    ("robust", 1, 1): ("f6288c93815874deb684b998a1559351daeb1c2c339444790b6843cbe97a8315",
        "1e130fed6be5eb4308abc46f701f6f31fa95a825e66778b5dbdf81cafe40ef70"),
    ("robust", 1, 5): ("dbcda3879057b2e089a3e8d950cdedc5d5595ffa148f10ab1cdd28045937e111",
        "3821c8990b3eacefda6f00557639292d65c841307021189285f898e94630ba41"),
    ("robust", 1, 2027): ("8abac54c9fbd3ec3256697343ce45b9b047f68a311fdb14bc67ab4c169d6d756",
        "877dbad93c0bb757de1e576641bec321c9eb05c0b989a4b018ecc033110cfb27"),
    ("robust", 2, 1): ("f92a9f5c2ccbb61f56a5bc4b3dfa57aadfbd3385b614a42a1189c81afd37c871",
        "c3b0627c971fe38429599b634bab29755adc737adce5007edf374501f8394f49"),
    ("robust", 2, 5): ("c7e78e16982a66cfaedd2b285da5f1c7edd03116cde6ae8cfd5c609c8fef85c6",
        "379f27e8a251c60101c9f3186810e75f0334009a387f5ddbdcc286b2c1b293f6"),
    ("robust", 2, 2027): ("2b52aa7c8b63f1ab22664d31fabbc55cfddc37b4525084c29b6ffffbc91d0318",
        "c4a89b4a0dcbcdfb2664d9732afb986163e4a924cddcb0c186b01bca42062875"),
    ("convergent", 1, 1): ("716b0a4d65fc5bdc3f30f6867b35df9f47bdc8d27a76ca3e5f5afb9f767452d8",
        "051fa2dcfbfa8f699810b3634b94111593d978317160e5b553fdbdadbfb4bfef"),
    ("convergent", 1, 5): ("67e2ce274a2b9c11a0c59e12767e2bf80607b0f74fef61edbd1d6c69b2817a9a",
        "4e42613831c83560fa7a6b778e56cf9a3434862b2e5ae185e510eb525c483532"),
    ("convergent", 1, 2027): ("4bbaf4406aaaddb646d6623f608ff63ed230474644db255b3e30382bb21c6f26",
        "2e5bc028f1262121d0e7edffd902298ce998f19c44db8408049130fed870626d"),
    ("convergent", 2, 1): ("b906cfbb9a2f8391f7150b5e45d3e7b7cbc03e97f7e221bb8f2b010aeedb0a45",
        "765ee014289cd066ab3978a6a5634002d359dee3018d3500e0b374f12784479e"),
    ("convergent", 2, 5): ("9f7c7d400ba66c16925575800d972d09ec32d8aeb0da1b10609c2e47cdff1300",
        "8ba7051de14cd36929ab5cb889e55f22a00324d08285cca5818badf89964a148"),
    ("convergent", 2, 2027): ("e50121843d206aa5a876509387d151bdde090dd46d831962ae5330e55308d659",
        "087cba86769230b981805ba7f17d1bb45e6576f7d2ad2e42a184446ba50e4c88"),
}


def _seeded_consensus_raw(seed: int, algorithm: str, d: int) -> dict:
    inputs = np.random.default_rng(seed).uniform(-1.0, 1.0, (6, d))
    raw = {
        "mode": "consensus",
        "graph": DIGEST_GRAPH,
        "horizon": 200,
        "algorithm": algorithm,
        "inputs": (inputs[:, 0] if d == 1 else inputs).tolist(),
    }
    if algorithm != "plain":
        raw["schedule"] = {"kind": "bernoulli", "p_drop": 0.5, "B": 2, "seed": seed}
    return raw


class TestConsensusDigests:
    @pytest.mark.parametrize("algorithm, d, seed", sorted(CONSENSUS_DIGESTS))
    def test_artifacts_keep_their_bytes(self, tmp_path, capsys, algorithm, d, seed):
        config = _write(tmp_path, "c.json", _seeded_consensus_raw(seed, algorithm, d))
        out = tmp_path / "out"
        assert main(["consensus", "--config", config, "--out", str(out)]) == 0
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.json", "trace.csv")
        )
        assert digests == CONSENSUS_DIGESTS[algorithm, d, seed]


# Runs each config file in argv[2:] through ``lossynet consensus`` into the
# directory argv[1], then prints one JSON list of the sha256 of each run's
# summary.json and trace.csv.
_DIGEST_RUNNER = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from lossynet.cli import main
digests = []
for k, config in enumerate(sys.argv[2:]):
    out = Path(sys.argv[1]) / str(k)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["consensus", "--config", config, "--out", str(out)]) == 0
    digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("summary.json", "trace.csv")])
print(json.dumps(digests))
"""


def _openblas_on_x86_64() -> bool:
    """Whether numpy's BLAS is OpenBLAS on x86-64, where OPENBLAS_CORETYPE
    picks the kernel of one process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "openblas" in blas and platform.machine().lower() in ("x86_64", "amd64")


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
def test_consensus_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # The consensus pins hold under the host's default kernel and under
    # Prescott's, which rounds a batched 2-d norm differently.  The
    # optimize and matrix-audit bytes depend on the kernel; see README.
    keys = sorted(CONSENSUS_DIGESTS)
    configs = [_write(tmp_path, f"c{k}.json", _seeded_consensus_raw(seed, algorithm, d))
               for k, (algorithm, d, seed) in enumerate(keys)]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    runs = []
    for kernel in (None, "Prescott"):
        out = tmp_path / (kernel or "default")
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_RUNNER, str(out), *configs],
            env=env if kernel is None else dict(env, OPENBLAS_CORETYPE=kernel),
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        runs.append([tuple(pair) for pair in json.loads(result.stdout)])
    assert runs[0] == runs[1] == [CONSENSUS_DIGESTS[key] for key in keys]


# `lossynet matrix-audit` on the same graph (n = 6, B = 2, so one block is 13
# rounds) over windows (start, end) of a seeded Bernoulli schedule: two span
# at least one block, and (2, 9) is shorter, so its entry flag is null.  The
# digests were made while every round matrix was still built from scratch,
# the window product allocated per round and psi.csv formed as one string;
# like the digests above they hold on a host whose BLAS gives the same bits.
AUDIT_DIGESTS = {
    (1, 13, 1): ("1bd5fdfcd4b9dfb92b91458b7dd33926956649fa35537998873218f8fd409ac5",
        "a070d6a21e2fe4426b179bc2fec9180eb6e0fb04a63b4af6ee32e5aa1c537bc1"),
    (4, 40, 5): ("e2aefae9a8635dbba739899d5f249fdb6fcc0d54db75a8fc28d617ae042af725",
        "fe0b4d46d7b3116880a3cd5c846f617411d3f64708afb36ee23fca22e89e11de"),
    (2, 9, 2027): ("f0e300615883af0ae9d60438212e5dd2082cdbe56fa19edf5cbc6563d71508f3",
        "5f331416b9e18ffe25bfe98f15c2364d52f79f2aae58d11b2850b84472370093"),
}

# Summary keys added after the digests above were pinned.
AUDIT_ADDED_KEYS = ("log10_beta_bound", "log10_gamma_bound")


def _seeded_audit_raw(start: int, end: int, seed: int) -> dict:
    return {
        "mode": "matrix-audit",
        "graph": DIGEST_GRAPH,
        "horizon": 40,
        "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 2, "seed": seed},
        "window": {"start": start, "end": end},
    }


class TestAuditDigests:
    @pytest.mark.parametrize("start, end, seed", sorted(AUDIT_DIGESTS))
    def test_artifacts_keep_their_bytes(self, tmp_path, capsys, start, end, seed):
        config = _write(tmp_path, "a.json", _seeded_audit_raw(start, end, seed))
        out = tmp_path / "out"
        assert main(["matrix-audit", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["pass_flags"]["entry_lower_bound"] is None) == (end - start + 1 < 13)
        # The log-space bounds are added keys: stripped, the summary keeps
        # its pinned bytes.
        for key in AUDIT_ADDED_KEYS:
            del summary[key]
        digests = (
            hashlib.sha256(write_json(summary).encode()).hexdigest(),
            hashlib.sha256((out / "psi.csv").read_bytes()).hexdigest(),
        )
        assert digests == AUDIT_DIGESTS[start, end, seed]

    def test_tee_csv_prints_psi(self, tmp_path, capsys):
        config = _write(tmp_path, "a.json", _seeded_audit_raw(1, 13, 1))
        out = tmp_path / "out"
        assert main(["matrix-audit", "--config", config, "--out", str(out), "--tee-csv"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("row,col,value\n")
        assert printed.encode() == (out / "psi.csv").read_bytes()


class TestAtomicArtifacts:
    # The rate certificate raises once the whole trace is staged.
    FAILING = dict(CONSENSUS_RAW, horizon=20)

    @staticmethod
    def _fail_certificate(monkeypatch, out_dir):
        def fail(trace, *args, **kwargs):
            assert (out_dir / "trace.csv.tmp").exists()
            raise LossyNetError("rate certificate failed")

        monkeypatch.setattr(harness, "certify_consensus_bound", fail)

    def test_failed_run_leaves_no_files(self, tmp_path, monkeypatch):
        self._fail_certificate(monkeypatch, tmp_path)
        with pytest.raises(LossyNetError, match="rate certificate failed"):
            run_experiment(ExperimentConfig.from_dict(self.FAILING), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_removes_the_directories_it_created(self, tmp_path, capsys):
        # A one-round schedule for a five-round run fails after --out was
        # made: out/a/b goes, and so does out/a, but not out, which was there.
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        write_schedule_csv(all_reliable(ring, 1), tmp_path / "s.csv")
        raw = dict(CONSENSUS_RAW, horizon=5, schedule={"kind": "csv", "path": "s.csv"})
        config = _write(tmp_path, "c.json", raw)
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "a" / "b"
        assert main(["consensus", "--config", config, "--out", str(out)]) == 1
        assert "schedule covers 1 iterations, run needs 5" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_failed_run_keeps_earlier_artifacts(self, tmp_path, capsys, monkeypatch):
        run_experiment(ExperimentConfig.from_dict(CONSENSUS_RAW), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        config = _write(tmp_path, "failing.json", self.FAILING)
        self._fail_certificate(monkeypatch, tmp_path)
        assert main(["consensus", "--config", config, "--out", str(tmp_path)]) == 1
        assert "rate certificate failed" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "failing.json"}
        assert after == before

    def test_artifact_names_final_files(self, tmp_path):
        artifact = run_experiment(ExperimentConfig.from_dict(AUDIT_RAW), tmp_path)
        assert artifact.trace_path == str(tmp_path / "psi.csv")
        assert artifact.summary_path == str(tmp_path / "summary.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["psi.csv", "summary.json"]


class TestWriteJson:
    def test_keys_sorted_and_floats_full_precision(self):
        text = write_json({"b": float(np.pi), "a": 1})
        assert text.index('"a"') < text.index('"b"')
        token = text.split('"b": ')[1].strip().rstrip("}").strip()
        assert float(token) == float(np.pi)

    def test_nonfinite_as_strings(self):
        text = write_json({"inf": math.inf, "ninf": -math.inf, "nan": math.nan})
        assert '"Infinity"' in text
        assert '"-Infinity"' in text
        assert '"NaN"' in text

    def test_short_scalar_lists_inline(self):
        text = write_json({"xs": [1.0, 2.0, 3.0]})
        assert '"xs": [1, 2, 3]' in text

    def test_numpy_coercion(self):
        text = write_json({"a": np.float64(0.5), "b": np.int64(3), "c": np.arange(2)})
        assert '"a": 0.5' in text
        assert '"b": 3' in text

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            write_json({"x": object()})


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


VERIFY_RAW = {"schedule": {"kind": "periodic", "B": 3}, "B": 3, "horizon": 9}


def _run_with_graph(tmp_path, graph):
    """Exit codes of verify-schedule and consensus on configs in ``tmp_path``
    that share the graph spec ``graph``."""
    codes = []
    for command, raw in (("verify-schedule", VERIFY_RAW), ("consensus", CONSENSUS_RAW)):
        config = _write(tmp_path, f"{command}.json", dict(raw, graph=graph))
        codes.append(main([command, "--config", config, "--out", str(tmp_path / command)]))
    return codes


# Line 3 of a four-round ring schedule replaced, or the header renamed.
MALFORMED_CSV = [
    (3, "1,2,2", "row 3 has 3 cells, the header has 4"),
    (3, "1,2,2,1,9", "row 3 has 5 cells, the header has 4"),
    (3, "1,2,x,1", "row 3 has t 'x', which is not a 64-bit integer"),
    (3, "1,2,2,2", "row 3 has indicator 2, which is not 0 or 1"),
    (3, "1,2,0,1", "row 3 has iteration 0, which is below 1"),
    (1, "src,dst,time,indicator", "row 1: header 'src,dst,time,indicator' does not name"),
]


def _never_called(*args, **kwargs):
    raise AssertionError("not to be called for a config that is rejected")


# Problem fields replaced in OPTIMIZE_RAW, each malformed.
BAD_PROBLEMS = [
    ({"set": {"kind": "box", "lower": [1.0], "upper": [0.0]}},
     "box set: box lower bound exceeds upper bound"),
    ({"components": []}, "problem components must be a nonempty list of objects"),
    ({"components": [{"kind": "abs_distance", "a": ["x"]}] * 3},
     "abs_distance component a must be a finite number or a list of them"),
    ({"components": [{"kind": "linear", "c": None}] * 3},
     "linear component c must be a finite number or a list of them"),
    ({"set": {"kind": "box", "lower": [0.0], "upper": "1"}},
     "box set upper must be a finite number or a list of them"),
    # The retired overrides of the bounds' L and psi radius, with values that
    # were once accepted, in the rows that checked their values, so that the
    # rows after them keep their ids.
    ({"L": 0.0}, "unknown problem keys: ['L']"),
    ({"L": 1e300}, "unknown problem keys: ['L']"),
    ({"set": {"kind": "ball", "radius": 0.0}}, "ball set: radius must be positive"),
    ({"set": {"kind": "ball", "radius": "2"}}, "ball set radius must be a finite number"),
    ({"set": {"kind": "box", "lower": [0.0], "upper": [1.0], "radius_sq": 1e300}},
     "unknown box set keys: ['radius_sq']"),
    ({"components": [{"kind": "huber", "a": [0.0]}] * 3}, "unknown component kind 'huber'"),
    ({"components": [{"kind": ["linear"], "c": [1.0]}] * 3},
     "unknown component kind ['linear']"),
    ({"components": [{"kind": {"a": 1}, "a": [1.0]}] * 3}, "unknown component kind {'a': 1}"),
    ({"set": {"kind": [], "lower": [0.0], "upper": [1.0]}}, "unknown feasible-set kind []"),
    ({"set": {"kind": "box", "lower": [0.0], "upper": [1.0], "radius_sq": 0.0}},
     "unknown box set keys: ['radius_sq']"),
    ({"set": {"kind": "ball", "radius": 1.0, "radius_sq": 0.25}},
     "unknown ball set keys: ['radius_sq']"),
    # Every object of the problem rejects a key it does not know.
    ({"Lipschitz": 1e-9}, "unknown problem keys: ['Lipschitz']"),
    ({"optimum": [0.5]}, "unknown problem keys: ['optimum']"),
    ({"set": {"kind": "box", "lower": [0.0], "upper": [1.0], "radius": 2.0}},
     "unknown box set keys: ['radius']"),
    ({"set": {"kind": "ball", "radius": 1.0, "d": 1}}, "unknown ball set keys: ['d']"),
    ({"components": [{"kind": "linear", "c": [1.0], "a": [0.0]}] * 3},
     "unknown linear component keys: ['a']"),
]

# Inputs of a three-agent consensus run that are not finite or whose
# magnitudes sum beyond the float range.
BAD_INPUTS = [
    ([0.0, math.nan, 0.25], "inputs must be finite"),
    ([0.0, math.inf, 0.25], "inputs must be finite"),
    ([[0.0, 1.0], [-math.inf, 2.0], [0.5, 0.0]], "inputs must be finite"),
    ([0.0, 10**400, 0.25], "inputs must be finite"),
    ([1e308, 1e308, 0.25], "inputs overflow: their magnitudes in coordinate 0"),
    ([[0.0, 1e308], [1.0, -1e308], [0.5, 0.0]],
     "inputs overflow: their magnitudes in coordinate 1"),
]


class TestCli:
    @pytest.mark.parametrize("line, text, message", MALFORMED_CSV)
    def test_malformed_schedule_csv(self, tmp_path, capsys, line, text, message):
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        path = tmp_path / "s.csv"
        write_schedule_csv(all_reliable(ring, 4), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        schedule = {"kind": "csv", "path": "s.csv"}
        verify = dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"], horizon=4)
        for command, raw in (("verify-schedule", verify),
                             ("consensus", dict(CONSENSUS_RAW, horizon=4))):
            config = _write(tmp_path, f"{command}.json", dict(raw, schedule=schedule))
            assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 1
            assert message in capsys.readouterr().err, command
        assert not (tmp_path / "consensus" / "trace.csv").exists()

    def _optimize_exit(self, tmp_path, raw) -> int:
        config = _write(tmp_path, "o.json", raw)
        return main(["optimize", "--config", config, "--out", str(tmp_path / "out")])

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", CONSENSUS_RAW)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["consensus", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1
        assert (tmp_path / "file").read_text() == ""

    def test_optimize_on_a_ball_whose_radius_squared_overflows(self, tmp_path, capsys):
        problem = dict(OPTIMIZE_RAW["problem"], set={"kind": "ball", "radius": 1e200})
        assert self._optimize_exit(tmp_path, dict(OPTIMIZE_RAW, problem=problem)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certifications"]["optimality_gap_bound"]["bound"] == "Infinity"
        assert "error" not in capsys.readouterr().err

    def test_optimize_problem_without_d(self, tmp_path, capsys):
        problem = {k: v for k, v in OPTIMIZE_RAW["problem"].items() if k != "d"}
        assert self._optimize_exit(tmp_path, dict(OPTIMIZE_RAW, problem=problem)) == 1
        assert "error: problem needs 'd'" in capsys.readouterr().err

    def test_optimize_component_without_a(self, tmp_path, capsys):
        problem = dict(OPTIMIZE_RAW["problem"], components=[{"kind": "abs_distance"}])
        assert self._optimize_exit(tmp_path, dict(OPTIMIZE_RAW, problem=problem)) == 1
        assert "error: abs_distance component needs 'a'" in capsys.readouterr().err

    @pytest.mark.parametrize("schedule", [{"kind": "periodic", "B": 3}, {"kind": "all_reliable"},
                                          {"kind": "csv", "path": "s.csv"}, None],
                             ids=["periodic", "all_reliable", "csv", "plain"])
    def test_seed_override_that_takes_no_effect_is_not_reported(self, tmp_path, schedule):
        # Only a bernoulli schedule draws from a seed.
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        write_schedule_csv(all_reliable(ring, 40), tmp_path / "s.csv")
        raw = dict(CONSENSUS_RAW, horizon=40, schedule=schedule)
        if schedule is None:
            raw["algorithm"] = "plain"
            del raw["schedule"]
        out = tmp_path / "out"
        config = _write(tmp_path, "c.json", raw)
        assert main(["consensus", "--config", config, "--out", str(out), "--seed", "11"]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] is None

    def test_negative_seed_override(self, tmp_path, capsys):
        # numpy's generator would reject it with a ValueError traceback.
        bernoulli = CONSENSUS_RAW["schedule"]
        runs = (("verify-schedule", dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"])),
                ("consensus", CONSENSUS_RAW), ("optimize", OPTIMIZE_RAW),
                ("matrix-audit", AUDIT_RAW))
        for command, raw in runs:
            config = _write(tmp_path, f"{command}.json", dict(raw, schedule=bernoulli))
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out), "--seed", "-1"]) == 1
            assert "error: schedule seed must be a nonnegative integer" in capsys.readouterr().err
            assert not out.exists(), command

    @pytest.mark.parametrize("seed", [1.5, True, "3", -1], ids=["float", "bool", "str", "negative"])
    def test_library_seed_override_takes_the_config_seed_rule(self, tmp_path, seed):
        # The command line passes ints; a library caller may pass anything,
        # and gets the config seed's typed error before numpy sees it.
        message = "^schedule seed must be a nonnegative integer$"
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig.from_dict(CONSENSUS_RAW), out, seed=seed)
        assert not out.exists()
        raw = dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"], schedule=CONSENSUS_RAW["schedule"])
        with pytest.raises(ConfigError, match=message):
            harness.schedule_verdict(_write(tmp_path, "v.json", raw), seed)

    @pytest.mark.parametrize("algorithm, size", [("convergent", "931. GiB"), ("plain", "87.3 TiB")])
    def test_horizon_beyond_memory(self, tmp_path, capsys, algorithm, size):
        # A periodic schedule of 10**12 rounds, or a plain run's history of
        # that many rounds, is far more than any host grants at once.
        raw = dict(CONSENSUS_RAW, algorithm=algorithm, horizon=10**12,
                   schedule={"kind": "periodic", "B": 3})
        if algorithm == "plain":
            del raw["schedule"]
        config = _write(tmp_path, "c.json", raw)
        out = tmp_path / "out"
        assert main(["consensus", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon 1000000000000 does not fit in memory: ")
        assert f"Unable to allocate {size}" in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [2**62, 2**63 - 1, 2**63, 2**64])
    @pytest.mark.parametrize("raw", [CONSENSUS_RAW, OPTIMIZE_RAW, AUDIT_RAW],
                             ids=["consensus", "optimize", "matrix-audit"])
    def test_horizon_beyond_numpy_sizes(self, tmp_path, capsys, raw, horizon):
        # numpy refuses such sizes with a ValueError of its own ("array is
        # too big", "Maximum allowed dimension exceeded") before asking the
        # host for memory.
        config = _write(tmp_path, "c.json", dict(raw, horizon=horizon))
        out = tmp_path / "out"
        assert main([raw["mode"], "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: horizon {horizon} does not fit in memory: ")
        assert not out.exists()

    def test_periodic_window_beyond_64_bits(self, tmp_path, capsys):
        # t % B on a 64-bit array overflowed for such a B.
        schedule = {"kind": "periodic", "B": 10**30}
        runs = (("verify-schedule", dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"], B=10**30)),
                ("consensus", dict(CONSENSUS_RAW, horizon=20)),
                ("optimize", dict(OPTIMIZE_RAW, horizon=20)),
                ("matrix-audit", AUDIT_RAW))
        for command, raw in runs:
            config = _write(tmp_path, f"{command}.json", dict(raw, schedule=schedule))
            out = str(tmp_path / command)
            assert main([command, "--config", config, "--out", out]) == 0, command

    @pytest.mark.parametrize("problem, message", BAD_PROBLEMS)
    def test_optimize_malformed_problem(self, tmp_path, capsys, monkeypatch, problem, message):
        # The problem is parsed at load, with every other key: no schedule
        # is generated for a config that is then rejected.
        raw = dict(OPTIMIZE_RAW, problem=dict(OPTIMIZE_RAW["problem"], **problem))
        with pytest.raises(LossyNetError, match=re.escape(message)):
            ExperimentConfig.from_dict(raw)
        monkeypatch.setattr(schedules, "bernoulli_b_bounded", _never_called)
        assert self._optimize_exit(tmp_path, raw) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key, code", [("l2_distance", "a", 1), ("linear", "c", 0)])
    def test_grid_reference_dimension_is_checked_at_load(self, tmp_path, capsys, monkeypatch, kind,
                                                         key, code):
        # A d = 3 problem needs an exact reference, which an all-linear one
        # has: any other fails before its first round, with advice that a
        # config can follow.
        problem = {"d": 3, "set": {"kind": "ball", "radius": 1.0},
                   "components": [{"kind": kind, key: [0.1 * i, 0.2, -0.3]} for i in range(3)]}
        raw = dict(OPTIMIZE_RAW, horizon=20, problem=problem)
        if code == 1:
            monkeypatch.setattr(harness, "run_distributed_dual_averaging", _never_called)
        assert self._optimize_exit(tmp_path, raw) == code
        err = capsys.readouterr().err
        message = (
            "error: grid search covers d <= 2 only, got d = 3; a higher dimension needs linear "
            "components only, whose optimum has a closed form\n"
        )
        assert (message in err) == (code == 1)
        assert (tmp_path / "out").exists() == (code == 0)

    def test_signed_quick_start_inputs(self, tmp_path, capsys):
        # The README quick start: graph, schedule and signed inputs.
        raw = dict(
            CONSENSUS_RAW,
            graph={"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1], [2, 1]]},
            schedule={"kind": "bernoulli", "p_drop": 0.5, "B": 3, "seed": 3},
            inputs=[2.0, -1.0, 7.0, 4.0],
        )
        config = _write(tmp_path, "c.json", raw)
        assert main(["consensus", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert "pass=true" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["certifications"]["consensus_rate_bound"]["passed"] is True

    @pytest.mark.parametrize("inputs, message", BAD_INPUTS)
    def test_consensus_non_finite_inputs(self, tmp_path, capsys, inputs, message):
        config = _write(tmp_path, "c.json", dict(CONSENSUS_RAW, inputs=inputs))
        assert main(["consensus", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_consensus_inputs_whose_squares_overflow(self, tmp_path, capsys):
        # Squaring 1e200 overflows; the error norms and the bound's input
        # norm are rescaled, so the run certifies with finite numbers and
        # no numpy overflow warning.
        raw = dict(
            CONSENSUS_RAW,
            graph={"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1], [2, 1]]},
            schedule={"kind": "bernoulli", "p_drop": 0.5, "B": 3, "seed": 3},
            horizon=60,
            inputs=[1e200, 0, 3e200, 1],
        )
        config = _write(tmp_path, "c.json", raw)
        assert main(["consensus", "--config", config, "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        cert = summary["certifications"]["consensus_rate_bound"]
        for key in ("measured", "bound"):
            assert isinstance(cert[key], float) and math.isfinite(cert[key])
        assert 0.0 < cert["measured"] <= cert["bound"] and cert["passed"] is True

    def test_consensus_pass(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", CONSENSUS_RAW)
        code = main(["consensus", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "pass=true" in capsys.readouterr().err
        assert (tmp_path / "out" / "summary.json").exists()

    def test_consensus_with_underflowing_rate_bound(self, tmp_path, capsys):
        # beta**(n B + 1) underflows on this graph, so the rate bound is
        # infinite; the run still certifies and writes its summary.
        g = random_strongly_connected(50, np.random.default_rng(0), 0.15)
        raw = dict(
            CONSENSUS_RAW,
            graph={"n": g.n, "edges": [list(e) for e in g.edges]},
            horizon=20,
            inputs=[float(i % 7) for i in range(g.n)],
        )
        config = _write(tmp_path, "c.json", raw)
        code = main(["consensus", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "pass=true" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        cert = summary["certifications"]["consensus_rate_bound"]
        assert cert["bound"] == "Infinity"
        assert cert["worst_t"] == 1

    def test_optimize_with_tiny_network_floor(self, tmp_path, capsys):
        # beta**block / block is far below the float epsilon here, which
        # used to cancel 1 - gamma**(1/block) to 0.
        edges = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 3], [2, 5]]
        raw = dict(
            OPTIMIZE_RAW,
            graph={"n": 6, "edges": edges},
            horizon=40,
            problem={
                "d": 1,
                "set": {"kind": "box", "lower": [0.0], "upper": [1.0]},
                "components": [{"kind": "abs_distance", "a": [i / 5]} for i in range(6)],
            },
        )
        config = _write(tmp_path, "o.json", raw)
        code = main(["optimize", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 0
        assert "pass=true" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for cert in summary["certifications"].values():
            assert math.isfinite(cert["bound"])

    def test_mode_mismatch(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", CONSENSUS_RAW)
        code = main(["optimize", "--config", config, "--out", str(tmp_path)])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_verify_schedule_takes_no_tee_csv(self, tmp_path, capsys):
        # Only the run subcommands write a CSV to echo.
        config = _write(tmp_path, "v.json", dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"]))
        with pytest.raises(SystemExit) as exit_info:
            main(["verify-schedule", "--config", config, "--out", str(tmp_path / "v"), "--tee-csv"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tee-csv" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_missing_config(self, tmp_path, capsys):
        code = main(["consensus", "--config", str(tmp_path / "no.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_values(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", {**CONSENSUS_RAW, "horizon": -3})
        code = main(["consensus", "--config", config])
        assert code == 1
        assert "horizon" in capsys.readouterr().err

    def test_failed_certification_exit_code(self, tmp_path, monkeypatch):
        leak_agent_1(monkeypatch)
        config = _write(tmp_path, "c.json", LEAKY_RAW)
        code = main(["consensus", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        certs = json.loads((tmp_path / "summary.json").read_text())["certifications"]
        assert not certs["value_mass_conservation"]["passed"]
        assert not certs["weight_mass_conservation"]["passed"]

    @pytest.mark.parametrize("mode, schedule", [
        ("consensus", {"kind": "periodic", "B": 10**400}),
        ("optimize", {"kind": "bernoulli", "p_drop": 0.5, "B": 10**400, "seed": 7}),
        ("matrix-audit", {"kind": "bernoulli", "p_drop": 0.5, "B": 10**400, "seed": 7}),
    ], ids=["consensus", "optimize", "matrix-audit"])
    def test_window_beyond_the_float_range(self, tmp_path, capsys, mode, schedule):
        # n B + 1 is no float: beta**(n B + 1) takes its limit, 0.0, and
        # the run completes with a verdict.
        config = _write(tmp_path, "c.json", dict(RAWS[mode], schedule=schedule))
        code = main([mode, "--config", config, "--out", str(tmp_path / "out")])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        if mode == "matrix-audit":
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert summary["beta_bound"] == 0.0
            assert summary["log10_beta_bound"] == "-Infinity"

    def test_tee_csv_prints_trace(self, tmp_path, capsys):
        raw = dict(CONSENSUS_RAW, horizon=2)
        config = _write(tmp_path, "c.json", raw)
        code = main(
            ["consensus", "--config", config, "--out", str(tmp_path), "--tee-csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("t,node_id,kind,")
        assert out == (tmp_path / "trace.csv").read_text()
        g = graph_from_spec(CONSENSUS_RAW["graph"])
        trace = run_convergent_robust_push_sum(
            g, np.asarray(CONSENSUS_RAW["inputs"]), bernoulli_b_bounded(g, 0.5, 3, 2, seed=7), 2
        )
        assert out == _oracle_trace_text(trace)

    def test_consensus_tee_matches_trace(self, tmp_path, capsys):
        # Every round of the full horizon, NaN ratio cells included.
        config = _write(tmp_path, "c.json", CONSENSUS_RAW)
        out = tmp_path / "out"
        assert main(["consensus", "--config", config, "--out", str(out), "--tee-csv"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("\n") == 1 + 6 * (CONSENSUS_RAW["horizon"] + 1)
        assert ",nan\n" in printed
        assert printed.encode() == (out / "trace.csv").read_bytes()

    def test_verify_schedule_satisfied(self, tmp_path):
        raw = {
            "graph": {"n": 2, "edges": [[1, 2], [2, 1]]},
            "schedule": {"kind": "periodic", "B": 3},
            "B": 3,
            "horizon": 9,
        }
        config = _write(tmp_path, "v.json", raw)
        code = main(["verify-schedule", "--config", config, "--out", str(tmp_path)])
        assert code == 0
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict == {
            "b_window": 3,
            "satisfied": True,
            "worst_gap": 3,
            "schedule_window": 3,
            "horizon": 9,
        }

    def test_verify_schedule_unsatisfied(self, tmp_path):
        raw = {
            "graph": {"n": 2, "edges": [[1, 2], [2, 1]]},
            "schedule": {"kind": "periodic", "B": 3},
            "B": 2,
            "horizon": 9,
        }
        config = _write(tmp_path, "v.json", raw)
        code = main(["verify-schedule", "--config", config, "--out", str(tmp_path)])
        assert code == 2
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["satisfied"] is False
        assert verdict["worst_gap"] == 3

    def test_verify_schedule_rejects_extra_keys(self, tmp_path, capsys):
        raw = {
            "graph": {"n": 2, "edges": [[1, 2], [2, 1]]},
            "schedule": {"kind": "periodic", "B": 3},
            "B": 2,
            "horizon": 9,
            "mode": "consensus",
        }
        config = _write(tmp_path, "v.json", raw)
        code = main(["verify-schedule", "--config", config, "--out", str(tmp_path)])
        assert code == 1
        assert "error: unknown verify-schedule config keys: ['mode']" in capsys.readouterr().err

    def test_graph_spec_takes_one_form(self, tmp_path, capsys):
        # A path next to an inline graph would drop the inline one.
        (tmp_path / "ring.json").write_text(json.dumps(CONSENSUS_RAW["graph"]))
        both = dict(CONSENSUS_RAW["graph"], path="ring.json")
        assert _run_with_graph(tmp_path, both) == [1, 1]
        assert capsys.readouterr().err.count("error: unknown graph keys: ['edges', 'n']") == 2
        assert _run_with_graph(tmp_path, dict(CONSENSUS_RAW["graph"], nodes=3)) == [1, 1]
        assert capsys.readouterr().err.count("error: unknown graph keys: ['nodes']") == 2
        (tmp_path / "ring.json").write_text(json.dumps(dict(CONSENSUS_RAW["graph"], m=6)))
        assert _run_with_graph(tmp_path, {"path": "ring.json"}) == [1, 1]
        assert capsys.readouterr().err.count("ring.json keys: ['m']") == 2

    def test_parser_is_built_once_and_keeps_no_flags(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", dict(CONSENSUS_RAW, horizon=2))
        assert main(["consensus", "--config", config, "--out", str(tmp_path / "a"),
                     "--tee-csv"]) == 0
        assert capsys.readouterr().out.startswith("t,node_id,kind,")
        assert main(["consensus", "--config", config, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == ""
        assert cli._build_parser() is cli._build_parser()

    def test_graph_file_not_json(self, tmp_path, capsys):
        (tmp_path / "ring.json").write_text("{nope")
        assert _run_with_graph(tmp_path, {"path": "ring.json"}) == [1, 1]
        assert capsys.readouterr().err.count("is not valid JSON") == 2

    def test_graph_spec_without_edges(self, tmp_path, capsys):
        (tmp_path / "ring.json").write_text(json.dumps({"n": 3}))
        assert _run_with_graph(tmp_path, {"path": "ring.json"}) == [1, 1]
        assert _run_with_graph(tmp_path, {"n": 3}) == [1, 1]
        assert capsys.readouterr().err.count('"edges": ...}') == 4

    def test_graph_edges_not_integer_pairs(self, tmp_path, capsys):
        for edges in ([[1, 2, 3], [2, 3], [3, 1]], [[1, "2"], [2, 3], [3, 1]],
                      [[1.5, 2], [2, 3], [3, 1]], [1, 2, 3]):
            assert _run_with_graph(tmp_path, {"n": 3, "edges": edges}) == [1, 1], edges
            assert capsys.readouterr().err.count("integer pairs") == 2

    def test_undecodable_schedule_csv(self, tmp_path, capsys):
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        path = tmp_path / "s.csv"
        write_schedule_csv(all_reliable(ring, 4), path)
        path.write_bytes(path.read_bytes()[:-2] + b"\xff\n")
        schedule = {"kind": "csv", "path": "s.csv"}
        for command, raw in (("verify-schedule", dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"])),
                             ("consensus", dict(CONSENSUS_RAW, horizon=4))):
            config = _write(tmp_path, f"{command}.json", dict(raw, schedule=schedule))
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read ") and "can't decode byte 0xff" in err
            assert not out.exists(), command

    def test_undecodable_config_and_graph_file(self, tmp_path, capsys):
        (tmp_path / "ring.json").write_bytes(b'{"n": 3, "edges": [[1, 2]]}\xff')
        assert _run_with_graph(tmp_path, {"path": "ring.json"}) == [1, 1]
        assert capsys.readouterr().err.count("error: graph file") == 2
        for command in ("verify-schedule", "consensus"):
            config = tmp_path / f"{command}.json"
            config.write_bytes(json.dumps(CONSENSUS_RAW).encode() + b"\xff")
            out = tmp_path / f"{command}-out"
            assert main([command, "--config", str(config), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: config ") and "can't decode byte 0xff" in err
            assert not out.exists(), command

    @pytest.mark.parametrize("edit, message", [
        ({"schedule": [1]}, "schedule must be an object"),
        ({"horizon": -1}, "horizon must be a nonnegative integer, got -1"),
        ({"horizon": True}, "horizon must be a nonnegative integer, got True"),
        ({"schedule": {"kind": "periodic", "B": 0}}, "schedule B must be >= 1, got 0"),
    ])
    def test_verify_schedule_checks_as_the_runs_do(self, tmp_path, capsys, edit, message):
        verify = dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"], **edit)
        for command, raw in (("verify-schedule", verify), ("consensus", dict(CONSENSUS_RAW, **edit))):
            config = _write(tmp_path, f"{command}.json", raw)
            assert main([command, "--config", config, "--out", str(tmp_path / command)]) == 1
            assert f"error: {message}\n" in capsys.readouterr().err, command

    @pytest.mark.parametrize("B, message", [(0, "B must be >= 1, got 0"), ("3", "B must be an integer")])
    def test_verify_schedule_window_must_be_positive(self, tmp_path, capsys, B, message):
        config = _write(tmp_path, "v.json", dict(VERIFY_RAW, graph=CONSENSUS_RAW["graph"], B=B))
        assert main(["verify-schedule", "--config", config, "--out", str(tmp_path / "v")]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_missing_graph_file(self, tmp_path, capsys):
        assert _run_with_graph(tmp_path, {"path": "absent.json"}) == [1, 1]
        assert capsys.readouterr().err.count("cannot read graph file") == 2

    def test_verify_schedule_and_runs_resolve_paths_alike(self, tmp_path, monkeypatch):
        # Files live in data/, configs in configs/sub/, and the commands run
        # from configs/: only resolution against the config file finds them.
        data, sub = tmp_path / "data", tmp_path / "configs" / "sub"
        data.mkdir()
        sub.mkdir(parents=True)
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        (data / "ring.json").write_text(json.dumps(CONSENSUS_RAW["graph"]))
        write_schedule_csv(bernoulli_b_bounded(ring, 0.5, 3, 40, seed=3), data / "s.csv")
        refs = {
            "graph": {"path": "../../data/ring.json"},
            "schedule": {"kind": "csv", "path": "../../data/s.csv"},
        }
        _write(sub, "v.json", dict(VERIFY_RAW, horizon=40, **refs))
        _write(sub, "c.json", dict(CONSENSUS_RAW, horizon=40, **refs))
        monkeypatch.chdir(tmp_path / "configs")
        seen = []
        read = schedules.read_schedule_csv
        monkeypatch.setattr(
            schedules, "read_schedule_csv", lambda g, path: seen.append((g, path)) or read(g, path)
        )
        assert main(["verify-schedule", "--config", "sub/v.json", "--out", str(tmp_path / "v")]) == 0
        assert main(["consensus", "--config", "sub/c.json", "--out", str(tmp_path / "c")]) == 0
        assert seen == [(ring, str((data / "s.csv").resolve()))] * 2


# The typed-error contract under mutation: seeded cases, each a config (or a
# graph file or schedule CSV) with one or two values replaced by an edge
# value or deleted, maybe with an unknown key inserted into one of its
# objects.  Each exits 0, 1 or 2 with no traceback, and exit 1 leaves no
# output directory.  numpy's floating-point warnings are not tracebacks on
# the command line, and two inputs the config accepts raise them (consensus
# counters that overflow on inputs near 1e308, and an optimize run's dual
# totals, which overflow on subgradients near 1e308, as from a linear cost
# c = [-1e308, 0.5]), so the cases let those through; every other warning
# fails.
FUZZ_POOL = [1e308, -1e308, math.nan, math.inf, -math.inf, 5e-324, 2**63, 10**30, "", [], {},
             None, True, False, [[1, [2.5]], [[]]]]
FUZZ_CELLS = ["", " ", "x", "nan", "inf", "-1", "0", "2", "1.5", "1e308", "9223372036854775808",
              '"1"', "1_0", "٣", "1,2"]
FUZZ_HEADERS = ["", "src", "dst", "t", "indicator", "time", "T"]
FUZZ_BYTES = [b"\x00", b"\xff", b"\x80", b'"', b"{", b",", b"\n", b"9", b"-", b""]
_DELETE = object()


def _nodes(obj):
    """(container, key, value) for every value inside ``obj``, containers
    included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key, value
        yield from _nodes(value)


def _mutated(rng, obj):
    """``obj`` with one or two values replaced from FUZZ_POOL or deleted, or
    with an unknown key in one of its objects and at most one value changed;
    and whether it got the unknown key."""
    obj = copy.deepcopy(obj)
    unknown = rng.random() < 0.3
    count = rng.choice([0, 1] if unknown else [1, 2])
    for _ in range(count):
        nodes = list(_nodes(obj))
        if not nodes:
            break
        parent, key, _ = rng.choice(nodes)
        value = rng.choice(FUZZ_POOL + [_DELETE])
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    if unknown:
        objects = [obj] + [value for _, _, value in _nodes(obj) if isinstance(value, dict)]
        rng.choice(objects)["zz_unknown"] = rng.choice(FUZZ_POOL)
    return obj, unknown


def _mutated_csv(rng, text: str) -> bytes:
    """A schedule CSV with one byte, one cell or one header name changed."""
    lines = [line.split(",") for line in text.splitlines()]
    what = rng.choice(["byte", "cell", "header"])
    if what == "byte":
        data = text.encode()
        at = rng.randrange(len(data))
        return data[:at] + rng.choice(FUZZ_BYTES) + data[at + 1 :]
    row = 0 if what == "header" else rng.randrange(1, len(lines))
    lines[row][rng.randrange(len(lines[row]))] = rng.choice(
        FUZZ_HEADERS if what == "header" else FUZZ_CELLS
    )
    return "\n".join(",".join(cells) for cells in lines).encode() + b"\n"


# The optimize base on a two-dimensional ball, with a component of each kind,
# so that the fuzzer reaches the ball's code as well as the box's.
OPTIMIZE_BALL_RAW = dict(OPTIMIZE_RAW, problem={
    "d": 2,
    "set": {"kind": "ball", "radius": 1.0},
    "components": [
        {"kind": "linear", "c": [0.5, -0.25]},
        {"kind": "abs_distance", "a": [0.0, 0.5]},
        {"kind": "l2_distance", "a": [-0.5, 0.25]},
    ],
})
# A box whose grid values and midpoints pass the float range.
OPTIMIZE_HUGE_BOX_RAW = dict(OPTIMIZE_RAW, problem={
    "d": 2,
    "set": {"kind": "box", "lower": [-1.7e308, -1.7e308], "upper": [1.7e308, 1.7e308]},
    "components": [
        {"kind": "linear", "c": [1.0, 0.5]},
        {"kind": "abs_distance", "a": [0.5, -0.25]},
        {"kind": "l2_distance", "a": [0.0, 0.75]},
    ],
})


def _assert_reference_in_set(out: Path, raw: dict, case) -> None:
    """The summary's reference point is finite and lies in the feasible
    set, up to a tolerance relative to the set's size."""
    summary = json.loads((out / "summary.json").read_text())
    x = np.array([float(v) for v in summary["reference"]["x"]])
    fs = problem_from_spec(raw["problem"]).feasible
    size = fs.radius if isinstance(fs, Ball) else max(np.abs(fs.lower).max(), np.abs(fs.upper).max())
    assert np.isfinite(x).all() and fs.contains(x, tol=1e-12 * max(1.0, size)), case


class TestFuzz:
    CASES = 1500
    FILE_CASES = 200

    @staticmethod
    def _exit(tmp_path, capsys, name, command, config: bytes, case) -> int:
        path = tmp_path / f"{name}.json"
        path.write_bytes(config)
        out = tmp_path / f"{name}-out"
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                        RuntimeWarning)
                code = main([command, "--config", str(path), "--out", str(out)])
        except Exception as exc:  # a traceback: the contract's one failure
            pytest.fail(f"{command} raised {exc!r} on {case}")
        capsys.readouterr()
        assert code in (0, 1, 2), case
        assert code != 1 or not out.exists(), case
        return code

    def test_configs(self, tmp_path, capsys):
        rng = random.Random(20261019)
        bases = (CONSENSUS_RAW, OPTIMIZE_RAW, AUDIT_RAW, OPTIMIZE_BALL_RAW, OPTIMIZE_HUGE_BOX_RAW)
        for i in range(self.CASES):
            base = bases[i % len(bases)]
            raw, unknown = _mutated(rng, base)
            code = self._exit(tmp_path, capsys, f"c{i}", base["mode"], json.dumps(raw).encode(),
                              raw)
            assert code == 1 or not unknown, raw
            if base["mode"] == "optimize" and (tmp_path / f"c{i}-out" / "summary.json").exists():
                _assert_reference_in_set(tmp_path / f"c{i}-out", raw, raw)

    def test_graph_files_and_schedule_csvs(self, tmp_path, capsys):
        rng = random.Random(7)
        ring = graph_from_spec(CONSENSUS_RAW["graph"])
        write_schedule_csv(all_reliable(ring, 4), tmp_path / "base.csv")
        csv_text = (tmp_path / "base.csv").read_text()
        graph_text = json.dumps(CONSENSUS_RAW["graph"]).encode()
        refs = {"graph": {"path": "g.json"}, "schedule": {"kind": "csv", "path": "s.csv"}}
        runs = (("verify-schedule", dict(VERIFY_RAW, horizon=4, **refs)),
                ("consensus", dict(CONSENSUS_RAW, horizon=4, **refs)))
        for i in range(self.FILE_CASES):
            unknown = False
            graph, schedule = graph_text, csv_text.encode()
            if rng.random() < 0.5:
                schedule = _mutated_csv(rng, csv_text)
            elif rng.random() < 0.5:
                at = rng.randrange(len(graph_text))
                graph = graph_text[:at] + rng.choice(FUZZ_BYTES) + graph_text[at + 1 :]
            else:
                spec, unknown = _mutated(rng, CONSENSUS_RAW["graph"])
                graph = json.dumps(spec).encode()
            (tmp_path / "g.json").write_bytes(graph)
            (tmp_path / "s.csv").write_bytes(schedule)
            case = (graph, schedule)
            for command, raw in runs:
                code = self._exit(tmp_path, capsys, f"{command}{i}", command,
                                  json.dumps(raw).encode(), case)
                assert code == 1 or not unknown, case
