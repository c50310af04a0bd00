import json
import math

import numpy as np
import pytest

from lossynet import (
    ConfigError,
    ExperimentConfig,
    bernoulli_b_bounded,
    graph_from_spec,
    graph_to_spec,
    load_config,
    random_strongly_connected,
    run_experiment,
    write_json,
    write_schedule_csv,
)
from lossynet import schedules
from lossynet.cli import main
from lossynet.harness import _float_cell, _psi_text, _write_csv

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

    def test_requires_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(["consensus"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({**CONSENSUS_RAW, "extra": 1})

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

    def test_tolerance_keys_checked(self):
        with pytest.raises(ConfigError, match="tolerance"):
            ExperimentConfig.from_dict(
                {**CONSENSUS_RAW, "tolerances": {"mass_tol": 1e-9}}
            )
        cfg = ExperimentConfig.from_dict(
            {**CONSENSUS_RAW, "tolerances": {"mass_rtol": 1e-6}}
        )
        assert cfg.tolerance("mass_rtol", 1e-9) == 1e-6
        assert cfg.tolerance("rate_slack", 0.5) == 0.5


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

    def test_zero_tolerance_forces_failure(self, tmp_path):
        raw = {
            "mode": "consensus",
            "graph": {"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [3, 1]]},
            "horizon": 50,
            "algorithm": "robust",
            "schedule": {"kind": "bernoulli", "p_drop": 0.6, "B": 2, "seed": 1},
            "inputs": [0.2, 0.7, 0.4],
            "tolerances": {"mass_rtol": 0.0},
        }
        artifact = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert not artifact.passed
        assert artifact.summary["pass"] is False
        measured = artifact.summary["certifications"]["value_mass_conservation"]["measured"]
        assert 0.0 < measured < 1e-12

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
        _write_csv(tmp_path / "expected.csv", ["row", "col", "value"], rows, False)
        assert _psi_text(product).encode() == (tmp_path / "expected.csv").read_bytes()


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


class TestCli:
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
            graph=graph_to_spec(g),
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

    def test_missing_config(self, tmp_path, capsys):
        code = main(["consensus", "--config", str(tmp_path / "no.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_values(self, tmp_path, capsys):
        config = _write(tmp_path, "c.json", {**CONSENSUS_RAW, "horizon": -3})
        code = main(["consensus", "--config", config])
        assert code == 1
        assert "horizon" in capsys.readouterr().err

    def test_failed_certification_exit_code(self, tmp_path):
        raw = {
            "mode": "consensus",
            "graph": {"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [3, 1]]},
            "horizon": 50,
            "algorithm": "robust",
            "schedule": {"kind": "bernoulli", "p_drop": 0.6, "B": 2, "seed": 1},
            "inputs": [0.2, 0.7, 0.4],
            "tolerances": {"mass_rtol": 0.0},
        }
        config = _write(tmp_path, "c.json", raw)
        code = main(["consensus", "--config", config, "--out", str(tmp_path)])
        assert code == 2

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
        assert "error:" in capsys.readouterr().err

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
