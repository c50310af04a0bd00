"""The benchmark's output checks catch corrupted artifacts, its schedule
generator keeps its window, and its tracer accounts for every second.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import lossynet  # noqa: E402
from lossynet import cli  # noqa: E402

EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (4, 2), (5, 3)]
N = 5


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("B", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_window_schedule_keeps_its_window(B, seed):
    T, E = 200, 30
    table = inputs.window_schedule(E, T, B, np.random.default_rng(seed))
    assert table.shape == (T, E)
    windows = np.lib.stride_tricks.sliding_window_view(table, B, axis=0)
    assert windows.max(axis=-1).min() == 1, "some B-round window has no delivery"
    if B > 1:
        assert table.min() == 0, "the schedule never drops"


def test_random_digraph_is_strongly_connected_with_capped_degrees():
    edges = inputs.random_digraph(40, 270, np.random.default_rng(3))
    g = lossynet.build_graph(40, edges)
    assert g.num_edges == 270
    assert max(g.out_degrees) <= inputs.MAX_OUT_DEGREE


@pytest.fixture(scope="module")
def consensus_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("consensus")
    T = 150
    rng = np.random.default_rng(5)
    y = rng.uniform(0.0, 10.0, N)
    inputs.write_schedule(work / "schedule.csv", EDGES,
                          inputs.window_schedule(len(EDGES), T, 3, rng))
    _write(work / "graph.json", {"n": N, "edges": EDGES})
    config = _write(work / "config.json", {
        "mode": "consensus", "graph": {"path": "graph.json"}, "horizon": T,
        "algorithm": "convergent", "schedule": {"kind": "csv", "path": "schedule.csv"},
        "inputs": y.tolist(),
    })
    code = cli.main(["consensus", "--config", str(config), "--out", str(work / "out")])
    return work / "out", code, y, T


def _edit_trace(out: Path, edits: dict) -> None:
    """Add edits[(t, node)] to that row's z_0 cell."""
    lines = (out / "trace.csv").read_text().splitlines()
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        delta = edits.get((int(cells[0]), int(cells[1])))
        if delta is not None:
            cells[3] = repr(float(cells[3]) + float(delta))
            lines[k] = ",".join(cells)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_consensus_check_passes_on_the_real_trace(consensus_run):
    out, code, y, T = consensus_run
    assert checks.check_consensus(out, code, y, N + len(EDGES), T) == []


def test_consensus_check_catches_a_perturbed_final_ratio(consensus_run, tmp_path):
    out, code, y, T = consensus_run
    bad = _copy(out, tmp_path / "out")
    # Shift value between two agents: totals stay, two ratios move.
    _edit_trace(bad, {(T, 1): 1e-6, (T, 2): -1e-6})
    fails = checks.check_consensus(bad, code, y, N + len(EDGES), T)
    assert len(fails) == 1 and "final ratio" in fails[0]


def test_consensus_check_catches_a_mass_leak_in_one_round(consensus_run, tmp_path):
    out, code, y, T = consensus_run
    bad = _copy(out, tmp_path / "out")
    _edit_trace(bad, {(T // 2, N + 1): 1e-6 * y.sum()})
    fails = checks.check_consensus(bad, code, y, N + len(EDGES), T)
    assert fails == [f"value mass off by {1e-6 * y.sum():.3g} in round {T // 2}"]


def test_consensus_check_catches_a_nonzero_exit(consensus_run):
    out, _, y, T = consensus_run
    assert checks.check_consensus(out, 2, y, N + len(EDGES), T) == ["exit code 2"]


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("audit")
    B, seed = 2, 9
    end = N * B + 1
    _write(work / "graph.json", {"n": N, "edges": EDGES})
    config = _write(work / "config.json", {
        "mode": "matrix-audit", "graph": {"path": "graph.json"}, "horizon": end,
        "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": B, "seed": seed},
        "window": {"start": 1, "end": end},
    })
    code = cli.main(["matrix-audit", "--config", str(config), "--out", str(work / "out")])
    g = lossynet.build_graph(N, EDGES)
    schedule = lossynet.bernoulli_b_bounded(g, 0.5, B, end, seed=seed)
    y = np.arange(1.0, N + 1)
    sim = lossynet.run_convergent_robust_push_sum(g, y, schedule, end)
    m = N + len(EDGES)
    start = np.zeros((m, 2))
    start[:N, 0], start[:N, 1] = y, 1.0
    end_state = np.column_stack([sim.values[end, :, 0], sim.weights[end]])
    floor = inputs.beta_floor(N, EDGES, B)
    return work / "out", code, m, floor, start, end_state


def test_audit_check_passes_on_the_real_product(audit_run):
    assert checks.check_audit(*audit_run) == []


def test_audit_check_catches_a_row_that_does_not_sum_to_one(audit_run, tmp_path):
    out, code, m, floor, start, end_state = audit_run
    bad = _copy(out, tmp_path / "out")
    lines = (bad / "psi.csv").read_text().splitlines()
    row, col, value = lines[1].split(",")
    lines[1] = f"{row},{col},{float(value) * 1.5!r}"
    (bad / "psi.csv").write_text("\n".join(lines) + "\n")
    fails = checks.check_audit(bad, code, m, floor, start, end_state)
    assert any(f.startswith("psi row 1 sums to") for f in fails)


def test_audit_check_catches_a_product_that_disagrees_with_the_simulator(audit_run):
    out, code, m, floor, start, end_state = audit_run
    moved = end_state.copy()
    moved[0, 0] += 1e-6
    fails = checks.check_audit(out, code, m, floor, start, moved)
    assert len(fails) == 1 and "simulated window end" in fails[0]


def test_optimize_check_catches_a_running_average_outside_the_tolerance():
    n, T, B = 4, 2000, 2
    rng = np.random.default_rng(4)
    anchors = rng.uniform(-1.0, 1.0, (n, 2))
    is_abs = np.arange(n) % 2 == 0
    g = lossynet.build_graph(n, inputs.directed_ring(n))
    problem = lossynet.OptProblem(
        tuple(lossynet.AbsDistanceCost(a) if ab else lossynet.L2DistanceCost(a)
              for a, ab in zip(anchors, is_abs)),
        lossynet.Box([-1.0, -1.0], [1.0, 1.0]),
    )
    schedule = lossynet.bernoulli_b_bounded(g, 0.5, B, T, seed=1)
    trace = lossynet.run_distributed_dual_averaging(
        g, problem, schedule, lossynet.StepSizeSchedule(1.0), T
    )
    f_star = checks.minimum(anchors, is_abs, -1.0, 1.0)
    assert f_star == pytest.approx(lossynet.solve_reference(problem).value, abs=1e-4)
    tol = checks.gap_tolerance(T, 1.0, math.sqrt(2.0), 1.0)
    ok = {"optimality_gap": True, "mixing_error": True}
    box = (-1.0, 1.0)
    assert checks.check_optimize(trace.estimates, anchors, is_abs, box, f_star, tol, ok) == []

    # Park agent 3 in the far corner of the box for the whole run.
    bad = trace.estimates.copy()
    corner = np.array([1.0, 1.0]) if bad[-1, 2].sum() < 0 else np.array([-1.0, -1.0])
    bad[1:, 2] = corner
    assert checks.objective(corner, anchors, is_abs) - f_star > tol
    fails = checks.check_optimize(bad, anchors, is_abs, box, f_star, tol, ok)
    assert len(fails) == 1 and fails[0].startswith("agent 3 running-average gap")

    outside = trace.estimates.copy()
    outside[5, 0, 1] = 1.0 + 1e-9
    fails = checks.check_optimize(outside, anchors, is_abs, box, f_star, tol, ok)
    assert any(f.startswith("estimate outside the box") for f in fails)
    assert checks.check_optimize(trace.estimates, anchors, is_abs, box, f_star, tol,
                                 dict(ok, mixing_error=False)) == ["certificate mixing_error failed"]


def test_tracer_self_times_add_up_to_the_traced_duration(consensus_run, tmp_path):
    work = consensus_run[0].parent
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    argv = ["consensus", "--config", str(work / "config.json"), "--out", str(tmp_path)]
    try:
        assert tracer.operation(0, lambda: cli.main(argv)) == 0
    finally:
        restore()
    metrics = tracer.op_metrics(0)
    total = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "op.traced_s")
    assert total == pytest.approx(metrics["op.traced_s"], rel=1e-9)
    assert metrics["schedules.rows_read"] == consensus_run[3] * len(EDGES)
    assert metrics["harness.rows_written"] == (consensus_run[3] + 1) * (N + len(EDGES))
    assert metrics["mixing.product_calls"] == 0
    assert lossynet.harness._RUNNERS["convergent"] is lossynet.run_convergent_robust_push_sum
