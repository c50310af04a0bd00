"""End-to-end acceptance checks.

Each test covers one advertised guarantee at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Grids are seeded, so every run exercises the identical instances.
"""

import json
import time

import numpy as np
import pytest

from lossynet import (
    AbsDistanceCost,
    Ball,
    Box,
    ExperimentConfig,
    LinearCost,
    OptProblem,
    StepSizeSchedule,
    all_reliable,
    augment,
    bernoulli_b_bounded,
    build_graph,
    certify_consensus_bound,
    certify_contraction,
    certify_entry_lower_bound,
    certify_mixing_error,
    certify_optimality_gap,
    consensus_error,
    contraction_constants,
    evolve_by_matrices,
    iteration_matrix,
    periodic_adversarial,
    run_convergent_robust_push_sum,
    run_distributed_dual_averaging,
    run_experiment,
    run_push_sum,
    run_robust_push_sum,
    solve_reference,
)

from oracles import run_centralized_dual_averaging
from random_graphs import random_strongly_connected


def report(number, name, ok, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def random_instance(seed, i, max_n=6, max_b=3):
    rng = np.random.default_rng(seed + i)
    n = 2 + i % (max_n - 1)
    B = 1 + i % max_b
    g = random_strongly_connected(n, rng)
    return rng, g, n, B


def test_01_failure_free_consensus_is_exact():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        rng = np.random.default_rng(100 + n)
        g = random_strongly_connected(n, rng)
        y = rng.uniform(0, 1, size=n)
        trace = run_convergent_robust_push_sum(g, y, all_reliable(g, 500), 500)
        worst = max(worst, consensus_error(trace, 500))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 1.0
    report(1, "failure-free ratios hit the average", ok,
           f"worst error {worst:.3g} < 1e-08, {elapsed:.2f}s < 1s")


def test_02_mass_conservation_under_drops():
    started = time.perf_counter()
    worst = 0.0
    for i in range(10):
        rng, g, n, B = random_instance(200, i)
        schedule = bernoulli_b_bounded(g, float(rng.uniform(0, 0.8)), B, 100, seed=200 + i)
        y = rng.uniform(-5, 5, size=n)
        for run in (run_robust_push_sum, run_convergent_robust_push_sum):
            trace = run(g, y, schedule, 100)
            scale = max(1.0, abs(float(y.sum())))
            value_dev = np.abs(trace.values.sum(axis=1) - y.sum()).max() / scale
            weight_dev = np.abs(trace.weights.sum(axis=1) - n).max() / n
            worst = max(worst, float(value_dev), float(weight_dev))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    report(2, "value and weight mass conserved each round", ok,
           f"worst relative deviation {worst:.3g} <= 1e-09, {elapsed:.2f}s < 1s")


@pytest.fixture(scope="module")
def matrix_instances():
    instances = []
    for i in range(50):
        rng, g, n, B = random_instance(3000, i)
        T = int(rng.integers(50, 201))
        p = float(rng.uniform(0, 0.8))
        schedule = bernoulli_b_bounded(g, p, B, T, seed=3000 + i)
        instances.append((g, schedule, B, T, rng.uniform(-2, 2, size=n)))
    return instances


def test_03_simulation_matches_matrix_evolution(matrix_instances):
    started = time.perf_counter()
    worst = 0.0
    for g, schedule, B, T, y in matrix_instances:
        sim = run_convergent_robust_push_sum(g, y, schedule, T)
        mat = evolve_by_matrices(augment(g), schedule, y, T)
        worst = max(
            worst,
            float(np.abs(sim.values - mat.values).max()),
            float(np.abs(sim.weights - mat.weights).max()),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    report(3, "simulated rounds equal the matrix recursion", ok,
           f"50 instances, worst deviation {worst:.3g} <= 1e-09, {elapsed:.2f}s < 10s")


def test_04_iteration_matrices_are_row_stochastic(matrix_instances):
    worst = 0.0
    for g, schedule, B, T, _ in matrix_instances:
        ag = augment(g)
        for t in range(1, min(T, 25) + 1):
            M = iteration_matrix(ag, schedule, t)
            worst = max(worst, float(np.abs(M.sum(axis=1) - 1.0).max()))
            assert M.min() >= 0.0
    ok = worst <= 1e-12
    report(4, "every round matrix is row stochastic", ok,
           f"worst row-sum deviation {worst:.3g} <= 1e-12")


@pytest.fixture(scope="module")
def window_instances():
    instances = []
    for i in range(50):
        rng, g, n, B = random_instance(5000, i)
        block = n * B + 1
        T = block + int(rng.integers(0, 2 * block))
        if i % 5 == 0:
            schedule = periodic_adversarial(g, B, T)
        else:
            schedule = bernoulli_b_bounded(
                g, float(rng.uniform(0.1, 0.8)), B, T, seed=5000 + i
            )
        instances.append((g, schedule, B, T))
    return instances


def test_05_window_products_have_positive_entries(window_instances):
    worst_margin = np.inf
    for g, schedule, B, T in window_instances:
        reportcard = certify_entry_lower_bound(augment(g), schedule, 1, g.n * B + 1, B)
        worst_margin = min(worst_margin, reportcard.measured - reportcard.bound)
        assert reportcard.passed
    ok = worst_margin >= -1e-12
    report(5, "block products clear the entry lower bound", ok,
           f"50 schedules, smallest margin {worst_margin:.3g} >= -1e-12")


def test_06_window_products_contract_spread(window_instances):
    for g, schedule, B, T in window_instances:
        reportcard = certify_contraction(augment(g), schedule, 1, T, B)
        assert reportcard.passed, (g.n, B, T)
    report(6, "column spread sits under both decay bounds", True,
           "50 schedules within slack 1e-10")


def test_07_consensus_error_stays_under_rate_bound():
    started = time.perf_counter()
    worst_final = 0.0
    worst_margin = -np.inf
    for i in range(20):
        rng, g, n, B = random_instance(1000, i)
        if i % 4 == 3:
            schedule = periodic_adversarial(g, B, 2000)
        else:
            p = (0.3, 0.5, 0.8)[i % 3]
            schedule = bernoulli_b_bounded(g, p, B, 2000, seed=1000 + i)
        y = rng.uniform(0, 1, size=n)
        trace = run_convergent_robust_push_sum(g, y, schedule, 2000)
        cert = certify_consensus_bound(trace, B)
        assert cert.passed
        worst_final = max(worst_final, consensus_error(trace, 2000))
        worst_margin = max(worst_margin, cert.measured - cert.bound)
    elapsed = time.perf_counter() - started
    ok = worst_final < 1e-6 and elapsed < 30.0
    report(7, "measured error tracks the geometric envelope", ok,
           f"20 runs, error <= bound at every t (worst margin {worst_margin:.3g}), "
           f"final error {worst_final:.3g} < 1e-06, {elapsed:.1f}s < 30s")


def _ring(n):
    return build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


@pytest.fixture(scope="module")
def optimization_runs():
    median = OptProblem(
        tuple(AbsDistanceCost([a]) for a in (0.0, 0.5, 1.0)), Box([0.0], [1.0])
    )
    linear = OptProblem(
        tuple(
            LinearCost(c)
            for c in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [0.5, -0.5])
        ),
        Ball(1.0, 2),
    )
    cases = [
        (_ring(3), median, solve_reference(median)),
        (_ring(5), linear, solve_reference(linear)),
    ]
    runs = []
    started = time.perf_counter()
    for g, problem, reference in cases:
        for p_drop in (0.0, 0.5):
            for A in (0.5, 1.0):
                for T in (100, 1000, 10_000):
                    schedule = bernoulli_b_bounded(g, p_drop, 3, T, seed=77)
                    trace = run_distributed_dual_averaging(
                        g, problem, schedule, StepSizeSchedule(A), T
                    )
                    runs.append((trace, reference))
    return runs, time.perf_counter() - started


def test_08_every_agent_meets_the_gap_guarantee(optimization_runs):
    runs, build_time = optimization_runs
    started = time.perf_counter()
    for trace, reference in runs:
        cert = certify_optimality_gap(trace, 3, reference)
        assert cert.passed, (trace.n, trace.horizon)
    elapsed = build_time + time.perf_counter() - started
    ok = elapsed < 120.0
    report(8, "running averages meet the gap bound", ok,
           f"24 runs (two problems, drops 0 and 0.5, two steps, three horizons), "
           f"{elapsed:.1f}s < 120s")


def test_09_dual_disagreement_meets_the_mixing_bound(optimization_runs):
    runs, _ = optimization_runs
    for trace, _ in runs:
        cert = certify_mixing_error(trace, 3)
        assert cert.passed, (trace.n, trace.horizon)
    report(9, "dual disagreement stays under the mixing bound", True,
           "all 24 runs, every t past the first block")


def test_10_degenerate_cases_reduce_to_classics():
    single = build_graph(1, [])
    box_problem = OptProblem((AbsDistanceCost([0.5]),), Box([0.0], [1.0]))
    ball_problem = OptProblem((LinearCost([3.0, 4.0]),), Ball(1.0, 2))
    worst = 0.0
    for problem, T in ((box_problem, 300), (ball_problem, 200)):
        steps = StepSizeSchedule(1.0)
        cent = run_centralized_dual_averaging(problem, steps, T)
        dist = run_distributed_dual_averaging(
            single, problem, all_reliable(single, T), steps, T
        )
        worst = max(worst, float(np.abs(dist.estimates[:, 0, :] - cent.estimates).max()))

    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)])
    rng = np.random.default_rng(42)
    y = rng.uniform(-1, 2, size=4)
    plain = run_push_sum(g, y, 60)
    robust = run_robust_push_sum(g, y, all_reliable(g, 60), 60)
    worst = max(worst, float(np.abs(plain.values - robust.values).max()))
    worst = max(worst, float(np.abs(plain.weights - robust.weights).max()))
    ok = worst <= 1e-12
    report(10, "single agent and reliable links reduce exactly", ok,
           f"worst deviation {worst:.3g} <= 1e-12")


def test_11_artifacts_are_byte_reproducible(tmp_path):
    configs = {
        "consensus": {
            "mode": "consensus",
            "graph": {"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
            "horizon": 60,
            "algorithm": "convergent",
            "schedule": {"kind": "bernoulli", "p_drop": 0.5, "B": 3, "seed": 7},
            "inputs": [0.0, 1.0, 0.25],
        },
        "optimize": {
            "mode": "optimize",
            "graph": {"n": 3, "edges": [[1, 2], [2, 3], [3, 1]]},
            "horizon": 60,
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
        },
        "matrix-audit": {
            "mode": "matrix-audit",
            "graph": {"n": 2, "edges": [[1, 2], [2, 1]]},
            "horizon": 6,
            "schedule": {"kind": "periodic", "B": 2},
            "window": {"start": 1, "end": 6},
        },
    }
    for name, raw in configs.items():
        cfg = ExperimentConfig.from_dict(raw)
        first = run_experiment(cfg, tmp_path / name / "a")
        second = run_experiment(cfg, tmp_path / name / "b")
        assert first.passed and second.passed, name
        for produced in ("summary.json", first.trace_path.rsplit("/", 1)[-1]):
            a = (tmp_path / name / "a" / produced).read_bytes()
            b = (tmp_path / name / "b" / produced).read_bytes()
            assert a == b, (name, produced)
        json.loads(
            (tmp_path / name / "a" / "summary.json")
            .read_text()
            .replace('"Infinity"', "1e308")
        )
    report(11, "identical config and seed give identical bytes", True,
           "three modes, summary and trace compared")
