import dataclasses
import gc
import hashlib
import math
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    AbsDistanceCost,
    Ball,
    Box,
    Certificate,
    DimensionMismatchError,
    HorizonTooShortError,
    IterationOutOfRangeError,
    L2DistanceCost,
    LinearCost,
    OptProblem,
    ScheduleTooShortError,
    StepSizeSchedule,
    all_reliable,
    bernoulli_b_bounded,
    build_graph,
    certify_mixing_error,
    contraction_constants,
    certify_optimality_gap,
    mixing_error_bound,
    optimality_gap_bound,
    periodic_adversarial,
    proximal_projection,
    run_centralized_dual_averaging,
    run_distributed_dual_averaging,
    running_average,
    solve_reference,
)
from lossynet import consensus, dual_averaging, problems
from lossynet.consensus import _CumulativeState
from lossynet.problems import _reference_slack

from random_graphs import random_strongly_connected

single = build_graph(1, [])
unit_box = Box([0.0], [1.0])


def median_problem():
    components = tuple(AbsDistanceCost([a]) for a in (0.0, 0.5, 1.0))
    return OptProblem(components, unit_box)


def sample_feasible(feasible, rng):
    """A random point of the box, or of the ball by radius u**(1/d) along a
    random direction."""
    if isinstance(feasible, Box):
        return rng.uniform(feasible.lower, feasible.upper)
    direction = rng.standard_normal(feasible.dim)
    direction /= max(np.linalg.norm(direction), 1e-300)
    return direction * feasible.radius * rng.random() ** (1.0 / feasible.dim)


class TestStepSizeSchedule:
    def test_values(self):
        steps = StepSizeSchedule(2.0)
        assert steps.alpha(0) == 2.0
        assert steps.alpha(1) == 2.0
        assert steps.alpha(4) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSizeSchedule(0.0)
        with pytest.raises(IterationOutOfRangeError):
            StepSizeSchedule(1.0).alpha(-1)

    def test_partial_sums(self):
        steps = StepSizeSchedule(0.5)
        assert steps.partial_sum(0) == 0.0
        assert steps.partial_sum(1) == 0.5
        assert steps.partial_sum(2) == 1.0
        assert steps.partial_sum(3) == pytest.approx(1.0 + 0.5 / math.sqrt(2.0))

    def test_partial_sum_stays_below_root_envelope(self):
        steps = StepSizeSchedule(1.25)
        for T in (1, 10, 100, 10_000, 1_000_000):
            assert steps.partial_sum(T) <= 2.0 * 1.25 * math.sqrt(T) + 1.25


class TestProximalProjection:
    def test_zero_dual_maps_to_zero(self):
        assert proximal_projection(np.zeros(2), 1.0, Ball(1.0, 2)).tolist() == [0.0, 0.0]

    def test_interior_and_boundary(self):
        ball = Ball(1.0, 2)
        assert proximal_projection([1.0, 0.0], 0.5, ball).tolist() == [-0.5, 0.0]
        assert proximal_projection([4.0, 0.0], 1.0, ball).tolist() == [-1.0, 0.0]

    def test_batch_input(self):
        out = proximal_projection(np.array([[1.0], [-9.0]]), 1.0, unit_box)
        assert out.ravel().tolist() == [0.0, 1.0]

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            proximal_projection([1.0], 0.0, unit_box)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), use_ball=st.booleans())
    def test_minimizer_inequality(self, seed, use_ball):
        # x solves min <z, v> + ||v||^2 / (2 alpha), so the gradient at x
        # cannot point into the set: <z + x / alpha, y - x> >= 0 for all
        # feasible y.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        feasible = Ball(1.5, d) if use_ball else Box(-np.ones(d), 2 * np.ones(d))
        z = rng.uniform(-4, 4, size=d)
        alpha = float(rng.uniform(0.01, 10.0))
        x = proximal_projection(z, alpha, feasible)
        for _ in range(5):
            y = sample_feasible(feasible, rng)
            assert (z + x / alpha) @ (y - x) >= -1e-9


class TestCentralized:
    def test_constant_objective_stays_at_origin(self):
        p = OptProblem((LinearCost([0.0]),), Box([-1.0], [1.0]))
        trace = run_centralized_dual_averaging(p, StepSizeSchedule(1.0), 50)
        assert np.all(trace.estimates == 0.0)
        assert np.all(trace.duals == 0.0)

    def test_kink_objective_converges(self):
        p = OptProblem((AbsDistanceCost([0.5]),), unit_box)
        trace = run_centralized_dual_averaging(p, StepSizeSchedule(1.0), 10_000)
        assert abs(trace.estimates[-1, 0] - 0.5) < 1e-4
        assert abs(trace.running_average()[0] - 0.5) < 1e-3

    def test_linear_on_ball_is_exact(self):
        c = np.array([3.0, 4.0])
        p = OptProblem((LinearCost(c),), Ball(1.0, 2))
        trace = run_centralized_dual_averaging(p, StepSizeSchedule(1.0), 100)
        assert np.abs(trace.estimates[-1] + c / 5.0).max() <= 1e-12
        assert p.objective(trace.estimates[-1]) == pytest.approx(-5.0, abs=1e-12)

    def test_running_average_is_estimate_mean(self):
        p = median_problem_single()
        trace = run_centralized_dual_averaging(p, StepSizeSchedule(0.5), 20)
        manual = trace.estimates[1:8].mean(axis=0)
        assert np.array_equal(trace.running_average(7), manual)
        with pytest.raises(IterationOutOfRangeError):
            trace.running_average(0)
        with pytest.raises(IterationOutOfRangeError):
            trace.running_average(21)

    def test_rejects_negative_horizon(self):
        with pytest.raises(IterationOutOfRangeError):
            run_centralized_dual_averaging(
                median_problem_single(), StepSizeSchedule(1.0), -1
            )


def median_problem_single():
    return OptProblem((AbsDistanceCost([0.5]),), unit_box)


class TestDistributed:
    def test_rejects_negative_horizon(self):
        # Once an IndexError from the empty history it allocated.
        with pytest.raises(IterationOutOfRangeError, match=r"^horizon must be >= 0, got -1$"):
            run_distributed_dual_averaging(
                single, median_problem_single(), all_reliable(single, 2), StepSizeSchedule(1.0), -1
            )

    def test_single_agent_equals_centralized_box(self):
        p = median_problem_single()
        steps = StepSizeSchedule(1.0)
        cent = run_centralized_dual_averaging(p, steps, 200)
        dist = run_distributed_dual_averaging(
            single, p, all_reliable(single, 200), steps, 200
        )
        assert np.array_equal(dist.estimates[:, 0, :], cent.estimates)

    def test_single_agent_equals_centralized_ball(self):
        p = OptProblem((L2DistanceCost([0.3, 0.4]),), Ball(1.0, 2))
        steps = StepSizeSchedule(0.5)
        cent = run_centralized_dual_averaging(p, steps, 150)
        dist = run_distributed_dual_averaging(
            single, p, all_reliable(single, 150), steps, 150
        )
        assert np.array_equal(dist.estimates[:, 0, :], cent.estimates)

    def test_identical_costs_move_in_lockstep(self, three_ring):
        components = tuple(AbsDistanceCost([0.5]) for _ in range(3))
        p = OptProblem(components, unit_box)
        trace = run_distributed_dual_averaging(
            three_ring, p, all_reliable(three_ring, 100), StepSizeSchedule(1.0), 100
        )
        spread = (trace.estimates.max(axis=1) - trace.estimates.min(axis=1)).max()
        assert spread <= 1e-9

    def test_dual_average_identity(self, three_ring):
        schedule = bernoulli_b_bounded(three_ring, 0.5, 2, 500, seed=21)
        trace = run_distributed_dual_averaging(
            three_ring, median_problem(), schedule, StepSizeSchedule(1.0), 500
        )
        # The dual values summed over all nodes, rebuilt from the subgradients.
        worst = max(
            np.abs(
                trace.values[t].sum(axis=0) / 3 - trace.subgradients[:t].sum(axis=(0, 1)) / 3
            ).max()
            for t in range(501)
        )
        assert worst <= 1e-9

    def test_estimates_stay_feasible(self, three_ring):
        schedule = bernoulli_b_bounded(three_ring, 0.7, 3, 200, seed=4)
        p = median_problem()
        trace = run_distributed_dual_averaging(
            three_ring, p, schedule, StepSizeSchedule(2.0), 200
        )
        for t in range(201):
            for i in range(3):
                assert p.feasible.contains(trace.estimates[t, i], tol=1e-12)

    def test_running_averages_approach_optimal_value(self, three_ring):
        p = median_problem()
        gaps = {}
        for T in (1000, 4000):
            schedule = bernoulli_b_bounded(three_ring, 0.5, 2, T, seed=8)
            trace = run_distributed_dual_averaging(
                three_ring, p, schedule, StepSizeSchedule(1.0), T
            )
            gaps[T] = max(
                p.objective(running_average(trace, agent)) - 1.0 / 3.0
                for agent in (1, 2, 3)
            )
        assert gaps[4000] < 0.06
        assert gaps[4000] < gaps[1000]

    def test_component_count_must_match(self, three_ring):
        p = median_problem_single()
        with pytest.raises(DimensionMismatchError):
            run_distributed_dual_averaging(
                three_ring, p, all_reliable(three_ring, 5), StepSizeSchedule(1.0), 5
            )

    def test_schedule_too_short(self, three_ring):
        with pytest.raises(ScheduleTooShortError):
            run_distributed_dual_averaging(
                three_ring,
                median_problem(),
                all_reliable(three_ring, 5),
                StepSizeSchedule(1.0),
                6,
            )

    def test_trace_range_checks(self, three_ring):
        trace = run_distributed_dual_averaging(
            three_ring,
            median_problem(),
            all_reliable(three_ring, 5),
            StepSizeSchedule(1.0),
            5,
        )
        with pytest.raises(IterationOutOfRangeError):
            trace.ratios(6)
        with pytest.raises(IterationOutOfRangeError):
            running_average(trace, 4, 5)
        with pytest.raises(IterationOutOfRangeError):
            running_average(trace, 1, 0)


def interleaved_problem(d, feasible):
    """Kinds out of order, [L2, Linear, Abs, L2, Abs, Linear], with the first
    L2 and Abs anchors at the origin, where every agent starts: the first
    round evaluates both exactly at their kink."""
    rng = np.random.default_rng(d)

    def anchor():
        return rng.uniform(-0.8, 0.8, d)

    components = (
        L2DistanceCost(np.zeros(d)),
        LinearCost(anchor()),
        AbsDistanceCost(np.zeros(d)),
        L2DistanceCost(anchor()),
        AbsDistanceCost(anchor()),
        LinearCost(anchor()),
    )
    return OptProblem(components, feasible)


FEASIBLE_SETS = {"box": lambda d: Box(-np.ones(d), np.ones(d)), "ball": lambda d: Ball(1.0, d)}


def interleaved_run(set_name, d, T=80):
    g = random_strongly_connected(6, np.random.default_rng(3))
    problem = interleaved_problem(d, FEASIBLE_SETS[set_name](d))
    schedule = bernoulli_b_bounded(g, 0.5, 3, T, seed=3)
    steps = StepSizeSchedule(0.8)
    trace = run_distributed_dual_averaging(g, problem, schedule, steps, T)
    return g, problem, schedule, steps, trace


def oracle_dual_averaging(g, problem, schedule, steps, T):
    """The allocating loop: the convergent cumulative round on fresh arrays
    every round (as test_consensus's allocating round), scalar subgradients,
    ``np.clip`` for a box, and each round's state written into the history
    afterwards."""
    n, d = g.n, problem.dim
    fs = problem.feasible
    src, dst = g.edge_sources, g.edge_destinations
    D = (g.out_degrees + 1).astype(float)[:, None]
    agents = np.hstack([np.zeros((n, d)), np.ones((n, 1))])
    sent, delivered = np.zeros((n, d + 1)), np.zeros((g.num_edges, d + 1))
    mass = np.zeros((T + 1, n + g.num_edges, d + 1))
    mass[0, :n] = agents
    estimates = np.zeros((T + 1, n, d))
    subgradients = np.zeros((T, n, d))
    x = np.zeros((n, d))
    for t in range(1, T + 1):
        share = agents / D
        sent = sent + share
        arrived = np.where(schedule.delivered(t)[:, None], sent[src], delivered)
        np.add.at(share, dst, arrived - delivered)
        delivered = arrived
        agents = share / D
        sent = sent + agents
        grads = np.stack([c.subgradient(x[i]) for i, c in enumerate(problem.components)])
        agents[:, :d] += grads
        y = -steps.alpha(t - 1) * (agents[:, :d] / agents[:, d:])
        x = np.clip(y, fs.lower, fs.upper) if isinstance(fs, Box) else fs.project(y)
        mass[t, :n] = agents
        mass[t, n:] = sent[src] - delivered
        subgradients[t - 1] = grads
        estimates[t] = x
    return mass, estimates, subgradients


def assert_matches_oracle(g, problem, schedule, steps, T):
    trace = run_distributed_dual_averaging(g, problem, schedule, steps, T)
    d = problem.dim
    mass, estimates, subgradients = oracle_dual_averaging(g, problem, schedule, steps, T)
    assert trace.values.tobytes() == np.ascontiguousarray(mass[..., :d]).tobytes()
    assert trace.weights.tobytes() == np.ascontiguousarray(mass[..., d]).tobytes()
    assert trace.estimates.tobytes() == estimates.tobytes()
    assert trace.subgradients.tobytes() == subgradients.tobytes()
    return trace


# Problems of one cost kind: the kernel's loop over further kinds is empty.
SINGLE_KIND = {
    "linear": lambda rng, n, d: [LinearCost(rng.uniform(-1.0, 1.0, d)) for _ in range(n)],
    "abs": lambda rng, n, d: [AbsDistanceCost(rng.uniform(-0.8, 0.8, d)) for _ in range(n)],
    "l2": lambda rng, n, d: [L2DistanceCost(rng.uniform(-0.8, 0.8, d)) for _ in range(n)],
}


class TestInPlaceLoop:
    @pytest.mark.parametrize("set_name", sorted(FEASIBLE_SETS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_recorded_subgradients_are_the_scalar_ones(self, set_name, d):
        _, problem, _, _, trace = interleaved_run(set_name, d)
        for t in range(1, trace.horizon + 1):
            for i, c in enumerate(problem.components):
                expected = c.subgradient(trace.estimates[t - 1, i])
                assert trace.subgradients[t - 1, i].tobytes() == expected.tobytes()
        # Round 1 sits on the origin anchors: the kink subgradient +0.
        for i in (0, 2):
            assert trace.estimates[0, i].tolist() == [0.0] * d
            g = trace.subgradients[0, i]
            assert g.tolist() == [0.0] * d and not np.signbit(g).any()

    @pytest.mark.parametrize("set_name", sorted(FEASIBLE_SETS))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_allocating_loop(self, set_name, d):
        g, problem, schedule, steps, trace = interleaved_run(set_name, d)
        assert_matches_oracle(g, problem, schedule, steps, trace.horizon)

    @pytest.mark.parametrize("set_name", sorted(FEASIBLE_SETS))
    @pytest.mark.parametrize("kind", sorted(SINGLE_KIND))
    @pytest.mark.parametrize("d", [1, 2])
    def test_single_kind_matches_the_allocating_loop(self, set_name, kind, d):
        rng = np.random.default_rng(len(kind) + d)
        g = random_strongly_connected(5, rng)
        problem = OptProblem(tuple(SINGLE_KIND[kind](rng, g.n, d)), FEASIBLE_SETS[set_name](d))
        schedule = bernoulli_b_bounded(g, 0.5, 3, 60, seed=d)
        assert_matches_oracle(g, problem, schedule, StepSizeSchedule(0.9), 60)

    @pytest.mark.parametrize("set_name", sorted(FEASIBLE_SETS))
    @pytest.mark.parametrize("make_schedule", [all_reliable, periodic_adversarial])
    def test_all_true_and_all_false_rounds(self, set_name, make_schedule):
        # all_reliable delivers on every link in every round; the periodic
        # schedule drops every link in whole rounds between deliveries.
        g = random_strongly_connected(6, np.random.default_rng(3))
        problem = interleaved_problem(2, FEASIBLE_SETS[set_name](2))
        args = (g, 60) if make_schedule is all_reliable else (g, 3, 60)
        schedule = make_schedule(*args)
        masks = schedule.indicators.astype(bool)
        assert masks.all(axis=1).any()
        if make_schedule is periodic_adversarial:
            assert (~masks).all(axis=1).any()
        assert_matches_oracle(g, problem, schedule, StepSizeSchedule(0.8), 60)

    @pytest.mark.parametrize("set_name", ["box", "ball"])
    def test_overflowing_norms_match_the_allocating_loop(self, set_name):
        # A wide set and a huge step put the estimates near 1e250, where
        # the squared L2 offsets overflow: the kernel rescues them, with no
        # numpy warning, and every agent keeps moving.
        g = random_strongly_connected(5, np.random.default_rng(4))
        feasible = Box([-1e300] * 2, [1e300] * 2) if set_name == "box" else Ball(1e300, 2)
        rng = np.random.default_rng(4)
        components = tuple(L2DistanceCost(rng.uniform(-1.0, 1.0, 2)) for _ in range(g.n))
        problem = OptProblem(components[:-1] + (AbsDistanceCost([0.0, 0.0]),), feasible)
        schedule = bernoulli_b_bounded(g, 0.5, 3, 40, seed=4)
        trace = assert_matches_oracle(g, problem, schedule, StepSizeSchedule(1e250), 40)
        assert np.abs(trace.estimates[1:]).max() > 1e154
        norms = np.linalg.norm(trace.subgradients[1:, :-1], axis=-1)
        assert np.allclose(norms, 1.0, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", [1, 2027])
    def test_benchmark_shape(self, seed):
        g, problem, schedule = benchmark_shape(seed, 500)
        assert_matches_oracle(g, problem, schedule, StepSizeSchedule(1.0), 500)

    @pytest.mark.parametrize("set_name", sorted(FEASIBLE_SETS))
    @pytest.mark.parametrize("d", [1, 2])
    def test_three_kinds_share_one_offset(self, set_name, d):
        # [Linear, Abs, L2] twice: the kernel subtracts x - params on the
        # linear rows too, and the linear kind, first, fills every row.
        rng = np.random.default_rng(10 + d)
        g = random_strongly_connected(6, rng)
        kinds = (LinearCost, AbsDistanceCost, L2DistanceCost) * 2
        problem = OptProblem(
            tuple(kind(rng.uniform(-0.8, 0.8, d)) for kind in kinds), FEASIBLE_SETS[set_name](d)
        )
        schedule = bernoulli_b_bounded(g, 0.5, 3, 60, seed=d)
        assert_matches_oracle(g, problem, schedule, StepSizeSchedule(0.9), 60)

    def test_l2_norm_zero_mid_run(self):
        # Linear costs drive every agent into the corner (1, 1), where the
        # L2 agent's anchor sits: its offset norm becomes exactly 0 after
        # round 1, and its subgradient there is the scalar oracle's +0.
        problem, trace = corner_run(L2DistanceCost([1.0, 1.0]))
        norms = offset_norms(problem, trace)
        at_anchor = np.flatnonzero(norms[:, 0] == 0.0)
        assert at_anchor.size and at_anchor[0] >= 1
        grads = trace.subgradients[at_anchor, 0]
        assert (grads == 0.0).all() and not np.signbit(grads).any()

    @pytest.mark.parametrize("offset", ["zero", "overflow"])
    def test_slow_division_from_a_non_l2_row(self, offset):
        # Only a non-L2 row has a zero offset (an |.|_1 anchor on the corner
        # the agents reach) or an overflowing one (a linear cost of 1e300),
        # so the L2 rows take the rescued, masked division while each of
        # their own norms is finite and nonzero.
        special = AbsDistanceCost([1.0, 1.0]) if offset == "zero" else LinearCost([1e300, -1e300])
        problem, trace = corner_run(special)
        norms = offset_norms(problem, trace)
        l2 = [isinstance(c, L2DistanceCost) for c in problem.components]
        assert (norms[:, l2] > 0.0).all() and np.isfinite(norms[:, l2]).all()
        slow = ((norms == 0.0) | np.isinf(norms)).any(axis=1)
        assert slow[1:].any()
        # The corner is reached mid-run, so that run takes both divisions;
        # the linear cost of 1e300 overflows in every round.
        assert slow.all() == (offset == "overflow")


def benchmark_shape(seed, T):
    """An 8-agent directed ring with |.|_1 and |.|_2 costs alternating, in
    the box [-1, 1]^2, under B = 2 drops with p = 0.5."""
    rng = np.random.default_rng(seed)
    g = build_graph(8, [(i, i % 8 + 1) for i in range(1, 9)])
    anchors = rng.uniform(-1.0, 1.0, (8, 2))
    components = tuple(
        AbsDistanceCost(a) if i % 2 == 0 else L2DistanceCost(a) for i, a in enumerate(anchors)
    )
    problem = OptProblem(components, Box([-1.0, -1.0], [1.0, 1.0]))
    return g, problem, bernoulli_b_bounded(g, 0.5, 2, T, seed=seed)


def corner_run(first, T=60):
    """The problem and trace of a run with agent 1's cost ``first``, then
    linear costs of -(1, 1), which push every estimate into the box corner
    (1, 1), and L2 costs anchored inside the box; checked against the
    allocating loop bit for bit."""
    g = random_strongly_connected(6, np.random.default_rng(5))
    anchors = np.random.default_rng(5).uniform(-0.8, 0.8, (2, 2))
    components = (first, LinearCost([-1.0, -1.0]), L2DistanceCost(anchors[0]),
                  LinearCost([-1.0, -1.0]), L2DistanceCost(anchors[1]), LinearCost([-1.0, -1.0]))
    problem = OptProblem(components, Box([-1.0, -1.0], [1.0, 1.0]))
    schedule = bernoulli_b_bounded(g, 0.5, 3, T, seed=5)
    return problem, assert_matches_oracle(g, problem, schedule, StepSizeSchedule(1.0), T)


def offset_norms(problem, trace):
    """(T, n): the norm of each row's offset x - parameter that round t's
    kernel divides by, for estimates[t - 1]."""
    params = np.array([c.c if isinstance(c, LinearCost) else c.a for c in problem.components])
    with np.errstate(over="ignore"):
        return np.linalg.norm(trace.estimates[:-1] - params, axis=-1)


# sha256 of the arrays of a benchmark-shaped run at T = 10^4, made before
# the kernel took one shared offset and a plain division.
LIBRARY_RUN_DIGESTS = {
    1: {
        "estimates": "be45ef955833c8ae1afc3c1f9ba54ae08bd266457410da14b6e8aae0cc47d050",
        "subgradients": "bb2b17c84568e6a8ac72dff26575b3041b1bd0582b160d6158790f5874cd586d",
        "values": "93067107185f4e1943e0c1915e7b0d5f30ca5750b176db81c88fb22c0df08b99",
        "weights": "68ba5b44e27d8e33bab71cea26602e7c586f0cd11495900d119ed787930108f2",
    },
    2027: {
        "estimates": "5fc8a459623b9b12069167b182651bfce31b5fe60f5979a9023b17057e78aea3",
        "subgradients": "0b494d37ab63316d0b21eb5ce73932e6a91b0ab5c95f7284019f8e7e26c97a42",
        "values": "b1682b9984320ab15851c1ff1641426e17b211faf788f759d12a355305e4e83e",
        "weights": "0906f883b377a0f9b88ba9e98deef0fa2f0b531be9e1f07d5a1f052426b952c3",
    },
}


class TestLibraryRunDigests:
    @pytest.mark.parametrize("seed", sorted(LIBRARY_RUN_DIGESTS))
    def test_benchmark_shape_at_ten_thousand_rounds(self, seed):
        g, problem, schedule = benchmark_shape(seed, 10_000)
        trace = run_distributed_dual_averaging(g, problem, schedule, StepSizeSchedule(1.0), 10_000)
        digests = {
            name: hashlib.sha256(getattr(trace, name).tobytes()).hexdigest()
            for name in LIBRARY_RUN_DIGESTS[seed]
        }
        assert digests == LIBRARY_RUN_DIGESTS[seed]


def _closure_arrays(fn):
    """The arrays bound in a kernel's closure cells, through nested kernels
    and tuples of them."""
    stack = [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            stack.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            stack.extend(c.cell_contents for c in item.__closure__)


class TestRunIsolation:
    """Runs on one graph, schedule and problem, back to back with different
    inputs and step constants, share no array and leave nothing behind."""

    def test_back_to_back_runs(self, monkeypatch):
        # Weak references to what each run binds: the round state with its
        # work arrays and mask view, the round generator, the subgradient
        # kernel with its scratch, and the projection with its bounds.
        tracked = []
        kinds = []

        def track(kind, *objects):
            kinds.append(kind)
            tracked.extend(weakref.ref(o) for o in objects)

        class TrackedState(_CumulativeState):
            def __init__(self, g, schedule, history):
                super().__init__(g, schedule, history)
                names = ("shares", "sent", "delivered", "_offered", "_increments", "_flat_dst",
                         "_masks")
                track("state", self, *(getattr(self, name) for name in names))

            def rounds(self, reshare):
                rounds = super().rounds(reshare)
                track("rounds", rounds)
                return rounds

        make_kernel, make_projector = OptProblem._subgradient_kernel, Box._projector

        def tracked_kernel(problem):
            kernel = make_kernel(problem)
            owned = {id(problem._params)} | {id(rows) for _, rows in problem._kinds}
            scratch = [a for a in _closure_arrays(kernel) if id(a) not in owned]
            # The shared offsets are scratch of the run: after a call, one
            # scratch array holds x - params.
            x = np.random.default_rng(0).uniform(-1.0, 1.0, problem._params.shape)
            kernel(x, np.empty_like(x))
            assert any(np.array_equal(a, x - problem._params) for a in scratch)
            track("kernel", kernel, *scratch)
            return kernel

        def tracked_projector(box, shape):
            project = make_projector(box, shape)
            bounds = [a for a in project.args if isinstance(a, np.ndarray)]
            assert len(bounds) == 2 and all(b.shape == shape for b in bounds)
            track("projector", project, *bounds)
            return project

        monkeypatch.setattr(consensus, "_CumulativeState", TrackedState)
        monkeypatch.setattr(dual_averaging, "_CumulativeState", TrackedState)
        monkeypatch.setattr(OptProblem, "_subgradient_kernel", tracked_kernel)
        monkeypatch.setattr(Box, "_projector", tracked_projector)
        g = random_strongly_connected(6, np.random.default_rng(8))
        problem = interleaved_problem(2, Box(-np.ones(2), np.ones(2)))
        params = [(c.c if isinstance(c, LinearCost) else c.a).copy() for c in problem.components]
        schedule = bernoulli_b_bounded(g, 0.5, 3, 50, seed=8)
        y1 = np.random.default_rng(1).uniform(-2.0, 2.0, (6, 2))
        y2 = np.random.default_rng(2).uniform(-2.0, 2.0, (6, 2))
        kept = (y1.copy(), y2.copy())

        def runs(y, constant):
            return [
                consensus.run_robust_push_sum(g, y, schedule, 50),
                consensus.run_convergent_robust_push_sum(g, y, schedule, 50),
                dual_averaging.run_distributed_dual_averaging(
                    g, problem, schedule, StepSizeSchedule(constant), 50
                ),
            ]

        def arrays(trace):
            names = ("values", "weights", "estimates", "subgradients")
            return [getattr(trace, k) for k in names if hasattr(trace, k)]

        # What a run binds is not stored on the objects it reads.  The
        # problem keeps the attributes it was built with (the graph caches
        # its tables on first use), and none of them changes between runs.
        owners = (g, schedule, problem, problem.feasible)
        built = dict(vars(problem))
        first = runs(y1, 0.7)
        assert vars(problem).keys() == built.keys()
        assert all(vars(problem)[k] is v for k, v in built.items())
        attributes = [dict(vars(o)) for o in owners]
        snapshot = [a.tobytes() for trace in first for a in arrays(trace)]
        gc.collect()
        count = len(tracked)
        assert kinds == ["state", "rounds"] * 3 + ["kernel", "projector"]
        assert all(ref() is None for ref in tracked)
        second = runs(y2, 2.5)
        gc.collect()
        assert len(tracked) == 2 * count and all(ref() is None for ref in tracked)
        for o, before in zip(owners, attributes):
            after = vars(o)
            assert after.keys() == before.keys()
            assert all(after[k] is v for k, v in before.items())
        assert [a.tobytes() for trace in first for a in arrays(trace)] == snapshot
        for a in (a for trace in first for a in arrays(trace)):
            assert not any(np.shares_memory(a, b) for trace in second for b in arrays(trace))
        assert y1.tobytes() == kept[0].tobytes() and y2.tobytes() == kept[1].tobytes()
        for c, p in zip(problem.components, params):
            assert (c.c if isinstance(c, LinearCost) else c.a).tobytes() == p.tobytes()
        # The two runs differ, so a shared buffer would have shown.
        assert not np.array_equal(first[0].values, second[0].values)
        assert not np.array_equal(first[2].estimates, second[2].estimates)

    @pytest.mark.parametrize("module", [consensus, dual_averaging, problems])
    def test_no_module_level_buffers_or_caches(self, module):
        for name, value in vars(module).items():
            assert not isinstance(value, np.ndarray), name
            assert not hasattr(value, "cache_info"), name


class TestMixingError:
    def test_single_agent_measures_zero(self):
        trace = run_distributed_dual_averaging(
            single,
            median_problem_single(),
            all_reliable(single, 20),
            StepSizeSchedule(1.0),
            20,
        )
        # Every iteration from the first block (t = 2) on measures zero.
        assert certify_mixing_error(trace, 1).measured == 0.0

    def test_bound_edge_cases(self, two_cycle):
        assert mixing_error_bound(two_cycle, 1, 0.0) == 0.0
        assert mixing_error_bound(single, 1, 1.0) == math.inf
        with pytest.raises(ValueError):
            mixing_error_bound(two_cycle, 1, -1.0)

    def test_bound_matches_high_precision_arithmetic(self, two_cycle):
        got = mixing_error_bound(two_cycle, 1, 1.0)
        with mpmath.workdps(50):
            beta = mpmath.mpf(1) / 4
            block = 3
            gamma = 1 - beta**block
            denom = (
                beta**block
                * (1 - gamma ** (mpmath.mpf(1) / block))
                * gamma ** (mpmath.mpf(block - 1) / block)
            )
            expected = float(1 / denom)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bound_finite_when_floor_is_below_epsilon(self):
        # A 12-agent ring with B = 2 has beta**block = 4**-25, so
        # 1 - gamma**(1/block) must not be formed by cancellation.
        ring = build_graph(12, [(i, i % 12 + 1) for i in range(1, 13)])
        floor = 0.25**25
        got = mixing_error_bound(ring, 2, 1.0)
        assert math.isfinite(got)
        with mpmath.workdps(50):
            f = mpmath.mpf(floor)
            gamma = 1 - f
            expected = float(
                1 / (f * (1 - gamma ** (mpmath.mpf(1) / 25)) * gamma ** (mpmath.mpf(24) / 25))
            )
        assert got == pytest.approx(expected, rel=1e-12)
        gap = optimality_gap_bound(median_problem(), ring, 2, StepSizeSchedule(1.0), 25)
        assert math.isfinite(gap)

    def test_bounds_finite_on_six_agent_graph(self):
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 3), (2, 5)]
        g = build_graph(6, edges)
        assert math.isfinite(mixing_error_bound(g, 3, 1.0))
        assert math.isfinite(
            optimality_gap_bound(median_problem(), g, 3, StepSizeSchedule(1.0), 19)
        )

    def test_certificate_on_lossy_run(self, three_ring):
        schedule = bernoulli_b_bounded(three_ring, 0.5, 2, 300, seed=13)
        trace = run_distributed_dual_averaging(
            three_ring, median_problem(), schedule, StepSizeSchedule(1.0), 300
        )
        cert = certify_mixing_error(trace, 2)
        assert cert.passed
        assert contraction_constants(three_ring, 2)[2] == 7
        assert 7 <= cert.where["worst_t"] <= 300
        assert cert.measured <= cert.bound

    def test_certificate_needs_one_block(self, three_ring):
        trace = run_distributed_dual_averaging(
            three_ring,
            median_problem(),
            all_reliable(three_ring, 3),
            StepSizeSchedule(1.0),
            3,
        )
        with pytest.raises(HorizonTooShortError):
            certify_mixing_error(trace, 1)


class TestGapBound:
    def test_horizon_must_cover_a_block(self, two_cycle):
        p = OptProblem((AbsDistanceCost([0.0]), AbsDistanceCost([1.0])), unit_box)
        with pytest.raises(HorizonTooShortError):
            optimality_gap_bound(p, two_cycle, 1, StepSizeSchedule(1.0), 2)

    def test_constant_objective_leaves_radius_term(self, two_cycle):
        p = OptProblem((LinearCost([0.0]), LinearCost([0.0])), unit_box)
        bound = optimality_gap_bound(p, two_cycle, 1, StepSizeSchedule(1.0), 4)
        assert bound == 0.25

    def test_lipschitz_beyond_the_square_range(self, two_cycle):
        # L * L overflows to inf where L**2 raised OverflowError.
        p = OptProblem((LinearCost([1e200]), LinearCost([0.0])), unit_box)
        assert p.lipschitz_bound == 1e200
        bound = optimality_gap_bound(p, two_cycle, 1, StepSizeSchedule(1.0), 4)
        assert bound == math.inf
        mixing = mixing_error_bound(two_cycle, 1, p.lipschitz_bound)
        assert mixing == 1e200 * mixing_error_bound(two_cycle, 1, 1.0)

    def test_single_agent_bound_degenerates(self):
        p = median_problem_single()
        bound = optimality_gap_bound(p, single, 1, StepSizeSchedule(1.0), 10)
        assert bound == math.inf

    def test_bound_matches_high_precision_arithmetic(self, two_cycle):
        p = OptProblem((AbsDistanceCost([0.0]), AbsDistanceCost([1.0])), unit_box)
        got = optimality_gap_bound(p, two_cycle, 1, StepSizeSchedule(1.0), 64)
        with mpmath.workdps(50):
            beta = mpmath.mpf(1) / 4
            block = 3
            gamma = 1 - beta**block
            root = mpmath.sqrt(64)
            approx = 2 * root * 2 / 64 + 2 / mpmath.mpf(64)
            radius = mpmath.mpf("0.5") / root
            denom = (
                beta**block
                * (1 - gamma ** (mpmath.mpf(1) / block))
                * gamma ** (mpmath.mpf(block - 1) / block)
            )
            network = 3 / denom * (2 * root + 1) / 64
            expected = float(approx + radius + network)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bound_shrinks_with_horizon(self, three_ring):
        p = median_problem()
        steps = StepSizeSchedule(1.0)
        bounds = [
            optimality_gap_bound(p, three_ring, 1, steps, T)
            for T in (100, 400, 1600, 6400)
        ]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_certificate_on_lossy_run(self, three_ring):
        schedule = bernoulli_b_bounded(three_ring, 0.5, 3, 300, seed=17)
        p = median_problem()
        trace = run_distributed_dual_averaging(
            three_ring, p, schedule, StepSizeSchedule(1.0), 300
        )
        cert = certify_optimality_gap(trace, 3)
        assert cert.passed
        assert cert.allowance == _reference_slack(p) == 1e-4
        gaps = cert.detail["per_agent_gap"]
        assert len(gaps) == 3
        assert cert.measured == max(gaps)
        assert solve_reference(p).value == pytest.approx(1.0 / 3.0, abs=2e-4)

    def test_certificate_accepts_reference_override(self, three_ring):
        schedule = bernoulli_b_bounded(three_ring, 0.3, 2, 100, seed=2)
        p = median_problem()
        trace = run_distributed_dual_averaging(
            three_ring, p, schedule, StepSizeSchedule(0.5), 100
        )
        exact = solve_reference(
            OptProblem(p.components, p.feasible, optimum=[0.5])
        )
        cert = certify_optimality_gap(trace, 2, reference=exact)
        assert cert.passed
        averages = [running_average(trace, agent) for agent in (1, 2, 3)]
        assert cert.detail["per_agent_gap"] == tuple(
            p.objective_at(np.array(averages)) - exact.value
        )


def oracle_certify_optimality_gap(trace, B, reference):
    """The per-agent certificate the array code replaced: one running
    average and one objective value per agent, and the pass rule with the
    reference's allowance on the safe side."""
    T = trace.horizon
    bound = optimality_gap_bound(trace.problem, trace.graph, B, trace.step, T)
    gaps = [
        trace.problem.objective(trace.estimates[1 : T + 1, i].mean(axis=0)) - reference.value
        for i in range(trace.n)
    ]
    worst = int(np.argmax(gaps))
    slack = _reference_slack(trace.problem)
    passed = bool(gaps[worst] + slack <= bound)
    return Certificate(
        float(gaps[worst]), bound, passed, {"worst_agent": worst + 1}, slack,
        {"per_agent_gap": tuple(gaps)},
    )


def oracle_certify_mixing_error(trace, B):
    """The mixing certificate with its own inline ratio error, as before the
    shared kernel."""
    _, _, block = contraction_constants(trace.graph, B)
    T, n = trace.horizon, trace.n
    bound = mixing_error_bound(trace.graph, B, trace.problem.lipschitz_bound)
    zbar = trace.values.sum(axis=1) / n
    ratios = trace.values[:, :n] / trace.weights[:, :n, None]
    errors = np.linalg.norm(ratios - zbar[:, None, :], axis=2).max(axis=1)
    worst = int(np.argmax(errors[block : T + 1])) + block
    passed = bool(errors[worst] <= bound)
    return Certificate(float(errors[worst]), bound, passed, {"worst_t": worst})


def mixed_problem(d, rng, n):
    kinds = (AbsDistanceCost, L2DistanceCost, LinearCost)
    components = tuple(kinds[i % 3](rng.uniform(-1.0, 1.0, size=d)) for i in range(n))
    return OptProblem(components, Box(-np.ones(d), np.ones(d)))


class TestCertificatesMatchOracles:
    @pytest.mark.parametrize("seed", [1, 5, 2027])
    @pytest.mark.parametrize("d", [1, 2])
    def test_bernoulli_runs(self, seed, d):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(5, rng, 0.3)
        p = mixed_problem(d, rng, g.n)
        schedule = bernoulli_b_bounded(g, 0.5, 2, 2000, seed=seed)
        trace = run_distributed_dual_averaging(g, p, schedule, StepSizeSchedule(0.7), 2000)
        reference = solve_reference(p)
        assert certify_optimality_gap(trace, 2, reference) == (
            oracle_certify_optimality_gap(trace, 2, reference)
        )
        assert certify_mixing_error(trace, 2) == oracle_certify_mixing_error(trace, 2)


class TestNonFiniteMeasurement:
    @pytest.fixture
    def lossy_run(self, three_ring):
        schedule = bernoulli_b_bounded(three_ring, 0.5, 2, 60, seed=13)
        return run_distributed_dual_averaging(
            three_ring, median_problem(), schedule, StepSizeSchedule(1.0), 60
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixing_fails_at_first_non_finite_round(self, lossy_run, bad):
        values = lossy_run.values.copy()
        values[30, 1] = bad
        values[40, 0] = math.nan
        cert = certify_mixing_error(dataclasses.replace(lossy_run, values=values), 2)
        assert not cert.passed
        assert cert.where == {"worst_t": 30}
        assert not math.isfinite(cert.measured)

    def test_gap_fails_at_first_non_finite_agent(self, lossy_run):
        estimates = lossy_run.estimates.copy()
        estimates[50, 1] = math.nan
        estimates[10, 2] = math.nan
        exact = solve_reference(OptProblem(lossy_run.problem.components, unit_box, optimum=[0.5]))
        cert = certify_optimality_gap(dataclasses.replace(lossy_run, estimates=estimates), 2, exact)
        assert not cert.passed
        assert cert.where == {"worst_agent": 2}
        assert math.isnan(cert.measured)
