import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    AbsDistanceCost,
    Ball,
    Box,
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
    certify_optimality_gap,
    dual_identity_error,
    measured_mixing_error,
    mixing_error_bound,
    optimality_gap_bound,
    proximal_projection,
    run_centralized_dual_averaging,
    run_distributed_dual_averaging,
    running_average,
    solve_reference,
)

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
        worst = max(dual_identity_error(trace, t) for t in range(501))
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


class TestMixingError:
    def test_single_agent_measures_zero(self):
        trace = run_distributed_dual_averaging(
            single,
            median_problem_single(),
            all_reliable(single, 20),
            StepSizeSchedule(1.0),
            20,
        )
        assert measured_mixing_error(trace, 20) == 0.0

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
        assert cert.first_t == 7
        assert cert.first_t <= cert.worst_t <= 300
        assert cert.worst_error <= cert.bound

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
        cert = certify_optimality_gap(trace, 3, slack=1e-4)
        assert cert.passed
        assert len(cert.gaps) == 3
        assert cert.worst_gap == max(cert.gaps)
        assert cert.reference_value == pytest.approx(1.0 / 3.0, abs=2e-4)

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
        assert cert.reference_value == exact.value
