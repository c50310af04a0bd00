import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    AbsDistanceCost,
    Ball,
    Box,
    DimensionMismatchError,
    DimensionTooLargeError,
    L2DistanceCost,
    LinearCost,
    OptProblem,
    problem_from_spec,
    solve_reference,
)

unit_interval = Box([0.0], [1.0])


class TestBox:
    def test_projection_clips(self):
        box = Box([0.0, -1.0], [1.0, 1.0])
        assert box.project([2.0, -3.0]).tolist() == [1.0, -1.0]
        assert box.project([0.5, 0.0]).tolist() == [0.5, 0.0]

    def test_projection_is_batch_safe(self):
        box = Box([0.0], [1.0])
        out = box.project(np.array([[-1.0], [0.3], [7.0]]))
        assert out.ravel().tolist() == [0.0, 0.3, 1.0]

    def test_contains_and_violation(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert box.contains([0.0, 1.0])
        assert not box.contains([1.1, 0.5])
        # [1.25, -0.5] lies 0.5 outside the box on both axes.
        assert box.contains([1.25, -0.5], tol=0.5)
        assert not box.contains([1.25, -0.5], tol=0.49)
        assert box.contains([0.5, 0.5], tol=0.0)

    def test_diameter(self):
        assert Box([0.0, 0.0], [1.0, 1.0]).diameter == pytest.approx(np.sqrt(2.0))

    def test_default_radius(self):
        assert Box([0.0], [1.0]).psi_radius_sq == 0.5
        assert Box([-2.0], [1.0]).psi_radius_sq == 2.0

    def test_radius_override(self):
        assert Box([0.0], [1.0], radius_sq=3.0).psi_radius_sq == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Box([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            Box([2.0], [1.0])
        with pytest.raises(ValueError):
            Box([0.0], [np.inf])


class TestBall:
    def test_projection_rescales(self):
        ball = Ball(1.0, 2)
        assert np.allclose(ball.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
        assert ball.project([0.1, 0.2]).tolist() == [0.1, 0.2]
        assert ball.project([0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_projection_is_batch_safe(self):
        ball = Ball(1.0, 2)
        out = ball.project(np.array([[3.0, 4.0], [0.0, 0.5]]))
        assert np.allclose(out, [[0.6, 0.8], [0.0, 0.5]])

    def test_contains_and_violation(self):
        ball = Ball(2.0, 2)
        assert ball.contains([2.0, 0.0])
        assert not ball.contains([2.0, 1.0])
        # [3, 4] has norm 5, 3 beyond the radius.
        assert ball.contains([3.0, 4.0], tol=3.0)
        assert not ball.contains([3.0, 4.0], tol=2.99)
        assert ball.contains([1.0, 0.0], tol=0.0)

    def test_default_radius(self):
        assert Ball(2.0, 3).psi_radius_sq == 2.0
        assert Ball(2.0, 3, radius_sq=0.25).psi_radius_sq == 0.25

    def test_axis_interval_accounts_for_other_coordinates(self):
        lo, hi = Ball(1.0, 2).axis_interval([0.6, 0.0], 1)
        assert (lo, hi) == (-0.8, 0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ball(0.0, 2)
        with pytest.raises(ValueError):
            Ball(1.0, 0)


class TestCosts:
    def test_linear(self):
        cost = LinearCost([2.0, -1.0])
        assert cost.value([1.0, 1.0]) == 1.0
        assert cost.subgradient([5.0, 5.0]).tolist() == [2.0, -1.0]
        assert cost.lipschitz == pytest.approx(np.sqrt(5.0))

    def test_abs_distance(self):
        cost = AbsDistanceCost([0.5])
        assert cost.value([0.75]) == 0.25
        assert cost.subgradient([0.75]).tolist() == [1.0]
        assert cost.subgradient([0.25]).tolist() == [-1.0]
        assert cost.subgradient([0.5]).tolist() == [0.0]
        assert cost.lipschitz == 1.0
        assert AbsDistanceCost([0.0, 0.0]).lipschitz == pytest.approx(np.sqrt(2.0))

    def test_l2_distance(self):
        cost = L2DistanceCost([0.0, 0.0])
        assert cost.value([3.0, 4.0]) == 5.0
        assert cost.subgradient([3.0, 4.0]).tolist() == [0.6, 0.8]
        assert cost.subgradient([0.0, 0.0]).tolist() == [0.0, 0.0]
        assert cost.lipschitz == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 4),
        kind=st.integers(0, 2),
    )
    def test_subgradients_are_valid_and_bounded(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        param = rng.uniform(-2, 2, size=d)
        cost = (LinearCost, AbsDistanceCost, L2DistanceCost)[kind](param)
        x, y = rng.uniform(-3, 3, size=d), rng.uniform(-3, 3, size=d)
        g = cost.subgradient(x)
        assert np.linalg.norm(g) <= cost.lipschitz + 1e-12
        # Defining inequality of a subgradient at x.
        assert cost.value(y) >= cost.value(x) + g @ (y - x) - 1e-9


class TestOptProblem:
    def test_objective_is_component_mean(self):
        p = OptProblem(
            (AbsDistanceCost([0.0]), AbsDistanceCost([1.0])), unit_interval
        )
        assert p.objective([0.25]) == pytest.approx(0.5)
        assert p.objective_subgradient([0.25]).tolist() == [0.0]
        assert p.n_components == 2

    def test_lipschitz_default_and_override(self):
        components = (LinearCost([3.0, 4.0]), L2DistanceCost([0.0, 0.0]))
        assert OptProblem(components, Ball(1.0, 2)).lipschitz_bound == 5.0
        assert OptProblem(components, Ball(1.0, 2), lipschitz=9.0).lipschitz_bound == 9.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            OptProblem((LinearCost([1.0, 2.0]),), unit_interval)

    def test_needs_components(self):
        with pytest.raises(ValueError):
            OptProblem((), unit_interval)


class TestSolveReference:
    def test_known_optimum_is_projected_and_evaluated(self):
        p = OptProblem(
            (L2DistanceCost([2.0, 0.0]),), Ball(1.0, 2), optimum=[2.0, 0.0]
        )
        ref = solve_reference(p)
        assert ref.x.tolist() == [1.0, 0.0]
        assert ref.value == 1.0

    def test_linear_on_ball_closed_form(self):
        p = OptProblem((LinearCost([1.0, 0.0]), LinearCost([0.0, 1.0])), Ball(1.0, 2))
        ref = solve_reference(p)
        s = np.sqrt(0.5)
        assert np.allclose(ref.x, [-s, -s], atol=1e-15)
        assert ref.value == pytest.approx(-s, abs=1e-15)

    def test_linear_on_box_closed_form(self):
        p = OptProblem((LinearCost([2.0, -1.0]),), Box([0.0, 0.0], [1.0, 1.0]))
        ref = solve_reference(p)
        assert ref.x.tolist() == [0.0, 1.0]
        assert ref.value == -1.0

    def test_linear_zero_mean_direction(self):
        p = OptProblem((LinearCost([1.0]), LinearCost([-1.0])), Box([2.0], [3.0]))
        ref = solve_reference(p)
        assert ref.x.tolist() == [2.0]
        assert ref.value == 0.0

    def test_grid_single_kink(self):
        p = OptProblem((AbsDistanceCost([0.3]),), unit_interval)
        ref = solve_reference(p)
        assert abs(ref.x[0] - 0.3) < 2e-4
        assert ref.value < 2e-4

    def test_grid_three_point_median(self):
        components = tuple(AbsDistanceCost([a]) for a in (0.0, 0.5, 1.0))
        ref = solve_reference(OptProblem(components, unit_interval))
        assert abs(ref.x[0] - 0.5) < 2e-4
        assert ref.value == pytest.approx(1.0 / 3.0, abs=2e-4)

    def test_grid_two_dimensional_ball(self):
        p = OptProblem((L2DistanceCost([0.3, 0.4]),), Ball(1.0, 2))
        ref = solve_reference(p)
        assert np.linalg.norm(ref.x - [0.3, 0.4]) < 1e-3
        assert ref.value < 1e-3

    def test_grid_step_override(self):
        p = OptProblem((AbsDistanceCost([0.3]),), unit_interval)
        ref = solve_reference(p, grid_step=1e-6)
        assert abs(ref.x[0] - 0.3) < 1e-5

    def test_high_dimension_needs_known_optimum(self):
        p = OptProblem((L2DistanceCost([0.0, 0.0, 0.0]),), Ball(1.0, 3))
        with pytest.raises(DimensionTooLargeError):
            solve_reference(p)
        with_opt = OptProblem(
            p.components, p.feasible, optimum=np.zeros(3)
        )
        assert solve_reference(with_opt).value == 0.0


class TestProblemFromSpec:
    def test_box_problem(self):
        p = problem_from_spec(
            {
                "d": 1,
                "set": {"kind": "box", "lower": [0.0], "upper": [1.0]},
                "components": [
                    {"kind": "abs_distance", "a": [0.0]},
                    {"kind": "linear", "c": [2.0]},
                ],
            }
        )
        assert isinstance(p.feasible, Box)
        assert p.n_components == 2
        assert p.lipschitz_bound == 2.0

    def test_ball_problem_with_l_override(self):
        p = problem_from_spec(
            {
                "d": 2,
                "set": {"kind": "ball", "radius": 1.5},
                "components": [{"kind": "l2_distance", "a": [0.0, 0.0]}],
                "L": 4.0,
            }
        )
        assert isinstance(p.feasible, Ball)
        assert p.feasible.radius == 1.5
        assert p.lipschitz_bound == 4.0

    def test_radius_override_is_carried(self):
        p = problem_from_spec(
            {
                "d": 1,
                "set": {"kind": "box", "lower": [0.0], "upper": [1.0], "radius_sq": 2.0},
                "components": [{"kind": "linear", "c": [1.0]}],
            }
        )
        assert p.feasible.psi_radius_sq == 2.0

    def test_unknown_kinds(self):
        with pytest.raises(ValueError):
            problem_from_spec(
                {"d": 1, "set": {"kind": "simplex"}, "components": []}
            )
        with pytest.raises(ValueError):
            problem_from_spec(
                {
                    "d": 1,
                    "set": {"kind": "box", "lower": [0.0], "upper": [1.0]},
                    "components": [{"kind": "huber", "a": [0.0]}],
                }
            )

    def test_set_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            problem_from_spec(
                {
                    "d": 2,
                    "set": {"kind": "box", "lower": [0.0], "upper": [1.0]},
                    "components": [{"kind": "linear", "c": [1.0, 1.0]}],
                }
            )
