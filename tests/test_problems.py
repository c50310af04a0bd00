import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossynet import (
    AbsDistanceCost,
    Ball,
    Box,
    ConfigError,
    DimensionMismatchError,
    DimensionTooLargeError,
    L2DistanceCost,
    LinearCost,
    OptProblem,
    problem_from_spec,
    solve_reference,
)
from lossynet.problems import (
    COARSE_POINTS,
    GRID_STEP_FRACTION,
    POINTS_PER_BLOCK,
    _golden_refine,
    _reference_slack,
    _unit_set,
)

from oracles import objective_subgradient, subgradients

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

    def test_projection_has_the_bits_of_clip(self):
        # Signed zeros, infinities, NaN and subnormals, on bounds that are
        # themselves signed zeros, in a batch long enough for SIMD loops.
        special = [-0.0, 0.0, np.nan, -np.inf, np.inf, -1.0, 1.0, 0.5, -5e-324, 5e-324]
        box = Box([-0.0, 0.0, -1.0], [0.0, -0.0, 0.5])
        x = np.random.default_rng(4).choice(special, size=(300, 3))
        expected = np.clip(x, box.lower, box.upper)
        assert box.project(x).tobytes() == expected.tobytes()
        # A run's bound projector writes the same bits into its output.
        project = box._projector(x.shape)
        out = np.empty_like(x)
        assert project(x, out) is out
        assert out.tobytes() == expected.tobytes()
        assert project(x, x) is x and x.tobytes() == expected.tobytes()

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
        # psi's radius is the box's own: no value overrides it.
        with pytest.raises(TypeError, match="radius_sq"):
            Box([0.0], [1.0], radius_sq=3.0)

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

    def test_projection_into_out(self):
        # A run's bound projector writes project's bits into its output.
        ball = Ball(1.5, 3)
        x = np.random.default_rng(2).uniform(-2.0, 2.0, (50, 3))
        expected = ball.project(x)
        project = ball._projector(x.shape)
        out = np.empty_like(x)
        assert project(x, out) is out
        assert out.tobytes() == expected.tobytes()
        assert project(x, x) is x and x.tobytes() == expected.tobytes()

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
        with pytest.raises(TypeError, match="radius_sq"):
            Ball(2.0, 3, radius_sq=0.25)

    def test_axis_interval_accounts_for_other_coordinates(self):
        lo, hi = Ball(1.0, 2)._axis_interval([0.6, 0.0], 1)
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
        # A norm whose square overflows is rescued, with no numpy warning.
        assert LinearCost([1e200]).lipschitz == 1e200
        assert LinearCost([3e200, -4e200]).lipschitz == pytest.approx(5e200)

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
        assert objective_subgradient(p, [0.25]).tolist() == [0.0]
        assert p.n_components == 2

    def test_lipschitz_default_and_override(self):
        components = (LinearCost([3.0, 4.0]), L2DistanceCost([0.0, 0.0]))
        assert OptProblem(components, Ball(1.0, 2)).lipschitz_bound == 5.0
        # The largest component constant is the only one: none overrides it.
        with pytest.raises(TypeError, match="lipschitz"):
            OptProblem(components, Ball(1.0, 2), lipschitz=9.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            OptProblem((LinearCost([1.0, 2.0]),), unit_interval)

    def test_needs_components(self):
        with pytest.raises(ValueError):
            OptProblem((), unit_interval)


KINDS = (LinearCost, AbsDistanceCost, L2DistanceCost)


def _mixed_problem(seed: int, d: int, n: int = 7, feasible=None) -> OptProblem:
    """All three kinds, interleaved so that no kind's agents are contiguous."""
    rng = np.random.default_rng(seed)
    kinds = [KINDS[k % 3] for k in range(n)]
    rng.shuffle(kinds)
    components = tuple(kind(rng.uniform(-1.0, 1.0, d)) for kind in kinds)
    return OptProblem(components, feasible or Box(-np.ones(d), np.ones(d)))


# Oracles: the per-component scalar methods, summed as Python's sum does.
def _scalar_objective(p: OptProblem, x) -> float:
    return sum(c.value(x) for c in p.components) / p.n_components


def _scalar_subgradients(p: OptProblem, x: np.ndarray) -> np.ndarray:
    return np.stack([c.subgradient(x[i]) for i, c in enumerate(p.components)])


def _anchor(c) -> np.ndarray:
    return c.c if isinstance(c, LinearCost) else c.a


def _batched_subgradients(p: OptProblem, x: np.ndarray) -> np.ndarray:
    """subgradients(p, x), after checking that a run's kernel writing into a
    caller's array (filled with NaN first) gives the same bits there."""
    result = subgradients(p, x)
    out = np.full(result.shape, np.nan)
    with np.errstate(over="ignore"):
        assert p._subgradient_kernel()(x, out) is out
    assert out.tobytes() == result.tobytes()
    return result


class TestBatchedKernels:
    @pytest.mark.parametrize("seed", [1, 5, 2027])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_objective_at_matches_scalar_values(self, seed, d):
        p = _mixed_problem(seed, d)
        rng = np.random.default_rng(seed + 1)
        # Random points, then every anchor exactly (the kinks of |.| and ||.||).
        points = np.vstack([rng.uniform(-2.0, 2.0, (50, d))]
                           + [_anchor(c)[None] for c in p.components])
        expected = np.array([_scalar_objective(p, x) for x in points])
        assert np.array_equal(p.objective_at(points), expected)
        assert all(p.objective(x) == e for x, e in zip(points, expected))

    def test_objective_at_across_blocks(self):
        p = _mixed_problem(3, 2)
        points = np.random.default_rng(3).uniform(-2.0, 2.0, (POINTS_PER_BLOCK + 3, 2))
        expected = np.array([_scalar_objective(p, x) for x in points])
        assert np.array_equal(p.objective_at(points), expected)

    @pytest.mark.parametrize("seed", [1, 5, 2027])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_subgradients_match_scalar_oracle(self, seed, d):
        p = _mixed_problem(seed, d)
        rng = np.random.default_rng(seed + 2)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, (p.n_components, d))
            assert np.array_equal(_batched_subgradients(p, x), _scalar_subgradients(p, x))
            total = np.zeros(d)
            for c in p.components:
                total += c.subgradient(x[0])
            assert np.array_equal(objective_subgradient(p, x[0]), total / p.n_components)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kinks_give_zero_subgradients(self, d):
        p = _mixed_problem(7, d)
        # Every agent sits on its own anchor.
        x = np.array([_anchor(c) for c in p.components])
        grads = _batched_subgradients(p, x)
        assert np.array_equal(grads, _scalar_subgradients(p, x))
        for c, g in zip(p.components, grads):
            if isinstance(c, LinearCost):
                assert np.array_equal(g, c.c)
            else:
                assert np.array_equal(g, np.zeros(d)) and not np.signbit(g).any()
        # x == a in one coordinate only: that coordinate of |.|'s sign is 0.
        if d > 1:
            abs_cost = next(c for c in p.components if isinstance(c, AbsDistanceCost))
            q = OptProblem((abs_cost,), p.feasible)
            point = abs_cost.a + np.eye(d)[0]
            assert _batched_subgradients(q, point[None])[0].tolist() == [1.0] + [0.0] * (d - 1)

    def test_tiny_l2_offset_has_the_scalar_zero(self):
        # The squared offset underflows, so the norm is 0 and the scalar
        # oracle returns zeros although x != a.
        p = OptProblem((L2DistanceCost([0.0, 0.0]),), Box([-1.0, -1.0], [1.0, 1.0]))
        x = np.array([[1e-200, 0.0]])
        assert _batched_subgradients(p, x).tolist() == [[0.0, 0.0]]
        assert np.array_equal(subgradients(p, x), _scalar_subgradients(p, x))

    def test_box_contains_batch_matches_scalar(self):
        box = Box([0.0, -1.0], [1.0, 1.0])
        tol = 1e-12
        edges = [0.0, 1.0, -1.0]
        points = np.array(
            [[e + s, 0.5] for e in edges for s in (-tol, -2 * tol, tol, 2 * tol, 0.0)]
            + [[0.5, e + s] for e in edges for s in (-tol, -2 * tol, tol, 2 * tol, 0.0)]
        )
        for t in (0.0, tol, 0.5):
            batch = box.contains(points, tol=t)
            assert batch.dtype == bool and batch.shape == (len(points),)
            assert batch.tolist() == [box.contains(x, tol=t) for x in points]
        assert not box.contains(points, tol=0.0).all() and box.contains(points, tol=tol).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_contains_batch_matches_scalar(self, d):
        rng = np.random.default_rng(d)
        directions = rng.normal(size=(200, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        ball = Ball(1.5, d)
        tol = 1e-12
        # Points straddling the radius and the radius + tol boundary.
        radii = ball.radius + tol * rng.integers(-2, 3, size=(200, 1))
        points = directions * radii
        for t in (0.0, tol):
            batch = ball.contains(points, tol=t)
            assert batch.tolist() == [ball.contains(x, tol=t) for x in points]
            assert 0 < batch.sum() < len(points)

    @pytest.mark.parametrize("seed", [1, 5, 2027])
    def test_reference_on_ball_grid_matches_scalar_path(self, seed):
        p = _mixed_problem(seed, 2, n=6, feasible=Ball(1.25, 2))
        fs = p.feasible
        # The scalar path: one contains and one objective call per grid point.
        xs, ys = np.meshgrid(*fs._grid_axes(COARSE_POINTS), indexing="ij")
        candidates = [x for x in np.column_stack([xs.ravel(), ys.ravel()]) if fs.contains(x)]
        best = min(candidates, key=lambda x: _scalar_objective(p, x))
        step = GRID_STEP_FRACTION * fs.diameter
        x = _golden_refine(
            lambda pts: np.array([_scalar_objective(p, q) for q in pts]), best, fs, step
        )
        ref = solve_reference(p)
        assert np.array_equal(ref.x, x)
        assert ref.value == _scalar_objective(p, x)

    def test_golden_refine_skips_an_axis_within_the_step(self):
        # Axis 1 of the box is one point, so each cycle opens a golden
        # section (one call on two points) on axis 0 only.
        box = Box([0.0, 0.25], [1.0, 0.25])
        calls = []

        def fun(points):
            calls.append(points.copy())
            return np.abs(points[:, 0] - 0.3)

        x = _golden_refine(fun, np.array([0.5, 0.25]), box, 1e-4, cycles=3)
        assert sum(len(points) == 2 for points in calls) == 3
        assert all((points[:, 1] == 0.25).all() for points in calls)
        assert x[1] == 0.25 and abs(x[0] - 0.3) < 1e-4

    def test_unknown_component_kind(self):
        class Custom(LinearCost):
            pass

        with pytest.raises(TypeError, match="unknown cost component"):
            OptProblem((Custom([1.0]),), unit_interval)


# Finite points whose squared norm overflows; the repo's filterwarnings =
# error turns any numpy warning on them into a failure.
HUGE = [[1e200, 1e200], [-3e307, 4e307], [1e155, -1e155]]
HALF_ROOT = math.sqrt(0.5)


class TestOverflowingNorms:
    """A norm whose square overflows is rescaled by the largest |entry|, as
    the certificates' norms are: the direction is that of the point, not 0."""

    def test_l2_subgradient_is_the_unit_direction(self):
        cost = L2DistanceCost([0.0, 0.0])
        assert np.allclose(cost.subgradient([1e200, 1e200]), [HALF_ROOT] * 2, rtol=1e-15, atol=0)
        assert np.allclose(cost.subgradient([-3e307, 4e307]), [-0.6, 0.8], rtol=1e-15, atol=0)
        # Finite norms keep their bits.
        assert cost.subgradient([3.0, 4.0]).tolist() == [0.6, 0.8]

    def test_batched_subgradients_match_the_scalar_oracle(self):
        components = (L2DistanceCost([0.0, 0.0]), AbsDistanceCost([1.0, -1.0]),
                      L2DistanceCost([0.5, -0.5]), L2DistanceCost([-0.25, 0.0]),
                      L2DistanceCost([0.0, 0.0]))
        p = OptProblem(components, Box([-1.0, -1.0], [1.0, 1.0]))
        # Overflowing rows between an ordinary row and a NaN row, which stays NaN.
        x = np.array(HUGE[:2] + [[0.3, 0.2], HUGE[2], [math.nan, 1.0]])
        grads = _batched_subgradients(p, x)
        assert grads.tobytes() == _scalar_subgradients(p, x).tobytes()
        assert np.allclose(grads[0], [HALF_ROOT] * 2, rtol=1e-15, atol=0)
        assert np.allclose(grads[3], [HALF_ROOT, -HALF_ROOT], rtol=1e-15, atol=0)
        assert np.isnan(grads[4]).all()

    @pytest.mark.parametrize("kind", [LinearCost, AbsDistanceCost])
    def test_other_kinds_offsets_beyond_the_float_range(self, kind):
        # x - param overflows to inf on a row of another kind, which the L2
        # formula also runs on: the batched kernel raises no invalid-value
        # warning there, and gives the bits of the bare scalar oracle, which
        # raises no overflow warning in its own |.|_1 subtraction either.
        p = OptProblem((kind([-1e308]), L2DistanceCost([0.0]), L2DistanceCost([1e308])),
                       Box([-1.7e308], [1.7e308]))
        x = np.array([[1e308], [0.5], [0.0]])
        expected = _scalar_subgradients(p, x)
        assert _batched_subgradients(p, x).tobytes() == expected.tobytes()

    def test_l2_value_is_the_rescued_norm(self):
        cost = L2DistanceCost([0.0, 0.0])
        assert np.isclose(cost.value([1e200, 1e200]), math.sqrt(2.0) * 1e200, rtol=1e-15, atol=0)
        assert np.isclose(cost.value([-3e307, 4e307]), 5e307, rtol=1e-15, atol=0)
        # Finite norms keep their bits.
        assert cost.value([3.0, 4.0]) == 5.0
        assert L2DistanceCost([0.5, -0.5]).value([0.3, 0.2]) == float(np.linalg.norm([-0.2, 0.7]))

    def test_objective_at_matches_the_scalar_values(self):
        components = (L2DistanceCost([0.0, 0.0]), AbsDistanceCost([1.0, -1.0]),
                      LinearCost([0.25, 0.5]), L2DistanceCost([0.5, -0.5]))
        p = OptProblem(components, Box([-1.0, -1.0], [1.0, 1.0]))
        # Ordinary rows between overflowing ones, in one block; the mean of
        # the values stays in the float range.
        points = np.array([HUGE[0], [0.3, 0.2], [-3e200, 4e200], [0.0, 0.0], HUGE[2]])
        values = p.objective_at(points)
        assert np.isfinite(values).all()
        assert values.tolist() == [_scalar_objective(p, x) for x in points]
        assert [p.objective(x) for x in points] == values.tolist()
        # Finite norms keep their bits: the ordinary rows as evaluated alone.
        assert values[[1, 3]].tolist() == p.objective_at(points[[1, 3]]).tolist()
        l2_only = OptProblem((components[0],), p.feasible)
        expected = [math.sqrt(2.0) * 1e200, 5e307, math.sqrt(2.0) * 1e155]
        assert np.allclose(l2_only.objective_at(HUGE), expected, rtol=1e-15, atol=0)

    def test_objective_at_whose_values_sum_beyond_the_float_range(self):
        # The values at (-3e307, 4e307) are finite, but their sum is about
        # 1.8e308: the mean is their sum divided by 4 term by term, with no
        # overflow warning, and the other points keep the plain sum's bits.
        components = (L2DistanceCost([0.0, 0.0]), AbsDistanceCost([1.0, -1.0]),
                      LinearCost([0.25, 0.5]), L2DistanceCost([0.5, -0.5]))
        p = OptProblem(components, Box([-1.0, -1.0], [1.0, 1.0]))
        points = np.array([[0.3, 0.2], HUGE[1], HUGE[0]])
        values = p.objective_at(points)
        expected = sum(c.value(HUGE[1]) / 4 for c in components)
        assert math.isfinite(expected) and values[1] == expected
        assert np.isclose(expected, 4.5625e307, rtol=1e-15, atol=0)
        assert p.objective(HUGE[1]) == expected
        assert values[[0, 2]].tolist() == [_scalar_objective(p, x) for x in points[[0, 2]]]

    def test_box_diameter_is_the_rescued_norm(self):
        # Squaring the width 1e308 overflows; the diameter does not, and
        # the test's warnings-as-errors setting shows that none is raised.
        assert Box([-1e308], [1.0]).diameter == 1e308
        diameter = Box([-1e308, -3e307], [0.0, 1e307]).diameter
        assert np.isclose(diameter, math.hypot(1e308, 4e307), rtol=1e-15, atol=0)
        # Finite norms keep their bits.
        assert Box([0.0, -1.0], [3.0, 3.0]).diameter == float(np.linalg.norm([3.0, 4.0]))

    def test_grid_step_of_a_box_whose_diameter_overflows(self):
        # The width 2e308 is not a float, nor is the diameter 1.7e308 *
        # 2 * sqrt(2): the step is taken on the set scaled by a power of
        # two, and so is the slack, which is the step for lipschitz 1.
        def slack(box):
            return _reference_slack(OptProblem((L2DistanceCost(np.zeros(box.dim)),), box))

        assert slack(Box([-1e308], [1e308])) == 2.0 * (1e-4 * 1e308)
        step = slack(Box([-1.7e308, -1.7e308], [1.7e308, 1.7e308]))
        assert np.isclose(step, 2.0 * 1.7e304 * math.sqrt(2.0), rtol=1e-15, atol=0)
        # A width whose square overflows: 1e-4 times the exactly rescaled
        # norm, within rounding of the rescued Box.diameter.
        box = Box([-1e308, -3e307], [0.0, 1e307])
        assert slack(box) == 1.077032961426901e304
        assert np.isclose(slack(box), 1e-4 * box.diameter, rtol=1e-15, atol=0)
        # Finite squares keep their bits.
        box = Box([-1e150, -3e149], [0.0, 1e149])
        assert slack(box) == 1e-4 * box.diameter

    def test_ball_projection_lands_on_the_boundary(self):
        ball = Ball(1.0, 2)
        assert np.allclose(ball.project([1e200, 1e200]), [HALF_ROOT] * 2, rtol=1e-15, atol=0)
        x = np.array(HUGE + [[3.0, 4.0], [0.1, 0.2]])
        projected = ball.project(x)
        assert np.allclose(np.linalg.norm(projected[:4], axis=1), 1.0, rtol=1e-15, atol=0)
        # Finite norms keep their bits: the ordinary rows as projected
        # without any rescue.
        ordinary = x[3:]
        norms = np.linalg.norm(ordinary, axis=-1, keepdims=True)
        expected = ordinary * np.where(norms > 1.0, 1.0 / norms, 1.0)
        assert projected[3:].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("radius", [1e200, np.float64(1e200)])
    def test_ball_whose_radius_squared_overflows(self, radius):
        # The radius squared passes the float range: the solver takes its
        # chords on the ball scaled by a power of two, and the psi radius is
        # infinite, as a box's is.
        ball = Ball(radius, 2)
        unit, e = _unit_set(ball)

        def chord(x, k):
            return tuple(np.ldexp(unit._axis_interval(np.ldexp(x, -e), k), e).tolist())

        assert chord([0.0, 0.0], 0) == (-1e200, 1e200)
        lo, hi = chord([0.6e200, 0.0], 1)
        assert lo == -hi and hi == pytest.approx(0.8e200, rel=1e-15)
        assert chord([1e200, 0.0], 1) == (-0.0, 0.0)
        assert ball.psi_radius_sq == math.inf
        # The reference of a boundary optimum, (0.6e200, 0.8e200), stays in
        # the ball up to 1e-12 of its radius and within the slack, 1e-4 of
        # the diameter.
        p = OptProblem((L2DistanceCost([3e200, 4e200]), L2DistanceCost([0.6e200, 0.8e200])), ball)
        ref = solve_reference(p)
        assert ball.contains(ref.x, tol=1e188) and _reference_slack(p) == 2.0 * (1e-4 * 1e200)
        assert ref.value <= p.objective([0.6e200, 0.8e200]) + _reference_slack(p)
        # Finite squares keep their bits.
        half = float(np.sqrt(1e150**2 - 0.6e150**2))
        unit, e = _unit_set(Ball(1e150, 2))
        chord_150 = np.ldexp(unit._axis_interval(np.ldexp([0.6e150, 0.0], -e), 1), e)
        assert tuple(chord_150.tolist()) == (-half, half)
        assert Ball(1e150, 1).psi_radius_sq == 0.5 * 1e150**2

    def test_sets_whose_width_passes_the_float_range(self):
        # A width of 2e308: the grid is taken on the set scaled by a power
        # of two, and scaled back it holds the bounds themselves, where the
        # references of these optima lie exactly.  A ball point whose
        # square overflows is still inside.
        unit, e = _unit_set(Ball(1e308, 1))
        assert np.ldexp(unit._grid_axes(5)[0], e).tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]
        unit, e = _unit_set(Box([-1e308], [1e308]))
        assert np.ldexp(unit._grid_axes(3)[0], e).tolist() == [-1e308, 0.0, 1e308]
        for fs, a in ((Ball(1e308, 1), -1e308), (Box([-1e308], [1e308]), 1e308)):
            ref = solve_reference(OptProblem((L2DistanceCost([a]), AbsDistanceCost([a])), fs))
            assert ref.x.tolist() == [a] and ref.value == 0.0
        ball = Ball(1e308, 2)
        assert ball.contains([5e307, 5e307]) and not ball.contains([1e308, 1e308])
        assert ball.contains(np.array([[5e307, 0.0], [1e308, 1e308]])).tolist() == [True, False]
        # The coarse grid keeps its points, so the reference lies within one
        # grid step (1e306) of the optimum.
        ref = solve_reference(OptProblem((L2DistanceCost([5e307, 1e307]),), ball))
        assert ref.value <= 1e306
        # Finite widths keep linspace's bits.
        axis = np.linspace(-1.25, 1.25, COARSE_POINTS)
        assert Ball(1.25, 2)._grid_axes(COARSE_POINTS)[1].tobytes() == axis.tobytes()

    @pytest.mark.parametrize("c", [[0.25, -0.5], [1.0, 0.5]])
    def test_reference_on_a_box_beyond_the_float_range(self, c):
        # The grid of a box of +-1.7e308 has points whose |.|_1 distances
        # and linear values pass the float range, with no overflow warning
        # (the repo's filterwarnings = error makes one fail the test).  With
        # c = [1, 0.5], the corner's values are +inf and -inf, whose mean is
        # NaN: it ranks last, and the refinement stays in the box.
        box = Box([-1.7e308, -1.7e308], [1.7e308, 1.7e308])
        p = OptProblem((AbsDistanceCost([0.5, -0.25]), L2DistanceCost([0.0, 0.75]),
                        LinearCost(c)), box)
        assert np.isnan(p.objective_at(box.lower[None]))[0] == (c == [1.0, 0.5])
        ref = solve_reference(p)
        assert np.isfinite(ref.x).all() and box.contains(ref.x)
        # Within the grid's slack of the value at the optimum's neighbour 0.
        assert math.isfinite(ref.value)
        assert ref.value <= p.objective(np.zeros(2)) + _reference_slack(p)

    def test_reference_is_no_worse_than_the_grid_point(self):
        # Each golden section spans the whole +-1.7e308 axis and stops one
        # grid step wide, about 1e304 from the grid's best point (0, 0) of
        # value 0.5; that point then stays the reference.
        box = Box([-1.7e308, -1.7e308], [1.7e308, 1.7e308])
        p = OptProblem((AbsDistanceCost([0.5, -0.25]), L2DistanceCost([0.0, 0.75]),
                        LinearCost([1.0, 0.5])), box)
        ref = solve_reference(p)
        assert ref.value <= p.objective(np.zeros(2)) == 0.5
        assert ref.value == p.objective(ref.x) and box.contains(ref.x)

    def test_golden_refine_at_a_corner_of_a_box_beyond_the_float_range(self):
        # The last section lies at the upper bound 1.7e308, where a + b
        # passes the float range; on the box scaled by a power of two it
        # does not, and the corner is the reference, with no warning.
        box = Box([-1.7e308], [1.7e308])
        p = OptProblem((AbsDistanceCost([1.7e308]), L2DistanceCost([1.7e308])), box)
        ref = solve_reference(p)
        assert ref.x.tolist() == [1.7e308] and ref.value == 0.0
        unit, e = _unit_set(box)
        x = _golden_refine(lambda points: -points[:, 0], np.zeros(1), unit, math.ldexp(1e300, -e))
        assert 1.69e308 < np.ldexp(x[0], e) <= 1.7e308


class TestSolveReference:
    @pytest.mark.parametrize("radius", [1e-13, 1e-11, 1e-9])
    def test_reference_of_a_tiny_ball_lies_in_the_ball(self, radius):
        # The grid filter allows 1e-12 of the set's scale: an absolute
        # 1e-12 would keep the corners of the grid around a ball this small.
        ball = Ball(radius, 2)
        p = OptProblem((L2DistanceCost([-1.0, -1.0]), L2DistanceCost([-1.0, -1.2])), ball)
        ref = solve_reference(p)
        assert ball.contains(ref.x, tol=1e-12 * radius)

    @pytest.mark.parametrize("seed", range(8))
    def test_reference_commutes_with_powers_of_two(self, seed):
        # Without squares the objective scales exactly by a power of two,
        # and so do the set, grid, cuts and step: each reference is the one
        # at 2**30 scaled, bit for bit, up to the top of the float range.
        def scaled(k):
            rng = np.random.default_rng(seed)
            d = 1 + seed % 2
            if seed % 4 < 2:
                fs = Ball(math.ldexp(rng.uniform(0.5, 1.5), k), d)
            else:
                lower, upper = -rng.uniform(0.1, 1.5, d), rng.uniform(0.1, 1.5, d)
                fs = Box(np.ldexp(lower, k), np.ldexp(upper, k))
            components = [AbsDistanceCost(np.ldexp(rng.uniform(-2, 2, d), k)) for _ in range(2)]
            components += [LinearCost(rng.uniform(-1, 1, d)) for _ in range(rng.integers(1, 3))]
            return OptProblem(tuple(components), fs)

        base = solve_reference(scaled(30))
        for k in (200, 600, 1000, 1015):
            ref = solve_reference(scaled(k))
            assert ref.x.tobytes() == np.ldexp(base.x, k - 30).tobytes()
            assert ref.value == math.ldexp(base.value, k - 30)

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
        assert p.feasible.psi_radius_sq == 0.5

    def test_ball_problem_with_l_override(self):
        spec = {
            "d": 2,
            "set": {"kind": "ball", "radius": 1.5},
            "components": [{"kind": "l2_distance", "a": [0.0, 0.0]}],
            "L": 4.0,
        }
        with pytest.raises(ConfigError, match=re.escape("unknown problem keys: ['L']")):
            problem_from_spec(spec)
        del spec["L"]
        p = problem_from_spec(spec)
        assert isinstance(p.feasible, Ball)
        assert p.feasible.radius == 1.5
        assert p.lipschitz_bound == 1.0

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
