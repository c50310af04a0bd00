"""The slice-wise reductions against the whole-array numpy expressions they
replace: the same bits on both sides of each shape branch, special values
included."""

import math

import numpy as np
import pytest

from lossynet import AbsDistanceCost, Box, LinearCost, OptProblem, ZeroWeightError
from lossynet.consensus import _node_sums, _ratio_errors, _rescue_norms

# Signed zeros, subnormals, values whose squares leave the float range
# (the rescue path) or underflow, infinities and NaN.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
           math.inf, -math.inf, math.nan]


def _data(rng, shape, special=0.0) -> np.ndarray:
    """Entries over 17 decades and both signs, so that the order of
    additions shows in the bits, with a share ``special`` of SPECIAL."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    pick = rng.random(shape) < special
    x[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return x


def _mass_views(rng, k, m, d, special=0.0):
    """A (k, m, d+1) mass history laid out as a run's, with its (k, m, d)
    value and (k, m) weight views."""
    mass = _data(rng, (k, m, d + 1), special)
    return mass[..., :d], mass[..., d]


def _same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    """Equal shapes and equal bits, except that a NaN matches any NaN: which
    NaN an addition of a NaN and opposite infinities gives depends on the
    operand order of the compiled loop numpy picks, and no artifact shows
    the sign of a NaN."""
    nan = np.isnan(expected)
    return (got.shape == expected.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == expected[~nan].tobytes())


def _old_ratio_errors(values, weights, center) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = values / weights[..., None] - np.expand_dims(center, -2)
        return _rescue_norms(diffs, np.linalg.norm(diffs, axis=2)).max(axis=1)


class TestNodeSums:
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16, 310])
    def test_bits_of_numpy_sum_on_trace_views(self, m):
        # d = 1 with m >= 8 is numpy's pairwise side of the branch; every
        # other shape takes the loop over node slices.
        rng = np.random.default_rng(m)
        for d in range(1, 10):
            for special in (0.0, 0.2):
                values, _ = _mass_views(rng, 5, m, d, special)
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = values.sum(axis=1)
                    got = _node_sums(values)
                assert _same_bits(got, expected), (m, d, special)

    def test_negative_zeros_sum_to_positive_zero(self):
        # numpy adds from +0: a column of -0.0 sums to +0.0, as the loop does.
        mass = np.full((2, 3, 3), -0.0)
        assert _node_sums(mass[..., :2]).tobytes() == np.zeros((2, 2)).tobytes()


class TestRatioErrors:
    @pytest.mark.parametrize("special", [0.0, 0.1])
    def test_bits_of_the_whole_array_expression(self, special):
        # d < 8 is built slice by slice, d >= 8 by the whole-array expression;
        # special values reach the rescue path (1e300), NaN and infinite norms.
        rng = np.random.default_rng(17)
        for d in range(1, 10):
            for n in (1, 3, 8):
                values, weights = _mass_views(rng, 40, n + 2, d, special)
                values, weights = values[:, :n], np.abs(weights[:, :n]) + 0.5
                for center in (_data(rng, d, special), _data(rng, (40, d), special)):
                    got = _ratio_errors(values, weights, center, 1)
                    expected = _old_ratio_errors(values, weights, center)
                    assert _same_bits(got, expected), (d, n)

    def test_rescued_norms_keep_their_bits(self):
        # Squares beyond the float range in one round: that round is
        # rescued, and the finite rounds keep their slice-wise bits.
        values, weights = _mass_views(np.random.default_rng(3), 4, 3, 2)
        values[2, 1] = [3e300, -4e300]
        weights[:] = 1.0
        got = _ratio_errors(values, weights, np.zeros(2), 1)
        assert np.isclose(got[2], 5e300, rtol=1e-15, atol=0)
        assert got.tobytes() == _old_ratio_errors(values, weights, np.zeros(2)).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -math.inf])
    def test_a_weight_not_positive_raises(self, bad):
        values, weights = _mass_views(np.random.default_rng(5), 6, 3, 2)
        weights[:] = 1.0
        weights[4, 2] = bad
        weights[5, 0] = bad
        with pytest.raises(ZeroWeightError, match="at iteration 11$"):
            _ratio_errors(values, weights, np.zeros(2), 7)

    def test_a_nan_weight_is_left_to_the_certificates(self):
        values, weights = _mass_views(np.random.default_rng(6), 3, 2, 2)
        weights[:] = 1.0
        weights[1, 1] = math.nan
        got = _ratio_errors(values, weights, np.zeros(2), 1)
        assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all()


class TestAbsDistanceValues:
    def test_bits_of_the_whole_array_expression(self):
        # d < 8 adds the |offsets| coordinate by coordinate, d >= 8 keeps
        # numpy's pairwise sum.
        rng = np.random.default_rng(11)
        for d in range(1, 10):
            for special in (0.0, 0.2):
                params, points = _data(rng, (4, d), special), _data(rng, (50, d), special)
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = np.abs(points[None, :, :] - params[:, None, :]).sum(axis=2)
                    got = AbsDistanceCost._values(params, points)
                assert _same_bits(got, expected), (d, special)


class TestBoxContains:
    def test_bits_at_the_bounds_plus_and_minus_tol(self):
        box = Box([-1.0, 0.0, -0.0], [1.0, 1e-300, 0.0])
        for tol in (1e-12, 0.0, 0.25):
            lower, upper = box.lower - tol, box.upper + tol
            edges = [lower, upper, np.nextafter(lower, -math.inf), np.nextafter(upper, math.inf),
                     np.nextafter(lower, math.inf), np.nextafter(upper, -math.inf)]
            rng = np.random.default_rng(2)
            # Each coordinate picks one of the edges, a special value or 0.5.
            choices = np.array(edges + [np.full(3, v) for v in (0.5, math.nan, math.inf, -0.0)])
            points = choices[rng.integers(len(choices), size=(400, 3)), np.arange(3)]
            expected = ((points >= lower) & (points <= upper)).all(axis=-1)
            got = box.contains(points, tol=tol)
            assert got.dtype == bool and got.tolist() == expected.tolist()
            assert [box.contains(x, tol=tol) for x in points[:40]] == expected[:40].tolist()
            assert box.contains(lower, tol=tol) is True
            assert box.contains(np.nextafter(upper, math.inf), tol=tol) is False


class TestMean:
    def test_few_columns_as_floats_keep_the_bits_of_the_numpy_loop(self):
        # Columns are independent: the first k < 8 columns, summed as Python
        # floats, against the same columns of a wide block, summed in numpy.
        # Values whose sum leaves the float range take the divided sum.
        p = OptProblem((LinearCost([0.0]),) * 5, Box([0.0], [1.0]))
        rng = np.random.default_rng(9)
        rows = _data(rng, (5, 64), special=0.15)
        rows[:, 0] = [1.7e308, 1.7e308, -1e308, 1e308, 0.0]
        rows[:, 1] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            wide = p._mean(rows)
            for k in range(8):
                assert _same_bits(p._mean(rows[:, :k]), wide[:k])
        assert math.isfinite(wide[0]) and math.copysign(1.0, wide[1]) == 1.0

