"""Unit tests for the PWL curve kernel (repro.curves.curve)."""

import numpy as np
import pytest

from repro.curves.curve import PiecewiseLinearCurve, linear_curve, step_curve, zero_curve
from repro.curves.minplus import convolve
from repro.util.validation import ValidationError


class TestConstruction:
    def test_first_breakpoint_zero(self):
        with pytest.raises(ValidationError, match="first breakpoint"):
            PiecewiseLinearCurve([1.0], [0.0], [1.0])

    def test_breakpoints_strictly_increasing(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearCurve([0.0, 1.0, 1.0], [0, 1, 2], [1, 1, 1])

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            PiecewiseLinearCurve([0.0], [-1.0], [0.0])

    def test_negative_slope_rejected(self):
        with pytest.raises(ValidationError, match="slopes"):
            PiecewiseLinearCurve([0.0], [1.0], [-1.0])

    def test_downward_jump_rejected(self):
        with pytest.raises(ValidationError, match="downward jump"):
            PiecewiseLinearCurve([0.0, 1.0], [5.0, 1.0], [0.0, 0.0])

    def test_upward_jump_allowed(self):
        c = PiecewiseLinearCurve([0.0, 1.0], [0.0, 5.0], [0.0, 0.0])
        assert c(0.5) == 0.0 and c(1.0) == 5.0


class TestEvaluation:
    def test_linear(self):
        c = linear_curve(3.0, offset=1.0)
        assert c(0.0) == 1.0
        assert c(2.0) == 7.0

    def test_rate_latency_shape(self):
        c = PiecewiseLinearCurve([0.0, 2.0], [0.0, 0.0], [0.0, 4.0])
        assert c(1.0) == 0.0
        assert c(3.0) == 4.0

    def test_vectorized(self):
        c = linear_curve(2.0)
        out = c(np.array([0.0, 1.0, 2.5]))
        assert np.allclose(out, [0.0, 2.0, 5.0])

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            linear_curve(1.0)(-0.5)

    def test_left_limit_at_jump(self):
        c = step_curve([0.0, 1.0], [2.0, 3.0])
        assert c(1.0) == 5.0
        assert c.left_limit(1.0) == 2.0
        assert c.jump_at(1.0) == 3.0
        assert c.jump_at(0.5) == 0.0

    def test_left_limit_at_zero(self):
        c = step_curve([0.0], [2.0])
        assert c.left_limit(0.0) == 2.0


class TestInverse:
    def test_linear_inverse(self):
        c = linear_curve(2.0)
        assert c.inverse(6.0) == pytest.approx(3.0)

    def test_inverse_at_plateau(self):
        c = PiecewiseLinearCurve([0.0, 1.0], [0.0, 0.0], [0.0, 2.0])  # rate-latency
        assert c.inverse(0.0) == 0.0
        assert c.inverse(4.0) == pytest.approx(3.0)

    def test_inverse_reaches_jump(self):
        c = step_curve([0.0, 1.0], [1.0, 2.0])
        # value 2 first reached by the jump at delta=1
        assert c.inverse(2.0) == pytest.approx(1.0)

    def test_inverse_unreachable(self):
        c = step_curve([0.0], [1.0])  # flat at 1 forever
        with pytest.raises(ValidationError, match="never reaches"):
            c.inverse(5.0)


class TestArithmetic:
    def test_addition(self):
        a = linear_curve(2.0)
        b = PiecewiseLinearCurve([0.0, 1.0], [0.0, 0.0], [0.0, 3.0])
        s = a + b
        ds = np.linspace(0, 4, 17)
        assert np.allclose(s(ds), a(ds) + b(ds))

    def test_scalar_multiplication(self):
        a = linear_curve(2.0, offset=1.0)
        assert (3.0 * a)(2.0) == pytest.approx(3 * 5.0)
        assert (a * 3.0)(2.0) == pytest.approx(15.0)

    def test_shift_up(self):
        a = linear_curve(1.0)
        assert a.shift_up(2.0)(1.0) == 3.0

    def test_shift_right(self):
        a = linear_curve(2.0)
        shifted = a.shift_right(1.5)
        assert shifted(1.0) == 0.0
        assert shifted(2.5) == pytest.approx(2.0)

    def test_maximum_exact_with_crossing(self):
        a = linear_curve(1.0, offset=3.0)  # 3 + x
        b = linear_curve(2.0)              # 2x, crosses at x=3
        m = a.maximum(b)
        ds = np.linspace(0, 6, 25)
        assert np.allclose(m(ds), np.maximum(a(ds), b(ds)))
        assert 3.0 in m.breakpoints

    def test_minimum_exact_with_crossing(self):
        a = linear_curve(1.0, offset=3.0)
        b = linear_curve(2.0)
        m = a.minimum(b)
        ds = np.linspace(0, 6, 25)
        assert np.allclose(m(ds), np.minimum(a(ds), b(ds)))

    def test_crossing_beyond_last_breakpoint(self):
        a = PiecewiseLinearCurve([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])  # ~ x
        b = linear_curve(0.5, offset=4.0)  # crosses x at 8
        m = a.maximum(b)
        assert m(10.0) == pytest.approx(10.0)
        assert m(2.0) == pytest.approx(5.0)

    def test_crossing_at_infinity_is_skipped(self):
        # a subnormal slope difference puts the tail crossing at inf; it
        # used to be added as a breakpoint and fail "curve data must be
        # finite" (found through the concave ⊗ concave fast path)
        f = PiecewiseLinearCurve([0.0], [1.0], [0.0])
        g = PiecewiseLinearCurve([0.0], [0.0], [2.22507e-311])
        low = f.minimum(g)
        assert low.breakpoints.tolist() == [0.0]
        assert low(1e300) == g(1e300)
        high = f.maximum(g)
        assert high.breakpoints.tolist() == [0.0]
        assert high(1e300) == 1.0
        assert convolve(f, g).breakpoints.tolist() == [0.0]


class TestStructure:
    def test_simplified_merges_collinear(self):
        c = PiecewiseLinearCurve([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert c.simplified().n_segments == 1

    def test_dominates(self):
        big = linear_curve(2.0, offset=1.0)
        small = linear_curve(1.0)
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_dominates_checks_final_slope(self):
        slow = linear_curve(1.0, offset=100.0)
        fast = linear_curve(2.0)
        assert not slow.dominates(fast)

    def test_equality_after_simplify(self):
        a = PiecewiseLinearCurve([0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
        b = linear_curve(1.0)
        assert a == b

    def test_zero_curve(self):
        z = zero_curve()
        assert z(0.0) == 0.0 and z(100.0) == 0.0


class TestStepCurve:
    def test_unit_steps(self):
        c = step_curve([0.0, 1.0, 2.0])
        assert c(0.0) == 1.0
        assert c(1.5) == 2.0
        assert c(2.0) == 3.0

    def test_coincident_positions_merge(self):
        c = step_curve([1.0, 1.0], [2.0, 3.0])
        assert c(0.5) == 0.0
        assert c(1.0) == 5.0

    def test_nonzero_first_position_starts_at_zero(self):
        c = step_curve([2.0])
        assert c(0.0) == 0.0 and c(2.0) == 1.0

    def test_negative_heights_rejected(self):
        with pytest.raises(ValidationError):
            step_curve([0.0], [-1.0])

    def test_decreasing_positions_rejected(self):
        with pytest.raises(ValidationError):
            step_curve([2.0, 1.0])
