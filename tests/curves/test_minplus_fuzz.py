"""Fuzzing the min-plus operators against brute force, including jumps.

The generic line-envelope kernel is the most intricate code in the
repository; these tests compare it against direct numerical optimization
over dense grids for random curves with staircase jumps, plateaus and rays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import convolve, convolve_at, deconvolve, deconvolve_at

from tests.curves._kernel_util import KERNELS, generic_kernel


@st.composite
def jumpy_curves(draw, max_segments=4):
    """Random non-decreasing PWL curves that may jump at breakpoints."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    gaps = draw(st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=n - 1, max_size=n - 1))
    xs = np.concatenate(([0.0], np.cumsum(gaps))) if n > 1 else np.array([0.0])
    slopes = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)))
    jumps = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n)))
    ys = []
    level = jumps[0]
    for i in range(n):
        if i > 0:
            level += slopes[i - 1] * (xs[i] - xs[i - 1]) + jumps[i]
        ys.append(level)
    return PiecewiseLinearCurve(xs, np.array(ys), slopes)


def brute_convolve(f, g, d, n=1500):
    ss = np.linspace(0.0, d, n) if d > 0 else np.array([0.0])
    best = np.inf
    for s in ss:
        fv = 0.0 if s == 0.0 else float(f(s))
        rest = d - s
        gv = 0.0 if rest == 0.0 else float(g(max(rest, 0.0)))
        best = min(best, fv + gv)
    return best


def brute_deconvolve(f, g, d, u_max, n=2000):
    us = np.linspace(0.0, u_max, n)
    best = -np.inf
    for u in us:
        gv = 0.0 if u == 0 else float(g(u))
        best = max(best, float(f(d + u)) - gv)
    return best


@pytest.mark.parametrize("kernel", KERNELS)
@given(jumpy_curves(), jumpy_curves(), st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=60, deadline=None)
def test_convolve_at_matches_brute(kernel, f, g, d):
    with generic_kernel(kernel):
        exact = convolve_at(f, g, d)
    brute = brute_convolve(f, g, d)
    # the grid can miss the true inf by a sliver; the exact value must be
    # <= any grid point and not far below the grid optimum
    assert exact <= brute + 1e-9
    step = d / 1500 if d > 0 else 0.0
    max_rate = max(f.final_slope, g.final_slope, float(np.max(f.slopes)), float(np.max(g.slopes)))
    assert exact >= brute - max_rate * step - max(f(d), g(d)) * 1e-9 - 1e-9


@pytest.mark.parametrize("kernel", KERNELS)
@given(jumpy_curves(), jumpy_curves())
@settings(max_examples=30, deadline=None)
def test_convolve_curve_matches_pointwise(kernel, f, g):
    with generic_kernel(kernel):
        c = convolve(f, g)
        for d in np.linspace(0.0, 15.0, 16)[1:]:
            assert c(float(d)) == pytest.approx(convolve_at(f, g, float(d)), abs=1e-6)


@pytest.mark.parametrize("kernel", KERNELS)
@given(jumpy_curves(), st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_deconvolve_dominates_brute(kernel, f, rate, latency):
    """Deconvolution through a rate-latency server: the exact result must
    dominate any brute-force sample of the sup (left-limit probes may make
    it strictly larger at jumps — conservative direction)."""
    if f.final_slope > rate:
        return
    g = PiecewiseLinearCurve([0.0, max(latency, 1e-9)], [0.0, 0.0], [0.0, rate]) \
        if latency > 0 else PiecewiseLinearCurve([0.0], [0.0], [rate])
    with generic_kernel(kernel):
        out = deconvolve(f, g)
    for d in np.linspace(0.0, 8.0, 9):
        brute = brute_deconvolve(f, g, float(d), u_max=20.0)
        assert out(float(d)) >= brute - 1e-6


@pytest.mark.parametrize("kernel", KERNELS)
@given(jumpy_curves(), jumpy_curves())
@settings(max_examples=30, deadline=None)
def test_convolve_commutative_and_monotone(kernel, f, g):
    ds = np.linspace(0.0, 12.0, 25)
    with generic_kernel(kernel):
        ab = convolve(f, g)(ds)
        ba = convolve(g, f)(ds)
    assert np.allclose(ab, ba, atol=1e-6)
    assert np.all(np.diff(ab) >= -1e-8)
