"""Differential conformance suite for the generic min-plus construction.

Both implementations of the construction — the batched kernel of
:mod:`repro.curves.soa` (``soa``) and the per-cell oracle
(``convolve_generic`` / ``deconvolve_generic`` of :mod:`repro.reference`,
``numpy``) — run every case, each held on seeded hypothesis-generated
curve families to

* the other implementation — the kernel must replicate the per-cell
  construction decision-for-decision, and
* the definitional brute-force optimizers of :mod:`repro.reference` —
  exhaustive candidate enumeration straight from eq. (5)'s inf/sup, which
  would catch the kernel and the per-cell oracle drifting *together*.

Conformance contract
--------------------
The kernel must reproduce the oracle's *envelope*: the same breakpoint
grid (bit-equal abscissae — both sides derive it from the same outer-sum
construction) and values/slopes equal within ``RTOL``/``ATOL`` (1e-12
relative, i.e. a few float64 ulps on unit-scale operands).  Pointwise,
results must match the brute oracle within ``BRUTE_TOL`` (relative to the
value on the cycle-scale TDMA family).

Families: convex, concave, staircase (pure jumps), general (slopes +
jumps), mixed-shape operands, budget-compacted operands, TDMA service
curves at processor scale (slopes ~1e8–1e9 over millisecond windows), and
deterministic degenerate/ulp-adjacent grids whose outer-sum cells are a
few ulps wide (the sliver-cell bug class pinned in test_regression_pr5.py).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.curves.compact import compact_upper
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import UnboundedCurveError, deconvolve
from repro.curves.service import tdma
from repro.reference import convolve_at_brute, deconvolve_at_brute, deconvolve_generic

from tests.curves._kernel_util import BATCH, KERNELS

#: Documented envelope agreement bound: a few float64 ulps on unit-scale
#: operands (the oracle assembles values with the same expressions, so in
#: practice the kernel is bit-identical).
RTOL = 1e-12
ATOL = 1e-12
#: Pointwise agreement with the definitional brute-force oracles.
BRUTE_TOL = 1e-9


# -- curve families ------------------------------------------------------------


def _xs(draw, n):
    if n == 1:
        return np.array([0.0])
    gaps = draw(
        st.lists(
            st.floats(min_value=0.2, max_value=3.0), min_size=n - 1, max_size=n - 1
        )
    )
    return np.concatenate(([0.0], np.cumsum(gaps)))


def _slope(lo=0.0, hi=5.0):
    # avoid the near-underflow band the generic oracle truncates (see the
    # structure suite's note); keep exact zero as a real edge case
    return st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=hi))


@st.composite
def convex_curves(draw, max_segments=5):
    """Continuous convex curves (slopes sorted non-decreasing)."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    ss = np.sort(np.asarray(draw(st.lists(_slope(), min_size=n, max_size=n))))
    ys = np.cumsum(np.concatenate(([0.0], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


@st.composite
def concave_curves(draw, max_segments=5):
    """Concave curves with an optional burst at 0 (slopes non-increasing)."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    ss = np.sort(np.asarray(draw(st.lists(_slope(), min_size=n, max_size=n))))[
        ::-1
    ].copy()
    burst = draw(st.floats(min_value=0.0, max_value=4.0))
    ys = np.cumsum(np.concatenate(([burst], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


@st.composite
def staircase_curves(draw, max_segments=5):
    """Pure staircases: zero slopes, strictly-positive jumps (event counts)."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    jumps = np.asarray(
        draw(st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=n, max_size=n))
    )
    ys = np.cumsum(jumps)
    return PiecewiseLinearCurve(xs, ys, np.zeros(n))


@st.composite
def general_curves(draw, max_segments=5):
    """Slopes plus jumps — almost always classified 'general'."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    ss = np.asarray(draw(st.lists(_slope(), min_size=n, max_size=n)))
    jumps = np.asarray(
        draw(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=n, max_size=n))
    )
    ys = np.cumsum(np.concatenate(([jumps[0]], np.diff(xs) * ss[:-1] + jumps[1:])))
    return PiecewiseLinearCurve(xs, ys, ss)


@st.composite
def compacted_curves(draw):
    """Budget-compacted operands: a general curve squeezed through the
    conservative compactor, so breakpoints carry interpolation round-off."""
    curve = draw(general_curves(max_segments=8))
    budget = draw(st.integers(min_value=2, max_value=4))
    return compact_upper(curve, max_segments=budget).curve


@st.composite
def tdma_curves(draw):
    """TDMA service at processor scale — the regime of the open-system
    chain analysis: slot/cycle in milliseconds, rates of 1e8–1e9 cycles/s,
    so line values carry rounding noise of ~1e-10 near Δ = 0."""
    slot = draw(st.floats(min_value=1e-4, max_value=1e-3))
    cycle = slot + draw(st.floats(min_value=1e-4, max_value=2e-3))
    frequency = draw(st.floats(min_value=1e8, max_value=1e9))
    return tdma(slot, cycle, frequency, horizon_cycles=2)


CONVOLVE_FAMILIES = {
    "convex": (convex_curves(), convex_curves()),
    "concave": (concave_curves(), concave_curves()),
    "staircase": (staircase_curves(), staircase_curves()),
    "general": (general_curves(), general_curves()),
    "mixed": (convex_curves(), general_curves()),
    "compacted": (compacted_curves(), general_curves()),
    "tdma": (tdma_curves(), tdma_curves()),
}

#: The open-system TDMA pair whose convolution used to dip by 25 %: the
#: steeper line won a value tie inside rounding noise at Δ ≈ 1.24e-3
#: (``curve must be wide-sense increasing (downward jump)``).
TDMA_PAIR = (
    (0.00073843753055277, 0.001786106414881354, 732358891.9656446),
    (0.0005690024944093633, 0.0007634834309038386, 546046608.0466008),
)


# -- assertion helpers ---------------------------------------------------------


def _assert_same_envelope(result, reference):
    np.testing.assert_array_equal(result.breakpoints, reference.breakpoints)
    np.testing.assert_allclose(
        result.values_at_breakpoints,
        reference.values_at_breakpoints,
        rtol=RTOL,
        atol=ATOL,
    )
    np.testing.assert_allclose(result.slopes, reference.slopes, rtol=RTOL, atol=ATOL)


def _assert_brackets_brute(result, f, g, deltas, *, relative=False):
    # at a jump of the result the definitional inf is left-continuous
    # while the curve model is the right-continuous envelope, so the
    # value is bracketed: never below the true inf at Δ, never above it
    # just past Δ (equality at every continuity point).  Cycle-scale
    # values (``relative=True``) are compared to BRUTE_TOL relative.
    for d in deltas:
        value = float(result(float(d)))
        tol = BRUTE_TOL * max(1.0, abs(value)) if relative else BRUTE_TOL
        assert value >= convolve_at_brute(f, g, float(d)) - tol
        assert value <= convolve_at_brute(f, g, float(d) + 1e-7) + 1e-6


def _probe_deltas(*curves):
    # Δ = 0 is excluded: the operators use the f(0) = 0 convention there
    # while the assembled curve evaluates to its right-limit — both
    # correct, deliberately different (the scalar suites skip 0 too)
    pts = np.unique(np.concatenate([c.breakpoints for c in curves]))
    mids = (pts[:-1] + pts[1:]) / 2.0 if pts.size > 1 else np.empty(0)
    tail = pts[-1] + np.array([0.5, 2.0])
    grid = np.unique(np.concatenate((pts, mids, tail)))
    return grid[grid > 0.0][:12]


# -- the differential suite ----------------------------------------------------
#
# Each case runs once per implementation of the generic construction
# (``numpy``: the per-cell oracle, ``soa``: the kernel).  The envelope is
# compared with the *other* implementation and pointwise with the brute
# oracles, so the oracle is held to the definitions as well as the kernel.

_OTHER = {"numpy": "soa", "soa": "numpy"}

#: Each implementation's own deconvolution entry point with its
#: divergence check: the oracle itself, the kernel behind ``deconvolve``.
_DECONVOLVE_ENTRY = {"numpy": deconvolve_generic, "soa": deconvolve}


def _convolve(kernel, f, g):
    return BATCH[kernel][0]([(f, g)])[0]


def _deconvolve(kernel, f, g):
    return BATCH[kernel][1]([(f, g)])[0]


class TestConvolveConformance:
    @pytest.mark.parametrize("family", sorted(CONVOLVE_FAMILIES), ids=str)
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_generic_and_brute(self, kernel, family, data):
        f_curves, g_curves = CONVOLVE_FAMILIES[family]
        f = data.draw(f_curves)
        g = data.draw(g_curves)
        result = _convolve(kernel, f, g)
        _assert_same_envelope(result, _convolve(_OTHER[kernel], f, g))
        _assert_brackets_brute(
            result, f, g, _probe_deltas(f, g, result), relative=family == "tdma"
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_per_pair(self, kernel, data):
        pairs = [
            (data.draw(general_curves()), data.draw(general_curves()))
            for _ in range(4)
        ]
        # homogeneous tail regime so the kernel accepts the batch
        assume(len({min(f.final_slope, g.final_slope) == 0.0 for f, g in pairs}) == 1)
        results = BATCH[kernel][0](pairs)
        assert len(results) == len(pairs)
        for (f, g), result in zip(pairs, results):
            _assert_same_envelope(result, _convolve(_OTHER[kernel], f, g))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tdma_pair_has_no_downward_jump(self, kernel):
        (f, g) = (tdma(*params, horizon_cycles=2) for params in TDMA_PAIR)
        result = _convolve(kernel, f, g)
        _assert_same_envelope(result, _convolve(_OTHER[kernel], f, g))
        deltas = np.linspace(1e-5, 6e-3, 61)
        _assert_brackets_brute(result, f, g, deltas, relative=True)
        assert np.all(np.diff(result(deltas)) >= 0.0)


class TestDeconvolveConformance:
    @pytest.mark.parametrize(
        "family", ["convex", "concave", "staircase", "general", "compacted"], ids=str
    )
    @pytest.mark.parametrize("kernel", KERNELS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_generic_and_brute(self, kernel, family, data):
        families = {
            "convex": convex_curves(),
            "concave": concave_curves(),
            "staircase": staircase_curves(),
            "general": general_curves(),
            "compacted": compacted_curves(),
        }
        f = data.draw(families[family])
        g = data.draw(general_curves())
        # stability gate: deconvolution diverges when f outgrows g
        assume(f.final_slope <= g.final_slope)
        result = _deconvolve(kernel, f, g)
        _assert_same_envelope(result, _deconvolve(_OTHER[kernel], f, g))
        for d in _probe_deltas(f, g, result)[:6]:
            brute = deconvolve_at_brute(f, g, float(d))
            # left-limit probes may push the exact sup strictly above any
            # grid sample (conservative direction); never below the oracle
            assert float(result(float(d))) >= brute - BRUTE_TOL

    @pytest.mark.parametrize("kernel", KERNELS)
    @given(f=general_curves(), g=general_curves())
    @settings(max_examples=20, deadline=None)
    def test_divergent_pairs_rejected(self, kernel, f, g):
        assume(f.final_slope > g.final_slope + 1e-12)
        with pytest.raises(UnboundedCurveError):
            _DECONVOLVE_ENTRY[kernel](f, g)


class TestDegenerateGrids:
    """Deterministic ulp-adjacent grids: 0.1 + 0.2 lands one ulp past 0.3,
    so the outer-sum grid contains cells a few ulps wide — the degenerate
    regime behind the sliver-cell bug class of test_regression_pr5.py."""

    def _operands(self):
        f = PiecewiseLinearCurve(
            np.array([0.0, 0.1, 0.2]),
            np.array([0.0, 1.0, 1.5]),
            np.array([10.0, 2.5, 1.0]),
        )
        g = PiecewiseLinearCurve(
            np.array([0.0, 0.1 + 0.2, 0.3 + 1e-16]),
            np.array([0.0, 0.9, 1.2]),
            np.array([3.0, 4.0, 0.5]),
        )
        return f, g

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ulp_adjacent_convolve(self, kernel):
        f, g = self._operands()
        result = _convolve(kernel, f, g)
        _assert_same_envelope(result, _convolve(_OTHER[kernel], f, g))
        _assert_brackets_brute(result, f, g, (0.1, 0.3, float(0.1 + 0.2), 0.4, 1.0))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ulp_adjacent_deconvolve(self, kernel):
        f, g = self._operands()
        if f.final_slope > g.final_slope:
            f, g = g, f
        _assert_same_envelope(
            _deconvolve(kernel, f, g), _deconvolve(_OTHER[kernel], f, g)
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_shared_breakpoint_scales(self, kernel):
        # operands whose breakpoints collide exactly and near-exactly at
        # several magnitudes — outer sums produce long runs of duplicate
        # and ulp-separated grid entries
        xs = np.array([0.0, 1.0, 1.0 + 2**-50, 2.0])
        f = PiecewiseLinearCurve(xs, np.array([0.0, 2.0, 2.0, 3.0]), np.array([2.0, 0.0, 1.0, 4.0]))
        g = PiecewiseLinearCurve(xs.copy(), np.array([0.5, 1.0, 1.5, 1.5]), np.array([0.5, 1.0, 0.0, 2.0]))
        _assert_same_envelope(_convolve(kernel, f, g), _convolve(_OTHER[kernel], f, g))
