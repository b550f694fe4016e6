"""Batch kernels: convolve_many / evaluate_at_many / convolve_reduce, and
the tail-regime partitioning of the batched generic kernel."""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf as perf
from repro.curves.arrival import leaky_bucket, periodic_upper
from repro.curves.curve import PiecewiseLinearCurve, linear_curve, step_curve, zero_curve
from repro.curves.minplus import convolve
from repro.curves.service import rate_latency
from repro.curves.soa import convolve_batch
from repro.perf.batch import convolve_many, convolve_reduce, evaluate_at_many
from repro.reference import convolve_generic
from repro.util.validation import ValidationError


@pytest.fixture(autouse=True)
def fresh_perf_state():
    perf.reset()
    perf.configure(enabled=True)
    yield
    perf.reset()


def test_convolve_many_matches_scalar_calls():
    pairs = [
        (leaky_bucket(10.0, 2.0), rate_latency(5.0, 1.5)),
        (leaky_bucket(3.0, 1.0), rate_latency(9.0, 4.0)),
        (step_curve([1.0, 2.0, 3.0]), linear_curve(2.0)),
    ]
    batch = convolve_many(pairs)
    for (f, g), got in zip(pairs, batch):
        assert got == convolve(f, g)


def test_convolve_many_dedups_repeated_pairs():
    f, g = leaky_bucket(10.0, 2.0), rate_latency(5.0, 1.5)
    convolve_many([(f, g)] * 6)
    per_op = perf.cache_stats()["per_op"]["minplus.convolve"]
    assert per_op["misses"] == 1
    assert per_op["hits"] == 5


def test_evaluate_at_many_matches_scalar_evaluation():
    curves = [
        leaky_bucket(4.0, 1.0),
        rate_latency(3.0, 2.0),
        step_curve([0.5, 1.5, 2.5]),
        zero_curve(),
    ]
    deltas = np.linspace(0.0, 5.0, 23)
    out = evaluate_at_many(curves, deltas)
    assert out.shape == (4, 23)
    for i, curve in enumerate(curves):
        expected = [curve(float(d)) for d in deltas]
        assert np.array_equal(out[i], np.array(expected))


def test_evaluate_at_many_scalar_delta_and_validation():
    out = evaluate_at_many([linear_curve(2.0)], 3.0)
    assert out.shape == (1, 1)
    assert out[0, 0] == 6.0
    with pytest.raises(ValidationError):
        evaluate_at_many([linear_curve(1.0)], [-1.0])
    with pytest.raises(ValidationError):
        evaluate_at_many([object()], [1.0])  # type: ignore[list-item]


def test_convolve_reduce_matches_left_fold():
    curves = [
        leaky_bucket(10.0, 2.0),
        rate_latency(5.0, 1.5),
        leaky_bucket(6.0, 1.2),
        rate_latency(2.0, 3.0),
        periodic_upper(1.0, horizon_periods=8),
    ]
    tree = convolve_reduce(curves)
    fold = curves[0]
    for c in curves[1:]:
        fold = convolve(fold, c)
    # associativity: identical curves up to representation noise
    deltas = np.linspace(0.0, 20.0, 101)
    assert np.allclose(tree(deltas), fold(deltas), rtol=1e-9, atol=1e-9)


def test_convolve_reduce_single_and_empty():
    only = leaky_bucket(1.0, 1.0)
    assert convolve_reduce([only]) is only
    with pytest.raises(ValidationError):
        convolve_reduce([])


def general_curve(seed: float = 0.0):
    """A curve with an interior jump and non-monotone slopes: no fast
    path applies, so dispatch must route through the generic kernel."""
    return PiecewiseLinearCurve(
        [0.0, 1.0 + seed, 2.0 + seed],
        [0.0, 4.0 + 3.0 * seed, 5.0 + 3.0 * seed],
        [3.0, 0.25, 1.0],
    )


def saturating_curve(seed: float = 0.0):
    """General curve with a zero asymptotic slope (saturating tail)."""
    return PiecewiseLinearCurve(
        [0.0, 1.0 + seed, 2.0 + seed],
        [0.0, 3.0 + seed, 3.5 + seed],
        [2.0, 0.5, 0.0],
    )


class TestConvolveManyPartitions:
    def _mixed_pairs(self):
        # two tail regimes in one batch: the kernel only accepts
        # tail-homogeneous batches, so convolve_many must partition
        return [
            (general_curve(), general_curve(0.3)),
            (saturating_curve(), general_curve(0.1)),
            (saturating_curve(0.2), saturating_curve(0.5)),
            (general_curve(0.7), general_curve(0.9)),
        ]

    def test_mixed_tails_match_per_pair_reference(self):
        pairs = self._mixed_pairs()
        got = convolve_many(pairs)
        pts = np.linspace(0.0, 8.0, 33)
        for (f, g), o in zip(pairs, got):
            expected = convolve_generic(f, g)
            np.testing.assert_allclose(o(pts), expected(pts), rtol=1e-12, atol=1e-12)

    def test_kernel_refuses_mixed_batch_directly(self):
        with pytest.raises(ValidationError):
            convolve_batch(self._mixed_pairs())

    def test_duplicate_pairs_share_one_kernel_call(self):
        f, g = general_curve(), general_curve(0.3)
        got = convolve_many([(f, g)] * 5)
        # accounted like five convolve() calls: one miss, four hits; the
        # kernel itself runs once
        per_op = perf.cache_stats()["per_op"]["minplus.convolve"]
        assert per_op == {"hits": 4, "misses": 1}
        assert perf.kernel_snapshot()["minplus.convolve"]["calls"] == 1
        assert all(o is got[0] for o in got)

    def test_convolve_reduce_mixed_tails_matches_oracle_fold(self):
        curves = [
            general_curve(),
            saturating_curve(0.1),
            general_curve(0.4),
            saturating_curve(0.6),
            general_curve(0.8),
        ]
        got = convolve_reduce(curves)
        fold = curves[0]
        for c in curves[1:]:
            fold = convolve_generic(fold, c)
        pts = np.linspace(0.0, 10.0, 41)
        np.testing.assert_allclose(got(pts), fold(pts), rtol=1e-9, atol=1e-9)
