"""Conservative, direction-aware compaction of piecewise-linear curves.

Iterated min-plus operations grow operand segment counts at every step:
a design-space sweep over trace-derived staircases or a long service
chain quickly drags thousands-of-segment curves through every kernel.
This module trades a *certified* approximation error for a hard segment
budget, in the only direction that keeps Network Calculus sound:

* :func:`compact_upper` returns a curve **pointwise >= the input** — a
  valid (slightly pessimistic) upper arrival/workload curve;
* :func:`compact_lower` returns a curve **pointwise <= the input** — a
  valid (slightly pessimistic) lower service curve.

Both accept a segment budget (``max_segments``), an error budget
(``max_error``, a hard cap on the introduced absolute error), or both,
and report the exact introduced error back
(:attr:`CompactionResult.max_abs_error` / ``max_rel_error``), so callers
can propagate how much pessimism a budgeted pipeline accumulated.

Algorithms (all greedy, smallest-error-first, always preserving the
first breakpoint, the value at 0, the last breakpoint, and the
asymptotic slope — so bursts, divergence checks and tail rates are
untouched):

* **concave up / convex down — line dropping.**  A concave curve is the
  lower envelope (pointwise min) of its segments' support lines, so
  dropping lines can only *raise* it while keeping it concave; dually, a
  convex curve through the origin is the upper envelope (max) of its
  lines, and dropping can only lower it.  The error of a drop is the
  envelope-minus-curve gap at the single new crossing it creates —
  exact, O(1) per candidate.
* **convex up / concave down — chord subsetting.**  Chords of a convex
  curve lie above it (below, for concave), so connecting a subset of the
  original vertices is conservative and shape-preserving.  The error of
  a merged span is the maximum chord-to-curve gap over the original
  vertices inside it — exact, since the gap is piecewise linear between
  them.
* **general curves — plateau merging.**  A merged span ``[x_p, x_q)`` is
  replaced by the constant ``f(x_q^-)`` (its supremum) when compacting
  up, or ``f(x_p)`` (its infimum) when compacting down.  Staircases stay
  staircases — the jump points of a compacted arrival curve remain a
  subset of the original's, so downstream candidate-window enumerations
  (:func:`repro.analysis.frequency._sup_candidates`) stay sound.

Results are memoized through :mod:`repro.perf.cache` under keys carrying
the direction and both budgets, so budgeted pipelines share compactions
across sweep points, and the introduced error is recorded in the
:mod:`repro.obs` metrics registry (``compact.*`` series).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import _restamp
from repro.curves.soa import line_envelope
from repro.obs.metrics import registry
from repro.perf.cache import kernel_cache
from repro.util.validation import ValidationError, check_integer

__all__ = ["CompactionResult", "compact_upper", "compact_lower"]

#: Histogram buckets for the relative error introduced by one compaction.
REL_ERROR_BUCKETS = (1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one conservative compaction.

    Attributes
    ----------
    curve:
        The compacted curve — the *input instance itself* when it already
        met the budget (no reallocation in tight loops).
    direction:
        ``"upper"`` (result >= input) or ``"lower"`` (result <= input).
    input_segments:
        Segment count of the input curve.
    max_abs_error:
        Certified maximum absolute deviation ``sup |result − input|``,
        computed exactly on the union breakpoint grid (left limits
        included).
    max_rel_error:
        Certified maximum relative deviation against the input, taken
        over points where the input is positive; ``inf`` if the result
        deviates where the input is 0.
    """

    curve: PiecewiseLinearCurve
    direction: str
    input_segments: int
    max_abs_error: float
    max_rel_error: float

    @property
    def output_segments(self) -> int:
        """Segment count of the compacted curve."""
        return self.curve.n_segments

    @property
    def is_noop(self) -> bool:
        """True if the input was returned unchanged."""
        return self.output_segments == self.input_segments


def compact_upper(
    curve: PiecewiseLinearCurve,
    *,
    max_segments: int | None = None,
    max_error: float | None = None,
) -> CompactionResult:
    """Compact *curve* from above: the result is pointwise ``>=`` it.

    Sound wherever a curve is used as an upper bound (arrival curves,
    upper workload curves): every bound derived from the compacted curve
    is still a valid — merely slightly pessimistic — bound.

    ``max_segments`` is the segment target; ``max_error`` a hard cap on
    the introduced absolute error (compaction stops early rather than
    exceed it).  At least one must be given.  A curve already within the
    segment budget is returned as-is (``result.curve is curve``).  On
    general (non-convex, non-concave) curves the span adjacent to 0 is
    never merged — ``f(0)`` is preserved exactly — so the result can hold
    one segment more than a ``max_segments`` of 2.
    """
    return _compact(curve, "upper", max_segments, max_error)


def compact_lower(
    curve: PiecewiseLinearCurve,
    *,
    max_segments: int | None = None,
    max_error: float | None = None,
) -> CompactionResult:
    """Compact *curve* from below: the result is pointwise ``<=`` it.

    Sound wherever a curve is used as a lower bound (service curves,
    lower workload curves).  Same budget semantics as
    :func:`compact_upper`.
    """
    return _compact(curve, "lower", max_segments, max_error)


def _compact(
    curve: PiecewiseLinearCurve,
    direction: str,
    max_segments: int | None,
    max_error: float | None,
) -> CompactionResult:
    if not isinstance(curve, PiecewiseLinearCurve):
        raise ValidationError("compaction needs a PiecewiseLinearCurve")
    if max_segments is None and max_error is None:
        raise ValidationError("compaction needs max_segments and/or max_error")
    if max_segments is not None:
        max_segments = check_integer(max_segments, "max_segments", minimum=2)
    if max_error is not None:
        max_error = float(max_error)
        if not math.isfinite(max_error) or max_error < 0.0:
            raise ValidationError("max_error must be a finite value >= 0")

    n = curve.n_segments
    within_budget = max_segments is not None and n <= max_segments
    if within_budget or n <= 2:
        registry.counter("compact.noop", direction=direction).inc()
        return CompactionResult(curve, direction, n, 0.0, 0.0)

    key = (
        "curves.compact",
        direction,
        curve.shape,
        curve.content_digest(),
        max_segments,
        max_error,
    )
    result = kernel_cache.get_or_compute(
        key, lambda: _compact_impl(curve, direction, max_segments, max_error)
    )
    registry.counter("compact.calls", direction=direction).inc()
    registry.counter("compact.segments_dropped", direction=direction).inc(
        max(0, result.input_segments - result.output_segments)
    )
    if math.isfinite(result.max_rel_error):
        registry.histogram(
            "compact.rel_error", buckets=REL_ERROR_BUCKETS, direction=direction
        ).observe(result.max_rel_error)
    return result


def _compact_impl(
    curve: PiecewiseLinearCurve,
    direction: str,
    max_segments: int | None,
    max_error: float | None,
) -> CompactionResult:
    n_in = curve.n_segments
    base = curve.simplified()
    target = max_segments if max_segments is not None else 2
    if base.n_segments <= max(target, 2):
        # collinear merging alone met the budget: same function, zero error
        return CompactionResult(base, direction, n_in, 0.0, 0.0)

    shape = base.shape
    if direction == "upper":
        if shape in ("concave", "affine"):
            out = _drop_lines(base, target, max_error, upper=True)
        elif shape == "convex":
            out = _chord_subset(base, target, max_error, upper=True)
        else:
            out = _merge_plateaus(base, target, max_error, upper=True)
    else:
        if shape in ("convex", "affine"):
            out = _drop_lines(base, target, max_error, upper=False)
        elif shape == "concave":
            out = _chord_subset(base, target, max_error, upper=False)
        else:
            out = _merge_plateaus(base, target, max_error, upper=False)

    abs_err, rel_err = _certified_error(curve, out, direction)
    return CompactionResult(out, direction, n_in, abs_err, rel_err)


# ---------------------------------------------------------------------------
# greedy engine
# ---------------------------------------------------------------------------

def _greedy_keep(
    n_items: int,
    cost,
    target: int,
    max_error: float | None,
    *,
    first_droppable: int = 1,
) -> np.ndarray:
    """Drop interior items (first/last pinned) greedily by cost.

    *cost(p, i, q)* is the error of dropping item *i* given its current
    live neighbors *p* and *q*; it must be the exact final error of the
    merged span it creates, so stopping when the cheapest candidate
    exceeds *max_error* enforces the cap exactly.  *first_droppable*
    raises the left pin (e.g. 2 protects the span adjacent to 0 as well).
    Returns the sorted indices of the kept items.
    """
    prev = list(range(-1, n_items - 1))
    nxt = list(range(1, n_items + 1))
    removed = [False] * n_items
    version = [0] * n_items
    heap = [(cost(i - 1, i, i + 1), 0, i) for i in range(first_droppable, n_items - 1)]
    heapq.heapify(heap)
    alive = n_items
    while alive > target and heap:
        c, v, i = heapq.heappop(heap)
        if removed[i] or v != version[i]:
            continue
        if max_error is not None and c > max_error:
            break
        removed[i] = True
        alive -= 1
        p, q = prev[i], nxt[i]
        nxt[p], prev[q] = q, p
        for j in (p, q):
            if first_droppable <= j < n_items - 1 and not removed[j]:
                version[j] += 1
                heapq.heappush(
                    heap, (cost(prev[j], j, nxt[j]), version[j], j)
                )
    return np.flatnonzero(~np.asarray(removed))


# ---------------------------------------------------------------------------
# concave-up / convex-down: drop support lines
# ---------------------------------------------------------------------------

def _drop_lines(
    base: PiecewiseLinearCurve, target: int, max_error: float | None, *, upper: bool
) -> PiecewiseLinearCurve:
    x = base.breakpoints
    y = base.values_at_breakpoints
    s = base.slopes
    v = y - s * x  # support-line intercepts
    shape = "concave" if upper else "convex"

    def cost(p: int, i: int, q: int) -> float:
        # dropping line i leaves the p/q crossing as the only new envelope
        # kink; the envelope-to-curve gap there is the exact added error
        z = max(0.0, (v[q] - v[p]) / (s[p] - s[q]))
        gap = (v[p] + s[p] * z) - float(base(z))
        return gap if upper else -gap

    keep = _greedy_keep(x.size, cost, target, max_error)
    xs, ys, ss = line_envelope(v[keep], s[keep], lower=upper)
    ys = np.maximum(ys, 0.0)
    ss = np.maximum(ss, 0.0)
    return _restamp(PiecewiseLinearCurve(xs, ys, ss).simplified(), shape)


# ---------------------------------------------------------------------------
# convex-up / concave-down: connect a subset of the vertices by chords
# ---------------------------------------------------------------------------

def _chord_subset(
    base: PiecewiseLinearCurve, target: int, max_error: float | None, *, upper: bool
) -> PiecewiseLinearCurve:
    x = base.breakpoints
    y = base.values_at_breakpoints
    s = base.slopes
    shape = "convex" if upper else "concave"

    def cost(p: int, i: int, q: int) -> float:
        # the chord-to-curve gap is piecewise linear with kinks at the
        # original vertices, so its span maximum sits at one of them
        sl = (y[q] - y[p]) / (x[q] - x[p])
        gap = y[p] + sl * (x[p + 1 : q] - x[p]) - y[p + 1 : q]
        dev = float(gap.max()) if upper else float(-gap.min())
        return max(0.0, dev)

    keep = _greedy_keep(x.size, cost, target, max_error)
    xs = x[keep]
    ys = y[keep]
    ss = np.empty(keep.size)
    ss[-1] = s[-1]
    for k in range(keep.size - 1):
        p, q = keep[k], keep[k + 1]
        # untouched adjacencies reuse the exact original slope (a chord
        # over one segment is that segment, minus rounding noise)
        ss[k] = s[p] if q == p + 1 else (y[q] - y[p]) / (x[q] - x[p])
    return _restamp(PiecewiseLinearCurve(xs, ys, ss).simplified(), shape)


# ---------------------------------------------------------------------------
# general curves: merge breakpoint spans into plateaus
# ---------------------------------------------------------------------------

def _merge_plateaus(
    base: PiecewiseLinearCurve, target: int, max_error: float | None, *, upper: bool
) -> PiecewiseLinearCurve:
    x = base.breakpoints
    y = base.values_at_breakpoints
    s = base.slopes
    # left limit at each breakpoint: the supremum of the span ending there
    left = np.empty_like(y)
    left[0] = y[0]
    left[1:] = y[:-1] + s[:-1] * np.diff(x)

    def cost(p: int, i: int, q: int) -> float:
        # a merged span [x_p, x_q) spans values [y_p, f(x_q^-)]; rounding
        # it to either end costs exactly their gap
        return float(left[q] - y[p])

    # compacting up must never raise f(0): eq. (9)-style candidate
    # enumerations probe jump points only, so a burst silently lifted
    # above the buffer bound would be missed — pin the span at 0 too
    keep = _greedy_keep(
        x.size, cost, target, max_error, first_droppable=2 if upper else 1
    )
    xs = x[keep]
    ys = np.empty(keep.size)
    ss = np.empty(keep.size)
    ys[-1] = y[keep[-1]]
    ss[-1] = s[-1]
    for k in range(keep.size - 1):
        p, q = keep[k], keep[k + 1]
        if q == p + 1:
            ys[k], ss[k] = y[p], s[p]
        elif upper:
            ys[k], ss[k] = left[q], 0.0  # round the whole span up to its sup
        else:
            ys[k], ss[k] = y[p], 0.0  # round the whole span down to its inf
    return PiecewiseLinearCurve(xs, ys, ss).simplified()


# ---------------------------------------------------------------------------
# exact error certification
# ---------------------------------------------------------------------------

def _left_values(curve: PiecewiseLinearCurve, xs: np.ndarray) -> np.ndarray:
    """Vectorized left limits ``f(Δ⁻)`` (``f(0)`` at 0)."""
    x = curve.breakpoints
    y = curve.values_at_breakpoints
    s = curve.slopes
    out = np.empty(xs.size)
    pos = xs > 0.0
    out[~pos] = y[0]
    idx = np.searchsorted(x, xs[pos], side="left") - 1
    out[pos] = y[idx] + s[idx] * (xs[pos] - x[idx])
    return out


def _certified_error(
    original: PiecewiseLinearCurve,
    compacted: PiecewiseLinearCurve,
    direction: str,
) -> tuple[float, float]:
    """Exact ``sup |compacted − original|``, absolute and relative.

    The difference is piecewise linear with kinks only at breakpoints of
    either curve and constant past the last one (the asymptotic slopes
    are preserved by every compaction path), so probing the union grid —
    right values and left limits — is exhaustive.
    """
    xs = np.union1d(original.breakpoints, compacted.breakpoints)
    diff = np.concatenate(
        (
            compacted(xs) - original(xs),
            _left_values(compacted, xs) - _left_values(original, xs),
        )
    )
    ref = np.concatenate((original(xs), _left_values(original, xs)))
    if direction == "lower":
        diff = -diff
    abs_err = max(0.0, float(diff.max()))
    pos = ref > 0.0
    rel_err = max(0.0, float((diff[pos] / ref[pos]).max())) if np.any(pos) else 0.0
    if np.any(diff[~pos] > 1e-12):
        rel_err = math.inf
    return abs_err, rel_err
