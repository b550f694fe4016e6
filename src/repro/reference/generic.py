"""Per-cell generic min-plus construction (oracle only; see package docstring).

The definition the batched kernel of :mod:`repro.curves.soa` must
reproduce, written one grid cell at a time.  The optimizer of the inner
inf/sup of ``f ⊗ g`` / ``f ⊘ g`` is always attained at a breakpoint of
``f`` or a (shifted) breakpoint of ``g``; between two adjacent points of
the breakpoint sum/difference set every such *configuration* is a straight
line, so the result restricted to that cell is the lower (upper) envelope
of a finite set of lines, swept here with a scalar loop — crossing
breakpoints that do not belong to the sum set included.

The cell grid (:func:`~repro.curves.soa._dedupe_grid`), the result
assembly (:func:`~repro.curves.soa._monotone_pwl`) and the value-tie band
(:data:`~repro.curves.soa.VALUE_TIE_REL`) are shared with the kernel, so
the conformance suite can demand bit-equal abscissae; everything the
kernel vectorizes — candidate lines, winner selection, crossing search —
is written out independently.  ``O(n·m·(n+m))`` with a Python loop per
cell: far too slow for production, which is the point.
"""

from __future__ import annotations

import math

import numpy as np

from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import _check_stable
from repro.curves.soa import VALUE_TIE_REL, _dedupe_grid, _monotone_pwl
from repro.util.validation import ValidationError

__all__ = ["convolve_generic", "deconvolve_generic"]


class _CurveArrays:
    """Unpacked curve data shared across all cells of one construction.

    Precomputes the per-breakpoint left limits (used by the jump probes)
    so the per-cell line builders are pure array arithmetic.
    """

    __slots__ = ("x", "y", "s", "left")

    def __init__(self, curve: PiecewiseLinearCurve):
        self.x = curve.breakpoints
        self.y = curve.values_at_breakpoints
        self.s = curve.slopes
        # left limit at each breakpoint; index 0 is never used (probes only
        # exist for breakpoints > 0)
        self.left = np.empty_like(self.y)
        self.left[0] = self.y[0]
        if self.x.size > 1:
            self.left[1:] = self.y[:-1] + self.s[:-1] * np.diff(self.x)

    def eval_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized right-continuous evaluation (t must be >= 0)."""
        idx = np.searchsorted(self.x, t, side="right") - 1
        return self.y[idx] + self.s[idx] * (t - self.x[idx])

    def eval0_at(self, t: np.ndarray) -> np.ndarray:
        """Evaluation under the min-plus ``f(0) = 0`` convention."""
        return np.where(t == 0.0, 0.0, self.eval_at(t))

    def slope_at(self, t: np.ndarray) -> np.ndarray:
        """Segment slope in effect at each (right-continuous) point."""
        return self.s[np.searchsorted(self.x, t, side="right") - 1]


def _line_envelope_on_interval(
    va: np.ndarray, sl: np.ndarray, a: float, b: float, *, lower: bool
) -> list[tuple[float, float, float]]:
    """Envelope of the lines ``value = va + sl·(Δ − a)`` on ``[a, b)``.

    Returns segments ``(start, value_at_start, slope)`` covering ``[a, b)``
    of the lower (``lower=True``) or upper envelope, exact crossings
    included.
    """
    if va.size == 0:
        raise ValidationError("envelope needs at least one line")
    # dedup (value-at-a, slope) pairs; keeps the candidate set small
    uniq = np.unique(np.column_stack((va, sl)), axis=0)
    va, sl = uniq[:, 0], uniq[:, 1]
    steepest = float(np.abs(sl).max())
    segments: list[tuple[float, float, float]] = []
    x = a
    max_segments = va.size + 2  # each crossing switches to a new line
    while x < b - 1e-18 and len(segments) < max_segments:
        v = va + sl * (x - a)
        # winning line at x: extremal value, ties (within the value-tie
        # band) broken by slope — flattest wins for lower envelope,
        # steepest for upper, so the chosen segment stays on the envelope
        # just after x
        if lower:
            vbest = float(v.min())
            tol = VALUE_TIE_REL * (1.0 + abs(vbest) + abs(x) * steepest)
            near = np.flatnonzero(v <= vbest + tol)
            j = near[np.argmin(sl[near])]
        else:
            vbest = float(v.max())
            tol = VALUE_TIE_REL * (1.0 + abs(vbest) + abs(x) * steepest)
            near = np.flatnonzero(v >= vbest - tol)
            j = near[np.argmax(sl[near])]
        best_val = float(v[j])
        best_slope = float(sl[j])
        # first crossing where another line overtakes the winner.
        # near-parallel lines never produce a meaningful crossing; a
        # denormal slope difference would yield a numerically garbage
        # crossing abscissa, so treat it as parallel
        rel = sl - best_slope
        overtaking = np.abs(rel) > 1e-15 * np.maximum(
            1.0, np.maximum(np.abs(sl), abs(best_slope))
        )
        overtaking &= (rel < 0) if lower else (rel > 0)
        next_x = b
        if np.any(overtaking):
            t = (v[overtaking] - best_val) / (-rel[overtaking])
            t = t[t > 1e-15]
            if t.size and x + float(t.min()) < next_x:
                next_x = x + float(t.min())
        segments.append((x, best_val, best_slope))
        if not math.isfinite(next_x):
            break
        x = next_x
    return segments


def _configuration_lines_convolve(
    f: _CurveArrays, g: _CurveArrays, a: float, mid: float
) -> tuple[np.ndarray, np.ndarray]:
    """All candidate lines for (f⊗g) on a cell with midpoint *mid*.

    Configurations: ``s`` pinned at a breakpoint of f (line follows g), or
    ``Δ − s`` pinned at a breakpoint of g (line follows f).  Only
    configurations feasible throughout the cell contribute.  Returns
    ``(value_at_a, slope)`` arrays.
    """
    vas: list[np.ndarray] = []
    sls: list[np.ndarray] = []
    half = mid - a

    fsel = f.x <= a + 1e-15
    if np.any(fsel):
        s = f.x[fsel]
        rest = mid - s
        slope = g.slope_at(rest)
        g_rest = g.eval0_at(rest)
        f_at = np.where(s == 0.0, 0.0, f.y[fsel])
        vas.append(f_at + g_rest - slope * half)
        sls.append(slope)
        # f is right-continuous: the inf can be approached with s just
        # below the breakpoint, paying f's left limit (matters when f
        # jumps, e.g. staircase arrival curves)
        jump = s > 0.0
        if np.any(jump):
            vas.append(f.left[fsel][jump] + g_rest[jump] - slope[jump] * half)
            sls.append(slope[jump])

    gsel = g.x <= a + 1e-15
    if np.any(gsel):
        r = g.x[gsel]
        s_mid = mid - r
        slope = f.slope_at(s_mid)
        f_smid = f.eval0_at(s_mid)
        g_at = np.where(r == 0.0, 0.0, g.y[gsel])
        vas.append(f_smid + g_at - slope * half)
        sls.append(slope)
        # likewise, Δ − s can sit just below a g-breakpoint, paying g's
        # left limit
        jump = r > 0.0
        if np.any(jump):
            vas.append(f_smid[jump] + g.left[gsel][jump] - slope[jump] * half)
            sls.append(slope[jump])

    if not vas:
        return np.empty(0), np.empty(0)
    return np.concatenate(vas), np.concatenate(sls)


def _configuration_lines_deconvolve(
    f: _CurveArrays, g: _CurveArrays, a: float, mid: float
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate lines for (f⊘g) on a cell with midpoint *mid*.

    Configurations: ``u`` pinned at a breakpoint of g (line follows f,
    always feasible), or ``Δ + u`` pinned at a breakpoint of f (line slope
    is g's local slope; feasible while ``x_f >= Δ``)."""
    vas: list[np.ndarray] = []
    sls: list[np.ndarray] = []
    half = mid - a

    u = g.x
    slope = f.slope_at(mid + u)
    f_shift = f.eval_at(mid + u)
    g_at = np.where(u == 0.0, 0.0, g.y)
    vas.append(f_shift - g_at - slope * half)
    sls.append(slope)
    # probe just below a g-jump: g's left limit is smaller, which can
    # only increase the supremum (f changes only infinitesimally there
    # unless Δ+u hits an f-breakpoint, which is a grid point)
    jump = u > 0.0
    if np.any(jump):
        vas.append(f_shift[jump] - g.left[jump] - slope[jump] * half)
        sls.append(slope[jump])

    fsel = f.x >= mid  # u = t − Δ stays >= 0 around the midpoint
    if np.any(fsel):
        t = f.x[fsel]
        u_mid = t - mid
        slope = g.slope_at(u_mid)
        g_umid = np.where(u_mid == 0.0, 0.0, g.eval_at(u_mid))
        vas.append(f.y[fsel] - g_umid - slope * half)
        sls.append(slope)

    return np.concatenate(vas), np.concatenate(sls)


def _sweep_cells(grid, lines, fa, ga, *, lower, final_slope) -> PiecewiseLinearCurve:
    """Sweep every cell of *grid* (plus a synthetic last cell to ∞) and
    assemble the envelope pieces into one curve."""
    xs: list[float] = []
    ys: list[float] = []
    ss: list[float] = []
    n_grid = grid.size
    for i in range(n_grid):
        a = float(grid[i])
        last = i + 1 >= n_grid
        b = a + max(1.0, abs(a)) if last else float(grid[i + 1])
        mid = 0.5 * (a + b)
        va, sl = lines(fa, ga, a, mid)
        if last:
            b = math.inf
        # the envelope value at `a` is already the right limit: configurations
        # feasible on [a, b) evaluated at a reproduce the RC value exactly
        for start, val, slope in _line_envelope_on_interval(va, sl, a, b, lower=lower):
            xs.append(start)
            ys.append(max(val, 0.0))
            ss.append(max(slope, 0.0))
    ss[-1] = max(final_slope, 0.0)
    return _monotone_pwl(xs, ys, ss)


def convolve_generic(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """``f ⊗ g`` by the per-cell construction (no dispatch, no cache)."""
    fa = _CurveArrays(f)
    ga = _CurveArrays(g)
    # contains 0 (= x_f0 + x_g0)
    grid = _dedupe_grid(np.unique(np.add.outer(fa.x, ga.x).ravel()))
    return _sweep_cells(
        grid,
        _configuration_lines_convolve,
        fa,
        ga,
        lower=True,
        final_slope=min(f.final_slope, g.final_slope),
    )


def deconvolve_generic(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """``f ⊘ g`` by the per-cell construction (no dispatch, no cache).

    Raises :class:`~repro.curves.minplus.UnboundedCurveError` when the
    result is infinite.
    """
    _check_stable(f, g)
    fa = _CurveArrays(f)
    ga = _CurveArrays(g)
    diffs = np.unique(np.subtract.outer(fa.x, ga.x).ravel())
    grid = _dedupe_grid(diffs[diffs >= 0.0])
    if grid.size == 0 or grid[0] != 0.0:
        grid = np.concatenate(([0.0], grid))
    return _sweep_cells(
        grid,
        _configuration_lines_deconvolve,
        fa,
        ga,
        lower=False,
        final_slope=f.final_slope,
    )
