"""Exact algebra of compactly supported piecewise-constant functions.

A step function is stored as breakpoints ``xs[0..m]`` (strictly increasing)
and values ``vals[i]`` taken on the open piece ``(xs[i], xs[i+1])``; the
function vanishes outside ``[xs[0], xs[m]]``.  The canonical form has no
zero-width pieces, no adjacent equal values and no leading or trailing zero
pieces, so two equal functions have identical arrays.  Translation,
reflection, truncation, linear combination and integration all stay inside
the class; values are never interpolated, which is what keeps the transport
bookkeeping exact.

Only the public constructor ``StepFunction(xs, vals)`` validates its input.
``shift``, ``reflect``, ``scale`` and ``clip`` start from a canonical
function, so each checks the one thing its arithmetic can break (a shift or
reflection can merge close breakpoints; a scale can underflow a value to 0
or round two neighbours to the same value) and hands arrays that are still
canonical straight to the object; when the check fails they take the
validated path.  ``window_integral`` and :func:`clipped_integral` integrate
the canonical arrays of a truncation without building the object, and give
the float ``clip(lo, hi).integral()`` gives.

A window inside one piece integrates to one product (bitwise a one-element
``np.dot``), any other to one ``np.dot`` on the canonical arrays of the
pieces it overlaps: a sequential FMA chain below 16 elements on AVX-512
(numpy 2.4.6), which ``np.sum(a * b)`` or ``reduceat`` rounds differently,
so report bytes are pinned per machine and numpy build (README).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

__all__ = ["StepFunction", "clipped_integral", "cumulative_at", "misses", "running_totals"]


def _canonical(xs: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if vals.size == 0:
        return np.empty(0), np.empty(0)
    # drop zero-width pieces (counting a mask costs a third of .all())
    keep = xs[1:] > xs[:-1]
    if np.count_nonzero(keep) < keep.size:
        vals = vals[keep]
        xs = np.concatenate([xs[:1], xs[1:][keep]])
        if vals.size == 0:
            return np.empty(0), np.empty(0)
    # merge adjacent equal values
    same = vals[1:] == vals[:-1]
    if np.count_nonzero(same):
        new = np.concatenate([[True], ~same])
        vals = vals[new]
        xs = np.concatenate([xs[:-1][new], xs[-1:]])
    # trim zero pieces at either end
    lo, hi = 0, vals.size
    while lo < hi and vals[lo] == 0.0:
        lo += 1
    while hi > lo and vals[hi - 1] == 0.0:
        hi -= 1
    if lo > 0 or hi < vals.size:
        vals = vals[lo:hi]
        xs = xs[lo:hi + 1] if vals.size else np.empty(0)
    return xs, vals


def _check_bounds(lo: float, hi: float):
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError(f"clip bounds must not be nan, got ({lo}, {hi})")


def misses(first: float, last: float, lo: float, hi: float) -> bool:
    # breakpoints first..last all at or beyond one bound clip to zero-width pieces
    return first >= hi or last <= lo


def clipped_integral(xs: np.ndarray, vals: np.ndarray, lo: float, hi: float) -> float:
    """Integral over (lo, hi) of the step function with finite nondecreasing
    breakpoints ``xs`` and values ``vals``, canonical or not: the float
    ``StepFunction(xs, vals).clip(lo, hi).integral()`` gives, from the
    canonical arrays of the pieces that bisection finds overlapping (lo, hi).
    """
    _check_bounds(lo, hi)
    if not lo < hi or not vals.size or misses(xs[0], xs[-1], lo, hi):
        return 0.0
    # pieces outside i..j clip to zero width, which the canonical form drops
    i = max(bisect_right(xs, lo) - 1, 0)
    j = min(bisect_left(xs, hi), vals.size) - 1
    if i == j:
        v, w = vals[i], min(xs[i + 1], hi) - max(xs[i], lo)
        # a zero value or width makes a piece the canonical form drops
        return float(v * w) if v and w > 0.0 else 0.0
    # twice as fast as np.clip; a zero's sign differs, which no width sees
    xs, vals = _canonical(np.minimum(np.maximum(xs[i:j + 2], lo), hi), vals[i:j + 1])
    return float(np.dot(vals, xs[1:] - xs[:-1])) if vals.size else 0.0


def running_totals(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Integral over (-inf, xs[i]] at every breakpoint: the table of :func:`cumulative_at`."""
    return np.concatenate(([0.0], np.cumsum(vals * (xs[1:] - xs[:-1]))))


def cumulative_at(xs: np.ndarray, vals: np.ndarray, totals: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
    """Integral over (-inf, x] at every x in ``points`` of the nonzero
    canonical step function (xs, vals) with running totals ``totals``.

    One vectorised evaluation: no clipped copies are built.  Left of the
    support the value is exactly 0 and right of it exactly the running total
    of the last piece; for nonnegative values it is nondecreasing in x also
    after rounding, so the difference at two points is never negative and is
    exactly 0 on an interval that misses the support.
    """
    x = np.minimum(np.maximum(points, xs[0]), xs[-1])
    k = np.minimum(np.searchsorted(xs, x, side="right") - 1, vals.size - 1)
    return totals[k] + vals[k] * (x - xs[k])


class StepFunction:
    """Piecewise-constant function with bounded support, canonical form."""

    __slots__ = ("xs", "vals")

    def __init__(self, xs, vals):
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        vals = np.atleast_1d(np.asarray(vals, dtype=np.float64))
        if xs.size == 0:
            vals = np.empty(0)
        elif xs.size != vals.size + 1:
            raise ValueError("need one more breakpoint than values")
        if xs.size:
            if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(vals)):
                raise ValueError("breakpoints and values must be finite")
            if not np.all(xs[1:] >= xs[:-1]):
                raise ValueError("breakpoints must be nondecreasing")
        self.xs, self.vals = _canonical(xs, vals)

    @classmethod
    def _trusted(cls, xs: np.ndarray, vals: np.ndarray) -> "StepFunction":
        """Wrap arrays that are already canonical, without validation."""
        out = object.__new__(cls)
        out.xs, out.vals = xs, vals
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls(np.empty(0), np.empty(0))

    @classmethod
    def indicator(cls, lo: float, hi: float, value: float = 1.0) -> "StepFunction":
        if not lo < hi:
            return cls.zero()
        return cls([lo, hi], [value])

    @classmethod
    def from_pieces(cls, pieces) -> "StepFunction":
        """Sum of indicator pieces ``(lo, hi, value)``; pieces may overlap."""
        out = cls.zero()
        for lo, hi, value in pieces:
            out = out + cls.indicator(lo, hi, value)
        return out

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.vals.size == 0

    def support(self):
        """(lo, hi) hull of the support, or None for the zero function."""
        if self.is_zero:
            return None
        return float(self.xs[0]), float(self.xs[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.vals, other.vals)

    def __hash__(self):
        return hash((self.xs.tobytes(), self.vals.tobytes()))

    def __repr__(self):
        if self.is_zero:
            return "StepFunction.zero()"
        return f"StepFunction({self.xs.tolist()}, {self.vals.tolist()})"

    def __call__(self, x: float) -> float:
        """Pointwise value; right-continuous at breakpoints, 0 off support."""
        if math.isnan(x):
            raise ValueError("x must not be nan")
        if self.is_zero or x < self.xs[0] or x >= self.xs[-1]:
            return 0.0
        i = int(np.searchsorted(self.xs, x, side="right")) - 1
        return float(self.vals[i])

    def min_value(self) -> float:
        """Infimum over the whole line (the function is 0 off its support)."""
        if self.is_zero:
            return 0.0
        return float(min(self.vals.min(), 0.0))

    def max_value(self) -> float:
        if self.is_zero:
            return 0.0
        return float(max(self.vals.max(), 0.0))

    # -- geometry of the graph ----------------------------------------------

    def shift(self, dt: float) -> "StepFunction":
        """g(x) = f(x - dt)."""
        if self.is_zero or dt == 0.0:
            return self
        return self._moved(self.xs + dt, self.vals)

    def reflect(self, c: float) -> "StepFunction":
        """g(x) = f(c - x)."""
        if self.is_zero:
            return self
        return self._moved((c - self.xs)[::-1], self.vals[::-1])

    @staticmethod
    def _moved(xs: np.ndarray, vals: np.ndarray) -> "StepFunction":
        # canonical values on breakpoints that stayed finite and distinct
        if math.isfinite(xs[0]) and math.isfinite(xs[-1]) and (xs[1:] > xs[:-1]).all():
            return StepFunction._trusted(xs, vals)
        return StepFunction(xs, vals)

    def clip(self, lo: float, hi: float) -> "StepFunction":
        """Restriction to (lo, hi); zero outside."""
        _check_bounds(lo, hi)
        if self.is_zero or not lo < hi:
            return StepFunction.zero()
        if lo <= self.xs[0] and hi >= self.xs[-1]:
            return self
        return StepFunction._trusted(*_canonical(np.clip(self.xs, lo, hi), self.vals))

    def scale(self, a: float) -> "StepFunction":
        # a unit weight, as a shift rule at scale 1 applies, is exact
        if self.is_zero or a == 1.0:
            return self
        vals = a * self.vals
        if np.isfinite(vals).all() and vals.all() and (vals[1:] != vals[:-1]).all():
            return StepFunction._trusted(self.xs, vals)
        return StepFunction(self.xs, vals)

    def abs(self) -> "StepFunction":
        if self.is_zero:
            return self
        return StepFunction(self.xs, np.abs(self.vals))

    # -- linear combination --------------------------------------------------

    def _values_on(self, grid: np.ndarray) -> np.ndarray:
        """Values on each cell of a breakpoint grid that holds every
        breakpoint of this function.  Each cell is read at its left end,
        which is exact: a cell one ulp wide has no midpoint between its
        ends."""
        if self.is_zero:
            return np.zeros(grid.size - 1)
        left = grid[:-1]
        idx = np.searchsorted(self.xs, left, side="right") - 1
        out = np.zeros(grid.size - 1)
        inside = (left >= self.xs[0]) & (left < self.xs[-1])
        out[inside] = self.vals[idx[inside]]
        return out

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        grid = np.union1d(self.xs, other.xs)
        return StepFunction(grid, self._values_on(grid) + other._values_on(grid))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scale(-1.0)

    def __neg__(self) -> "StepFunction":
        return self.scale(-1.0)

    # -- integrals -------------------------------------------------------------

    def integral(self) -> float:
        if self.is_zero:
            return 0.0
        return float(np.dot(self.vals, self.xs[1:] - self.xs[:-1]))

    def window_integral(self, lo: float, hi: float) -> float:
        """``clip(lo, hi).integral()``, without building the clipped copy."""
        _check_bounds(lo, hi)
        if self.is_zero or not lo < hi:
            return 0.0
        if lo <= self.xs[0] and hi >= self.xs[-1]:
            return self.integral()
        return clipped_integral(self.xs, self.vals, lo, hi)

    def cumulative(self, points) -> np.ndarray:
        """``integral of f over (-inf, x]`` at every x in ``points`` (:func:`cumulative_at`)."""
        x = np.asarray(points, dtype=np.float64)
        if self.is_zero:
            return np.zeros(x.shape)
        return cumulative_at(self.xs, self.vals, running_totals(self.xs, self.vals), x)

    def abs_integral(self) -> float:
        if self.is_zero:
            return 0.0
        return float(np.dot(np.abs(self.vals), np.diff(self.xs)))

    def l1_distance(self, other: "StepFunction") -> float:
        return (self - other).abs_integral()

    def exp_integral(self, lam: float, ref: float) -> float:
        """Exact ``integral of f(u) * exp(-lam * (ref - u)) du``.

        This is the building block for damped boundary traces: the mass of
        each piece discounted by the exponential clock run from the piece to
        the reference point ``ref``.
        """
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ValueError(f"lam must be positive and finite, got {lam}")
        if self.is_zero:
            return 0.0
        weights = np.exp(-lam * (ref - self.xs))
        return float(np.dot(self.vals, (weights[1:] - weights[:-1]))) / lam
