import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honestflow import StepFunction
from honestflow.steps import clipped_integral

from conftest import dyadics


def pieces_strategy(max_pieces=4):
    piece = st.tuples(dyadics(), dyadics(0.0, 4.0, 16), dyadics(-4.0, 4.0, 8)).map(
        lambda p: (p[0], p[0] + p[1], p[2])
    )
    return st.lists(piece, min_size=0, max_size=max_pieces).map(StepFunction.from_pieces)


def float_functions():
    """Canonical step functions on arbitrary floats: the arrays go through
    the validated constructor, which drops, merges and trims as needed."""
    value = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3, allow_nan=False)
    return st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=0, max_size=8).flatmap(
        lambda xs: st.lists(value, min_size=max(len(xs) - 1, 0), max_size=max(len(xs) - 1, 0))
        .map(lambda vals: StepFunction(sorted(xs), vals) if xs else StepFunction.zero()))


def same(f, g):
    """Bitwise equality of two step functions' arrays."""
    return f.xs.tobytes() == g.xs.tobytes() and f.vals.tobytes() == g.vals.tobytes()


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def raw_arrays():
    """Nondecreasing breakpoints and values that need not be canonical:
    breakpoints drawn from a few values repeat, values drawn from a few
    repeat or vanish (zero end pieces), and signed values near the least
    float make products that underflow."""
    point = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(-4.0, 4.0)
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300, 5e-324, -5e-324]) | st.floats(
        -4.0, 4.0)
    return st.lists(point, min_size=2, max_size=9).flatmap(
        lambda xs: st.lists(value, min_size=len(xs) - 1, max_size=len(xs) - 1).map(
            lambda vals: (np.array(sorted(xs)), np.array(vals))))


def windows_on(xs):
    """Windows (lo, hi), lo < hi: ends on a breakpoint, anywhere, or
    infinite, and windows 2**-k wide."""
    end = st.sampled_from(xs.tolist()) | st.floats(-5.0, 5.0)
    return st.one_of(
        st.tuples(end, end).filter(lambda w: w[0] < w[1]),
        st.tuples(end, st.integers(1, 50)).map(lambda w: (w[0], w[0] + 2.0**-w[1])),
        st.tuples(st.just(-math.inf), end),
        st.tuples(end, st.just(math.inf)),
    )


class TestConstruction:
    def test_zero(self):
        z = StepFunction.zero()
        assert z.is_zero
        assert z.integral() == 0.0
        assert z(0.0) == 0.0

    def test_indicator_values(self):
        f = StepFunction.indicator(0.0, 1.0, 2.0)
        # right-continuous: value holds on [lo, hi)
        assert f(0.0) == 2.0
        assert f(0.5) == 2.0
        assert f(1.0) == 0.0
        assert f(-0.1) == 0.0

    def test_empty_piece_collapses(self):
        assert StepFunction.indicator(1.0, 1.0, 3.0).is_zero

    def test_adjacent_equal_values_merge(self):
        f = StepFunction.indicator(0.0, 1.0, 1.0) + StepFunction.indicator(1.0, 2.0, 1.0)
        assert f == StepFunction.indicator(0.0, 2.0, 1.0)
        assert f.xs.size == 2

    def test_interior_zero_run_kept(self):
        f = StepFunction.indicator(0.0, 1.0, 1.0) + StepFunction.indicator(2.0, 3.0, 1.0)
        assert f.support() == (0.0, 3.0)
        assert f(1.5) == 0.0

    def test_trailing_zeros_trimmed(self):
        f = StepFunction(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0]))
        assert f.support() == (0.0, 1.0)

    def test_bad_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([1.0, 0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 1.0]), np.array([np.inf]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestTransforms:
    def test_shift(self):
        f = StepFunction.indicator(0.0, 1.0, 3.0).shift(2.5)
        assert f.support() == (2.5, 3.5)
        assert f(2.5) == 3.0

    def test_reflect_evaluates_backwards(self):
        f = StepFunction.from_pieces([(0.0, 1.0, 1.0), (1.0, 2.0, 5.0)])
        g = f.reflect(2.0)  # g(x) = f(2 - x), checked away from breakpoints
        assert g(0.5) == 5.0
        assert g(1.5) == 1.0
        assert g(2.5) == 0.0

    def test_reflect_twice_is_identity(self):
        f = StepFunction.from_pieces([(0.0, 0.5, 2.0), (1.0, 1.5, -1.0)])
        assert f.reflect(3.0).reflect(3.0) == f

    def test_clip(self):
        f = StepFunction.indicator(0.0, 4.0, 1.0).clip(1.0, 2.5)
        assert f.support() == (1.0, 2.5)
        assert f.integral() == 1.5

    def test_scale_and_abs(self):
        f = StepFunction.indicator(0.0, 1.0, -2.0)
        assert f.scale(-0.5) == StepFunction.indicator(0.0, 1.0, 1.0)
        assert f.abs() == StepFunction.indicator(0.0, 1.0, 2.0)

    @given(pieces_strategy(), dyadics())
    @settings(max_examples=60)
    def test_shift_preserves_integral(self, f, dt):
        assert f.shift(dt).integral() == pytest.approx(f.integral(), abs=1e-12)

    @given(pieces_strategy(), dyadics())
    @settings(max_examples=60)
    def test_reflect_preserves_integral(self, f, c):
        assert f.reflect(c).integral() == pytest.approx(f.integral(), abs=1e-12)


class TestTrustedTransforms:
    """shift, reflect, scale and clip skip validation when a cheap guard
    holds; their arrays must be the ones the validated constructor gives."""

    @given(float_functions(), st.floats(-1e17, 1e17, allow_nan=False), st.floats(-1e3, 1e3),
           st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=150)
    def test_transforms_match_validated_construction(self, f, dt, c, a):
        # a zero shift returns f itself, keeping a breakpoint at -0.0 as it is
        assert same(f.shift(dt), f if dt == 0.0 else StepFunction(f.xs + dt, f.vals))
        assert same(f.reflect(c), StepFunction((c - f.xs)[::-1], f.vals[::-1]))
        assert same(f.scale(a), StepFunction(f.xs, a * f.vals))

    @given(float_functions(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    @settings(max_examples=150)
    def test_clip_and_window_integral_match_validated_construction(self, f, lo, hi):
        want = StepFunction(np.clip(f.xs, lo, hi), f.vals) if lo < hi else StepFunction.zero()
        assert same(f.clip(lo, hi), want)
        assert np.float64(f.window_integral(lo, hi)).tobytes() == np.float64(want.integral()).tobytes()

    def test_shift_merging_one_ulp_apart(self):
        x1 = math.nextafter(1.0, 2.0)
        f = StepFunction([0.0, 1.0, x1, 2.0], [1.0, 3.0, 2.0])
        g = f.shift(2.0**52)
        assert g.xs.size < f.xs.size  # the guard tripped: a piece was dropped
        assert same(g, StepFunction(f.xs + 2.0**52, f.vals))
        h = f.reflect(2.0**52)
        assert h.xs.size < f.xs.size
        assert same(h, StepFunction((2.0**52 - f.xs)[::-1], f.vals[::-1]))

    def test_scale_underflow_to_zero(self):
        f = StepFunction([0.0, 1.0, 2.0], [5e-324, 1.0])
        g = f.scale(0.5)
        assert same(g, StepFunction([1.0, 2.0], [0.5]))
        assert same(g, StepFunction(f.xs, 0.5 * f.vals))

    def test_scale_rounding_neighbours_together(self):
        f = StepFunction([0.0, 1.0, 2.0], [1.0, math.nextafter(1.0, 2.0)])
        g = f.scale(1e-320)
        assert g.vals.size == 1  # both values round to the same subnormal
        assert same(g, StepFunction(f.xs, 1e-320 * f.vals))

    def test_clip_drops_zero_width_piece_between_equal_values(self):
        # a shift merges the middle piece; the truncation is then canonicalised,
        # which here changes the rounded integral (90.08999999999999, not 90.09)
        x0 = np.array([0.0, 24.0, 24.25, 63.0])
        xs, vals = x0 + 2.0**52, np.array([1.43, 0.7, 1.43])
        lo, hi = 2.0**52 - 8.0, 2.0**52 + 64.0
        want = StepFunction(np.clip(xs, lo, hi), vals)
        assert want.vals.size == 1
        assert want.integral() != float(np.dot(vals, np.diff(np.clip(xs, lo, hi))))
        got = clipped_integral(xs, vals, lo, hi)
        assert np.float64(got).tobytes() == np.float64(want.integral()).tobytes()
        f = StepFunction(x0, vals)
        assert same(f.shift(2.0**52).clip(lo, hi), want)
        assert f.shift(2.0**52).window_integral(lo, hi) == got

    def test_clip_at_interior_breakpoint(self):
        f = StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
        assert same(f.clip(0.5, 1.0), StepFunction([0.5, 1.0], [1.0]))
        assert same(f.clip(1.0, 2.0), StepFunction.zero())
        assert f.window_integral(1.0, 2.0) == 0.0

    # clipped_integral takes arrays that need not be canonical: it bisects
    # for the pieces the window overlaps, returns one product for a window
    # inside one piece and canonicalises the slice otherwise

    @given(raw_arrays(), st.data())
    @settings(max_examples=200)
    def test_clipped_integral_on_raw_arrays(self, arrays, data):
        xs, vals = arrays
        for lo, hi in (data.draw(windows_on(xs)), data.draw(windows_on(xs))):
            want = StepFunction(xs, vals).clip(lo, hi).integral()
            assert bits(clipped_integral(xs, vals, lo, hi)) == bits(want), (lo, hi)

    @given(raw_arrays(), st.sampled_from([0.0, 1.0, 3.0, 2.0**52, 1e16]),
           st.floats(0.0, 4.0), st.data())
    @settings(max_examples=150)
    def test_clipped_integral_on_reversed_shifted_arrays(self, arrays, a, t, data):
        # order_mass's arrays: (t - xs[::-1]) + a, where a large a merges
        # breakpoints by rounding
        xs, vals = (t - arrays[0][::-1]) + a, arrays[1][::-1]
        for lo, hi in ((a, a + 4.0), data.draw(windows_on(xs))):
            want = StepFunction(xs, vals).clip(lo, hi).integral()
            assert bits(clipped_integral(xs, vals, lo, hi)) == bits(want), (lo, hi)

    @pytest.mark.parametrize("xs, vals, lo, hi, want", [
        # inside one piece, and on its breakpoints
        ([0.0, 1.0, 2.0], [1.0, 3.0], 0.25, 0.75, 0.5),
        ([0.0, 1.0, 2.0], [1.0, 3.0], 1.0, 2.0, 3.0),
        ([0.0, 1.0, 2.0], [1.0, 3.0], 0.0, 1.0, 1.0),
        ([0.0, 1.0, 2.0], [1.0, 3.0], 0.3, 0.3 + 2.0**-40, 2.0**-40 * 1.0),
        ([0.0, 1.0, 2.0], [1.0, 3.0], 1.0 - 2.0**-30, 1.0 + 2.0**-30, 4 * 2.0**-30),
        # duplicate breakpoints, equal neighbours and zero end pieces
        ([0.0, 1.0, 1.0, 2.0], [2.0, 5.0, 2.0], 0.5, 1.5, 2.0),
        ([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 1.0, 1.0, 0.0], -1.0, 3.0, 1.0),
        ([1.0, 1.0], [4.0], 0.0, 2.0, 0.0),
        ([1.0, 1.0], [-4.0], 0.0, 2.0, 0.0),
        ([0.0, 1.0, 2.0], [-0.0, 2.0], 0.25, 0.75, 0.0),
        # infinite bounds
        ([0.0, 1.0, 2.0], [1.0, 3.0], -math.inf, 0.5, 0.5),
        ([0.0, 1.0, 2.0], [1.0, 3.0], 1.5, math.inf, 1.5),
        ([0.0, 1.0, 2.0], [1.0, 3.0], -math.inf, math.inf, 4.0),
        # signed products that underflow to -0.0 and +0.0 in one piece; in
        # two, the zero's sign is np.dot's, whichever it is
        ([0.0, 1.0], [-1e-300], 0.0, 1e-30, -0.0),
        ([0.0, 1.0], [1e-300], 0.0, 1e-30, 0.0),
        ([0.0, 1e-30, 2e-30], [-1e-300, -2e-300], 0.0, 2e-30, None),
        ([0.0, 1.0, 2.0], [-5e-324, 1.0], 0.75, 1.25, 0.25),
    ])
    def test_clipped_integral_cases(self, xs, vals, lo, hi, want):
        xs, vals = np.array(xs), np.array(vals)
        got = clipped_integral(xs, vals, lo, hi)
        assert want is None or bits(got) == bits(want)
        assert bits(got) == bits(StepFunction(xs, vals).clip(lo, hi).integral())

    @pytest.mark.parametrize("v, w", [(0.1, 0.7), (-1e-200, 1e-200), (1e-200, 1e-200),
                                      (-5e-324, 0.5), (-3.0, 5e-324), (-0.0, 2.0)])
    def test_one_element_dot_is_the_product(self, v, w):
        # what lets a window inside one piece return one product
        assert bits(np.dot(np.array([v]), np.array([w]))) == bits(np.float64(v) * np.float64(w))


class TestNan:
    def test_call_at_nan_names_x(self):
        with pytest.raises(ValueError, match="x"):
            StepFunction([0.0, 1.0, 2.0], [1.0, 2.0])(float("nan"))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    def test_exp_integral_refuses_bad_lam(self, lam):
        with pytest.raises(ValueError, match="lam"):
            StepFunction.indicator(0.0, 1.0).exp_integral(lam, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)])
    def test_nan_bounds_refused(self, lo, hi):
        f = StepFunction.indicator(0.0, 1.0)
        for g in (f, StepFunction.zero()):
            with pytest.raises(ValueError, match="nan"):
                g.clip(lo, hi)
            with pytest.raises(ValueError, match="nan"):
                g.window_integral(lo, hi)
        with pytest.raises(ValueError, match="nan"):
            clipped_integral(f.xs, f.vals, lo, hi)

    def test_infinite_bounds_stay_legal(self):
        f = StepFunction.from_pieces([(0.0, 1.0, 2.0), (1.5, 2.0, 1.0)])
        assert f.clip(-math.inf, math.inf) == f
        assert f.window_integral(-math.inf, math.inf) == f.integral()
        assert f.window_integral(-math.inf, 1.0) == 2.0
        assert clipped_integral(f.xs, f.vals, 1.0, math.inf) == 0.5


class TestAlgebra:
    @given(pieces_strategy(), pieces_strategy(), dyadics(denom=32))
    @settings(max_examples=80)
    def test_add_is_pointwise(self, f, g, x):
        assert (f + g)(x) == f(x) + g(x)

    @given(float_functions(), float_functions())
    @settings(max_examples=80)
    def test_add_is_pointwise_at_every_breakpoint(self, f, g):
        # the sum is constant on each cell of the union grid, so its value
        # at a cell's left end is the value on the whole cell
        grid = np.union1d(f.xs, g.xs)
        for x in grid.tolist():
            assert (f + g)(x) == f(x) + g(x)

    def test_add_keeps_a_piece_one_ulp_wide(self):
        # the midpoint of a cell one ulp wide rounds onto its right end, which
        # belongs to the next piece; reading the left end keeps the piece
        ulp = math.nextafter(0.3, 1.0)
        f = StepFunction.indicator(0.0, 0.3, 0.1)
        g = StepFunction.indicator(0.3, ulp, 2.0)
        want = StepFunction([0.0, 0.3, ulp], [0.1, 2.0])
        assert same(f + g, want)
        assert same(g + f, want)
        assert (f + g)(0.3) == 2.0
        assert (f + g).integral() == f.integral() + g.integral()

    @given(pieces_strategy(), pieces_strategy())
    @settings(max_examples=60)
    def test_add_integral_linear(self, f, g):
        assert (f + g).integral() == pytest.approx(f.integral() + g.integral(), abs=1e-10)

    @given(pieces_strategy())
    @settings(max_examples=60)
    def test_sub_self_is_zero(self, f):
        assert (f - f).is_zero

    def test_min_max_include_zero_off_support(self):
        f = StepFunction.indicator(0.0, 1.0, 2.0)
        assert f.min_value() == 0.0
        assert f.max_value() == 2.0
        g = StepFunction.indicator(0.0, 1.0, -3.0)
        assert g.min_value() == -3.0
        assert g.max_value() == 0.0


class TestIntegrals:
    def test_indicator_integral(self):
        assert StepFunction.indicator(1.0, 3.5, 2.0).integral() == 5.0

    @given(pieces_strategy(), dyadics(), dyadics(0.0, 4.0), dyadics(0.0, 4.0))
    @settings(max_examples=80)
    def test_window_additivity(self, f, a, w1, w2):
        b, c = a + w1, a + w1 + w2
        left = f.window_integral(a, b) + f.window_integral(b, c)
        assert left == pytest.approx(f.window_integral(a, c), abs=1e-10)

    @given(pieces_strategy(), st.lists(dyadics(-14.0, 14.0), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_cumulative_matches_window_integrals(self, f, points):
        # dyadic data: every product and partial sum is exact, so equality holds
        got = f.cumulative(points)
        assert got.shape == (len(points),)
        for x, c in zip(points, got):
            assert c == f.window_integral(-20.0, x)
        assert f.cumulative([-20.0, 20.0]).tolist() == [0.0, f.integral()]

    def test_cumulative_is_monotone_for_nonnegative_functions(self):
        f = StepFunction.from_pieces([(0.1, 0.7, 1.0 / 3.0), (0.9, 2.3, 0.7)])
        x = np.linspace(-1.0, 3.0, 401)
        c = f.cumulative(x)
        assert np.all(np.diff(c) >= 0.0)
        assert c[x <= 0.1].tolist() == [0.0] * int(np.sum(x <= 0.1))
        assert np.all(c[x >= 2.3] == c[-1])
        assert StepFunction.zero().cumulative(x).tolist() == [0.0] * x.size

    def test_window_outside_support(self):
        f = StepFunction.indicator(0.0, 1.0, 1.0)
        assert f.window_integral(5.0, 6.0) == 0.0

    def test_abs_integral_and_l1(self):
        f = StepFunction.indicator(0.0, 1.0, 1.0)
        g = StepFunction.indicator(0.0, 1.0, -1.0)
        assert f.l1_distance(g) == 2.0
        assert (f + g).abs_integral() == 0.0

    def test_exp_integral_closed_form(self):
        # integral of v * exp(-lam (ref - u)) over (lo, hi)
        lam, lo, hi, v, ref = 1.7, 0.25, 1.5, 2.0, 3.0
        f = StepFunction.indicator(lo, hi, v)
        want = v * (math.exp(-lam * (ref - hi)) - math.exp(-lam * (ref - lo))) / lam
        assert f.exp_integral(lam, ref) == pytest.approx(want, rel=1e-14)

    def test_exp_integral_against_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        f = StepFunction.from_pieces([(0.0, 0.5, 1.0), (0.75, 2.0, -3.0)])
        lam, ref = 0.8, 2.0
        want, err = quad(lambda u: f(u) * math.exp(-lam * (ref - u)), 0.0, 2.0,
                         points=[0.5, 0.75], limit=200)
        assert f.exp_integral(lam, ref) == pytest.approx(want, abs=max(1e-12, 10 * err))
