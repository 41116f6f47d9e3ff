"""The order pass against the validated objects it no longer builds.

``Expansion`` reads each order's histories as arrays built once per order:
the order masses, the trace vectors and the window pass's running totals
come from them, and the trace vectors skip validation.  Every number here is
checked bitwise against the public, validating path: ``BoundaryVector(...)``
built from ``window_integral``, the flux gap of a rule applied through
``BoundaryVector.from_dict``, and ``StepFunction.cumulative`` summed over an
order's histories.  The cases are random shift and kernel ladders on affine,
geometric and explicit geometries, at scales 1, 0.9 and 0.5, with kernel rows
of 1, 2 and 3 targets listed in shuffled order, read at a time that falls on
a history breakpoint and at the horizon itself, plus one geometric ladder
whose histories hold thousands of pieces.  The pass shares an order's trace
among the times that cover all its outgoing histories, and is checked in
either time order.

``mass_balance`` reads the same order pass, and must give the reports of its
former two loops.  Every entry point that builds an expansion refuses an
infinite or nan horizon.
"""

import math
import random

import numpy as np
import pytest

from honestflow import (
    BoundaryRule,
    BoundaryVector,
    Expansion,
    IntervalUnion,
    PiecewiseDensity,
    absorption_rate_estimate,
    composition_residual,
    defect,
    evolve,
    evolve_scaled,
    honesty_on_interval,
    integrated_trace,
    mass_balance,
    mass_defect_estimate,
    mass_loss,
    order_density,
    order_value,
)
from honestflow.boundary import apply_rule, flux_gap
from honestflow.expansion import MassBalanceReport
from honestflow.scenarios import initial_density, resolve_config


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def _geometry(rng, kind):
    if kind == "affine":
        return IntervalUnion("affine", start=0.0, spacing=rng.choice([1.0, 1.5, 2.0]), length=1.0)
    if kind == "geometric":
        return IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0,
                             ratio=rng.uniform(0.4, 0.8))
    ivs, x = [(0.0, 1.0)], 1.0 + rng.choice([0.0, 0.5])
    for _ in range(9):
        w = rng.choice([0.5, 0.75, 1.0, rng.uniform(0.2, 1.2)])
        ivs.append((x, x + w))
        x += w + rng.choice([0.0, 0.5, rng.uniform(0.0, 1.0)])
    return IntervalUnion("explicit", intervals=tuple(ivs))


def oracle_ladders(n=27, seed=2027):
    """Cases (name, geom, rule, f, t_max, n_cap): every geometry at every
    scale, shift rules and kernel rules with 1-, 2- and 3-target rows.  A
    geometric ladder's kernel rows keep one or two targets and few orders:
    breakpoints that never realign multiply its pieces at every order."""
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        kind = ("affine", "geometric", "explicit")[i % 3]
        scale = (1.0, 0.9, 0.5)[(i // 3) % 3]
        geom = _geometry(rng, kind)
        width = (0, 1, 2, 3)[(i // 9 + i) % 4]
        if kind == "geometric":
            width = min(width, 2)
        n_cap = 8 if kind == "geometric" and width > 1 else 24
        if width == 0:
            rule = BoundaryRule("shift", scale)
        else:
            rows = []
            for k in range(12):
                targets = rng.sample(range(k + 1, k + 5), width)
                weights = [rng.uniform(0.1, 1.0) for _ in targets]
                total = sum(weights)
                rows.append((k, tuple((j, w / total) for j, w in zip(targets, weights))))
            rule = BoundaryRule("kernel", scale, tuple(rows))
        pieces, x = [], 0.0
        while len(pieces) < 3:
            w = rng.uniform(0.05, 0.3)
            if x + w > 1.0:
                break
            pieces.append((x, x + w, rng.uniform(0.2, 2.0)))
            x += w + rng.uniform(0.0, 0.1)
        f = PiecewiseDensity.from_pieces(geom, pieces)
        name = f"{kind}-{'shift' if width == 0 else f'kernel{width}'}-{scale}"
        cases.append((name, geom, rule, f, rng.uniform(2.0, 4.0), n_cap))
    return cases


def builtin_cases():
    cases = []
    for name in ("unit-ladder-honest", "geometric-ladder-dishonest"):
        cfg = resolve_config(name)
        cases.append((name, cfg.geometry, cfg.boundary, initial_density(cfg), max(cfg.times),
                      cfg.n_cap))
    return cases


def large_history_case():
    """A geometric ladder whose two-way kernel rows never realign its
    breakpoints: order 12's histories hold 2743 pieces by t = 3, so trace
    windows and order masses bisect big arrays."""
    geom = IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.7)
    rule = BoundaryRule("kernel", 1.0, tuple((k, ((k + 1, 0.5), (k + 2, 0.5))) for k in range(40)))
    f = PiecewiseDensity.from_pieces(geom, [(0.0, 0.5, 1.0), (0.5, 1.0, 2.0)])
    return ("geometric-kernel2-large", geom, rule, f, 3.0, 12)


CASES = oracle_ladders()
ALL_CASES = builtin_cases() + CASES + [large_history_case()]


def case_ids(cases):
    return [case[0] for case in cases]


def times_of(ex: Expansion) -> list[float]:
    """An early time, a breakpoint of an order-1 incoming history (there
    order 1's density is clipped on an interval's left end) and one of an
    outgoing history (there its trace window ends), and the horizon."""
    t_max = ex.t_max
    times = {t_max / 3, t_max}
    for hist in (ex.incoming_history(1), ex.outgoing_history(1) or ex.outgoing_history(0)):
        inside = [float(x) for h in hist.values() for x in h.xs if 0.0 < x < t_max]
        if inside:
            times.add(inside[len(inside) // 2])
    return sorted(times)


def validated_trace(ex: Expansion, k: int, s: float, t: float) -> BoundaryVector:
    """The integrated trace through the validating constructor, one
    ``window_integral`` per history."""
    return BoundaryVector("outgoing", tuple(
        (m, h.window_integral(s, t)) for m, h in ex.outgoing_history(k).items()))


def validated_flux_gap(trace: BoundaryVector, rule: BoundaryRule, geom) -> float:
    """``flux_gap`` with the rule's image built by ``from_dict``."""
    out = {}
    for k, v in trace.entries:
        for j, p in rule.feeds(k, geom):
            out[j] = out.get(j, 0.0) + rule.scale * p * v
    return trace.signed_sum() - BoundaryVector.from_dict("incoming", out).signed_sum()


def same_vector(got: BoundaryVector, want: BoundaryVector) -> bool:
    """Equal side and entries, each index an int and each value bitwise the
    same float."""
    return (got.side == want.side and len(got.entries) == len(want.entries)
            and all(type(k) is int and type(v) is float and k == kw and bits(v) == bits(vw)
                    for (k, v), (kw, vw) in zip(got.entries, want.entries)))


class TestOrderPassOracle:
    @pytest.mark.parametrize("case", ALL_CASES, ids=case_ids(ALL_CASES))
    def test_partial_sums_match_the_validated_path(self, case):
        _, geom, rule, f, t_max, n_cap = case
        ex = Expansion(geom, rule, f, t_max)
        for t in times_of(ex):
            for tol in (1e-12, 1e-3):
                rep = ex.partial_sums(t, tol, n_cap, n_cap)
                fresh = Expansion(geom, rule, f, t_max)
                absorbed = 0.0
                for k, (mass, norm) in enumerate(zip(rep.order_masses, rep.trace_norms)):
                    assert bits(mass) == bits(fresh.order_mass(k, t)), (k, t)
                    assert bits(mass) == bits(fresh.order_density(k, t).mass()), (k, t)
                    trace = validated_trace(fresh, k, 0.0, t)
                    assert bits(norm) == bits(trace.norm()), (k, t)
                    if k <= rep.n_used and trace.norm() >= tol:
                        absorbed += validated_flux_gap(trace, rule, geom)
                assert bits(rep.absorbed) == bits(absorbed), t

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_ids(ALL_CASES))
    def test_trusted_vectors_equal_their_validated_rebuild(self, case):
        _, geom, rule, f, t_max, n_cap = case
        ex = Expansion(geom, rule, f, t_max)
        for t in times_of(ex):
            for s in (0.0, t / 2, t):
                for k in range(min(n_cap, 10) + 1):
                    trace = ex.integrated_trace(k, s, t)
                    assert same_vector(trace, validated_trace(ex, k, s, t)), (k, s, t)
                    assert same_vector(trace, BoundaryVector(trace.side, trace.entries))
                    image = apply_rule(rule, trace, geom)
                    assert same_vector(image, BoundaryVector(image.side, image.entries))
                    assert bits(flux_gap(trace, rule, geom)) == bits(
                        validated_flux_gap(trace, rule, geom))

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_ids(ALL_CASES))
    def test_order_pass_read_from_the_horizon_back(self, case):
        # an order's trace is shared only by the times at or after its last
        # outgoing breakpoint, whichever time the pass reads first
        _, geom, rule, f, t_max, n_cap = case
        ex = Expansion(geom, rule, f, t_max)
        for t in reversed(times_of(ex)):
            want = Expansion(geom, rule, f, t_max).partial_sums(t, 1e-12, n_cap, n_cap)
            assert repr(ex.partial_sums(t, 1e-12, n_cap, n_cap)) == repr(want), t

    def test_an_image_entry_that_cancels_is_dropped(self):
        # a signed trace whose two entries feed one index and cancel there
        geom = IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0)
        rule = BoundaryRule("kernel", 1.0, ((0, ((2, 1.0),)), (1, ((2, 0.5), (3, 0.5)))))
        trace = BoundaryVector("outgoing", ((0, 1.0), (1, -2.0)))
        image = apply_rule(rule, trace, geom)
        assert image.entries == ((3, -1.0),)
        assert same_vector(image, BoundaryVector.from_dict("incoming", {2: 0.0, 3: -1.0}))

    @pytest.mark.parametrize("case", ALL_CASES, ids=case_ids(ALL_CASES))
    def test_window_entries_are_cumulative_differences(self, case):
        _, geom, rule, f, t_max, n_cap = case
        ex = Expansion(geom, rule, f, t_max)
        for t in times_of(ex)[1:]:
            window = (t / 4, t)
            rep = honesty_on_interval(window, f, geom, rule, n_cap=n_cap, grid_points=5,
                                      _expansion=ex)
            grid = np.linspace(*window, 5)
            lo, hi = np.triu_indices(grid.size, k=1)
            for p, sub in enumerate(rep.reports):
                for n, entry in enumerate(sub.entries):
                    hist = [h for h in ex.outgoing_history(n).values() if h.xs[0] < t]
                    cum = sum(h.cumulative(grid) for h in hist) if hist else np.zeros(grid.size)
                    assert bits(entry) == bits(cum[hi[p]] - cum[lo[p]]), (p, n, t)


def two_loop_mass_balance(n, t, f, geom, rule) -> MassBalanceReport:
    """``mass_balance`` as its own two loops over the orders computed it."""
    ex = Expansion(geom, rule, f, t)
    masses = tuple(ex.order_mass(k, t) for k in range(n + 1))
    out_norms = [ex.integrated_trace(k, 0.0, t).norm() for k in range(n + 1)]
    brackets = tuple(
        apply_rule(rule, ex.integrated_trace(k, 0.0, t), geom).norm() - out_norms[k]
        for k in range(n)
    )
    rhs = f.mass() - out_norms[n] + float(sum(brackets))
    return MassBalanceReport(n, t, float(sum(masses)), rhs, masses, brackets, out_norms[n])


class TestMassBalanceFromTheOrderPass:
    @pytest.mark.parametrize("case", ALL_CASES, ids=case_ids(ALL_CASES))
    def test_reports_are_the_two_loop_reports(self, case):
        _, geom, rule, f, t_max, n_cap = case
        ex = Expansion(geom, rule, f, t_max)
        for t in times_of(ex):
            for n in (0, 1, min(n_cap, 12)):
                got, want = mass_balance(n, t, f, geom, rule), two_loop_mass_balance(
                    n, t, f, geom, rule)
                assert repr(got) == repr(want), (n, t)
                assert bits(got.gap) == bits(want.gap)

    def test_one_order_pass_per_order(self, monkeypatch):
        calls = []
        order_pass = Expansion._order_pass

        def counted(self, n, t):
            calls.append(n)
            return order_pass(self, n, t)

        monkeypatch.setattr(Expansion, "_order_pass", counted)
        _, geom, rule, f, t_max, _ = builtin_cases()[1]
        mass_balance(6, t_max, f, geom, rule)
        assert calls == list(range(7))


HORIZONS = [math.inf, math.nan]


class TestHorizonMustBeFinite:
    """Every library entry point that builds an expansion refuses an
    infinite or nan horizon with a ValueError naming it."""

    @pytest.fixture
    def ladder(self, unit_ladder, unit_box, shift_rule):
        return unit_ladder, shift_rule, unit_box

    @pytest.mark.parametrize("t", HORIZONS)
    def test_expansion(self, ladder, t):
        geom, rule, f = ladder
        with pytest.raises(ValueError, match="time horizon"):
            Expansion(geom, rule, f, t)

    @pytest.mark.parametrize("t", HORIZONS)
    def test_order_sums_and_balances(self, ladder, t):
        geom, rule, f = ladder
        for call in (
            lambda: evolve(t, f, geom, rule),
            lambda: evolve_scaled(t, f, 0.5, geom, rule),
            lambda: order_density(1, t, f, geom, rule),
            lambda: order_value(1, t, f, 2.5, geom, rule),
            lambda: integrated_trace(1, t, f, geom, rule),
            lambda: mass_balance(3, t, f, geom, rule),
            lambda: composition_residual(1, t, 0.5, f, geom, rule),
            lambda: mass_defect_estimate(f, t, geom, rule),
            lambda: absorption_rate_estimate(f, t, geom, rule),
        ):
            with pytest.raises(ValueError, match="time horizon"):
                call()

    def test_windows_at_infinity(self, ladder):
        geom, rule, f = ladder
        with pytest.raises(ValueError, match="time horizon"):
            honesty_on_interval((0.0, math.inf), f, geom, rule)
        with pytest.raises(ValueError, match="time horizon"):
            defect(0.0, math.inf, f, geom, rule)
        with pytest.raises(ValueError, match="time horizon"):
            mass_loss(0.0, math.inf, f, geom, rule)

    def test_windows_at_nan(self, ladder):
        geom, rule, f = ladder
        with pytest.raises(ValueError, match="window must satisfy"):
            honesty_on_interval((0.0, math.nan), f, geom, rule)
        with pytest.raises(ValueError, match="need 0 <= s <= t"):
            defect(0.0, math.nan, f, geom, rule)
        with pytest.raises(ValueError, match="need 0 <= s <= t"):
            mass_loss(0.0, math.nan, f, geom, rule)
