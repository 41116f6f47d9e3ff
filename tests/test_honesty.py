import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from honestflow import (
    Billiard,
    BoundaryRule,
    BoundaryVector,
    Expansion,
    IntervalUnion,
    ParticleEnsemble,
    PiecewiseDensity,
    ScenarioResult,
    VelocitySpec,
    absorption_rate_estimate,
    defect,
    ensemble_trace_decay,
    flux_gap,
    honesty_on_interval,
    mass_defect_estimate,
    mass_loss,
    resolvent_defect,
    sample_ensemble,
    sufficient_honesty_check,
    transport_ensemble,
)

from honestflow import honesty
from honestflow.honesty import STABLE_SPAN

from conftest import dyadics


class TestFluxGap:
    def test_conservative_shift_gap_zero(self, unit_ladder, shift_rule):
        tr = BoundaryVector("outgoing", ((0, 2.0), (3, 0.5)))
        assert flux_gap(tr, shift_rule, unit_ladder) == 0.0

    def test_scaled_shift_gap(self, unit_ladder):
        rule = BoundaryRule("shift", scale=0.5)
        tr = BoundaryVector("outgoing", ((0, 2.0),))
        assert flux_gap(tr, rule, unit_ladder) == pytest.approx(1.0, abs=1e-15)

    def test_zero_trace(self, unit_ladder, shift_rule):
        assert flux_gap(BoundaryVector("outgoing"), shift_rule, unit_ladder) == 0.0

    def test_incoming_trace_rejected(self, unit_ladder, shift_rule):
        with pytest.raises(ValueError):
            flux_gap(BoundaryVector("incoming", ((0, 1.0),)), shift_rule, unit_ladder)


class TestDefect:
    def test_honest_ladder_full_window(self, unit_ladder, unit_box, shift_rule):
        rep = defect(0.0, 5.0, unit_box, unit_ladder, shift_rule, tol=1e-10)
        assert rep.stabilized
        assert rep.verdict == "honest"
        assert rep.limit_estimate == 0.0

    def test_plateau_does_not_fool_the_stop_rule(self, unit_ladder, unit_box, shift_rule):
        # entries sit at exactly 1.0 for ten orders (each order's trace
        # sweeps one full transit inside the window) before dropping to an
        # exact 0: the stop rule must ride out the plateau because the
        # arrival times keep marching
        rep = defect(0.0, 10.0, unit_box, unit_ladder, shift_rule, tol=1e-10)
        assert rep.verdict == "honest"
        assert rep.limit_estimate == 0.0
        assert len(rep.entries) == 11
        assert all(e == pytest.approx(1.0, abs=1e-12) for e in rep.entries[:10])
        assert rep.entries[-1] == 0.0

    def test_rounding_level_plateau_does_not_fool_the_stop_rule(self, unit_ladder):
        # a conservative spreading kernel: every order's trace over [0, 20]
        # carries (nearly) the whole mass, so consecutive entries differ only
        # by rounding while the earliest arrival keeps marching; the plateau
        # must not settle at the total mass 0.2
        rule = BoundaryRule(
            "kernel", rows=tuple((k, ((k + 1, 0.5), (k + 2, 0.5))) for k in range(80))
        )
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.5, 0.1), (0.5, 1.0, 0.3)])
        rep = defect(0.0, 20.0, f, unit_ladder, rule, tol=1e-12, n_cap=128)
        assert rep.stabilized
        assert rep.verdict == "honest"
        assert rep.limit_estimate == 0.0
        assert len(rep.entries) == 21

    def test_dishonest_ladder_limit(self, geometric_ladder, geo_box, shift_rule):
        rep = defect(0.0, 1.5, geo_box, geometric_ladder, shift_rule, tol=1e-10)
        assert rep.verdict == "dishonest"
        assert rep.limit_estimate == pytest.approx(0.5, abs=1e-10)

    def test_zero_density_honest(self, unit_ladder, shift_rule):
        rep = defect(0.0, 3.0, PiecewiseDensity.zero(), unit_ladder, shift_rule)
        assert rep.verdict == "honest"
        assert rep.entries == (0.0,)

    def test_entries_nonincreasing(self, unit_ladder, unit_box, geometric_ladder, geo_box, shift_rule):
        # conservative rule: each order's integrated trace norm cannot exceed
        # the previous order's
        for geom, f, t in ((unit_ladder, unit_box, 3.5), (geometric_ladder, geo_box, 1.5)):
            rep = defect(0.0, t, f, geom, shift_rule, tol=1e-10)
            for a, b in zip(rep.entries, rep.entries[1:]):
                assert b <= a + 1e-15

    def test_window_validation(self, unit_ladder, unit_box, shift_rule):
        with pytest.raises(ValueError):
            defect(2.0, 1.0, unit_box, unit_ladder, shift_rule)

    def test_negative_density_rejected(self, unit_ladder, shift_rule):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, -1.0)])
        with pytest.raises(ValueError):
            defect(0.0, 1.0, f, unit_ladder, shift_rule)

    def test_limit_additivity_over_windows(self, geometric_ladder, geo_box, shift_rule):
        # the window defect is additive: [0, s] + [s, t] = [0, t]
        lo = defect(0.0, 1.25, geo_box, geometric_ladder, shift_rule, tol=1e-10)
        hi = defect(1.25, 1.75, geo_box, geometric_ladder, shift_rule, tol=1e-10)
        full = defect(0.0, 1.75, geo_box, geometric_ladder, shift_rule, tol=1e-10)
        assert lo.limit_estimate + hi.limit_estimate == pytest.approx(
            full.limit_estimate, abs=1e-10
        )
        assert (lo.limit_estimate, full.limit_estimate) == (
            pytest.approx(0.25, abs=1e-10),
            pytest.approx(0.75, abs=1e-10),
        )

    @given(dyadics(0.0, 3.0, 4), dyadics(0.0, 3.0, 4), dyadics(0.0, 3.0, 4))
    @settings(max_examples=25, deadline=None)
    def test_per_order_window_additivity(self, x, y, z):
        from honestflow import IntervalUnion

        s, u, t = sorted((x, y, z))
        geom = IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0)
        f = PiecewiseDensity.from_pieces(geom, [(0.0, 1.0, 1.0)])
        ex = Expansion(geom, BoundaryRule("shift"), f, t)
        for n in range(4):
            left = ex.integrated_trace(n, s, u).norm()
            right = ex.integrated_trace(n, u, t).norm()
            whole = ex.integrated_trace(n, s, t).norm()
            assert left + right == pytest.approx(whole, abs=1e-15)


class TestIntervalHonesty:
    def test_dishonest_window_witness(self, geometric_ladder, geo_box, shift_rule):
        rep = honesty_on_interval((1.0, 2.0), geo_box, geometric_ladder, shift_rule,
                                  tol=1e-10, grid_points=6)
        assert rep.verdict == "dishonest"
        assert rep.witness_window == (1.0, 2.0)
        assert rep.witness_limit == pytest.approx(1.0, abs=1e-10)

    def test_honest_window_before_escape(self, geometric_ladder, geo_box, shift_rule):
        rep = honesty_on_interval((0.5, 1.0), geo_box, geometric_ladder, shift_rule,
                                  tol=1e-10, grid_points=6)
        assert rep.verdict == "honest"
        assert rep.witness_limit <= 1e-10

    def test_subwindow_count(self, unit_ladder, unit_box, shift_rule):
        rep = honesty_on_interval((0.0, 2.0), unit_box, unit_ladder, shift_rule,
                                  grid_points=4)
        assert len(rep.reports) == 6  # all pairs from a 4-point grid
        assert rep.verdict == "honest"

    def test_degenerate_window_rejected(self, unit_ladder, unit_box, shift_rule):
        with pytest.raises(ValueError):
            honesty_on_interval((1.0, 1.0), unit_box, unit_ladder, shift_rule)


VERDICTS = ("honest", "inconclusive", "dishonest")


def _worst_by_hand(verdicts):
    if "dishonest" in verdicts:
        return "dishonest"
    return "inconclusive" if "inconclusive" in verdicts else "honest"


class TestVerdictPrecedence:
    """A bundle's verdict and a window's verdict over its subwindows both
    follow dishonest > inconclusive > honest."""

    @pytest.mark.parametrize("parts", itertools.product((None, *VERDICTS), repeat=3))
    def test_worst_part_decides(self, monkeypatch, parts, geometric_ladder, geo_box,
                                shift_rule):
        window, resolvent, decay = (() if v is None else (SimpleNamespace(verdict=v),)
                                    for v in parts)
        result = ScenarioResult(None, "ladder", 1.0, (), 0, window_reports=window,
                                resolvent_reports=resolvent,
                                decay_report=decay[0] if decay else None)
        present = [v for v in parts if v is not None]
        assert result.verdict == _worst_by_hand(present)
        if not present:
            return
        # the same verdicts as the subwindows of one window
        subwindows = [SimpleNamespace(window=(0.0, k + 1.0), limit_estimate=float(k), verdict=v)
                      for k, v in enumerate(present)]
        monkeypatch.setattr(honesty, "_settle_windows", lambda *args: subwindows)
        rep = honesty_on_interval((0.0, 1.0), geo_box, geometric_ladder, shift_rule)
        assert rep.verdict == _worst_by_hand(present)
        assert rep.witness_window == subwindows[-1].window


def _reference_sequence(ex, lo, hi, tol, n_cap):
    """One subwindow's defect sequence, trace by trace: each entry is its
    own ``integrated_trace(n, lo, hi).norm()``, under the plateau-aware
    stopping rule (STABLE_SPAN increments below tol/10 with the earliest
    arrival frozen; exhaustion ends the sequence exactly)."""
    entries, arrivals = [], []
    for n in range(n_cap + 1):
        hist = ex.outgoing_history(n)
        if not hist:
            entries.append(0.0)
            return entries, True
        entries.append(ex.integrated_trace(n, lo, hi).norm())
        arrivals.append(min(h.support()[0] for h in hist.values()))
        if len(entries) > STABLE_SPAN and all(
            abs(entries[i] - entries[i - 1]) < tol / 10.0
            and abs(arrivals[i] - arrivals[i - 1]) < tol / 10.0
            for i in range(len(entries) - STABLE_SPAN, len(entries))
        ):
            return entries, True
    return entries, False


def _spreading_kernel(n_rows):
    return BoundaryRule("kernel", rows=tuple((k, ((k + 1, 0.5), (k + 2, 0.5))) for k in range(n_rows)))


GRID_CASES = {
    # geometric ladder, uneven pieces, the benchmark's G = 16 over an
    # honest-then-dishonest window
    "geometric": (
        lambda: IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.5),
        lambda: BoundaryRule("shift"),
        [(0.0, 0.25, 0.9), (0.25, 0.5, 1.3), (0.5, 0.75, 0.6), (0.75, 1.0, 1.1)],
        (0.5, 2.0), 16, 1e-12, 64,
    ),
    # the arrivals freeze long before the entries of the subwindows around
    # the escape time decay, so the pairs settle at different orders
    "lossy-shift": (
        lambda: IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.5),
        lambda: BoundaryRule("shift", scale=0.6),
        [(0.0, 0.5, 1.0), (0.5, 1.0, 0.25)],
        (0.5, 2.5), 8, 1e-10, 128,
    ),
    "kernel": (
        lambda: IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0),
        lambda: _spreading_kernel(40),
        [(0.0, 0.5, 0.1), (0.5, 1.0, 0.3)],
        (0.0, 12.0), 5, 1e-12, 128,
    ),
    "unit": (
        lambda: IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0),
        lambda: BoundaryRule("shift"),
        [(0.0, 1.0, 1.0)],
        (0.0, 10.0), 9, 1e-10, 128,
    ),
}


class TestWindowGridOracle:
    """The one-pass window table against one trace sequence per subwindow."""

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_every_subwindow_matches_its_own_trace_sequence(self, case):
        make_geom, make_rule, pieces, window, grid_points, tol, n_cap = GRID_CASES[case]
        geom, rule = make_geom(), make_rule()
        f = PiecewiseDensity.from_pieces(geom, pieces)
        rep = honesty_on_interval(window, f, geom, rule, tol=tol, n_cap=n_cap,
                                  grid_points=grid_points)
        assert len(rep.reports) == grid_points * (grid_points - 1) // 2
        ex = Expansion(geom, rule, f, window[1])
        limits = []
        for sub in rep.reports:
            entries, stabilized = _reference_sequence(ex, *sub.window, tol, n_cap)
            assert len(sub.entries) == len(entries)
            assert sub.stabilized == stabilized
            verdict = ("inconclusive" if not stabilized
                       else "honest" if entries[-1] <= tol else "dishonest")
            assert sub.verdict == verdict
            for got, want in zip(sub.entries, entries):
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
            limits.append(entries[-1])
        assert rep.witness_window == rep.reports[int(np.argmax(limits))].window
        if case == "unit":
            assert rep.verdict == "honest"
            assert rep.witness_limit == 0.0
        if case == "geometric":
            assert rep.verdict == "dishonest"
        if case == "lossy-shift":
            assert len({len(sub.entries) for sub in rep.reports}) > 1

    @pytest.mark.parametrize("s, t", [(0.0, 1.5), (0.25, 1.25), (1.0, 1.0)])
    def test_defect_is_the_two_point_grid(self, geometric_ladder, geo_box, shift_rule, s, t):
        rep = defect(s, t, geo_box, geometric_ladder, shift_rule, tol=1e-10)
        if s < t:
            grid = honesty_on_interval((s, t), geo_box, geometric_ladder, shift_rule,
                                       tol=1e-10, grid_points=2)
            assert grid.reports == (rep,)
        ex = Expansion(geometric_ladder, shift_rule, geo_box, t)
        entries, stabilized = _reference_sequence(ex, s, t, 1e-10, rep.n_cap)
        assert (len(rep.entries), rep.stabilized) == (len(entries), stabilized)


class TestSharedExpansion:
    """A window read from an expansion with a later horizon gives the report
    an expansion to the window's end gives."""

    @staticmethod
    def _shared_and_fresh(window, f, geom, rule, **kw):
        ex = Expansion(geom, rule, f, 2.0 * window[1] + 1.0)
        shared = honesty_on_interval(window, f, geom, rule, _expansion=ex, **kw)
        return ex, shared, honesty_on_interval(window, f, geom, rule, **kw)

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_grid_cases(self, case):
        make_geom, make_rule, pieces, window, grid_points, tol, n_cap = GRID_CASES[case]
        geom, rule = make_geom(), make_rule()
        f = PiecewiseDensity.from_pieces(geom, pieces)
        ex, shared, fresh = self._shared_and_fresh(window, f, geom, rule, tol=tol, n_cap=n_cap,
                                                   grid_points=grid_points)
        assert shared == fresh
        if geom.rule == "affine":
            # mass never leaves an affine ladder, so the shared expansion
            # holds history beyond the window
            assert any(h.xs[-1] > window[1]
                       for n in range(n_cap + 1) for h in ex.outgoing_history(n).values())

    def test_window_ending_at_a_history_breakpoint(self, unit_ladder, shift_rule):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.5, 1.0), (0.5, 1.0, 2.0)])
        window = (0.1, 0.5)
        ex, shared, fresh = self._shared_and_fresh(window, f, unit_ladder, shift_rule,
                                                   tol=1e-12, grid_points=5)
        (h,) = ex.outgoing_history(0).values()
        assert 0.5 in h.xs[1:-1]
        assert shared == fresh

    def test_window_before_an_order_arrives(self, unit_ladder, unit_box, shift_rule):
        # order 1 leaves b_1 from t = 1 on: on [0, 1] it is exhausted
        window = (0.25, 1.0)
        ex, shared, fresh = self._shared_and_fresh(window, unit_box, unit_ladder, shift_rule,
                                                   tol=1e-12, grid_points=4)
        assert min(h.xs[0] for h in ex.outgoing_history(1).values()) == 1.0
        assert shared == fresh
        assert all(len(r.entries) == 2 and r.stabilized for r in shared.reports)

    def test_horizon_must_reach_the_window(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            honesty_on_interval((0.0, 1.5), unit_box, unit_ladder, shift_rule, _expansion=ex)


class TestResolventDefect:
    def test_honest_entries_exact_decay(self, unit_ladder, unit_box, shift_rule):
        rep = resolvent_defect(unit_box, 1.0, unit_ladder, shift_rule, tol=1e-8)
        assert rep.verdict == "honest"
        for n, entry in enumerate(rep.entries[:6]):
            assert entry == pytest.approx(
                (1.0 - math.exp(-1.0)) * math.exp(-float(n)), abs=1e-12
            )

    def test_verdict_lambda_independent(self, unit_ladder, unit_box, geometric_ladder,
                                        geo_box, shift_rule):
        for lam in (0.5, 1.0, 2.0):
            honest = resolvent_defect(unit_box, lam, unit_ladder, shift_rule)
            leaky = resolvent_defect(geo_box, lam, geometric_ladder, shift_rule)
            assert honest.verdict == "honest"
            assert leaky.verdict == "dishonest"

    def test_dishonest_limit_closed_form(self, geometric_ladder, geo_box, shift_rule):
        rep = resolvent_defect(geo_box, 1.0, geometric_ladder, shift_rule, tol=1e-10)
        assert rep.limit_estimate == pytest.approx(
            (1.0 - math.exp(-1.0)) * math.exp(-1.0), abs=1e-10
        )

    def test_zero_density(self, unit_ladder, shift_rule):
        rep = resolvent_defect(PiecewiseDensity.zero(), 1.0, unit_ladder, shift_rule)
        assert rep.verdict == "honest"
        assert rep.entries[-1] == 0.0

    def test_bad_lambda(self, unit_ladder, unit_box, shift_rule):
        with pytest.raises(ValueError):
            resolvent_defect(unit_box, 0.0, unit_ladder, shift_rule)


class TestSufficiency:
    def test_flat_profile_satisfied_on_shift(self, unit_ladder, shift_rule):
        rep = sufficient_honesty_check(unit_ladder, shift_rule, h=lambda k: 1.0)
        assert rep.mode == "profile"
        assert rep.satisfied
        assert rep.witness_index is None

    def test_decreasing_profile_violated_on_shift(self, unit_ladder, shift_rule):
        rep = sufficient_honesty_check(unit_ladder, shift_rule, h=lambda k: 2.0 ** (-k))
        assert not rep.satisfied
        assert rep.witness_index == 1
        assert (rep.lhs, rep.rhs) == (1.0, 0.5)

    def test_zero_profile_refused(self, unit_ladder, shift_rule):
        with pytest.raises(ValueError):
            sufficient_honesty_check(unit_ladder, shift_rule, h=lambda k: float(k))

    def test_domination_violated_on_leaky_ladder(self, geometric_ladder, geo_box, shift_rule):
        rep = sufficient_honesty_check(geometric_ladder, shift_rule, f=geo_box, lam=1.0)
        assert rep.mode == "domination"
        assert not rep.satisfied
        assert rep.witness_index == 1
        assert rep.lhs == pytest.approx(math.exp(-0.5) - math.exp(-1.5), abs=1e-15)
        assert rep.rhs == 0.0

    def test_domination_satisfied_on_finite_ladder(self):
        # decaying density on a finite ladder with an absorbing top: one
        # round trip lowers the resolvent trace everywhere
        from honestflow import IntervalUnion

        geom = IntervalUnion("explicit", intervals=((0.0, 1.0), (2.0, 3.0), (4.0, 5.0)))
        f = PiecewiseDensity.from_pieces(
            geom,
            [(0.0, 1.0, 1.0), (2.0, 3.0, math.exp(-1.0)), (4.0, 5.0, math.exp(-2.0))],
        )
        rep = sufficient_honesty_check(geom, BoundaryRule("shift"), f=f, lam=2.0)
        assert rep.mode == "domination"
        assert rep.satisfied

    def test_argument_exclusivity(self, unit_ladder, unit_box, shift_rule):
        with pytest.raises(ValueError):
            sufficient_honesty_check(unit_ladder, shift_rule)
        with pytest.raises(ValueError):
            sufficient_honesty_check(unit_ladder, shift_rule, h=lambda k: 1.0,
                                     f=unit_box, lam=1.0)


class TestMassAccounting:
    def test_no_loss_on_honest_ladder(self, unit_ladder, unit_box, shift_rule):
        res = mass_loss(0.0, 3.0, unit_box, unit_ladder, shift_rule, tol=1e-12)
        assert res.conclusive
        assert res.loss == pytest.approx(0.0, abs=1e-12)

    def test_leak_is_inconclusive_when_unconverged(self, geometric_ladder, geo_box, shift_rule):
        res = mass_loss(0.0, 2.5, geo_box, geometric_ladder, shift_rule, tol=1e-10, n_cap=40)
        assert not res.conclusive
        assert res.loss == pytest.approx(1.0, abs=1e-10)

    def test_defect_estimate_honest(self, unit_ladder, unit_box):
        rule = BoundaryRule("shift", scale=0.5)
        eta, converged = mass_defect_estimate(unit_box, 1.5, unit_ladder, rule, tol=1e-12)
        assert converged
        assert eta == pytest.approx(0.0, abs=1e-12)

    def test_defect_estimate_leaky(self, geometric_ladder, geo_box, shift_rule):
        eta, converged = mass_defect_estimate(geo_box, 1.5, geometric_ladder, shift_rule,
                                              tol=1e-10)
        assert not converged
        assert eta == pytest.approx(-0.5, abs=1e-10)

    def test_defect_estimate_monotone(self, geometric_ladder, geo_box, shift_rule):
        etas = [
            mass_defect_estimate(geo_box, t, geometric_ladder, shift_rule, tol=1e-10)[0]
            for t in (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5)
        ]
        assert all(e <= 1e-12 for e in etas)
        for a, b in zip(etas, etas[1:]):
            assert b <= a + 1e-12

    def test_absorption_rate_worked(self, unit_ladder, unit_box):
        rule = BoundaryRule("shift", scale=0.5)
        rate, converged = absorption_rate_estimate(unit_box, 1.5, unit_ladder, rule,
                                                   tol=1e-12)
        assert converged
        assert rate == pytest.approx(0.625 / 1.5, abs=1e-12)

    def test_absorption_rate_zero_time_rejected(self, unit_ladder, unit_box, shift_rule):
        with pytest.raises(ValueError):
            absorption_rate_estimate(unit_box, 0.0, unit_ladder, shift_rule)


class TestEnsembleDecay:
    def test_disk_ensemble_honest(self):
        geom = Billiard("disk", center=(0.0, 0.0), radius=1.0,
                        velocities=VelocitySpec("speeds", speeds=(1.0,)))
        ens = sample_ensemble(geom, 20_000, seed=42)
        moved = transport_ensemble(ens, 5.0, geom)
        rep = ensemble_trace_decay(moved.tally(), 5.0)
        assert rep.verdict == "honest"
        assert rep.tail_weights[-1] == 0.0
        assert rep.degenerate_weight <= rep.stat_tol
        for a, b in zip(rep.tail_weights, rep.tail_weights[1:]):
            assert b <= a + 1e-15

    def test_degenerate_weight_blocks_verdict(self):
        n = 4
        ens = ParticleEnsemble(
            pos=np.zeros((n, 2)),
            vel=np.tile([1.0, 0.0], (n, 1)),
            weight=np.full(n, 0.25),
            rebounds=np.array([0, 1, 2, 3], dtype=np.int64),
            degenerate=np.array([True, True, False, False]),
            seed=0,
        )
        blocked = ensemble_trace_decay(ens.tally(), 1.0, stat_tol=0.1)
        assert blocked.verdict == "inconclusive"
        assert blocked.degenerate_weight == pytest.approx(0.5, abs=1e-15)
        relaxed = ensemble_trace_decay(ens.tally(), 1.0, stat_tol=0.6)
        assert relaxed.verdict == "honest"
        assert relaxed.max_rebounds == 3
        assert relaxed.tail_weights == (0.75, 0.5, 0.25, 0.0)
