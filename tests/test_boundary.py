import math

import pytest

from honestflow import (
    BoundaryRule,
    BoundaryVector,
    apply_rule,
    absorbing_resolvent_at,
    damped_transit,
    incoming_extension_at,
    outgoing_resolvent_trace,
    resolvent_at,
)
from honestflow.boundary import apply_rule_histories
from honestflow.steps import StepFunction


class TestBoundaryVector:
    def test_zero_entries_dropped(self):
        v = BoundaryVector("outgoing", ((0, 1.0), (1, 0.0), (2, -2.0)))
        assert v.to_dict() == {0: 1.0, 2: -2.0}
        assert v.norm() == 3.0
        assert v.signed_sum() == -1.0

    def test_duplicate_indices_sum(self):
        v = BoundaryVector("incoming", ((1, 0.5), (0, 2.0), (1, 0.25)))
        assert v.entries == ((0, 2.0), (1, 0.75))
        assert BoundaryVector("incoming", ((1, 0.5), (1, -0.5), (2, 1.0))).entries == ((2, 1.0),)

    def test_add_requires_same_side(self):
        v = BoundaryVector("outgoing", ((0, 1.0),))
        w = BoundaryVector("incoming", ((0, 1.0),))
        with pytest.raises(ValueError):
            v + w

    def test_arithmetic(self):
        v = BoundaryVector("outgoing", ((0, 1.0), (1, 2.0)))
        w = BoundaryVector("outgoing", ((1, 3.0),))
        assert (v + w).to_dict() == {0: 1.0, 1: 5.0}
        assert (v - v).norm() == 0.0
        assert v.scale(2.0).get(1) == 4.0


class TestBoundaryRule:
    def test_shift_row(self):
        rule = BoundaryRule("shift")
        assert rule.row(3) == ((4, 1.0),)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            BoundaryRule("shift", scale=0.0)
        with pytest.raises(ValueError):
            BoundaryRule("shift", scale=1.5)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            BoundaryRule("kernel", rows=((0, ((1, -0.5),)),))  # negative weight
        with pytest.raises(ValueError):
            BoundaryRule("kernel", rows=((0, ((1, 0.7), (2, 0.7))),))  # row sum > 1
        with pytest.raises(ValueError):
            BoundaryRule("kernel", rows=((0, ((1, 0.5),)),))  # no row reaches norm one
        ok = BoundaryRule("kernel", rows=((0, ((1, 0.5), (2, 0.5))),))
        assert ok.row(0) == ((1, 0.5), (2, 0.5))

    def test_cached_rows_leave_equality_and_hash_to_the_fields(self):
        rows = ((0, ((1, 0.5), (2, 0.5))), (3, ((4, 1.0),)))
        used, fresh = BoundaryRule("kernel", rows=rows), BoundaryRule("kernel", rows=rows)
        assert used.row(3) == ((4, 1.0),) and used.row(7) == ()
        assert used == fresh and hash(used) == hash(fresh)
        assert used != BoundaryRule("kernel", rows=rows[:1])
        assert used.scaled(0.5).row(0) == ((1, 0.5), (2, 0.5))

    def test_scaled_replaces_weight(self):
        rule = BoundaryRule("shift", scale=0.9)
        assert rule.scaled(0.5).scale == 0.5

    def test_apply_shift(self, unit_ladder):
        tr = BoundaryVector("outgoing", ((0, 2.0), (1, 3.0)))
        out = apply_rule(BoundaryRule("shift"), tr, unit_ladder)
        assert out.side == "incoming"
        assert out.to_dict() == {1: 2.0, 2: 3.0}

    def test_apply_scaled(self, unit_ladder):
        tr = BoundaryVector("outgoing", ((0, 2.0),))
        out = apply_rule(BoundaryRule("shift", scale=0.25), tr, unit_ladder)
        assert out.to_dict() == {1: 0.5}

    def test_apply_kernel_splits(self, unit_ladder):
        rule = BoundaryRule("kernel", rows=((0, ((1, 0.5), (2, 0.5))),))
        out = apply_rule(rule, BoundaryVector("outgoing", ((0, 2.0),)), unit_ladder)
        assert out.to_dict() == {1: 1.0, 2: 1.0}

    def test_apply_requires_outgoing(self, unit_ladder):
        with pytest.raises(ValueError):
            apply_rule(BoundaryRule("shift"), BoundaryVector("incoming", ((0, 1.0),)), unit_ladder)

    def test_finite_ladder_top_absorbs(self):
        from honestflow import IntervalUnion
        geo = IntervalUnion("explicit", intervals=((0.0, 1.0), (2.0, 3.0)))
        out = apply_rule(BoundaryRule("shift"), BoundaryVector("outgoing", ((1, 2.0),)), geo)
        assert out.norm() == 0.0  # nothing above the top interval

    def test_apply_histories(self, unit_ladder):
        hist = {0: StepFunction.indicator(0.0, 1.0, 2.0)}
        out = apply_rule_histories(BoundaryRule("shift", scale=0.5), hist, unit_ladder)
        assert set(out) == {1}
        assert out[1].integral() == pytest.approx(1.0)


class TestResolventPieces:
    def test_damped_transit_unit_ladder(self, unit_ladder):
        tr = BoundaryVector("incoming", ((1, 1.0),))
        out = damped_transit(tr, 1.0, unit_ladder)
        assert out.side == "outgoing"
        assert out.get(1) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_damped_transit_geometric(self, geometric_ladder):
        tr = BoundaryVector("incoming", ((2, 1.0),))
        out = damped_transit(tr, 1.0, geometric_ladder)
        assert out.get(2) == pytest.approx(math.exp(-0.25), rel=1e-15)

    def test_outgoing_resolvent_trace(self, unit_ladder, unit_box):
        # integral of e^{-lam (b_0 - x)} over (0,1) with lam = 1
        tr = outgoing_resolvent_trace(unit_box, 1.0, unit_ladder)
        assert tr.side == "outgoing"
        assert tr.get(0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_absorbing_resolvent_value(self, unit_ladder, unit_box):
        # C f(x) = integral_0^{x-a} e^{-lam s} f(x - s) ds, f = 1 on (0,1)
        got = absorbing_resolvent_at(unit_box, 1.0, 0.5, unit_ladder)
        assert got == pytest.approx(1.0 - math.exp(-0.5), rel=1e-14)

    def test_incoming_extension(self, unit_ladder):
        tr = BoundaryVector("incoming", ((1, 2.0),))
        # value decays by e^{-lam (x - a_1)} into interval 1
        got = incoming_extension_at(tr, 1.0, 2.5, unit_ladder)
        assert got == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)

    def test_resolvent_at_matches_transform(self, unit_ladder, unit_box, shift_rule):
        # transit-length coordinate of x is c = x - (number of gaps skipped);
        # the density seen at x over time is 1 on (c-1, c), so its Laplace
        # transform is (e^{-lam(c-1)} - e^{-lam c})/lam
        lam = 1.0
        for x, c in ((0.5, 0.5), (2.5, 1.5), (4.25, 2.25)):
            want_tail = (math.exp(-lam * max(c - 1.0, 0.0)) - math.exp(-lam * c)) / lam
            got, bound = resolvent_at(unit_box, lam, x, unit_ladder, shift_rule)
            assert got == pytest.approx(want_tail, rel=1e-12)
            assert bound <= 1e-12

    def test_resolvent_chain_bound_decreases(self, geometric_ladder, geo_box, shift_rule):
        _, b4 = resolvent_at(geo_box, 1.0, 0.5, geometric_ladder, shift_rule, n_max=4)
        _, b12 = resolvent_at(geo_box, 1.0, 0.5, geometric_ladder, shift_rule, n_max=12)
        assert b12 < b4

    def test_lambda_must_be_positive(self, unit_ladder, unit_box):
        with pytest.raises(ValueError):
            outgoing_resolvent_trace(unit_box, 0.0, unit_ladder)
