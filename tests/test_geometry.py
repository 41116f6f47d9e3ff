import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honestflow import (
    Billiard,
    BoundaryPointError,
    IntervalUnion,
    StayTimeViolation,
    VelocitySpec,
    advect,
    boundary_foot,
    rebound_sequence,
    stay_times,
)


class TestIntervalUnion:
    def test_affine_endpoints(self, unit_ladder):
        for k in range(5):
            assert unit_ladder.a(k) == 2.0 * k
            assert unit_ladder.b(k) == 2.0 * k + 1.0
            assert unit_ladder.delta(k) == 1.0

    def test_geometric_endpoints(self, geometric_ladder):
        assert geometric_ladder.a(3) == 9.0
        assert geometric_ladder.delta(3) == 0.125
        assert geometric_ladder.b(3) == 9.125

    def test_sum_delta_matches_direct_sum(self, geometric_ladder):
        direct = sum(geometric_ladder.delta(k) for k in range(2, 7))
        assert geometric_ladder.sum_delta(2, 6) == pytest.approx(direct, rel=1e-15)

    def test_tail_delta_closed_form(self, geometric_ladder):
        # lengths 2^-k from index i sum to 2^(1-i)
        assert geometric_ladder.tail_delta(0) == pytest.approx(2.0, rel=1e-15)
        assert geometric_ladder.tail_delta(3) == pytest.approx(0.25, rel=1e-15)
        assert geometric_ladder.total_length == pytest.approx(2.0, rel=1e-15)

    def test_tail_delta_affine_is_infinite(self, unit_ladder):
        assert unit_ladder.tail_delta(0) == math.inf
        assert unit_ladder.total_length == math.inf

    def test_classify(self, unit_ladder):
        assert unit_ladder.classify(0.5) == ("interior", 0)
        assert unit_ladder.classify(2.0) == ("incoming", 1)
        assert unit_ladder.classify(1.0) == ("outgoing", 0)
        assert unit_ladder.classify(1.5)[0] == "outside"

    def test_index_of_array(self, unit_ladder):
        xs = np.array([0.5, 1.5, 2.5, -3.0, 4.1])
        idx = unit_ladder.index_of_array(xs)
        assert list(idx) == [0, -1, 1, -1, 2]

    def test_reach_index_affine(self, unit_ladder):
        # 2.5 time units fit through two more unit intervals but not three
        assert unit_ladder.reach_index(0, 0.0) == 0
        assert unit_ladder.reach_index(0, 2.0) == 2
        assert unit_ladder.reach_index(0, 2.5) == 3

    def test_reach_index_summable_terminates(self, geometric_ladder):
        # horizon exceeds the total remaining length; the walk must stop
        j = geometric_ladder.reach_index(0, 10.0)
        assert j > 50

    @pytest.mark.parametrize("horizon", [-0.5, math.inf, math.nan])
    def test_reach_index_refuses_unbounded_horizon(self, unit_ladder, geometric_ladder, horizon):
        # an infinite or nan horizon is never reached: the walk would not end
        for geom in (unit_ladder, geometric_ladder):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                geom.reach_index(0, horizon)

    def test_explicit_validation(self):
        geo = IntervalUnion("explicit", intervals=((0.0, 1.0), (2.0, 2.5)))
        assert geo.n_intervals == 2
        assert geo.delta(1) == 0.5
        with pytest.raises(ValueError):
            IntervalUnion("explicit", intervals=((0.0, 1.0), (0.5, 2.0)))  # overlap

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            IntervalUnion("affine", start=0.0, spacing=1.0, length=2.0)  # overlap
        with pytest.raises(ValueError):
            IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=1.5)


class TestLadderFlow:
    def test_stay_times(self, unit_ladder):
        tau_minus, tau_plus = stay_times(2.3, unit_ladder)
        assert tau_minus == pytest.approx(0.3, abs=1e-15)
        assert tau_plus == pytest.approx(0.7, abs=1e-15)

    def test_stay_times_rejects_boundary(self, unit_ladder):
        with pytest.raises(BoundaryPointError):
            stay_times(1.0, unit_ladder)
        with pytest.raises(BoundaryPointError):
            stay_times(1.5, unit_ladder)

    def test_advect(self, unit_ladder):
        assert advect(2.3, 0.5, unit_ladder) == pytest.approx(2.8)
        assert advect(2.3, -0.25, unit_ladder) == pytest.approx(2.05)
        with pytest.raises(StayTimeViolation):
            advect(2.3, 0.8, unit_ladder)
        with pytest.raises(StayTimeViolation):
            advect(2.3, -0.3, unit_ladder)

    def test_boundary_foot(self, unit_ladder):
        foot, tau = boundary_foot(3.0, unit_ladder)
        assert foot == 2.0
        assert tau == 1.0
        with pytest.raises(BoundaryPointError):
            boundary_foot(2.0, unit_ladder)  # incoming, not outgoing


def unit_disk():
    return Billiard("disk", center=(0.0, 0.0), radius=1.0,
                    velocities=VelocitySpec("speeds", speeds=(1.0,)))


def square():
    return Billiard(
        "polygon",
        vertices=((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)),
        velocities=VelocitySpec("speeds", speeds=(1.0,)),
    )


class TestDisk:
    def test_exit_time_against_polynomial_roots(self):
        # independent oracle: largest real root of |p + s v|^2 = R^2
        disk = unit_disk()
        cases = [
            ((0.0, 0.5), (1.0, 0.0)),
            ((0.3, -0.2), (0.6, 0.8)),
            ((-0.9, 0.1), (0.1, -0.7)),
        ]
        for p, v in cases:
            px, py = p
            vx, vy = v
            coeffs = [vx * vx + vy * vy, 2 * (px * vx + py * vy), px * px + py * py - 1.0]
            s_oracle = max(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-14)
            s = disk.exit_time(np.array(p), np.array(v))
            assert s == pytest.approx(s_oracle, rel=1e-12)
            hit = np.array(p) + s * np.array(v)
            assert np.hypot(*hit) == pytest.approx(1.0, abs=1e-12)

    def test_first_rebound_frozen_values(self):
        # chord from (0, 0.5) along +x: hit at (sqrt(3)/2, 1/2), specular
        # reflection v' = v - 2 (v.n) n with n the unit radius at the hit
        disk = unit_disk()
        events, degenerate = rebound_sequence((np.array([0.0, 0.5]), np.array([1.0, 0.0])), 2.0, disk)
        assert not degenerate
        t1, x1, v1 = events[0]
        root34 = math.sqrt(0.75)
        assert t1 == pytest.approx(root34, rel=1e-14)
        assert x1[0] == pytest.approx(root34, abs=1e-12)
        assert x1[1] == pytest.approx(0.5, abs=1e-12)
        assert v1[0] == pytest.approx(-0.5, abs=1e-12)
        assert v1[1] == pytest.approx(-root34, abs=1e-12)

    def test_diameter_bounce_times(self):
        disk = unit_disk()
        events, degenerate = rebound_sequence((np.array([0.0, 0.0]), np.array([1.0, 0.0])), 6.0, disk)
        assert not degenerate
        assert [e[0] for e in events] == pytest.approx([1.0, 3.0, 5.0], abs=1e-12)
        # velocity flips direction at every hit
        assert events[0][2][0] == pytest.approx(-1.0, abs=1e-14)
        assert events[1][2][0] == pytest.approx(1.0, abs=1e-14)

    def test_zero_horizon_no_events(self):
        events, degenerate = rebound_sequence((np.array([0.0, 0.0]), np.array([1.0, 0.0])), 0.0, unit_disk())
        assert events == []
        assert not degenerate

    @given(
        st.floats(min_value=-0.7, max_value=0.7),
        st.floats(min_value=-0.7, max_value=0.7),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=60)
    def test_specular_preserves_speed(self, px, py, ang):
        disk = unit_disk()
        v = np.array([math.cos(ang), math.sin(ang)])
        events, degenerate = rebound_sequence((np.array([px, py]), v), 5.0, disk)
        for _, x, w in events:
            assert np.hypot(*w) == pytest.approx(1.0, abs=1e-12)
            assert np.hypot(*x) == pytest.approx(1.0, abs=1e-12)

    def test_stay_times_disk(self):
        disk = unit_disk()
        p = (np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        tau_minus, tau_plus = stay_times(p, disk)
        assert tau_minus == pytest.approx(1.0, rel=1e-14)
        assert tau_plus == pytest.approx(1.0, rel=1e-14)

    def test_boundary_foot_disk(self):
        disk = unit_disk()
        z = (np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        (foot, vel), tau = boundary_foot(z, disk)
        assert tau == pytest.approx(2.0, rel=1e-14)
        assert foot[0] == pytest.approx(-1.0, abs=1e-12)


class TestPolygon:
    def test_requires_convex_ccw(self):
        with pytest.raises(ValueError):
            Billiard("polygon", vertices=((0, 0), (0, 1), (1, 1), (1, 0)))  # clockwise

    def test_contains_and_exit(self):
        sq = square()
        assert sq.contains(np.array([0.0, 0.0]))
        assert not sq.contains(np.array([1.5, 0.0]))
        s = sq.exit_time(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert s == pytest.approx(1.0, rel=1e-14)

    def test_straight_bounce(self):
        sq = square()
        events, degenerate = rebound_sequence((np.array([0.0, 0.0]), np.array([1.0, 0.0])), 3.5, sq)
        assert not degenerate
        assert [e[0] for e in events] == pytest.approx([1.0, 3.0], abs=1e-12)
        assert events[0][2][0] == pytest.approx(-1.0)

    def test_corner_hit_degenerate(self):
        sq = square()
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        events, degenerate = rebound_sequence((np.array([0.0, 0.0]), v), 5.0, sq)
        assert degenerate
