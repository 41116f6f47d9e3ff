import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honestflow import (Billiard, ParticleEnsemble, VelocitySpec, rebound_sequence,
                        sample_ensemble, transport_counts_times, transport_ensemble)
from honestflow import _kernels
from honestflow._kernels import SURVIVAL_STREAM_BASE, ladder_survival, uniform_array


def ladder_arrays(geom, top):
    idx = range(top + 1)
    return (
        np.array([geom.a(k) for k in idx]),
        np.array([geom.b(k) for k in idx]),
        np.array([geom.tail_delta(k) for k in idx]),
    )


class TestUniformDraws:
    def test_deterministic(self):
        idx = np.arange(1000, dtype=np.int64)
        a = uniform_array(7, idx, 3)
        b = uniform_array(7, idx, 3)
        assert np.array_equal(a, b)

    def test_range_and_spread(self):
        idx = np.arange(100_000, dtype=np.int64)
        u = uniform_array(1, idx, 0)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(float(u.mean()) - 0.5) < 0.02

    def test_streams_and_seeds_decorrelate(self):
        idx = np.arange(1000, dtype=np.int64)
        base = uniform_array(1, idx, 0)
        assert not np.array_equal(base, uniform_array(1, idx, 1))
        assert not np.array_equal(base, uniform_array(2, idx, 0))

    @pytest.mark.parametrize("stream", [0, 1, 2, 3, 4, SURVIVAL_STREAM_BASE, 2**40])
    def test_index_hash_then_stream_equals_uniform_array(self, stream):
        idx = np.arange(5000, dtype=np.int64)
        hashed = _kernels.index_hash(2**64 - 3, idx)
        want = uniform_array(2**64 - 3, idx, stream)
        assert np.array_equal(_kernels.stream_draws(hashed, stream), want)
        # per-particle streams, as the ladder survival draws use them
        streams = stream + idx % 7
        assert np.array_equal(_kernels.stream_draws(hashed, streams),
                              uniform_array(2**64 - 3, idx, streams))

    def test_sampling_reads_the_documented_streams(self):
        # box positions are affine in streams 0 and 1, annulus speeds read
        # stream 3 and directions stream 4
        geom = Billiard("disk", center=(0.0, 0.0), radius=1.0,
                        velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))
        ens = sample_ensemble(geom, 3000, seed=19, region="box:-0.5,-0.25,0.5,0.25")
        idx = np.arange(3000, dtype=np.int64)
        u = [uniform_array(19, idx, stream) for stream in range(5)]
        assert np.array_equal(ens.pos[:, 0], -0.5 + 1.0 * u[0])
        assert np.array_equal(ens.pos[:, 1], -0.25 + 0.5 * u[1])
        speed = np.sqrt(0.5**2 + u[3] * (2.0**2 - 0.5**2))
        ang = 2.0 * np.pi * u[4]
        assert np.array_equal(ens.vel, np.stack([speed * np.cos(ang), speed * np.sin(ang)], axis=1))

    @pytest.mark.parametrize("speeds", [(1.5,), (1.5, 0.5)])
    def test_speed_pick_stream_is_drawn_for_a_choice_only(self, monkeypatch, speeds):
        # a finite speed set picks by stream 3; a set of one needs no pick
        read = set()
        draws = _kernels.stream_draws

        def recorded(hashed, stream, *out):
            read.add(int(stream))
            return draws(hashed, stream, *out)

        monkeypatch.setattr(_kernels, "stream_draws", recorded)
        geom = Billiard("disk", center=(0.0, 0.0), radius=1.0,
                        velocities=VelocitySpec("speeds", speeds=speeds))
        ens = sample_ensemble(geom, 3000, seed=19, region="box:-0.5,-0.25,0.5,0.25")
        assert read == ({0, 1, 4} if len(speeds) == 1 else {0, 1, 3, 4})
        idx = np.arange(3000, dtype=np.int64)
        pick = np.minimum((uniform_array(19, idx, 3) * len(speeds)).astype(np.int64),
                          len(speeds) - 1)
        speed = np.array(speeds)[pick]
        ang = 2.0 * np.pi * uniform_array(19, idx, 4)
        assert np.array_equal(ens.vel, np.stack([speed * np.cos(ang), speed * np.sin(ang)], axis=1))


def scalar_walk(geom, x, k, r, t, seed, i):
    """One particle's (alive, hops) stepped interval by interval on ``geom``
    itself: the draw at its j-th jump is stream SURVIVAL_STREAM_BASE + j."""
    hops = 0
    while True:
        flight = geom.b(k) - x
        if flight > t:
            return True, hops
        t -= flight
        u = float(uniform_array(seed, [i], SURVIVAL_STREAM_BASE + hops)[0])
        if u >= r:
            return False, hops
        hops += 1
        k += 1
        # the remaining time covers every later interval: infinitely many jumps
        if t >= geom.tail_delta(k):
            return False, hops
        x = geom.a(k)


class TestLadderKernel:
    def _population(self, n):
        idx = np.arange(n, dtype=np.int64)
        x0 = uniform_array(11, idx, 0)  # positions inside (0, 1)
        k0 = np.zeros(n, dtype=np.int64)
        return x0, k0

    def test_deterministic(self, unit_ladder):
        a, b, tail = ladder_arrays(unit_ladder, 8)
        x0, k0 = self._population(2000)
        first = ladder_survival(x0, k0, a, b, tail, 0.5, 2.5, 5)
        second = ladder_survival(x0, k0, a, b, tail, 0.5, 2.5, 5)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_no_deaths_when_conservative(self, unit_ladder):
        a, b, tail = ladder_arrays(unit_ladder, 8)
        x0, k0 = self._population(2000)
        alive, hops = ladder_survival(x0, k0, a, b, tail, 1.0, 3.5, 5)
        assert np.all(alive)
        # crossings happen at 1-x, 2-x, 3-x, 4-x: by t = 3.5 a start x in
        # (0, 1) has hopped 3 times, or 4 when x >= 0.5
        assert set(np.unique(hops)) == {3, 4}

    def test_total_escape_past_finite_tail(self, geometric_ladder):
        a, b, tail = ladder_arrays(geometric_ladder, 60)
        x0, k0 = self._population(2000)
        alive, _ = ladder_survival(x0, k0, a, b, tail, 1.0, 2.5, 5)
        assert not np.any(alive)

    @pytest.mark.parametrize("ladder, times", [("unit_ladder", (0.6, 1.5, 4.25, 7.0)),
                                               ("geometric_ladder", (0.6, 1.3, 1.9, 2.5))])
    @pytest.mark.parametrize("r", [0.5, 0.8])
    def test_matches_scalar_walk(self, request, ladder, times, r):
        geom = request.getfixturevalue(ladder)
        n, seed = 300, 13
        idx = np.arange(n, dtype=np.int64)
        # starts spread over the first three intervals
        k0 = (uniform_array(seed, idx, 1) * 3).astype(np.int64)
        x0 = np.array([geom.a(k) for k in k0]) + uniform_array(seed, idx, 0) * np.array(
            [geom.delta(k) for k in k0])
        a, b, tail = ladder_arrays(geom, 40)
        survivors, top = [], 0
        for t in times:
            alive, hops = ladder_survival(x0, k0, a, b, tail, r, t, seed)
            want = [scalar_walk(geom, float(x0[i]), int(k0[i]), r, t, seed, i) for i in range(n)]
            assert alive.tolist() == [w[0] for w in want]
            assert hops.tolist() == [w[1] for w in want]
            survivors.append(int(alive.sum()))
            top = max(top, int(hops.max()))
        # deaths and survivors side by side, and walks of several jumps
        assert any(0 < m < n for m in survivors)
        assert top >= 3

    def test_r_validation(self, unit_ladder):
        a, b, tail = ladder_arrays(unit_ladder, 4)
        x0, k0 = self._population(10)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ladder_survival(x0, k0, a, b, tail, bad, 1.0, 0)

    @pytest.mark.parametrize("name", ["seed", "first"])
    @pytest.mark.parametrize("bad", [2.5, -1, 2**64, True])
    def test_draw_keys_are_ints_below_2_64(self, unit_ladder, name, bad):
        # a truncated or wrapped key would walk another ensemble's draws
        a, b, tail = ladder_arrays(unit_ladder, 4)
        x0, k0 = self._population(50)
        keys = {"seed": 3, "first": 0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            ladder_survival(x0, k0, a, b, tail, 0.5, 1.0, keys["seed"], first=keys["first"])

    def test_slices_key_their_draws_past_2_63(self, unit_ladder):
        # particle i of a slice starting at first is ensemble particle
        # first + i, whatever the size of first
        a, b, tail = ladder_arrays(unit_ladder, 8)
        x0, k0 = self._population(50)
        first = 2**64 - 50
        alive, hops = ladder_survival(x0, k0, a, b, tail, 0.5, 2.5, 3, first=first)
        for i in (0, 17, 49):
            want = ladder_survival(x0[i:i + 1], k0[i:i + 1], a, b, tail, 0.5, 2.5, 3,
                                   first=first + i)
            assert (alive[i], hops[i]) == (want[0][0], want[1][0])


def disk_table():
    return Billiard("disk", center=(0.0, 0.0), radius=1.0,
                    velocities=VelocitySpec("speeds", speeds=(1.0,)))


class TestBilliardKernel:
    def test_transport_deterministic(self):
        ens = sample_ensemble(disk_table(), 3000, seed=1)
        a = transport_ensemble(ens, 4.0, disk_table())
        b = transport_ensemble(ens, 4.0, disk_table())
        assert np.array_equal(a.pos, b.pos)
        assert np.array_equal(a.vel, b.vel)
        assert np.array_equal(a.rebounds, b.rebounds)

    def test_negative_time_rejected(self):
        ens = sample_ensemble(disk_table(), 10, seed=1)
        with pytest.raises(ValueError):
            transport_ensemble(ens, -1.0, disk_table())

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        ens = sample_ensemble(disk_table(), 10, seed=1)
        with pytest.raises(ValueError, match="finite"):
            transport_ensemble(ens, t, disk_table())


def off_centre_table():
    return Billiard("disk", center=(0.3, -0.7), radius=2.5,
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


def oracle_state(pos, vel, t, geom):
    """Final (pos, vel, rebounds, degenerate) by stepping rebound_sequence."""
    events, degenerate = rebound_sequence((pos, vel), t, geom)
    if not events:
        return pos + t * vel, vel, 0, degenerate
    t_k, x_k, v_k = events[-1]
    return x_k + (t - t_k) * v_k, v_k, len(events), degenerate


STATE = ("pos", "vel", "weight", "rebounds", "degenerate")


def transported(ens, geom, t, scale=1.0):
    """A copy of ``ens`` moved by ``billiard_transport`` itself."""
    moved = ens.copy()
    _kernels.billiard_transport(*(getattr(moved, name) for name in STATE), geom, t, scale=scale)
    return moved


class TestDiskClosedForm:
    """The closed-form disk kernel against the scalar stepping oracle."""

    def test_matches_stepping_oracle(self):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 300, seed=17)
        t = 7.5
        moved = transport_ensemble(ens, t, geom, scale=0.7)
        assert moved.rebounds.max() > 5
        for i in range(len(ens)):
            pos, vel, n, degenerate = oracle_state(ens.pos[i], ens.vel[i], t, geom)
            assert moved.rebounds[i] == n
            assert moved.degenerate[i] == degenerate
            assert np.allclose(moved.pos[i], pos, rtol=0.0, atol=1e-9)
            assert np.allclose(moved.vel[i], vel, rtol=0.0, atol=1e-9)
        expected = ens.weight * 0.7 ** moved.rebounds
        assert np.allclose(moved.weight, expected, rtol=1e-15, atol=0.0)

    def test_particle_short_of_the_wall_flies_straight(self):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 4, seed=3)
        ens.pos[:] = geom.center
        ens.vel[:] = (0.5, 0.0)
        moved = transport_ensemble(ens, 4.0, geom)  # the wall is 5 away
        assert np.array_equal(moved.pos, ens.pos + 4.0 * ens.vel)
        assert np.array_equal(moved.vel, ens.vel)
        assert not moved.rebounds.any() and not moved.degenerate.any()

    def test_grazing_first_hit_freezes(self):
        geom = off_centre_table()
        cx, cy = geom.center
        ens = sample_ensemble(geom, 4, seed=3)
        # tangent to the circle at (cx, cy + R), reached after unit time
        ens.pos[0] = (cx - 1.0, cy + geom.radius)
        ens.vel[0] = (1.0, 0.0)
        events, degenerate = rebound_sequence((ens.pos[0], ens.vel[0]), 3.0, geom)
        assert events == [] and degenerate
        # the start lies outside the table, which transport_ensemble refuses;
        # the kernel moves whatever it is given
        moved = transported(ens, geom, 3.0, scale=0.5)
        assert moved.degenerate[0]
        assert moved.rebounds[0] == 0
        assert moved.weight[0] == ens.weight[0]
        assert np.array_equal(moved.vel[0], ens.vel[0])
        assert np.allclose(moved.pos[0], (cx, cy + geom.radius), rtol=0.0, atol=1e-12)
        assert not moved.degenerate[1:].any()

    def test_zero_time_is_identity(self):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 50, seed=8)
        # a particle on the wall moving outward stays put at t = 0
        ens.pos[0] = (geom.center[0] + geom.radius, geom.center[1])
        ens.vel[0] = (1.0, 0.0)
        moved = transport_ensemble(ens, 0.0, geom, scale=0.5)
        for name in ("pos", "vel", "weight", "rebounds", "degenerate"):
            assert np.array_equal(getattr(moved, name), getattr(ens, name))

    def test_degenerate_input_left_alone(self):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 50, seed=8)
        ens.degenerate[::7] = True
        moved = transport_ensemble(ens, 6.0, geom, scale=0.5)
        frozen = ens.degenerate
        assert np.array_equal(moved.pos[frozen], ens.pos[frozen])
        assert np.array_equal(moved.vel[frozen], ens.vel[frozen])
        assert np.array_equal(moved.weight[frozen], ens.weight[frozen])
        assert not moved.rebounds[frozen].any()
        assert moved.rebounds[~frozen].all()

    def test_rebounds_accumulate_across_calls(self):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 200, seed=4)
        once = transport_ensemble(ens, 6.0, geom, scale=0.7)
        twice = transport_ensemble(transport_ensemble(ens, 2.5, geom, scale=0.7), 3.5, geom, scale=0.7)
        assert np.array_equal(once.rebounds, twice.rebounds)
        assert np.allclose(once.pos, twice.pos, rtol=0.0, atol=1e-12)
        assert np.allclose(once.weight, twice.weight, rtol=1e-15, atol=0.0)

    def test_reflection_cap_marks_degenerate(self, monkeypatch):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 200, seed=4)
        free = transport_ensemble(ens, 6.0, geom)
        monkeypatch.setattr(_kernels, "ITER_CAP", 3)
        moved = transport_ensemble(ens, 6.0, geom)
        over = free.rebounds > 3
        assert over.any() and not over.all()
        assert np.array_equal(moved.degenerate, over)
        assert np.array_equal(moved.rebounds, np.minimum(free.rebounds, 3))
        radii = np.hypot(*(moved.pos[over] - geom.center).T)
        assert np.allclose(radii, geom.radius, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("offset", [-1, 0, 5])
    def test_chunking_does_not_change_results(self, monkeypatch, offset):
        geom = off_centre_table()
        ens = sample_ensemble(geom, 16 + offset, seed=6)
        ens.degenerate[3] = True
        whole = transport_ensemble(ens, 9.0, geom, scale=0.7)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 16)
        sliced = transport_ensemble(ens, 9.0, geom, scale=0.7)
        for name in ("pos", "vel", "weight", "rebounds", "degenerate"):
            assert np.array_equal(getattr(sliced, name), getattr(whole, name))


def hexagon_table():
    ang = [k * math.pi / 3 for k in range(6)]
    return Billiard("polygon", vertices=tuple((math.cos(a), math.sin(a)) for a in ang),
                    velocities=VelocitySpec("speeds", speeds=(1.0,)))


def scalene_table():
    return Billiard("polygon", vertices=((0.0, 0.0), (3.0, 0.0), (0.7, 1.9)),
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


def snapshots(ens, geom, times, scale=1.0):
    """``(pos, vel, weight, rebounds, degenerate)`` with a leading axis over
    the distinct ascending ``times``: one ``billiard_transport`` per time,
    each on a copy of ``ens``."""
    rows = [transported(ens, geom, t, scale) for t in _kernels.distinct_times(times)]
    return tuple(np.stack([getattr(row, name) for row in rows]) for name in STATE)


def fixed_states(pos, vel):
    """The state source of fixed positions and velocities: their slices
    copied into the buffers given, as a sampler writes them."""
    def states(lo, hi, out, work):
        for buf, column in zip(out, (pos[:, 0], pos[:, 1], vel[:, 0], vel[:, 1])):
            buf[:] = column[lo:hi]

    return states


def tallies(ens, geom, times):
    """``polygon_tallies`` of the ensemble's positions and velocities: one
    sweep with a row of remaining time per distinct time."""
    return _kernels.polygon_tallies(fixed_states(ens.pos, ens.vel), len(ens), geom, times)


def same_tallies(got, want):
    """Whether two lists of tallies hold the same arrays."""
    return len(got) == len(want) and all(
        np.array_equal(a, b) for pair, other in zip(got, want) for a, b in zip(pair, other))


class TestPolygonSnapshots:
    """Polygon transport to several times against the scalar stepping
    oracle, and the trajectory's and the tallies' contracts."""

    @pytest.mark.parametrize("table, scale", [(hexagon_table, 1.0), (scalene_table, 0.7)])
    def test_matches_stepping_oracle(self, table, scale):
        geom = table()
        ens = sample_ensemble(geom, 300, seed=23)
        times = (0.0, 1.5, 4.0, 7.5)
        pos, vel, weight, rebounds, degenerate = snapshots(ens, geom, times, scale=scale)
        assert rebounds[-1].max() > 5
        for k, t in enumerate(times):
            for i in range(len(ens)):
                p, v, n, flag = oracle_state(ens.pos[i], ens.vel[i], t, geom)
                assert rebounds[k, i] == n
                assert degenerate[k, i] == flag
                assert np.allclose(pos[k, i], p, rtol=0.0, atol=1e-9)
                assert np.allclose(vel[k, i], v, rtol=0.0, atol=1e-9)
            assert np.array_equal(weight[k], ens.weight * scale ** rebounds[k])

    @pytest.mark.parametrize("table", [hexagon_table, off_centre_table])
    def test_weights_follow_one_law(self, table):
        # a particle that reflects n - n0 times weighs w0 * scale ** (n - n0),
        # in one power, on either shape.  Multiplying by scale once per
        # reflection drifts from that by up to (n - n0) / 2 ulp, which on
        # this hexagon misses most lanes
        geom = table()
        ens = sample_ensemble(geom, 20_000, seed=41)
        ens.weight[:] = 1e-5
        ens.rebounds[:] = 3
        moved = transported(ens, geom, 40.0, scale=0.8)
        assert np.unique(moved.rebounds).size > 20
        assert np.array_equal(moved.weight, 1e-5 * 0.8 ** (moved.rebounds - 3))

    def test_narrow_types_sweep_in_float64(self):
        # float32 states and weights and int32 counts step as their exact
        # float64 copies do, each row rounded to the input type once, when it
        # is written
        geom = scalene_table()
        ens = sample_ensemble(geom, 500, seed=31)
        narrow = ParticleEnsemble(ens.pos.astype(np.float32), ens.vel.astype(np.float32),
                                  ens.weight.astype(np.float32), ens.rebounds.astype(np.int32),
                                  ens.degenerate, ens.seed)
        wide = ParticleEnsemble(narrow.pos.astype(np.float64), narrow.vel.astype(np.float64),
                                narrow.weight.astype(np.float64), ens.rebounds, ens.degenerate,
                                ens.seed)
        times = (1.5, 6.0)
        got, want = snapshots(narrow, geom, times, 0.7), snapshots(wide, geom, times, 0.7)
        assert want[3][-1].max() > 5
        assert [a.dtype for a in got] == [np.float32] * 3 + [np.int32, np.bool_]
        for a, b in zip(got, want):
            assert np.array_equal(a, b.astype(a.dtype))

    def test_vertex_hit_freezes(self):
        geom = hexagon_table()
        ens = sample_ensemble(geom, 4, seed=3)
        # straight at the vertex (1, 0), reached after unit time
        ens.pos[0] = (0.0, 0.0)
        ens.vel[0] = (1.0, 0.0)
        events, flag = rebound_sequence((ens.pos[0], ens.vel[0]), 3.0, geom)
        assert events == [] and flag
        pos, vel, weight, rebounds, degenerate = snapshots(ens, geom, (0.5, 3.0), scale=0.5)
        assert not degenerate[0, 0]
        assert np.array_equal(pos[0, 0], (0.5, 0.0))
        assert degenerate[1, 0] and rebounds[1, 0] == 0
        assert weight[1, 0] == ens.weight[0]
        assert np.array_equal(vel[1, 0], ens.vel[0])
        assert np.allclose(pos[1, 0], (1.0, 0.0), rtol=0.0, atol=1e-12)
        assert not degenerate[:, 1:].any()

    def test_reflection_cap_marks_degenerate(self, monkeypatch):
        geom = hexagon_table()
        ens = sample_ensemble(geom, 200, seed=4)
        times = (0.5, 3.0)
        free = snapshots(ens, geom, times)
        monkeypatch.setattr(_kernels, "ITER_CAP", 3)
        pos, vel, weight, rebounds, degenerate = snapshots(ens, geom, times)
        # the fourth round finds a particle that owes a fourth reflection
        over = free[3] > 3
        assert over[1].any() and not over[1].all() and not over[0].any()
        assert np.array_equal(degenerate, over)
        assert np.array_equal(rebounds, np.minimum(free[3], 3))
        # a capped particle stops at its third hit point
        for i in np.flatnonzero(over[1]):
            events, _ = rebound_sequence((ens.pos[i], ens.vel[i]), 3.0, geom)
            assert np.allclose(pos[1, i], events[2][1], rtol=0.0, atol=1e-9)
            assert np.allclose(vel[1, i], events[2][2], rtol=0.0, atol=1e-9)

    def test_exactly_iter_cap_reflections_fly_free(self, monkeypatch):
        geom = hexagon_table()
        ens = sample_ensemble(geom, 3, seed=3)
        # straight up and down: walls at y = +-sin(pi/3), two reflections by t = 3
        ens.pos[0] = (0.0, 0.0)
        ens.vel[0] = (0.0, 1.0)
        events, flag = rebound_sequence((ens.pos[0], ens.vel[0]), 3.0, geom)
        assert len(events) == 2 and not flag
        free = snapshots(ens, geom, (3.0,))
        monkeypatch.setattr(_kernels, "ITER_CAP", 2)
        capped = snapshots(ens, geom, (3.0,))
        assert not capped[4][0, 0] and capped[3][0, 0] == 2
        for a, b in zip(capped, free):
            assert np.array_equal(a[0, 0], b[0, 0])
        assert np.allclose(capped[0][0, 0], (0.0, 3.0 - 4.0 * math.sin(math.pi / 3)),
                           rtol=0.0, atol=1e-12)

    def test_zero_time_leaves_a_particle_on_the_wall(self):
        geom = scalene_table()
        ens = sample_ensemble(geom, 50, seed=8)
        # on the bottom wall, moving outward: at t > 0 it reflects at once
        ens.pos[0] = (1.0, 0.0)
        ens.vel[0] = (0.3, -1.0)
        pos, vel, weight, rebounds, degenerate = snapshots(ens, geom, (0.0, 0.25), scale=0.5)
        for got, orig in zip((pos, vel, weight, rebounds, degenerate),
                             (ens.pos, ens.vel, ens.weight, ens.rebounds, ens.degenerate)):
            assert np.array_equal(got[0], orig)
        assert rebounds[1, 0] == 1 and not degenerate[1, 0]
        assert np.allclose(pos[1, 0], (1.075, 0.25), rtol=0.0, atol=1e-15)
        assert np.array_equal(vel[1, 0], (0.3, 1.0))

    def test_degenerate_input_left_alone(self):
        geom = scalene_table()
        ens = sample_ensemble(geom, 50, seed=8)
        ens.degenerate[::7] = True
        ens.rebounds[::7] = 2
        frozen = ens.degenerate
        pos, vel, weight, rebounds, degenerate = snapshots(ens, geom, (2.0, 6.0), scale=0.5)
        for got, orig in zip((pos, vel, weight, rebounds, degenerate),
                             (ens.pos, ens.vel, ens.weight, ens.rebounds, ens.degenerate)):
            assert np.array_equal(got[:, frozen], np.broadcast_to(orig[frozen], got[:, frozen].shape))
        assert rebounds[1, ~frozen].all()

    def test_inputs_are_not_mutated(self):
        geom = hexagon_table()
        ens = sample_ensemble(geom, 100, seed=2)
        before = ens.copy()
        rows = list(transport_counts_times(ens, (1.0, 5.0), geom, scale=0.5))
        assert rows[-1][1].rebounds.max() > 0
        assert tallies(ens, geom, (1.0, 5.0))[-1][0].size > 1
        for name in STATE:
            assert np.array_equal(getattr(ens, name), getattr(before, name))

    def test_rows_follow_the_distinct_ascending_times(self):
        geom = hexagon_table()
        ens = sample_ensemble(geom, 100, seed=2)
        got = list(transport_counts_times(ens, (5.0, 1.0, 5.0, 0.0), geom, scale=0.5))
        want = list(transport_counts_times(ens, (0.0, 1.0, 5.0), geom, scale=0.5))
        assert [t for t, _ in got] == [t for t, _ in want] == [0.0, 1.0, 5.0]
        for (_, a), (_, b) in zip(got, want):
            for name in ("weight", "rebounds", "degenerate"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        rows = tallies(ens, geom, (5.0, 1.0, 5.0, 0.0))
        assert len(rows) == 3
        assert same_tallies(rows, tallies(ens, geom, (0.0, 1.0, 5.0)))

    @pytest.mark.parametrize("times", [(-1.0, 1.0), (1.0, math.inf), (math.nan,)])
    def test_times_must_be_finite_and_nonnegative(self, times):
        geom = hexagon_table()
        ens = sample_ensemble(geom, 10, seed=2)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transport_counts_times(ens, times, geom)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            tallies(ens, geom, times)

    def test_transport_writes_in_place(self):
        geom = scalene_table()
        ens = sample_ensemble(geom, 80, seed=6)
        ens.degenerate[::9] = True
        times = (0.0, 1.25, 3.5, 6.0)
        want = list(transport_counts_times(ens, times, geom, scale=0.7))
        assert want[-1][1].rebounds.max() > 3
        # each time of a trajectory is a separate in-place transport to it
        for t, counts in want:
            out = ens.copy()
            arrays = tuple(getattr(out, name) for name in STATE)
            got = _kernels.billiard_transport(*arrays, geom, t, scale=0.7)
            for a, b in zip(got, arrays):
                assert a is b
            for a, w in zip(got[2:], (counts.weight, counts.rebounds, counts.degenerate)):
                assert np.array_equal(a, w)

    @pytest.mark.parametrize("factor", [2.0**-200, 2.0**200])
    def test_scaled_tables_flag_alike(self, factor):
        # the vertex tolerance follows the coordinates: a table scaled by a
        # power of two, with its particles, makes the same events
        geom = scalene_table()
        scaled = Billiard("polygon", vertices=tuple((x * factor, y * factor)
                                                    for x, y in geom.vertices),
                          velocities=geom.velocities)
        ens = sample_ensemble(geom, 300, seed=5)
        times = (0.0, 0.5, 2.0, 6.0)
        want = snapshots(ens, geom, times, scale=0.7)
        assert want[3][-1].max() > 3
        big = ens.copy()
        big.pos *= factor
        big.vel *= factor
        got = snapshots(big, scaled, times, scale=0.7)
        assert np.array_equal(got[0], want[0] * factor)
        assert np.array_equal(got[1], want[1] * factor)
        for a, b in zip(got[2:], want[2:]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("factor", [2.0**-40, 2.0**40])
    def test_oracle_flags_scaled_tables_as_the_sweep(self, factor):
        # rebound_sequence's vertex test follows the coordinates too, so on
        # a scaled table it makes the sweep's events, not a vertex hit at
        # every first hit
        geom = scalene_table()
        scaled = Billiard("polygon", vertices=tuple((x * factor, y * factor)
                                                    for x, y in geom.vertices),
                          velocities=geom.velocities)
        ens = sample_ensemble(geom, 200, seed=5)
        ens.pos *= factor
        ens.vel *= factor
        moved = transported(ens, scaled, 6.0)
        assert moved.rebounds.min() > 0 and moved.rebounds.max() > 3
        for i in range(len(ens)):
            events, flag = rebound_sequence((ens.pos[i], ens.vel[i]), 6.0, scaled)
            assert len(events) == moved.rebounds[i]
            assert flag == moved.degenerate[i]


def square_table():
    return Billiard("polygon", vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
                    velocities=VelocitySpec("speeds", speeds=(1.0,)))


# float64 bit patterns the select must carry unchanged: quiet and signalling
# NaNs with payloads and either sign, +-0, +-inf, subnormals and the least
# normal
SPECIAL_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                0x7FF0000000000001, 0xFFF4000000000123, 0x0000000000000000,
                0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x0010000000000000,
                0x3FF0000000000000, 0xC00C000000000000)


def where_bits(mask, a, b):
    # np.where's lanes and _kernels._select's, as uint64, and whether a was
    # left alone
    want = np.where(mask, a, b).view(np.uint64)
    kept = a.copy()
    got = b.copy()
    _kernels._select(mask, a, got, np.empty(got.size, dtype=np.uint64))
    return got.view(np.uint64), want, np.array_equal(a.view(np.uint64), kept.view(np.uint64))


class TestExactRound:
    """The polygon round's branch-free forms: the bit select gives np.where's
    bits, and the first-hit search steps exactly representable states on the
    unit square as the scalar oracle does."""

    def test_select_matches_where_bitwise(self):
        bits = np.array(SPECIAL_BITS, dtype=np.uint64)
        a, b = (g.ravel().view(np.float64) for g in np.meshgrid(bits, bits))
        for mask in (np.arange(a.size) % 3 == 0, np.ones(a.size, bool), np.zeros(a.size, bool)):
            got, want, untouched = where_bits(mask, a, b)
            assert np.array_equal(got, want) and untouched

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2**64 - 1),
                              st.integers(0, 2**64 - 1)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_select_matches_where_on_any_bits(self, lanes):
        mask, a, b = (np.array(column, dtype=dtype) for column, dtype in
                      zip(zip(*lanes), (np.bool_, np.uint64, np.uint64)))
        got, want, untouched = where_bits(mask, a.view(np.float64), b.view(np.float64))
        assert np.array_equal(got, want) and untouched

    # (position, velocity); every hit time, hit point and reflection is exact
    SQUARE_STATES = (
        ((1.0, 0.5), (0.5, 0.25)),  # on a wall moving out: s = 0
        ((0.5, 0.25), (1.0, 0.0)),  # parallel to the bottom and top: dv = +0.0
        ((0.5, 0.75), (-1.0, -0.0)),  # parallel, dv = -0.0 on the top
        ((0.5, 0.0), (-0.5, 0.0)),  # along the bottom into a corner: 0 / -0.0
        ((0.0, 0.5), (1.0, 0.25)),  # on a wall moving in
        ((0.5, 0.5), (0.5, 0.5)),  # through a vertex: edges 1 and 2 tie
        ((0.25, 0.5), (0.75, -0.5)),  # through a vertex: edges 0 and 1 tie
        ((0.25, 0.75), (1.0, -0.5)),  # five reflections by t = 3.5
    )
    # repeated times, a zero time and times equal to hit times
    SQUARE_TIMES = (0.0, 0.0, 0.5, 0.75, 0.75, 1.0, 2.0, 3.5, 3.5)

    def square_ensemble(self):
        n = len(self.SQUARE_STATES)
        return ParticleEnsemble(np.array([p for p, _ in self.SQUARE_STATES]),
                                np.array([v for _, v in self.SQUARE_STATES]),
                                np.full(n, 1.0 / n), np.zeros(n, dtype=np.int64),
                                np.zeros(n, dtype=np.bool_), 0)

    def square_rows(self, scale):
        # one in-place transport per distinct time, each on a copy
        ens = self.square_ensemble()
        return [transported(ens, square_table(), t, scale=scale)
                for t in _kernels.distinct_times(self.SQUARE_TIMES)]

    def check_square_rows(self, rows, rounds, scale):
        # every particle's count, flag and weight in the one-time transports
        # against the scalar oracle's events, the weight w0 * scale ** n for
        # n reflections; the tallies of one sweep over every time are their
        # bincounts
        geom = square_table()
        ens = self.square_ensemble()
        times = _kernels.distinct_times(self.SQUARE_TIMES)
        assert len(rows) == len(rounds) == times.size
        for t, moved, (counts, flagged) in zip(times.tolist(), rows, rounds):
            reflections = []
            for i, (p, v) in enumerate(self.SQUARE_STATES):
                # at t = 0 nothing moves, not even a particle sitting on a wall
                events, flag = rebound_sequence((p, v), t, geom) if t else ([], False)
                assert (moved.rebounds[i], moved.degenerate[i]) == (len(events), flag)
                reflections.append(len(events))
            # numpy's power of an array, which need not round as Python's
            # float power does
            assert np.array_equal(moved.weight, ens.weight * scale ** np.array(reflections))
            assert np.array_equal(counts, np.bincount(moved.rebounds))
            assert np.array_equal(flagged, np.bincount(moved.rebounds[moved.degenerate]))

    def test_square_edge_cases_match_the_oracle(self):
        geom = square_table()
        ens = self.square_ensemble()
        pos, vel = ens.pos, ens.vel
        # the search meets each case it is named for, computed as the kernel does
        normals, offsets = geom.edge_normals()
        dv = vel[:, :1] * normals[:, 0] + vel[:, 1:] * normals[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = (offsets - (pos[:, :1] * normals[:, 0] + pos[:, 1:] * normals[:, 1])) / dv
        zero = dv == 0.0
        assert np.signbit(dv[zero]).any() and not np.signbit(dv[zero]).all()
        assert np.isnan(q).any() and (q[dv > 0.0] == 0.0).any()
        rows = self.square_rows(0.5)
        self.check_square_rows(rows, tallies(ens, geom, self.SQUARE_TIMES), 0.5)
        # each state swept alone over every time: its tallies give its count
        # and flag per time
        for i in range(len(ens)):
            alone = _kernels.polygon_tallies(fixed_states(pos[i:i + 1], vel[i:i + 1]), 1, geom,
                                             self.SQUARE_TIMES)
            assert [(c.size - 1, int(f.sum())) for c, f in alone] == [
                (int(row.rebounds[i]), int(row.degenerate[i])) for row in rows]
        last = rows[-1]
        assert last.rebounds.tolist() == [1, 4, 4, 0, 1, 0, 0, 5]
        assert last.degenerate.tolist() == [True, False, False, True, True, True, True, False]
        assert np.array_equal(last.weight, 0.5 ** last.rebounds / len(ens))

    def test_rounds_that_compact_and_drop_rows_match_the_oracle(self, monkeypatch):
        # in each of the first two rounds of one sweep over every time,
        # particles that hit a vertex freeze and leave the working set while
        # leading rows close for every particle kept: the remaining times are
        # gathered to the front of their own buffer, and every state array
        # moves into a spare buffer.  Below scale 1 the one-time transports
        # compact their weights with the rest of their working state
        drops = []
        drop_rows = _kernels._drop_rows

        def recorded(rem_buf, rem, closed, kept, row):
            drops.append((closed, None if kept is None else kept.size, rem.shape[1]))
            return drop_rows(rem_buf, rem, closed, kept, row)

        monkeypatch.setattr(_kernels, "_drop_rows", recorded)
        rounds = tallies(self.square_ensemble(), square_table(), self.SQUARE_TIMES)
        assert drops[:2] == [(1, 5, 8), (3, 3, 5)]
        drops.clear()
        rows = self.square_rows(0.7)
        assert (0, 5, 8) in drops
        self.check_square_rows(rows, rounds, 0.7)


class TestSweepBlocks:
    """The polygon sweep split into one block of particles per worker gives
    the bytes of a whole sweep, whatever the number of blocks."""

    def _ensemble(self):
        # 301 particles: blocks of 101, 101 and 99 for three workers
        geom = scalene_table()
        ens = sample_ensemble(geom, 301, seed=17)
        ens.degenerate[::11] = True
        ens.rebounds[::11] = 4
        return geom, ens

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_do_not_depend_on_the_blocks(self, monkeypatch, workers):
        geom, ens = self._ensemble()
        times = (0.0, 1.25, 3.5, 9.0)
        cap = _kernels.ITER_CAP

        def rows():
            # full states from in-place transports, and the tallies of one
            # sweep over every time, both capped; then the cap-free tallies
            monkeypatch.setattr(_kernels, "ITER_CAP", 6)
            full = snapshots(ens, geom, times, scale=0.7)
            capped = tallies(ens, geom, times)
            monkeypatch.setattr(_kernels, "ITER_CAP", cap)
            return full, capped, tallies(ens, geom, times)

        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
        want = rows()
        full, capped, uncapped = want
        # the cap binds, the cap-free sweep goes further, some input is frozen
        assert full[4][-1].sum() > full[4][0].sum() > 0
        assert full[3][-1].max() == 6 == capped[-1][0].size - 1 < uncapped[-1][0].size - 1
        assert capped[-1][1].sum() > 0 and uncapped[-1][1].sum() == 0
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: workers)
        got = rows()
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(a, b)
        assert same_tallies(got[1], capped) and same_tallies(got[2], uncapped)

    def test_worker_errors_propagate(self, monkeypatch):
        geom, ens = self._ensemble()
        start = _kernels._held_start

        def failing(arrays, lo, hi, *args):
            # only the last block fails
            if hi - lo == 99:
                raise FloatingPointError("block failed")
            return start(arrays, lo, hi, *args)

        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 3)
        monkeypatch.setattr(_kernels, "_held_start", failing)
        with pytest.raises(FloatingPointError, match="block failed"):
            snapshots(ens, geom, (1.0,))

    def test_concurrent_sweeps_keep_their_own_buffers(self, monkeypatch):
        # two sweeps over every time of different ensembles at once, two
        # blocks each, the interpreter switching threads every microsecond:
        # work buffers that outlived a call, or were shared between calls,
        # would mix the sweeps' particles and change the tallies
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 2)
        cases = []
        for table, seed in ((hexagon_table, 3), (scalene_table, 5)):
            geom = table()
            cases.append((sample_ensemble(geom, 4001, seed=seed), geom, (0.0, 1.25, 3.5, 9.0)))
        want = [tallies(*case) for case in cases]
        start = threading.Barrier(len(cases))
        got = [None] * len(cases)
        errors = []

        def run(i):
            try:
                start.wait(timeout=30)
                got[i] = tallies(*cases[i])
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for rows, expected in zip(got, want):
            assert same_tallies(rows, expected)

    def test_small_ensembles_run_whole(self):
        assert _kernels._sweep_workers(300) == 1
        assert _kernels._sweep_workers(0) == 1
        assert 1 <= _kernels._sweep_workers(10**7) <= os.cpu_count()


class TestRunBlocks:
    """The one runner of the threaded kernels: workers pull consecutive
    chunks in index order, and the results come back in that order."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_cover_the_range_once_and_return_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: workers)
        lock = threading.Lock()
        ran, threads, made = [], set(), []

        def worker():
            # each worker makes its work once, and only that worker runs it
            mine = threading.current_thread()
            with lock:
                made.append(mine)

            def work(lo, hi):
                assert threading.current_thread() is mine
                # early chunks take longest, so later ones finish first
                time.sleep(0.001 * (10 - lo))
                with lock:
                    ran.append((lo, hi))
                    threads.add(mine)
                return lo, hi

            return work

        got = _kernels._run_blocks(10, 3, worker)
        assert got == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert sorted(ran) == got
        assert threading.current_thread() in threads and len(threads) <= workers
        assert len(made) == len(set(made)) == min(workers, 4) and threads <= set(made)

    def test_one_chunk_per_worker(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 3)
        ran = []
        _kernels._run_blocks(10, 4, lambda: lambda lo, hi: ran.append((lo, hi)))
        assert sorted(ran) == [(0, 4), (4, 8), (8, 10)]

    @pytest.mark.parametrize("failing", [0, 2])
    def test_errors_reach_the_caller_and_stop_every_worker(self, monkeypatch, failing):
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 3)
        ran = []

        def work(lo, hi):
            ran.append(lo)
            if lo == 3 * failing:
                time.sleep(0.02)
                raise FloatingPointError(f"chunk {lo} failed")
            # the other workers are still in their first chunk when it fails
            time.sleep(0.05)
            return lo

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="failed"):
            _kernels._run_blocks(30, 3, lambda: work)
        assert threading.active_count() == before
        # no worker pulls a chunk once the error is in
        assert 3 * failing in ran and len(ran) == len(set(ran)) <= failing + 3
