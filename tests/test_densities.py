import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from honestflow import _kernels, densities
from honestflow import (
    Billiard,
    IntervalUnion,
    ParticleEnsemble,
    PiecewiseDensity,
    ReboundCounts,
    StepFunction,
    VelocitySpec,
    free_stream,
    restrict,
    sample_ensemble,
    sample_ladder_positions,
    transport_counts_times,
    transport_ensemble,
)


class TestPiecewiseDensity:
    def test_from_pieces_and_mass(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.5, 2.0), (2.25, 2.75, 1.0)])
        assert f.mass() == pytest.approx(1.5, abs=1e-15)
        assert f.indices() == [0, 1]
        assert f(0.25, unit_ladder) == 2.0
        assert f(2.5, unit_ladder) == 1.0
        assert f(1.5, unit_ladder) == 0.0  # gap point

    def test_from_pieces_rejects_outside(self, unit_ladder):
        with pytest.raises(ValueError):
            PiecewiseDensity.from_pieces(unit_ladder, [(1.25, 1.75, 1.0)])  # in a gap
        with pytest.raises(ValueError):
            PiecewiseDensity.from_pieces(unit_ladder, [(0.5, 2.5, 1.0)])  # spans intervals
        with pytest.raises(ValueError):
            PiecewiseDensity.from_pieces(unit_ladder, [(0.8, 0.2, 1.0)])  # empty

    def test_from_pieces_keeps_a_piece_one_ulp_wide(self, unit_ladder):
        ulp = math.nextafter(0.3, 1.0)
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.3, 0.1), (0.3, ulp, 2.0)])
        assert f.part(0) == StepFunction([0.0, 0.3, ulp], [0.1, 2.0])
        assert f(0.3, unit_ladder) == 2.0

    def test_accepts_left_endpoint(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(2.0, 2.5, 1.0)])
        assert f.mass() == pytest.approx(0.5)

    def test_linear_ops(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0)])
        g = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.5, 1.0)])
        assert (f - g).mass() == pytest.approx(0.5)
        assert f.scale(2.0).mass() == pytest.approx(2.0)
        assert f.l1_distance(g) == pytest.approx(0.5)
        assert (f - f).mass() == 0.0

    def test_restrict(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0), (2.0, 3.0, 2.0)])
        assert restrict(f, 1).mass() == pytest.approx(2.0)
        assert restrict(f, 5).mass() == 0.0

    def test_to_rows(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.5, 2.0)])
        assert f.to_rows() == [(0, 0.0, 0.5, 2.0)]


class TestFreeStream:
    def test_drift_within_interval(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0)])
        g = free_stream(f, 0.4, unit_ladder)
        # block moved right by 0.4 and lost the part beyond b_0 = 1
        assert g(0.3, unit_ladder) == 0.0
        assert g(0.5, unit_ladder) == 1.0
        assert g.mass() == pytest.approx(0.6, abs=1e-15)

    def test_no_reentry(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0)])
        assert free_stream(f, 1.5, unit_ladder).mass() == 0.0

    def test_zero_time_identity(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.25, 0.75, 3.0)])
        assert free_stream(f, 0.0, unit_ladder) == f

    def test_negative_time_rejected(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            free_stream(f, -0.1, unit_ladder)


def small_disk():
    return Billiard("disk", center=(0.0, 0.0), radius=1.0,
                    velocities=VelocitySpec("speeds", speeds=(1.0,)))


class TestEnsemble:
    def test_sampling_deterministic(self):
        disk = small_disk()
        e1 = sample_ensemble(disk, 500, seed=7)
        e2 = sample_ensemble(disk, 500, seed=7)
        assert np.array_equal(e1.pos, e2.pos)
        assert np.array_equal(e1.vel, e2.vel)
        e3 = sample_ensemble(disk, 500, seed=8)
        assert not np.array_equal(e1.pos, e3.pos)

    def test_sampling_inside_with_unit_speeds(self):
        disk = small_disk()
        ens = sample_ensemble(disk, 2000, seed=1)
        assert np.all(np.hypot(ens.pos[:, 0], ens.pos[:, 1]) < 1.0)
        assert np.allclose(ens.speeds(), 1.0, atol=1e-14)
        assert ens.mass() == pytest.approx(1.0, abs=1e-12)

    def test_annulus_speeds_in_band(self):
        disk = Billiard("disk", center=(0.0, 0.0), radius=1.0,
                        velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))
        ens = sample_ensemble(disk, 2000, seed=3)
        sp = ens.speeds()
        assert sp.min() >= 0.5 - 1e-12
        assert sp.max() <= 2.0 + 1e-12

    def test_region_sampling(self):
        disk = small_disk()
        ens = sample_ensemble(disk, 1000, seed=2, region="disk:0.2,0.0,0.3")
        r = np.hypot(ens.pos[:, 0] - 0.2, ens.pos[:, 1])
        assert np.all(r < 0.3)
        ens = sample_ensemble(disk, 1000, seed=2, region="box:-0.3,-0.3,0.3,0.3")
        assert np.all(np.abs(ens.pos) < 0.3 + 1e-12)

    def test_region_outside_rejected(self):
        tiny_disk = Billiard("disk", center=(0.0, 0.0), radius=1e-70,
                             velocities=VelocitySpec("speeds", speeds=(1e-70,)))
        tiny_triangle = Billiard("polygon", vertices=((0.0, 0.0), (1e-60, 0.0), (0.0, 1e-60)),
                                 velocities=VelocitySpec("speeds", speeds=(1.0,)))
        # the wall slack scales with the table: far outside a tiny one
        for geom, region in ((small_disk(), "box:-2,-2,2,2"),
                             (small_disk(), "disk:0,0,1.00000000001"),
                             (tiny_disk, "disk:0,0,1e-12"),
                             (tiny_disk, "disk:0,0,1.00000000001e-70"),
                             (tiny_triangle, "disk:5e-13,5e-13,1e-13")):
            with pytest.raises(ValueError, match="does not sit inside"):
                sample_ensemble(geom, 10, seed=0, region=region)
        # touching the wall up to rounding is inside, whatever the size
        for region in ("disk:0,0,1e-70", "disk:0,0,1.0000000000001e-70"):
            ens = sample_ensemble(tiny_disk, 10, seed=0, region=region)
            assert np.all(np.hypot(ens.pos[:, 0], ens.pos[:, 1]) < 1.000001e-70)
        sample_ensemble(small_disk(), 10, seed=0, region="disk:0,0,1.0000000000001")

    def test_rebound_histogram_and_tails(self):
        disk = small_disk()
        ens = transport_ensemble(sample_ensemble(disk, 3000, seed=5), 3.0, disk)
        hist = ens.rebound_histogram()
        tails = ens.tail_weights()
        assert hist.sum() == pytest.approx(ens.mass(), abs=1e-12)
        # tails[n] = weight with more than n rebounds: complementary cumulative
        assert tails[0] == pytest.approx(ens.mass() - hist[0], abs=1e-12)
        assert np.all(np.diff(tails) <= 1e-15)
        assert tails[-1] == 0.0

    def test_counts_are_a_view_with_one_histogram(self):
        disk = small_disk()
        ens = transport_ensemble(sample_ensemble(disk, 500, seed=5), 3.0, disk)
        counts = ens.counts
        assert isinstance(counts, ReboundCounts)
        for name in ("weight", "rebounds", "degenerate"):
            assert getattr(counts, name) is getattr(ens, name)
        hist = counts.rebound_histogram()
        assert counts.rebound_histogram() is hist and not hist.flags.writeable
        assert np.array_equal(hist, ens.rebound_histogram())
        assert np.array_equal(counts.tail_weights(), ens.tail_weights())
        assert np.array_equal(counts.tail_weights(40), ens.tail_weights(40))
        assert len(counts) == len(ens) == 500
        assert counts.mass() == ens.mass()
        assert counts.max_rebounds() == int(ens.rebounds.max())
        ens.degenerate[:7] = True
        assert counts.degenerate_weight() == float(ens.weight[:7].sum())

    def test_empty_counts(self):
        counts = ReboundCounts(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        assert np.array_equal(counts.rebound_histogram(), [0.0])
        assert np.array_equal(counts.tail_weights(), [0.0])
        assert counts.max_rebounds() == 0 and counts.mass() == 0.0

    def test_transport_conserves_weight_and_speed(self):
        disk = small_disk()
        ens0 = sample_ensemble(disk, 3000, seed=11)
        ens = transport_ensemble(ens0, 7.0, disk)
        assert ens.mass() == pytest.approx(ens0.mass(), abs=1e-13)
        assert np.allclose(ens.speeds(), 1.0, atol=1e-12)
        assert np.all(np.hypot(ens.pos[:, 0], ens.pos[:, 1]) <= 1.0 + 1e-9)
        assert not np.array_equal(ens.pos, ens0.pos)
        # input untouched
        assert ens0.rebounds.max() == 0

    def test_transport_scale_reduces_weight(self):
        disk = small_disk()
        ens0 = sample_ensemble(disk, 1000, seed=13)
        damped = transport_ensemble(ens0, 5.0, disk, scale=0.5)
        full = transport_ensemble(ens0, 5.0, disk, scale=1.0)
        assert damped.mass() < full.mass()
        # weight = scale^rebounds exactly
        want = ens0.weight * 0.5 ** full.rebounds
        assert np.allclose(damped.weight, want, rtol=0, atol=1e-17)


def off_centre_disk():
    return Billiard("disk", center=(0.3, -0.7), radius=2.5,
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


def small_square():
    return Billiard("polygon", vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


STATE = ("pos", "vel", "weight", "rebounds", "degenerate")


def views(ens):
    """The state source of a held ensemble: views of its slices."""
    return lambda lo, hi: (ens.pos[lo:hi, 0], ens.pos[lo:hi, 1],
                           ens.vel[lo:hi, 0], ens.vel[lo:hi, 1])


def transported(ens, geom, t, scale):
    """A copy of ``ens`` moved by ``billiard_transport`` itself."""
    moved = ens.copy()
    _kernels.billiard_transport(moved.pos, moved.vel, moved.weight, moved.rebounds,
                                moved.degenerate, geom, t, scale=scale)
    return moved


class TestTransportTimes:
    @pytest.mark.parametrize("table", [small_square, small_disk])
    def test_snapshots_equal_separate_transports(self, table):
        geom = table()
        ens = sample_ensemble(geom, 500, seed=12)
        times = (5.0, 0.0, 2.5, 5.0)
        got = list(transport_counts_times(ens, times, geom, 0.9))
        assert [t for t, _ in got] == [0.0, 2.5, 5.0]
        assert got[-1][1].rebounds.max() > 3
        refs = [transport_ensemble(ens, t, geom, scale=0.9) for t, _ in got]
        for (_, counts), ref in zip(got, refs):
            for name in ("weight", "rebounds", "degenerate"):
                assert np.array_equal(getattr(counts, name), getattr(ref, name))

    def test_polygon_sweeps_are_bounded(self, monkeypatch):
        geom = small_square()
        ens = sample_ensemble(geom, 100, seed=12)
        times = (0.0, 0.7, 1.5, 2.5, 4.0, 5.0, 7.25)
        whole = list(transport_counts_times(ens, times, geom, 0.9))
        sweeps = []
        sweep = _kernels.polygon_counts

        def counted(*args):
            counts = sweep(*args)
            sweeps.append(counts[0].shape[0])
            return counts

        monkeypatch.setattr(_kernels, "polygon_counts", counted)
        monkeypatch.setattr(densities, "SWEEP_STATES", 300)
        grouped = list(transport_counts_times(ens, times, geom, 0.9))
        assert sweeps == [3, 3, 1]
        assert [t for t, _ in grouped] == [t for t, _ in whole] == list(times)
        for (t, a), (_, b) in zip(grouped, whole):
            ref = transport_ensemble(ens, t, geom, scale=0.9)
            for name in ("weight", "rebounds", "degenerate"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
                assert np.array_equal(getattr(a, name), getattr(ref, name))
        # the rows of one group view one sweep
        assert grouped[0][1].weight.base is grouped[2][1].weight.base is not None
        assert grouped[3][1].weight.base is not grouped[2][1].weight.base

    def test_polygon_group_size(self, monkeypatch):
        # at 25 bytes per state a sweep of 10^5 particles takes 20 times,
        # about 50 MB; the groups are counted, not swept
        ens = sample_ensemble(small_square(), 100_000, seed=1)
        sweeps = []

        def counted(pos, vel, weight, rebounds, degenerate, geom, times, scale):
            sweeps.append(len(times))
            return tuple(np.broadcast_to(a, (len(times), len(a)))
                         for a in (weight, rebounds, degenerate))

        monkeypatch.setattr(_kernels, "polygon_counts", counted)
        times = np.arange(1, 26) * 0.5
        assert len(list(transport_counts_times(ens, times, small_square()))) == 25
        assert sweeps == [20, 5]
        assert 20 * len(ens) <= densities.SWEEP_STATES < 21 * len(ens)

    @pytest.mark.parametrize("scale", [0.9, 1.0])
    def test_disk_counts_equal_separate_transports(self, monkeypatch, scale):
        geom = off_centre_disk()
        cx, cy = geom.center
        ens = sample_ensemble(geom, 500, seed=12)
        # tangent to the circle at (cx, cy + R), reached after unit time
        ens.pos[0] = (cx - 1.0, cy + geom.radius)
        ens.vel[0] = (1.0, 0.0)
        # from the centre the wall is exactly 2.5 away; on it, moving out,
        # no time at all
        ens.pos[1] = geom.center
        ens.vel[1] = (1.0, 0.0)
        ens.pos[2] = (cx + geom.radius, cy)
        ens.vel[2] = (1.0, 0.0)
        ens.degenerate[4] = True
        # several slices, the last one short
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 64)
        times = (5.0, 0.0, 0.5, 2.5, 5.0, 9.0)
        # the tangent start lies outside the table: transport_counts_times
        # refuses it, and the kernel it calls counts whatever it is given
        with pytest.raises(ValueError, match="particle 0 "):
            transport_counts_times(ens, times, geom, scale)
        steps = _kernels.disk_counts(views(ens), ens.weight, ens.rebounds, ens.degenerate, geom,
                                     times, scale)
        got = list(zip(_kernels.distinct_times(times), (ReboundCounts(*a) for a in steps)))
        assert [t for t, _ in got] == [0.0, 0.5, 2.5, 5.0, 9.0]
        assert got[-1][1].rebounds.max() > 3
        assert [bool(c.degenerate[0]) for _, c in got] == [False, False, True, True, True]
        assert [int(c.rebounds[1]) for _, c in got] == [0, 0, 1, 1, 2]
        assert got[0][1].rebounds[2] == 0 and got[1][1].rebounds[2] > 0
        for t, counts in got:
            ref = transported(ens, geom, t, scale)
            assert isinstance(counts, ReboundCounts)
            for name in ("weight", "rebounds", "degenerate"):
                assert np.array_equal(getattr(counts, name), getattr(ref, name))
            assert counts.rebounds[4] == 0 and counts.degenerate[4]
        assert ens.rebounds.max() == 0 and ens.degenerate.sum() == 1

    def test_disk_counts_obey_the_reflection_cap(self, monkeypatch):
        geom = off_centre_disk()
        ens = sample_ensemble(geom, 300, seed=4)
        times = (2.0, 6.0)
        monkeypatch.setattr(_kernels, "ITER_CAP", 3)
        steps = _kernels.disk_counts(views(ens), ens.weight, ens.rebounds, ens.degenerate, geom,
                                     times, 0.7)
        for t, (weight, rebounds, degenerate) in zip(times, steps):
            ref = transported(ens, geom, t, 0.7)
            assert np.array_equal(weight, ref.weight)
            assert np.array_equal(rebounds, ref.rebounds)
            assert np.array_equal(degenerate, ref.degenerate)
        assert degenerate.any() and not degenerate.all()
        assert rebounds.max() == 3

    def test_polygon_counts_view_the_sweep(self):
        geom = small_square()
        ens = sample_ensemble(geom, 300, seed=12)
        times = (0.0, 2.5, 2.5, 5.0)
        rows = _kernels.polygon_counts(ens.pos, ens.vel, ens.weight, ens.rebounds,
                                       ens.degenerate, geom, times, 0.9)
        got = list(transport_counts_times(ens, times, geom, 0.9))
        assert [t for t, _ in got] == [0.0, 2.5, 5.0]
        for k, (_, counts) in enumerate(got):
            assert isinstance(counts, ReboundCounts)
            for name, row in zip(("weight", "rebounds", "degenerate"), rows):
                assert np.array_equal(getattr(counts, name), row[k])
        # views of one sweep's snapshot rows
        assert got[0][1].weight.base is got[2][1].weight.base is not None

    @pytest.mark.parametrize("table", [small_square, small_disk])
    @pytest.mark.parametrize("t", [-1.0, float("inf"), float("nan")])
    def test_bad_time_rejected(self, table, t):
        geom = table()
        ens = sample_ensemble(geom, 10, seed=1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transport_counts_times(ens, (1.0, t), geom)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transport_ensemble(ens, t, geom)


def far_triangle():
    # coordinates near 10^6 on a table of size 3: rounding of every position
    # is about 10^-10, far above 10^-12 of the table's size
    return Billiard("polygon", vertices=((1e6, 0.0), (1e6 + 3.0, 0.0), (1e6 + 0.7, 1.9)),
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


class TestStatesOutsideTheTable:
    """A particle outside the table is refused, naming its index, by both
    transports; states on the wall pass, every transported state included."""

    @pytest.mark.parametrize("table, pos, vel", [
        (small_square, (2.0, 0.5), (-1.0, 0.1)),
        (small_disk, (2.0, 0.0), (-1.0, 0.0)),
        (off_centre_disk, (0.3, 1.8 + 1e-11), (1.0, 0.0)),
        (far_triangle, (1e6 + 1.0, -1e-5), (0.0, 1.0)),
    ])
    def test_outside_particle_refused(self, table, pos, vel):
        geom = table()
        ens = sample_ensemble(geom, 20, seed=3)
        ens.pos[7] = pos
        ens.vel[7] = vel
        ens.pos[11] = (math.nan, 0.0)
        with pytest.raises(ValueError, match=r"^particle 7 at .* lies outside the table"):
            transport_ensemble(ens, 3.0, geom)
        with pytest.raises(ValueError, match=r"^particle 7 at .* lies outside the table"):
            transport_counts_times(ens, (1.0, 3.0), geom)
        # a position that is not a number is refused too
        ens.pos[7] = ens.pos[0]
        with pytest.raises(ValueError, match=r"^particle 11 at \[nan, 0.0\]"):
            transport_ensemble(ens, 3.0, geom)

    @pytest.mark.parametrize("table", [small_square, small_disk, off_centre_disk, far_triangle])
    def test_wall_states_pass(self, table):
        geom = table()
        ens = sample_ensemble(geom, 2000, seed=5)
        # a vertex, or the top of the circle, and a step outside within the
        # slack
        if geom.shape == "disk":
            cx, cy = geom.center
            ens.pos[0] = (cx, cy + geom.radius)
            ens.pos[1] = (cx, cy - geom.radius * (1.0 + 1e-13))
        else:
            ens.pos[0] = geom.vertices[1]
            ens.pos[1] = (geom.vertices[1][0] - 1.0, -1e-13)
        for t in (0.0, 0.5, 3.0, 7.25):
            moved = transport_ensemble(ens, t, geom, scale=0.9)
            again = transport_ensemble(moved, 1.0, geom, scale=0.9)
            assert again.rebounds.sum() > moved.rebounds.sum()
            assert len(list(transport_counts_times(moved, (0.5, 1.0), geom))) == 2


def three_speed_disk():
    return Billiard("disk", center=(-1.0, 2.0), radius=1.5,
                    velocities=VelocitySpec("speeds", speeds=(0.5, 1.0, 3.0)))


# (table, region): every region kind, both velocity specs
CHORD_CASES = [
    (small_disk, "domain"),
    (off_centre_disk, "disk:0.8,-0.2,1.1"),
    (three_speed_disk, "box:-1.5,1.25,-0.25,2.5"),
]


def sampled_chords(geom, n, seed, region):
    """The chords of the particles ``sample_ensemble`` would draw, straight
    from the sampler's draws."""
    cx, cy = geom.center
    draw = densities._state_sampler(geom, n, seed, region)
    return _kernels._disk_chord_blocks(draw, n, cx, cy, geom.radius)


def same_arrays(got, want):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestDiskChords:
    """A disk sampled straight into chords: each slice of indices is drawn,
    reduced to its chords and dropped, and the chords are bitwise those of
    the sampled ensemble, for any slicing and any number of blocks."""

    @pytest.mark.parametrize("case", range(len(CHORD_CASES)))
    @pytest.mark.parametrize("n", [1000, _kernels.DISK_CHUNK, 2 * _kernels.DISK_CHUNK + 777])
    def test_chords_are_the_sampled_ensembles(self, monkeypatch, case, n):
        table, region = CHORD_CASES[case]
        geom = table()
        cx, cy = geom.center
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
        ens = sample_ensemble(geom, n, seed=2024, region=region)
        want = _kernels._disk_chord_blocks(views(ens), n, cx, cy, geom.radius)
        assert np.all(np.isfinite(want[0])) and want[2].min() > 0.0
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_sweep_workers", lambda n, w=workers: w)
            assert same_arrays(sampled_chords(geom, n, 2024, region), want)

    @pytest.mark.parametrize("scale", [0.7, 1.0])
    def test_counts_are_the_sampled_ensembles(self, scale):
        geom = off_centre_disk()
        ens = sample_ensemble(geom, 3000, seed=31, region="box:0,-1,1.5,0")
        times = (5.0, 0.0, 0.5, 2.5, 5.0, 9.0)
        counts0, got = densities.sample_disk_counts(geom, 3000, 31, "box:0,-1,1.5,0", times,
                                                    scale)
        assert same_arrays((counts0.weight, counts0.rebounds, counts0.degenerate),
                           (ens.weight, ens.rebounds, ens.degenerate))
        want = list(transport_counts_times(ens, times, geom, scale))
        got = list(got)
        assert [t for t, _ in got] == [t for t, _ in want] == [0.0, 0.5, 2.5, 5.0, 9.0]
        assert got[-1][1].rebounds.max() > 3
        for (_, a), (_, b) in zip(got, want):
            assert same_arrays((a.weight, a.rebounds, a.degenerate),
                               (b.weight, b.rebounds, b.degenerate))

    def test_bad_requests_rejected(self):
        with pytest.raises(ValueError, match="disk"):
            densities.sample_disk_counts(small_square(), 10, 1, "domain", (1.0,), 1.0)
        with pytest.raises(ValueError, match="positive"):
            densities.sample_disk_counts(small_disk(), 0, 1, "domain", (1.0,), 1.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            densities.sample_disk_counts(small_disk(), 10, 1, "domain", (1.0, -1.0), 1.0)
        bare = Billiard("disk", center=(0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError, match="velocity spec"):
            densities.sample_disk_counts(bare, 10, 1, "domain", (1.0,), 1.0)

    def test_many_workers_under_frequent_switches(self, monkeypatch):
        # eight blocks on fewer cores, the interpreter switching threads
        # every microsecond: a slice lost or written twice changes the bytes
        geom = off_centre_disk()
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
        want = sampled_chords(geom, 20_011, 8, "domain")
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sampled_chords(geom, 20_011, 8, "domain")
        finally:
            sys.setswitchinterval(interval)
        assert same_arrays(got, want)

    def test_worker_errors_propagate(self, monkeypatch):
        wall = _kernels._disk_wall

        def failing(x, *args):
            # only the last block, which runs on a thread of its own, fails
            if x.shape[0] == 101:
                raise FloatingPointError("block failed")
            return wall(x, *args)

        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 3)
        monkeypatch.setattr(_kernels, "_disk_wall", failing)
        with pytest.raises(FloatingPointError, match="block failed"):
            densities.sample_disk_counts(small_disk(), 301, 5, "domain", (1.0,), 1.0)


def hexagon():
    ang = [k * math.pi / 3 for k in range(6)]
    return Billiard("polygon", vertices=tuple((math.cos(a), math.sin(a)) for a in ang),
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


def rows_of(trajectory):
    return [counts for _, counts in trajectory]


def assert_read_only(weight):
    assert not weight.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        weight[0] = 1.0


class TestSharedWeights:
    """At scale 1 no weight changes: every time of a trajectory holds one
    shared read-only weight array, never the caller's writable one.  Below 1
    every time holds weights of its own."""

    TIMES = (0.0, 1.0, 4.0)

    def test_sampled_disk_times_hold_the_initial_weights(self):
        counts0, trajectory = densities.sample_disk_counts(small_disk(), 3000, 5, "domain",
                                                           self.TIMES, 1.0)
        rows = rows_of(trajectory)
        assert rows[-1].rebounds.max() > 0
        for counts in rows:
            assert counts.weight is counts0.weight
        assert_read_only(counts0.weight)

    @pytest.mark.parametrize("table", [small_disk, hexagon])
    def test_trajectory_holds_one_read_only_copy(self, table):
        geom = table()
        ens = sample_ensemble(geom, 3000, seed=5)
        want = ens.weight.copy()
        trajectory = transport_counts_times(ens, self.TIMES, geom)
        # after the call, and before a polygon's lazy sweep runs
        ens.weight[:] = 7.0
        rows = rows_of(trajectory)
        ens.weight[:] = 9.0
        assert rows[-1].rebounds.max() > 0
        for counts in rows:
            assert np.shares_memory(counts.weight, rows[0].weight)
            assert not np.shares_memory(counts.weight, ens.weight)
            assert np.array_equal(counts.weight, want)
            assert_read_only(counts.weight)
        # the ensemble itself stays writable
        assert all(getattr(ens, name).flags.writeable for name in STATE)

    def test_polygon_rows_broadcast_the_input_weights(self):
        geom = hexagon()
        ens = sample_ensemble(geom, 300, seed=5)
        weight, rebounds, _ = _kernels.polygon_counts(*(getattr(ens, name) for name in STATE),
                                                      geom, self.TIMES, 1.0)
        assert rebounds[-1].max() > 0
        assert weight.shape == (3, 300)
        for row in weight:
            assert np.shares_memory(row, weight[0]) and np.shares_memory(row, ens.weight)
            assert np.array_equal(row, ens.weight)
            assert_read_only(row)
        assert ens.weight.flags.writeable

    def test_sampled_ensembles_stay_writable(self):
        for table in (small_disk, hexagon):
            ens = sample_ensemble(table(), 10, seed=1)
            assert all(getattr(ens, name).flags.writeable for name in STATE)

    @pytest.mark.parametrize("table", [off_centre_disk, hexagon])
    def test_scaled_times_hold_weights_of_their_own(self, table):
        geom = table()
        ens = sample_ensemble(geom, 3000, seed=5)
        trajectories = [transport_counts_times(ens, self.TIMES, geom, 0.7)]
        if geom.shape == "disk":
            trajectories.append(
                densities.sample_disk_counts(geom, 3000, 5, "domain", self.TIMES, 0.7)[1])
        for rows in map(rows_of, trajectories):
            for k, (t, counts) in enumerate(zip(self.TIMES, rows)):
                ref = transported(ens, geom, t, 0.7)
                assert same_arrays((counts.weight, counts.rebounds, counts.degenerate),
                                   (ref.weight, ref.rebounds, ref.degenerate))
                assert not np.shares_memory(counts.weight, ens.weight)
                assert not any(np.shares_memory(counts.weight, other.weight)
                               for other in rows[k + 1:])
            assert rows[-1].weight.min() < rows[0].weight.min()


def edge_disk():
    return Billiard("disk", center=(0.0, 0.0), radius=1.0,
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


class TestStreamingCountSteps:
    """The disk count step runs every particle through one masked pass; the
    lanes it masks (no first hit, a zero chord period, a cap) raise no
    floating-point warning and come out bitwise the full-state kernel's."""

    TIMES = (0.0, 1.0, 1.5, 6.0)

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_masked_lanes_match_the_full_state_kernel(self, monkeypatch, scale):
        geom = edge_disk()
        ens = sample_ensemble(geom, 200, seed=21)
        # input-degenerate: its first hit is at s0 = inf
        ens.degenerate[3] = True
        # tangent at (0, 1) after unit time: a graze with tau exactly 0, at
        # t = 1 dividing 0 by 0 and later 1 by 0
        ens.pos[5], ens.vel[5] = (-1.0, 1.0), (1.0, 0.0)
        # on the wall and tangent to it: a graze at s0 = 0
        ens.pos[6], ens.vel[6] = (0.0, 1.0), (1.0, 0.0)
        # on the wall moving out: a hit at s0 = 0, which t = 0 leaves alone
        ens.pos[7], ens.vel[7] = (1.0, 0.0), (1.0, 0.0)
        monkeypatch.setattr(_kernels, "ITER_CAP", 3)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = list(_kernels.disk_counts(views(ens), ens.weight, ens.rebounds,
                                              ens.degenerate, geom, self.TIMES, scale))
            refs = [transported(ens, geom, t, scale) for t in self.TIMES]
        for (weight, rebounds, degenerate), ref in zip(steps, refs):
            assert same_arrays((weight, rebounds, degenerate),
                               (ref.weight, ref.rebounds, ref.degenerate))
        flags = np.array([d for _, _, d in steps])
        counts = np.array([n for _, n, _ in steps])
        assert flags[:, 3].all() and not counts[:, 3].any()
        assert flags[:, 5].tolist() == [False, True, True, True]
        assert flags[:, 6].tolist() == [False, True, True, True]
        assert counts[:, 7].tolist()[:2] == [0, 1]
        # capped particles: flagged with ITER_CAP rebounds, the rest below it
        capped = flags[-1] & (counts[-1] == 3)
        assert capped.sum() > 10 and counts[-1].max() == 3
        assert np.flatnonzero(flags[0]).tolist() == [3]
        if scale == 1.0:
            assert all(weight is steps[0][0] for weight, _, _ in steps)


def test_count_steps_hold_nine_bytes_per_particle_and_time():
    # at scale 1 a time in hand costs 9 bytes per particle (a count and a
    # flag, the weight shared), 17 with a weight of its own.  Four times
    # held after the first, plus one slice's temporaries, read about 47
    # bytes per particle at 2^18 particles; 17-byte times read about 83
    n = 1 << 18
    _, trajectory = densities.sample_disk_counts(small_disk(), n, 7, "domain",
                                                 (0.5, 2.0, 5.0, 10.0, 20.0), 1.0)
    steps = iter(trajectory)
    first = next(steps)
    tracemalloc.start()
    try:
        held = list(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 56.0, peak / n
    assert len(held) == 4 and first[1].weight is held[-1][1].weight


class TestLadderSampling:
    def test_positions_follow_density(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 0.5, 1.0), (2.0, 3.0, 1.0)])
        xs, ks = sample_ladder_positions(f, unit_ladder, 40_000, seed=9)
        assert set(np.unique(ks)) == {0, 1}
        frac0 = np.mean(ks == 0)
        # a third of the mass sits in interval 0
        assert frac0 == pytest.approx(1.0 / 3.0, abs=3.0 / np.sqrt(40_000))
        assert np.all((xs >= 0.0) & (xs <= 3.0))

    def test_deterministic(self, unit_ladder):
        f = PiecewiseDensity.from_pieces(unit_ladder, [(0.0, 1.0, 1.0)])
        x1, k1 = sample_ladder_positions(f, unit_ladder, 100, seed=4)
        x2, k2 = sample_ladder_positions(f, unit_ladder, 100, seed=4)
        assert np.array_equal(x1, x2)
        assert np.array_equal(k1, k2)
