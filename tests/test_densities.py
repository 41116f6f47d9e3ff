import math
import sys
import threading
import time
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
        ens.degenerate[:7] = True
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
        assert counts.degenerate_weight() == float(ens.weight[ens.degenerate].sum()) > 0.0

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


def views_of(ens):
    """x, y, vx, vy of a held ensemble, as views of its columns."""
    return ens.pos[:, 0], ens.pos[:, 1], ens.vel[:, 0], ens.vel[:, 1]


def views(ens):
    """The state source of a held ensemble: its slices copied into the
    buffers given."""
    def states(lo, hi, out, work):
        for buf, column in zip(out, views_of(ens)):
            buf[:] = column[lo:hi]

    return states


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

    @pytest.mark.parametrize("table", [small_square, small_disk])
    def test_one_transport_per_time_on_fresh_copies(self, monkeypatch, table):
        # each time moves its own copies of the snapshot, in ascending order,
        # as it is iterated
        geom = table()
        ens = sample_ensemble(geom, 200, seed=12)
        calls = []
        transport = _kernels.billiard_transport

        def counted(*args, **kwargs):
            calls.append(args[6])
            return transport(*args, **kwargs)

        monkeypatch.setattr(_kernels, "billiard_transport", counted)
        trajectory = transport_counts_times(ens, (4.0, 0.0, 1.5, 4.0), geom, 0.9)
        assert calls == []
        got = [next(trajectory)]
        assert calls == [0.0]
        got += list(trajectory)
        assert calls == [t for t, _ in got] == [0.0, 1.5, 4.0]
        for t, counts in got:
            ref = transport_ensemble(ens, t, geom, scale=0.9)
            assert same_arrays((counts.weight, counts.rebounds, counts.degenerate),
                               (ref.weight, ref.rebounds, ref.degenerate))
        assert not any(np.shares_memory(a.rebounds, b.rebounds)
                       for k, (_, a) in enumerate(got) for _, b in got[k + 1:])

    @pytest.mark.parametrize("scale", [0.9, 1.0])
    def test_disk_special_states_at_every_time(self, monkeypatch, scale):
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
        # refuses it, and the kernel it runs moves whatever it is given
        with pytest.raises(ValueError, match="particle 0 "):
            transport_counts_times(ens, times, geom, scale)
        got = [(t, transported(ens, geom, t, scale)) for t in _kernels.distinct_times(times)]
        assert [t for t, _ in got] == [0.0, 0.5, 2.5, 5.0, 9.0]
        assert got[-1][1].rebounds.max() > 3
        assert [bool(c.degenerate[0]) for _, c in got] == [False, False, True, True, True]
        assert [int(c.rebounds[1]) for _, c in got] == [0, 0, 1, 1, 2]
        assert got[0][1].rebounds[2] == 0 and got[1][1].rebounds[2] > 0
        for _, moved in got:
            assert moved.rebounds[4] == 0 and moved.degenerate[4]
        assert ens.rebounds.max() == 0 and ens.degenerate.sum() == 1

    def test_disk_trajectory_obeys_the_reflection_cap(self, monkeypatch):
        geom = off_centre_disk()
        ens = sample_ensemble(geom, 300, seed=4)
        times = (2.0, 6.0)
        monkeypatch.setattr(_kernels, "ITER_CAP", 3)
        for t, counts in transport_counts_times(ens, times, geom, 0.7):
            ref = transported(ens, geom, t, 0.7)
            assert same_arrays((counts.weight, counts.rebounds, counts.degenerate),
                               (ref.weight, ref.rebounds, ref.degenerate))
        assert counts.degenerate.any() and not counts.degenerate.all()
        assert counts.rebounds.max() == 3

    @pytest.mark.parametrize("table", [small_square, small_disk])
    @pytest.mark.parametrize("t", [-1.0, float("inf"), float("nan")])
    def test_bad_time_rejected(self, table, t):
        geom = table()
        ens = sample_ensemble(geom, 10, seed=1)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transport_counts_times(ens, (1.0, t), geom)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transport_ensemble(ens, t, geom)


@pytest.mark.parametrize("entry", ["transport_ensemble", "transport_counts_times",
                                   "sample_counts"])
@pytest.mark.parametrize("scale", [0.0, -0.5, 1.5, math.inf, math.nan])
def test_scale_outside_the_unit_interval_refused(entry, scale):
    # the boundary operator has unit norm times a weight in (0, 1]; each
    # billiard entry point refuses any other weight at its call, before a
    # lazy trajectory is iterated.  Scale 1.5 once gave this disk mass 21.24
    # at t = 5, and NaN gave mass NaN or 0.0 depending on the lane
    geom = small_disk()
    ens = sample_ensemble(geom, 1000, seed=3)
    calls = {
        "transport_ensemble": lambda: transport_ensemble(ens, 5.0, geom, scale=scale),
        "transport_counts_times": lambda: transport_counts_times(ens, (5.0,), geom, scale),
        "sample_counts": lambda: densities.sample_counts(geom, 1000, 3, "domain", (5.0,), scale),
    }
    with pytest.raises(ValueError, match=r"^boundary weight scale must lie in \(0, 1\]$"):
        calls[entry]()


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


def same_arrays(got, want):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def same_rows(got, want):
    return len(got) == len(want) and all(same_arrays(a, b) for a, b in zip(got, want))


class TestDiskChords:
    """A disk's first hits and chords are computed once per particle, one
    slice at a time across workers: the tallies of held states, and a
    sampled disk's tallies, are the same bytes for any slicing and any
    number of workers, and reduce the held trajectory's counts."""

    TIMES = (0.0, 0.5, 2.5, 9.0)

    @pytest.mark.parametrize("case", range(len(CHORD_CASES)))
    @pytest.mark.parametrize("n", [1000, _kernels.DISK_CHUNK, 2 * _kernels.DISK_CHUNK + 777])
    def test_counts_do_not_depend_on_the_workers(self, monkeypatch, case, n):
        table, region = CHORD_CASES[case]
        geom = table()
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
        ens = sample_ensemble(geom, n, seed=2024, region=region)
        rows = rows_of(transport_counts_times(ens, self.TIMES, geom, 0.7))
        assert rows[-1].rebounds.max() > 2 and not rows[-1].degenerate.all()
        reduced = [reductions(counts, 0.7) for counts in rows]
        want = _kernels.disk_tallies(views(ens), n, geom, self.TIMES)
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_sweep_workers", lambda n, w=workers: w)
            assert same_rows(_kernels.disk_tallies(views(ens), n, geom, self.TIMES), want)
            _, trajectory = densities.sample_counts(geom, n, 2024, region, self.TIMES, 0.7)
            assert [tally_values(tally) for _, tally in trajectory] == reduced

    @pytest.mark.parametrize("scale", [0.7, 1.0])
    def test_initial_mass_is_the_sampled_ensembles(self, scale):
        geom = off_centre_disk()
        ens = sample_ensemble(geom, 3000, seed=31, region="box:0,-1,1.5,0")
        mass, got = densities.sample_counts(geom, 3000, 31, "box:0,-1,1.5,0",
                                                 (5.0, 0.0, 0.5), scale)
        assert isinstance(mass, float) and mass.hex() == ens.mass().hex()
        assert [t for t, _ in got] == [0.0, 0.5, 5.0]

    def test_bad_requests_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            densities.sample_counts(small_disk(), 0, 1, "domain", (1.0,), 1.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            densities.sample_counts(small_disk(), 10, 1, "domain", (1.0, -1.0), 1.0)
        bare = Billiard("disk", center=(0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError, match="velocity spec"):
            densities.sample_counts(bare, 10, 1, "domain", (1.0,), 1.0)

    def test_many_workers_under_frequent_switches(self, monkeypatch):
        # eight workers on fewer cores, the interpreter switching threads
        # every microsecond: a slice counted twice or not at all changes the
        # tallies
        geom = off_centre_disk()
        ens = sample_ensemble(geom, 20_011, seed=8)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
        want = _kernels.disk_tallies(views(ens), len(ens), geom, self.TIMES)
        assert want[-1][0].size > 3
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _kernels.disk_tallies(views(ens), len(ens), geom, self.TIMES)
        finally:
            sys.setswitchinterval(interval)
        assert same_rows(got, want)

    def test_worker_errors_propagate(self, monkeypatch):
        wall = _kernels._disk_wall

        def failing(x, *args):
            # only the last slice fails
            if x.shape[0] == 1:
                raise FloatingPointError("slice failed")
            return wall(x, *args)

        geom = small_disk()
        ens = sample_ensemble(geom, 301, seed=5)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 100)
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 3)
        monkeypatch.setattr(_kernels, "_disk_wall", failing)
        with pytest.raises(FloatingPointError, match="slice failed"):
            densities.sample_counts(geom, 301, 5, "domain", (1.0,), 1.0)
        # held states take the same pass
        with pytest.raises(FloatingPointError, match="slice failed"):
            _kernels.disk_tallies(views(ens), len(ens), geom, (1.0,))


def reductions(counts, scale=1.0):
    """What the reports read of a sampled ensemble's held counts, reduced
    here from the arrays, floats as their bits: the histogram, the
    degenerate weight, the mass and the largest rebound count.  At scale 1
    the two totals are the arrays' own sums; below 1 they are ``math.fsum``
    of their ``bincount`` bins, the formula of ``ReboundTally._from_counts``."""
    w, n, d = counts.weight, counts.rebounds, counts.degenerate
    hist = np.bincount(n, weights=w)
    if scale == 1.0:
        flagged, mass = float(w[d].sum()), float(w.sum())
    else:
        flagged = math.fsum(np.bincount(n[d], weights=w[d]).tolist())
        mass = math.fsum(hist.tolist())
    return hist.tobytes(), flagged.hex(), mass.hex(), int(n.max())


def tally_values(tally):
    """The same values, read through the report methods."""
    hist = tally.rebound_histogram()
    assert not hist.flags.writeable
    return (hist.tobytes(), tally.degenerate_weight().hex(), tally.mass().hex(),
            tally.max_rebounds())


class TestSampledTallies:
    """A sampled disk's trajectory yields, per time, the reductions of the
    counts ``transport_counts_times`` gives for the sampled ensemble, as
    ``reductions`` forms them, for any number of workers and any slicing."""

    TIMES = (5.0, 0.0, 0.5, 2.5, 5.0, 9.0)

    def expected(self, geom, n, seed, region, scale):
        ens = sample_ensemble(geom, n, seed=seed, region=region)
        return [(t, reductions(counts, scale))
                for t, counts in transport_counts_times(ens, self.TIMES, geom, scale)]

    def tallies(self, geom, n, seed, region, scale):
        _, trajectory = densities.sample_counts(geom, n, seed, region, self.TIMES, scale)
        return [(t, tally_values(tally)) for t, tally in trajectory]

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    @pytest.mark.parametrize("case", range(len(CHORD_CASES)))
    def test_tallies_are_the_reductions_of_the_counts(self, monkeypatch, case, scale, cap):
        table, region = CHORD_CASES[case]
        geom = table()
        if cap is not None:
            monkeypatch.setattr(_kernels, "ITER_CAP", cap)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        want = self.expected(geom, 3001, 44, region, scale)
        assert [t for t, _ in want] == [0.0, 0.5, 2.5, 5.0, 9.0]
        assert want[-1][1][3] > 2
        if cap is not None:
            # capped particles are flagged, so the degenerate weight counts
            assert float.fromhex(want[-1][1][1]) > 0.0
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_sweep_workers", lambda n, w=workers: w)
            assert self.tallies(geom, 3001, 44, region, scale) == want

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_one_pass_at_the_call_for_every_time(self, monkeypatch, scale):
        # the tallies hold integer counts alone, whatever the scale, so one
        # pass at the call counts every time
        geom = off_centre_disk()
        want = self.expected(geom, 600, 8, "domain", scale)
        passes = []
        tallies = _kernels.disk_tallies

        def counted(states, size, geom, times):
            passes.append(times.tolist())
            return tallies(states, size, geom, times)

        monkeypatch.setattr(_kernels, "disk_tallies", counted)
        _, trajectory = densities.sample_counts(geom, 600, 8, "domain", self.TIMES, scale)
        assert passes == [[0.0, 0.5, 2.5, 5.0, 9.0]]
        assert [(t, tally_values(tally)) for t, tally in trajectory] == want
        assert len(passes) == 1

    def test_many_workers_under_frequent_switches(self, monkeypatch):
        # eight workers on fewer cores, the interpreter switching threads
        # every microsecond: a slice's counts lost or added twice change the
        # bits
        geom = off_centre_disk()
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        want = self.expected(geom, 20_011, 8, "domain", 0.7)
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.tallies(geom, 20_011, 8, "domain", 0.7)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_a_failing_slice_stops_every_worker(self, monkeypatch):
        # a middle slice fails after the workers beside it have pulled the
        # slices behind it: every worker stops, and the error reaches the
        # caller
        sampler = densities._state_sampler

        def failing_sampler(*args):
            draw = sampler(*args)

            def states(lo, hi, *buffers):
                if lo == 5 * 256:
                    time.sleep(0.2)
                    raise FloatingPointError("slice failed")
                return draw(lo, hi, *buffers)

            return states

        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 3)
        monkeypatch.setattr(densities, "_state_sampler", failing_sampler)
        before = threading.active_count()
        raised = []

        def call():
            try:
                densities.sample_counts(small_disk(), 12 * 256, 5, "domain", (1.0, 3.0), 1.0)
            except FloatingPointError as exc:
                raised.append(exc)

        # a daemon caller makes daemon workers, so a worker left running
        # cannot keep the interpreter from exiting
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=10.0)
        assert not caller.is_alive(), "a worker failure left the pass running"
        assert [str(exc) for exc in raised] == ["slice failed"]
        assert threading.active_count() == before


def drawn(geom, n, seed, region):
    """x, y, vx, vy of particles 0..n-1 in one draw."""
    out = [np.empty(n) for _ in range(4)]
    densities._state_sampler(geom, n, seed, region)(0, n, out, [np.empty(n) for _ in range(4)])
    return out


@pytest.mark.parametrize("table", [small_square, off_centre_disk])
def test_sampled_states_do_not_depend_on_the_slices(monkeypatch, table):
    # sample_ensemble fills its states one slice at a time; every draw is
    # index-pure, so the bytes are those of one draw
    geom = table()
    n = 2000
    want = drawn(geom, n, 9, "domain")
    monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
    ens = sample_ensemble(geom, n, seed=9)
    assert same_arrays((ens.pos[:, 0], ens.pos[:, 1], ens.vel[:, 0], ens.vel[:, 1]), want)


def hexagon_with(velocities):
    ang = [k * math.pi / 3 for k in range(6)]
    return Billiard("polygon", vertices=tuple((math.cos(a), math.sin(a)) for a in ang),
                    velocities=velocities)


def hexagon():
    return hexagon_with(VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


def reference_states(geom, n, seed, region):
    """x, y, vx, vy of particles 0..n-1 by the sampler's expressions
    written as whole-array operations, each draw stream by uniform_array:
    streams 0, 1 and 2 place a particle, 3 picks its speed and 4 its
    direction."""
    idx = np.arange(n, dtype=np.int64)
    u = [_kernels.uniform_array(seed, idx, stream) for stream in range(5)]
    spec = densities._region_spec(region, geom)
    if spec[0] == "disk":
        _, cx, cy, rad = spec
        r, ang = rad * np.sqrt(u[0]), 2.0 * np.pi * u[1]
        x, y = cx + r * np.cos(ang), cy + r * np.sin(ang)
    elif spec[0] == "box":
        _, x0, y0, x1, y1 = spec
        x, y = x0 + (x1 - x0) * u[0], y0 + (y1 - y0) * u[1]
    else:
        # a fan of triangles from the first vertex, picked by area
        verts = np.array(geom.vertices)
        v0, rest = verts[0], verts[1:]
        areas = 0.5 * np.abs((rest[:-1, 0] - v0[0]) * (rest[1:, 1] - v0[1])
                             - (rest[1:, 0] - v0[0]) * (rest[:-1, 1] - v0[1]))
        cum = np.cumsum(areas) / areas.sum()
        tri = np.minimum(np.searchsorted(cum, u[0], side="right"), cum.size - 1)
        su = np.sqrt(u[1])
        a, b, c = 1.0 - su, su * (1.0 - u[2]), su * u[2]
        p1, p2 = rest[tri], rest[tri + 1]
        x = a * v0[0] + b * p1[:, 0] + c * p2[:, 0]
        y = a * v0[1] + b * p1[:, 1] + c * p2[:, 1]
    vs = geom.velocities
    if vs.kind == "speeds":
        speeds = np.array(vs.speeds)
        speed = speeds[np.minimum((u[3] * speeds.size).astype(np.int64), speeds.size - 1)]
    else:
        speed = np.sqrt(vs.speed_min**2 + u[3] * (vs.speed_max**2 - vs.speed_min**2))
    ang = 2.0 * np.pi * u[4]
    return x, y, speed * np.cos(ang), speed * np.sin(ang)


# (table, region) of every draw branch: the disk's domain with one speed,
# a disk region with a speed band, a box with several speeds, and a polygon
# with a speed band and with one speed
DRAW_CASES = [
    (small_disk, "domain"),
    (off_centre_disk, "disk:0.8,-0.2,1.1"),
    (three_speed_disk, "box:-1.5,1.25,-0.25,2.5"),
    (hexagon, "domain"),
    (lambda: Billiard("polygon", vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
                      velocities=VelocitySpec("speeds", speeds=(1.5,))), "domain"),
]


@pytest.mark.parametrize("case", range(len(DRAW_CASES)))
def test_in_place_draws_are_the_whole_array_expressions(monkeypatch, case):
    # the draw writes through work buffers, slice by slice, into the
    # ensemble's columns and into a sampled disk's buffers; every value is
    # bitwise the whole-array expression's, for sizes around the slice
    table, region = DRAW_CASES[case]
    geom = table()
    monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
    for n in (1, 255, 257, 1000):
        want = reference_states(geom, n, 2**63 + 5, region)
        ens = sample_ensemble(geom, n, seed=2**63 + 5, region=region)
        assert same_arrays((ens.pos[:, 0], ens.pos[:, 1], ens.vel[:, 0], ens.vel[:, 1]), want)
        draw = densities._state_sampler(geom, n, 2**63 + 5, region)
        for workers in (1, 3):
            monkeypatch.setattr(_kernels, "_sweep_workers", lambda n, w=workers: w)
            got = [np.full(n, np.nan) for _ in range(4)]

            def worker():
                # one worker's buffers serve every slice it draws
                work = [np.empty(256) for _ in range(4)]
                return lambda lo, hi: draw(lo, hi, [a[lo:hi] for a in got], work)

            _kernels._run_blocks(n, 256, worker)
            assert same_arrays(got, want), (n, workers)


def rows_of(trajectory):
    return [counts for _, counts in trajectory]


CHUNK = _kernels.DISK_CHUNK


COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 10**6]


def bincount_sum(count, weight):
    """count copies of weight, summed by np.bincount into one bin."""
    return np.bincount(np.zeros(count, dtype=np.int64), weights=np.full(count, weight),
                       minlength=1)[0]


class TestRepeatedSums:
    """A bin's weight in a sampled tally: the sum of c equal weights, added
    one at a time as ``np.bincount`` adds them, in one chunk of memory, for
    many counts in one pass."""

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("weight", [1.0 / 3.0, 1e-6, 0.8**5 / 7.0, 1.0 / 100_003])
    def test_bincount_bits(self, count, weight):
        got = densities._repeated_sums(np.array([count]), weight)
        assert got.dtype == np.float64 and got.shape == (1,)
        assert float(got[0]).hex() == float(bincount_sum(count, weight)).hex()

    @pytest.mark.parametrize("weight", [1.0 / 3.0, 0.8**5 / 7.0])
    def test_many_counts_in_one_pass(self, monkeypatch, weight):
        # the counts in any order and shape, some equal, on a small chunk
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        counts = np.array([[1000, 0, 256], [255, 1000, 3 * 256 + 5], [257, 1, 7]])
        want = [[float(bincount_sum(c, weight)).hex() for c in row] for row in counts.tolist()]
        got = densities._repeated_sums(counts, weight)
        assert [[x.hex() for x in row] for row in got.tolist()] == want

    def test_memory_is_one_chunk(self):
        # the chunk buffer, about 0.5 MB, and masks over the counts; the
        # whole row of a million weights would be 8 MB
        tracemalloc.start()
        try:
            densities._repeated_sums(np.array(COUNTS), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * CHUNK, peak


# (table, region) of the tally oracle: the disk, the hexagon, the square
TALLY_CASES = [
    (off_centre_disk, "box:0,-1,1.5,0"),
    (hexagon, "domain"),
    (small_square, "box:0.1,0.1,0.6,0.4"),
]


class TestTalliesFromCounts:
    """A sampled ensemble's tallies come from integer counts alone.  The
    oracle is the held rows path: ``ReboundCounts._tally`` of what
    ``transport_counts_times`` yields for the same sampled ensemble.  At
    scale 1 every field is its bits.  Below 1 the histogram is, and the
    mass and degenerate weight are ``math.fsum`` of their bins."""

    TIMES = (0.0, 0.5, 2.5, 9.0)

    def tallies(self, geom, n, seed, region, scale):
        return densities.sample_counts(geom, n, seed, region, self.TIMES, scale)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    @pytest.mark.parametrize("case", range(len(TALLY_CASES)))
    def test_tallies_are_the_held_rows(self, monkeypatch, case, scale, cap, workers):
        table, region = TALLY_CASES[case]
        geom = table()
        if cap is not None:
            monkeypatch.setattr(_kernels, "ITER_CAP", cap)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        ens = sample_ensemble(geom, 2001, seed=13, region=region)
        held = [(t, counts._tally) for t, counts in transport_counts_times(ens, self.TIMES, geom,
                                                                           scale)]
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: workers)
        mass, trajectory = self.tallies(geom, 2001, 13, region, scale)
        got = list(trajectory)
        assert mass.hex() == ens.mass().hex()
        assert [t for t, _ in got] == [t for t, _ in held] == list(self.TIMES)
        assert held[-1][1].max_rebounds() > 2
        if cap is not None:
            assert held[-1][1].degenerate_weight() > 0.0
        for (_, tally), (_, want) in zip(got, held):
            assert tally.size == want.size == 2001
            assert tally.histogram.tobytes() == want.histogram.tobytes()
            if scale == 1.0:
                assert tally.mass().hex() == want.mass().hex() == mass.hex()
                assert tally.degenerate_weight().hex() == want.degenerate_weight().hex()
        if scale != 1.0:
            for (t, tally), (_, counts) in zip(got, transport_counts_times(ens, self.TIMES, geom,
                                                                           scale)):
                w, n, d = counts.weight, counts.rebounds, counts.degenerate
                assert tally.mass() == math.fsum(tally.histogram.tolist())
                assert tally.degenerate_weight() == math.fsum(
                    np.bincount(n[d], weights=w[d]).tolist())
                # within rounding of the held sums
                assert tally.mass() == pytest.approx(float(w.sum()), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_weights_follow_each_lanes_law(self, monkeypatch, scale):
        # on either shape a particle with n rebounds weighs w0 * scale ** n:
        # every held weight is bitwise the weight the sampled tallies give
        # its count, and each bin's sum over its count is the histogram's bin
        seen = []
        from_counts = densities.ReboundTally._from_counts

        def spy(size, tallies, weights, mass=None):
            seen.append(weights)
            return from_counts(size, tallies, weights, mass)

        monkeypatch.setattr(densities.ReboundTally, "_from_counts", staticmethod(spy))
        for geom in (off_centre_disk(), hexagon()):
            ens = sample_ensemble(geom, 1500, seed=3)
            seen.clear()
            _, trajectory = self.tallies(geom, 1500, 3, "domain", scale)
            (weights,) = seen
            held = transport_counts_times(ens, self.TIMES, geom, scale)
            for (_, tally), (_, counts) in zip(trajectory, held, strict=True):
                assert counts.rebounds.max() < weights.size
                assert same_arrays((counts.weight,), (weights[counts.rebounds],))
                for k in np.unique(counts.rebounds).tolist():
                    c = np.sum(counts.rebounds == k)
                    assert bincount_sum(c, weights[k]) == tally.histogram[k]
            assert counts.rebounds.max() > 2


def refuse(*args):
    raise AssertionError("a pass ran for no times")


class Uncopied(np.ndarray):
    """An array whose copy() fails."""

    def copy(self, order="C"):
        raise AssertionError("an array was copied for no times")


class TestNoTimes:
    """No times give an empty trajectory, and no pass runs for them: not a
    sampled disk's, nor a sampled polygon's sweep; a held ensemble is not
    copied, and no transport runs."""

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_sampled_disk_runs_no_pass(self, monkeypatch, scale):
        monkeypatch.setattr(_kernels, "disk_tallies", refuse)
        mass, trajectory = densities.sample_counts(small_disk(), 300, 5, "domain", (), scale)
        assert list(trajectory) == []
        assert mass.hex() == sample_ensemble(small_disk(), 300, seed=5).mass().hex()

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_sampled_polygon_runs_no_sweep(self, monkeypatch, scale):
        monkeypatch.setattr(_kernels, "_sweep_block", refuse)
        mass, trajectory = densities.sample_counts(hexagon(), 300, 5, "domain", (), scale)
        assert list(trajectory) == []
        assert mass.hex() == sample_ensemble(hexagon(), 300, seed=5).mass().hex()

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    @pytest.mark.parametrize("table", [small_disk, hexagon])
    def test_held_trajectory_is_empty(self, monkeypatch, table, scale):
        geom = table()
        ens = sample_ensemble(geom, 300, seed=5)
        for name in ("billiard_transport", "_sweep_block", "_disk_slice"):
            monkeypatch.setattr(_kernels, name, refuse)
        for name in STATE:
            setattr(ens, name, getattr(ens, name).view(Uncopied))
        assert list(transport_counts_times(ens, (), geom, scale)) == []


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 8191, 8192, 8193, 10**6 + 3])
def test_initial_mass_is_the_sum_of_the_sampled_weights(n):
    # the mass sums one broadcast weight, with no array of weights: the
    # bits of the sampled ensemble's pairwise weight sum, at sizes around
    # the pairwise sum's unrolling and blocking
    mass, _ = densities.sample_counts(small_disk(), n, 5, "domain", (), 1.0)
    assert mass.hex() == float(np.full(n, 1.0 / n).sum()).hex()


def assert_read_only(weight):
    assert not weight.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        weight[0] = 1.0


class TestSharedWeights:
    """At scale 1 no weight changes: every time of a trajectory holds one
    shared read-only weight array, never the caller's writable one.  Below 1
    every time holds weights of its own."""

    TIMES = (0.0, 1.0, 4.0)

    def test_sampled_disk_tallies_read_the_initial_mass(self):
        mass, trajectory = densities.sample_counts(small_disk(), 3000, 5, "domain",
                                                        self.TIMES, 1.0)
        tallies = rows_of(trajectory)
        assert tallies[-1].max_rebounds() > 0
        for tally in tallies:
            assert tally.mass() == mass

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

    @pytest.mark.parametrize("table", [off_centre_disk, hexagon])
    def test_transport_writes_no_weight_at_scale_1(self, table):
        # so every time of a trajectory can share one read-only array
        geom = table()
        ens = sample_ensemble(geom, 300, seed=5)
        ens.degenerate[::7] = True
        want = ens.weight.copy()
        ens.weight.flags.writeable = False
        for t in self.TIMES:
            moved = ParticleEnsemble(ens.pos.copy(), ens.vel.copy(), ens.weight,
                                     ens.rebounds.copy(), ens.degenerate.copy(), ens.seed)
            _kernels.billiard_transport(moved.pos, moved.vel, moved.weight, moved.rebounds,
                                        moved.degenerate, geom, t)
            assert moved.rebounds.max() > 0 or t == 0.0
        assert np.array_equal(ens.weight, want)

    def test_sampled_ensembles_stay_writable(self):
        for table in (small_disk, hexagon):
            ens = sample_ensemble(table(), 10, seed=1)
            assert all(getattr(ens, name).flags.writeable for name in STATE)

    @pytest.mark.parametrize("table", [off_centre_disk, hexagon])
    def test_scaled_times_hold_weights_of_their_own(self, table):
        geom = table()
        ens = sample_ensemble(geom, 3000, seed=5)
        rows = rows_of(transport_counts_times(ens, self.TIMES, geom, 0.7))
        for k, (t, counts) in enumerate(zip(self.TIMES, rows)):
            ref = transported(ens, geom, t, 0.7)
            assert same_arrays((counts.weight, counts.rebounds, counts.degenerate),
                               (ref.weight, ref.rebounds, ref.degenerate))
            assert not np.shares_memory(counts.weight, ens.weight)
            assert not any(np.shares_memory(counts.weight, other.weight)
                           for other in rows[k + 1:])
        assert rows[-1].weight.min() < rows[0].weight.min()


class TestTrajectorySnapshots:
    """A trajectory is a snapshot of the ensemble at the call: a write to
    the ensemble after the call and before iterating never reaches the
    rows."""

    TIMES = (0.0, 1.0, 2.5, 4.0)

    @pytest.mark.parametrize("table", [off_centre_disk, hexagon])
    def test_later_writes_do_not_reach_the_rows(self, table):
        geom = table()
        ens = sample_ensemble(geom, 600, seed=8)
        ens.rebounds[::7] = 2
        want = [transported(ens, geom, t, 0.8) for t in self.TIMES]
        trajectory = transport_counts_times(ens, self.TIMES, geom, 0.8)
        ens.pos[:] = 0.0
        ens.vel[:] *= -1.0
        ens.weight[:] = 7.0
        ens.rebounds[:] = 50
        ens.degenerate[:] = True
        rows = rows_of(trajectory)
        assert rows[-1].rebounds.max() > 3
        for counts, ref in zip(rows, want, strict=True):
            assert same_arrays((counts.weight, counts.rebounds, counts.degenerate),
                               (ref.weight, ref.rebounds, ref.degenerate))

    def test_the_call_takes_one_snapshot(self):
        # the call copies the ensemble's five arrays once and holds that
        # copy, 49 bytes per particle (four coordinates, a weight, a count
        # and a flag), and its peak stays below two such copies: a second
        # copy of the ensemble, held or dropped, reads 98 at the peak
        geom = hexagon()
        n = 1 << 14
        ens = sample_ensemble(geom, n, seed=8)
        tracemalloc.start()
        try:
            trajectory = transport_counts_times(ens, self.TIMES, geom)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 49.0 <= held / n < 50.0, held / n
        assert peak / n < 2 * 49.0, peak / n
        assert len(rows_of(trajectory)) == 4


def edge_disk():
    return Billiard("disk", center=(0.0, 0.0), radius=1.0,
                    velocities=VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))


class TestStreamingCountSteps:
    """The disk count step runs every particle through one masked pass; the
    lanes it masks (no first hit, a zero chord period, a cap) raise no
    floating-point warning, in the full-state kernel or in the tallies, and
    the tallies count the full-state kernel's rows."""

    TIMES = (0.0, 1.0, 1.5, 6.0)

    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_masked_lanes_in_the_full_state_kernel(self, monkeypatch, scale):
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
            steps = [transported(ens, geom, t, scale) for t in self.TIMES]
        flags = np.array([moved.degenerate for moved in steps])
        counts = np.array([moved.rebounds for moved in steps])
        assert flags[:, 3].all() and not counts[:, 3].any()
        assert flags[:, 5].tolist() == [False, True, True, True]
        assert flags[:, 6].tolist() == [False, True, True, True]
        assert counts[:, 7].tolist()[:2] == [0, 1]
        # capped particles: flagged with ITER_CAP rebounds, the rest below it
        capped = flags[-1] & (counts[-1] == 3)
        assert capped.sum() > 10 and counts[-1].max() == 3
        assert np.flatnonzero(flags[0]).tolist() == [3]
        weights = np.array([moved.weight for moved in steps])
        assert np.array_equal(weights, ens.weight * scale ** counts)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("scale", [1.0, 0.7])
    def test_tallies_count_the_rows(self, monkeypatch, scale, workers):
        # the same masked lanes, counted slice by slice.  The tallies start
        # every particle as sampling does, no rebound and no flag, so no
        # particle is flagged on input here; the counts are the rows' at
        # every scale
        geom = edge_disk()
        ens = sample_ensemble(geom, 200, seed=21)
        ens.pos[5], ens.vel[5] = (-1.0, 1.0), (1.0, 0.0)
        ens.pos[6], ens.vel[6] = (0.0, 1.0), (1.0, 0.0)
        ens.pos[7], ens.vel[7] = (1.0, 0.0), (1.0, 0.0)
        monkeypatch.setattr(_kernels, "ITER_CAP", 3)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 64)
        monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: workers)
        # one more time, particle 10's first hit: t - s0 is exactly 0 there,
        # and that hit is its one rebound
        s0, _ = _kernels._disk_exit(*(a.copy() for a in views_of(ens)), 0.0, 0.0, 1.0,
                                    [np.empty(len(ens)) for _ in range(6)],
                                    np.empty(len(ens), dtype=np.bool_))
        times = tuple(sorted({*self.TIMES, float(s0[10])}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = [transported(ens, geom, t, scale) for t in times]
            tallies = _kernels.disk_tallies(views(ens), len(ens), geom, times)
        for row, (counts, flagged) in zip(rows, tallies, strict=True):
            assert np.array_equal(counts, np.bincount(row.rebounds))
            assert np.array_equal(flagged, np.bincount(row.rebounds[row.degenerate]))
        assert tallies[-1][1].sum() > 10
        first = rows[times.index(float(s0[10]))]
        assert 0.0 < s0[10] < 6.0 and first.rebounds[10] == 1 and not first.degenerate[10]


def test_sampled_disk_holds_nothing_per_particle(monkeypatch):
    # at scale 1 a sampled disk holds nothing per particle, once
    # sample_counts returns or at its peak: a worker's buffers and the
    # tallies do not grow with the ensemble, and the mass is summed over
    # one broadcast weight.  Summing an array of the weights read 8.0 bytes
    # per added particle at the peak, and holding the initial counts 17.0,
    # held and at the peak
    monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)

    def traced(n):
        tracemalloc.start()
        try:
            _, trajectory = densities.sample_counts(
                small_disk(), n, 7, "domain", (0.5, 2.0, 5.0, 10.0, 20.0), 1.0)
            held = tracemalloc.get_traced_memory()[0]
            tallies = rows_of(trajectory)
            return held, tracemalloc.get_traced_memory()[1], tallies
        finally:
            tracemalloc.stop()

    held_small, peak_small, _ = traced(1 << 19)
    held_large, peak_large, tallies = traced(1 << 20)
    added = 1 << 19
    assert (held_large - held_small) / added < 1.0, (held_large - held_small) / added
    assert (peak_large - peak_small) / added < 1.0, (peak_large - peak_small) / added
    assert len(tallies) == 5 and tallies[-1].max_rebounds() > 10


def test_sampled_disk_slices_allocate_nothing(monkeypatch):
    # one worker makes its buffers once per call, one block of 104 bytes
    # per slice particle (11 float64, one intp and 3 masks), and then no
    # step of a slice allocates more than a short index list or a tally,
    # which it adds into running totals.  Net of the tallies, which grow
    # with the largest count, the traced peak is the same for 4 and 64
    # slices within 1 KB, and stays near those buffers (about 115 bytes per
    # slice particle here; the allocating steps' temporaries read about
    # 133).  Keeping every slice's tallies until the join read 3.5 KB more
    # per slice
    monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
    monkeypatch.setattr(_kernels, "DISK_CHUNK", 4096)
    buffers = 104 * 4096

    def peak(slices):
        n = slices * 4096
        draw = densities._state_sampler(small_disk(), n, 7, "domain")
        tracemalloc.start()
        try:
            tallies = _kernels.disk_tallies(draw, n, small_disk(), (0.5, 2.0, 5.0, 10.0, 20.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tallies[-1][0].sum() == n
        return peak - sum(a.nbytes for pair in tallies for a in pair)

    few, many = peak(4), peak(64)
    assert abs(many - few) < 1024, (few, many)
    assert few < 1.2 * buffers, few / 4096


def polygon_sweep_peak(monkeypatch, scale):
    # the traced peak per particle of a five-time hexagon sweep of 2^16
    # particles, on one block, so no two threads' peaks overlap by chance
    monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
    n = 1 << 16
    geom = hexagon()
    ens = sample_ensemble(geom, n, 7)
    tracemalloc.start()
    try:
        held = rows_of(transport_counts_times(ens, (0.5, 2.0, 5.0, 10.0, 20.0), geom, scale))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 5 and held[-1].rebounds.max() > 10
    return peak / n


def test_polygon_sweep_transient_is_bounded(monkeypatch):
    # reads about 266 bytes per particle at scale 1, at the last time: the
    # snapshot (49), the earlier times' counts (36), the last time's copies
    # of the snapshot (41), the one-time sweep's work buffers (124: the
    # working state of five floats and as many spares, the count and index
    # lanes, 2 spare ints, 2 masks, the remaining time and its 2 masks) and
    # its start's gathers; no lane carries a weight.  One sweep writing five
    # rows of counts read about 233
    per_particle = polygon_sweep_peak(monkeypatch, 1.0)
    assert per_particle < 280.0, per_particle


def test_scaled_polygon_sweep_transient_is_bounded(monkeypatch):
    # below scale 1 every time holds weights of its own (40 more), and each
    # transport holds a copy n0 of its input counts while it sweeps (8 more)
    # for the weight w0 * scale ** (n - n0) it applies at its end, where the
    # power's two temporaries (16) come after the sweep's buffers are freed:
    # about 314 bytes per particle, against about 281 for one sweep writing
    # five rows
    per_particle = polygon_sweep_peak(monkeypatch, 0.7)
    assert per_particle < 335.0, per_particle


def test_sampled_polygon_holds_no_ensemble(monkeypatch):
    # a sampled hexagon's blocks draw their particles into their work
    # buffers, so its peak per added particle is those buffers (156 bytes
    # at five times: the working state and as many spares, the count lane,
    # 2 spare ints, 2 masks, the remaining times and their 2 masks) and the
    # gather of one row's closing counts (16): about 172.  An unread index
    # lane read about 180, and a held ensemble, its 49 bytes per particle
    # and the transients of its gather, about 237
    monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)

    def peak(n):
        tracemalloc.start()
        try:
            _, trajectory = densities.sample_counts(hexagon(), n, 7, "domain",
                                                    (0.5, 2.0, 5.0, 10.0, 20.0), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows_of(trajectory)[-1].max_rebounds() > 10
        return peak

    per_particle = (peak(1 << 17) - peak(1 << 16)) / (1 << 16)
    assert per_particle < 200.0, per_particle


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_sampled_polygon_holds_no_rows(monkeypatch, scale):
    # a sampled polygon's sweep counts its rows as they close: its peak grows
    # by the remaining time and its two masks alone, 10 bytes per particle
    # and time, at every scale.  Rows of counts and flags would add 9 more,
    # and weights 8 more below scale 1
    monkeypatch.setattr(_kernels, "_sweep_workers", lambda n: 1)
    n = 1 << 15

    def peak(times):
        tracemalloc.start()
        try:
            _, trajectory = densities.sample_counts(hexagon(), n, 7, "domain", times, scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows_of(trajectory)[-1].max_rebounds() > 10
        return peak

    few, many = peak(tuple(np.linspace(0.5, 20.0, 5))), peak(tuple(np.linspace(0.5, 20.0, 20)))
    per_state = (many - few) / (15 * n)
    assert 9.0 < per_state < 12.0, per_state


# (velocity spec, region) of the drawn polygon sweep: one speed, several
# speeds and a speed band, each on the hexagon's domain and in a box
DRAWN_POLYGON_CASES = [
    (spec, region)
    for spec in (VelocitySpec("speeds", speeds=(1.0,)),
                 VelocitySpec("speeds", speeds=(0.5, 1.0, 3.0)),
                 VelocitySpec("annulus", speed_min=0.5, speed_max=2.0))
    for region in ("domain", "box:-0.5,-0.4,0.6,0.3")
]


class TestDrawnPolygonTallies:
    """A sampled polygon's blocks draw their particles straight into their
    working state, a ``DISK_CHUNK`` slice at a time: the tallies are the
    ``bincount`` of the rows that ``billiard_transport`` leaves on the held
    sampled ensemble, one transport per time, bitwise, for any number of
    workers and blocks that span several slices and a partial one."""

    TIMES = (2.5, 0.0, 0.5, 2.5, 4.0)

    @pytest.mark.parametrize("case", range(len(DRAWN_POLYGON_CASES)))
    def test_a_drawn_block_starts_as_a_held_one(self, monkeypatch, case):
        # a block of particles 100..999 in slices of 256: its working state,
        # graze threshold included, and its count lane are the bits that the
        # held start gathers from the sampled ensemble.  The held start adds
        # the index lane its sink writes by, and hands no cell over: in place
        # a zero time's row holds its state already.  The drawn start counts
        # the zero time's row itself
        spec, region = DRAWN_POLYGON_CASES[case]
        geom = hexagon_with(spec)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        ens = sample_ensemble(geom, 1000, seed=11, region=region)
        times = _kernels.distinct_times(self.TIMES)
        sink = _kernels._Tally(times.size)
        held = _kernels._held_start((ens.pos, ens.vel, ens.rebounds, ens.degenerate), 100, 1000,
                                    refuse, times)
        drawn = _kernels._drawn_start(densities._state_sampler(geom, 1000, 11, region), 100, 1000,
                                      sink, times)
        assert same_arrays(drawn[0], held[0]) and len(drawn[0]) == len(held[0]) == 5
        assert len(drawn[1]) == 1 and same_arrays(drawn[1], held[1][:1])
        assert np.array_equal(held[1][1], np.arange(900))
        assert [len(a) for a in drawn[2]] == [len(a) for a in held[2]] == [900] * 5
        assert [[a.tolist() for a in row] for row in sink.rows] == [[[900], []]] + [[[], []]] * 3

    @pytest.mark.parametrize("n", [1, _kernels.SWEEP_BLOCK_MIN - 1, _kernels.SWEEP_BLOCK_MIN + 1,
                                   2 * _kernels.SWEEP_BLOCK_MIN + 5])
    @pytest.mark.parametrize("case", range(len(DRAWN_POLYGON_CASES)))
    def test_tallies_are_the_bincounts_of_the_held_rows(self, monkeypatch, case, n):
        spec, region = DRAWN_POLYGON_CASES[case]
        geom = hexagon_with(spec)
        monkeypatch.setattr(_kernels, "DISK_CHUNK", 256)
        ens = sample_ensemble(geom, n, seed=11, region=region)
        for cap in (_kernels.ITER_CAP, 3):
            monkeypatch.setattr(_kernels, "ITER_CAP", cap)
            rows = [transported(ens, geom, t, 1.0) for t in _kernels.distinct_times(self.TIMES)]
            want = [(np.bincount(row.rebounds), np.bincount(row.rebounds[row.degenerate]))
                    for row in rows]
            assert len(want) == 4 and want[0][0].tolist() == [n]
            if n > 1:
                assert want[-1][0].size > 2
                # the cap flags every particle owing more than 3 reflections
                assert (want[-1][1].sum() > 0) == (cap == 3)
            for workers in (1, 3):
                monkeypatch.setattr(_kernels, "_sweep_workers", lambda n, w=workers: w)
                draw = densities._state_sampler(geom, n, 11, region)
                got = _kernels.polygon_tallies(draw, n, geom, self.TIMES)
                assert all(same_arrays(a, b) for a, b in zip(got, want, strict=True)), (cap, workers)


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
