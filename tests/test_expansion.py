import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honestflow import (
    BoundaryRule,
    Expansion,
    IntervalUnion,
    PiecewiseDensity,
    composition_residual,
    evolve,
    evolve_scaled,
    mass_balance,
)
from honestflow import _kernels, expansion
from honestflow.boundary import flux_gap
from honestflow.densities import sample_ladder_positions
from honestflow.expansion import mc_mass_estimate
from honestflow.scenarios import initial_density, resolve_config

from conftest import dyadics


class TestOrders:
    def test_order_zero_is_free_stream(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 2.0)
        d0 = ex.order_density(0, 0.4)
        assert d0.mass() == pytest.approx(0.6, abs=1e-15)
        assert d0(0.5, unit_ladder) == 1.0
        assert d0(0.3, unit_ladder) == 0.0

    def test_order_one_worked_value(self, unit_ladder, unit_box, shift_rule):
        # mass crossing b_0 = 1 re-enters at a_1 = 2 and drifts right
        ex = Expansion(unit_ladder, shift_rule, unit_box, 2.0)
        assert ex.order_value(1, 0.5, 2.3) == 1.0
        assert ex.order_value(1, 0.5, 2.7) == 0.0
        assert ex.order_mass(1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_orders_partition_mass(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 5.0)
        for t in (0.5, 1.5, 2.5, 4.5):
            total = sum(ex.order_mass(k, t) for k in range(8))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_higher_orders_empty_before_arrival(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 2.0)
        assert ex.order_mass(2, 0.75) == 0.0  # second crossing needs t > 1
        assert ex.order_mass(3, 1.5) == 0.0  # third crossing needs t > 2

    def test_integrated_trace_worked(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 2.0)
        tr = ex.integrated_trace(0, 0.0, 0.4)
        assert tr.to_dict() == {0: pytest.approx(0.4, abs=1e-15)}
        assert ex.integrated_trace(2, 0.0, 0.4).norm() == 0.0

    def test_t_outside_horizon_rejected(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 1.0)
        with pytest.raises(ValueError):
            ex.order_density(0, 1.5)

    def test_specular_rejected(self, unit_ladder, unit_box):
        with pytest.raises(ValueError):
            Expansion(unit_ladder, BoundaryRule("specular"), unit_box, 1.0)

    def test_exhaustion_geometric(self, geometric_ladder, geo_box, shift_rule):
        # total transit length is 2; past that every history is empty
        ex = Expansion(geometric_ladder, shift_rule, geo_box, 2.5)
        found_empty = False
        for k in range(80):
            if not ex.outgoing_history(k):
                found_empty = True
                break
        assert not found_empty  # histories stay nonempty (they shrink forever)
        assert ex.order_mass(40, 2.5) == 0.0

    def test_exhaustion_unit(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 3.0)
        # order k exits through b_k during (k, k+1); beyond t_max it is clipped away
        assert ex.outgoing_history(2)
        assert not ex.outgoing_history(3)


def random_ladders(n=24, seed=1018):
    """Ladder cases (geom, rule, density, times, tol, n_cap) with shift and
    kernel rules, weights 0.5..1 and caps 3..64.  Kernel rules stay on
    affine ladders: a two-way kernel on a geometric ladder doubles the
    history pieces at every order."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        if rng.random() < 0.5:
            geom = IntervalUnion("affine", start=0.0, spacing=rng.choice([1.5, 2.0, 3.0]), length=1.0)
        else:
            geom = IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0,
                                 ratio=rng.uniform(0.3, 0.8))
        scale = rng.uniform(0.5, 1.0)
        if geom.rule == "affine" and rng.random() < 0.5:
            rows = []
            for k in range(12):
                p = rng.uniform(0.1, 0.9)
                rows.append((k, ((k + 1, p), (k + 2, 1.0 - p))))
            rule = BoundaryRule("kernel", scale, tuple(rows))
        else:
            rule = BoundaryRule("shift", scale)
        pieces, x = [], 0.0
        while len(pieces) < 4:
            w = rng.uniform(0.05, 0.3)
            if x + w > 1.0:
                break
            pieces.append((x, x + w, rng.uniform(0.2, 2.0)))
            x += w + rng.uniform(0.0, 0.1)
        times = sorted(rng.uniform(0.1, 4.0) for _ in range(4))
        cases.append((geom, rule, PiecewiseDensity.from_pieces(geom, pieces), times,
                      rng.choice([1e-12, 1e-8]), rng.randint(3, 64)))
    return cases


def builtin_ladders():
    cases = []
    for name in ("unit-ladder-honest", "geometric-ladder-dishonest"):
        cfg = resolve_config(name)
        cases.append((cfg.geometry, cfg.boundary, initial_density(cfg), cfg.times, cfg.tol,
                      cfg.n_cap))
    return cases


class TestOrderMassFromArrays:
    """order_mass reads the history arrays; it must give the float that
    building the order density and summing its parts gives."""

    @pytest.mark.parametrize("case", builtin_ladders() + random_ladders())
    def test_order_mass_is_the_density_mass(self, case):
        geom, rule, f, times, tol, n_cap = case
        ex = Expansion(geom, rule, f, max(times))
        for t in times:
            rep = ex.partial_sums(t, tol, n_cap)
            for k in range(rep.n_used + 1):
                got, want = ex.order_mass(k, t), ex.order_density(k, t).mass()
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (k, t)
                assert got == rep.order_masses[k]


class TestEvolve:
    def test_conservative_mass(self, unit_ladder, unit_box, shift_rule):
        for t in (0.5, 1.5, 3.0):
            d, rep = evolve(t, unit_box, unit_ladder, shift_rule, tol=1e-12)
            assert d.mass() == pytest.approx(1.0, abs=1e-12)
            assert rep.converged
            assert rep.residual_bound < 1e-12

    def test_report_orders(self, unit_ladder, unit_box, shift_rule):
        d, rep = evolve(1.5, unit_box, unit_ladder, shift_rule, tol=1e-12)
        assert rep.n_used == 2
        assert rep.order_masses[0] == pytest.approx(0.0, abs=1e-15)
        assert rep.order_masses[1] == pytest.approx(0.5, abs=1e-15)
        assert rep.order_masses[2] == pytest.approx(0.5, abs=1e-15)

    def test_scaled_worked_value(self, unit_ladder, unit_box, shift_rule):
        # at t = 1.5 half the mass has crossed once (weight r), half twice (r^2)
        d, rep = evolve_scaled(1.5, unit_box, 0.5, unit_ladder, shift_rule, tol=1e-12)
        assert d.mass() == pytest.approx(0.375, abs=1e-15)
        assert rep.converged

    def test_unconverged_marked(self, geometric_ladder, geo_box, shift_rule):
        d, rep = evolve(2.5, geo_box, geometric_ladder, shift_rule, tol=1e-10, n_cap=32)
        assert not rep.converged
        assert d.mass() == 0.0
        assert rep.residual_bound == pytest.approx(1.0, abs=1e-12)

    def test_residual_bound_covers_missing_mass(self, unit_ladder, unit_box, shift_rule):
        # loose tol cuts after order 1; the certified bound equals the mass
        # actually missing (here the cut is tight: exactly order 2 is dropped)
        d_few, rep_few = evolve(1.5, unit_box, unit_ladder, shift_rule, tol=0.6)
        d_all, _ = evolve(1.5, unit_box, unit_ladder, shift_rule, tol=1e-13)
        missing = d_all.mass() - d_few.mass()
        assert rep_few.n_used == 1
        assert missing <= rep_few.residual_bound + 1e-15
        assert missing == pytest.approx(rep_few.residual_bound, abs=1e-15)

    def test_evolve_reports_the_order_pass(self, geometric_ladder, geo_box):
        rule = BoundaryRule("shift", scale=0.9)
        d, rep = evolve(1.5, geo_box, geometric_ladder, rule, tol=1e-12, n_cap=30)
        assert rep == Expansion(geometric_ladder, rule, geo_box, 1.5).partial_sums(1.5, 1e-12, 30)
        assert len(rep.order_masses) == rep.n_used + 1
        assert d.mass() == pytest.approx(sum(rep.order_masses), abs=1e-15)

    @given(st.sampled_from([0.25, 0.5, 0.75, 1.0]), dyadics(0.25, 3.0, 4))
    @settings(max_examples=20, deadline=None)
    def test_mass_monotone_in_r(self, r, t):
        from honestflow import IntervalUnion

        geom = IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0)
        f = PiecewiseDensity.from_pieces(geom, [(0.0, 1.0, 1.0)])
        rule = BoundaryRule("shift")
        d_r, _ = evolve_scaled(t, f, r, geom, rule, tol=1e-12)
        d_1, _ = evolve_scaled(t, f, 1.0, geom, rule, tol=1e-12)
        assert d_r.mass() <= d_1.mass() + 1e-12


class TestPartialSums:
    def test_capped_order_is_absorbed_too(self, geometric_ladder, geo_box):
        rule = BoundaryRule("shift", scale=0.9)
        ex = Expansion(geometric_ladder, rule, geo_box, 1.5)
        rep = ex.partial_sums(1.5, 1e-12, 5)
        assert not rep.converged
        assert rep.n_used == 5
        gaps = [flux_gap(ex.integrated_trace(n, 0.0, 1.5), rule, geometric_ladder)
                for n in range(6)]
        assert rep.absorbed == sum(gaps)

    def test_width_extends_columns_not_the_cut(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 5.0)
        short = ex.partial_sums(1.5, 1e-12, 64)
        wide = ex.partial_sums(1.5, 1e-12, 64, width=6)
        assert (wide.n_used, wide.converged, wide.residual_bound, wide.absorbed) == (
            short.n_used, short.converged, short.residual_bound, short.absorbed)
        assert wide.order_masses[:short.n_used + 1] == short.order_masses
        assert len(wide.order_masses) == len(wide.trace_norms) == 7
        assert wide.order_masses[short.n_used + 1:] == (0.0,) * (6 - short.n_used)

    def test_validation(self, unit_ladder, unit_box, shift_rule):
        ex = Expansion(unit_ladder, shift_rule, unit_box, 1.0)
        with pytest.raises(ValueError):
            ex.partial_sums(1.0, 0.0, 8)
        with pytest.raises(ValueError):
            ex.partial_sums(1.0, 1e-8, -1)


class TestPieceBudget:
    """A two-way kernel rule on a geometric ladder: unequal lengths never
    realign the breakpoints, so every order holds about twice the history
    pieces of the one before.  The budget is lowered so the test stays
    small."""

    @staticmethod
    def _spreading():
        geom = IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.34)
        rows = tuple((k, ((k + 1, 0.5), (k + 2, 0.5))) for k in range(48))
        f = PiecewiseDensity.from_pieces(geom, [(0.0, 1.0, 1.0)])
        return Expansion(geom, BoundaryRule("kernel", rows=rows), f, 2.5)

    def test_an_order_over_the_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(expansion, "MAX_ORDER_PIECES", 64)
        ex = self._spreading()
        with pytest.raises(ValueError, match=r"^\[run\] n_cap: order (\d+) .* (\d+) history "
                                             r"pieces, above the budget of 64") as err:
            ex.partial_sums(2.5, 1e-12, 42)
        order, pieces = map(int, re.search(r"order (\d+) .* (\d+) history", str(err.value)).groups())
        assert pieces > 64
        assert 0 < sum(h.vals.size for h in ex.incoming_history(order - 1).values()) <= 64

    def test_the_budget_leaves_lower_orders_alone(self, monkeypatch):
        monkeypatch.setattr(expansion, "MAX_ORDER_PIECES", 64)
        rep = self._spreading().partial_sums(2.5, 1e-12, 3)
        assert rep.n_used == 3


class TestStructure:
    def test_mass_balance_conservative(self, unit_ladder, unit_box, shift_rule):
        rep = mass_balance(3, 1.5, unit_box, unit_ladder, shift_rule)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)
        assert all(b == pytest.approx(0.0, abs=1e-15) for b in rep.bracket_terms)

    def test_mass_balance_substochastic_brackets(self, unit_ladder, unit_box):
        rule = BoundaryRule("shift", scale=0.9)
        rep = mass_balance(4, 2.5, unit_box, unit_ladder, rule)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)
        assert all(b <= 1e-15 for b in rep.bracket_terms)
        assert any(b < -1e-3 for b in rep.bracket_terms)

    def test_composition_identity_dyadic(self, unit_ladder, unit_box, shift_rule):
        for k in range(3):
            for t in (0.25, 1.25):
                for s in (0.5, 0.75):
                    assert composition_residual(k, t, s, unit_box, unit_ladder, shift_rule) <= 1e-12

    def test_composition_identity_geometric(self, geometric_ladder, geo_box, shift_rule):
        assert composition_residual(1, 0.75, 0.5, geo_box, geometric_ladder, shift_rule) <= 1e-12


class TestMonteCarlo:
    def test_estimate_close_to_exact(self, unit_ladder, unit_box, shift_rule):
        n = 20_000
        est, err = mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=n, seed=3)
        exact, _ = evolve_scaled(1.5, unit_box, 0.5, unit_ladder, shift_rule, tol=1e-12)
        assert abs(est - exact.mass()) <= 3.0 / math.sqrt(n)
        assert err > 0.0

    def test_estimate_deterministic(self, unit_ladder, unit_box):
        a = mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=5000, seed=7)
        b = mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=5000, seed=7)
        assert a == b

    def test_conservative_estimate_is_exact_fraction(self, unit_ladder, unit_box):
        # with r = 1 nothing dies: the estimate must be exactly 1
        est, err = mc_mass_estimate(unit_box, 1.5, 1.0, unit_ladder, n_particles=2000, seed=1)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_geometric_escape_counts_as_loss(self, geometric_ladder, geo_box):
        # beyond the total transit length nothing survives even with r = 1
        est, _ = mc_mass_estimate(geo_box, 2.5, 1.0, geometric_ladder, n_particles=2000, seed=2)
        assert est == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    def test_time_must_be_finite(self, unit_ladder, unit_box, geometric_ladder, geo_box, t):
        for f, geom in ((unit_box, unit_ladder), (geo_box, geometric_ladder)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                mc_mass_estimate(f, t, 0.5, geom, n_particles=100, seed=1)


def _no_draws(*args):
    raise AssertionError("a particle was drawn")


class TestMonteCarloInputs:
    """Every bad input is refused by name before any particle is drawn."""

    @pytest.mark.parametrize("n", [-5, 0, 2.5, True, "100"])
    def test_particle_count_must_be_a_positive_int(self, unit_ladder, unit_box, monkeypatch, n):
        monkeypatch.setattr(_kernels, "uniform_array", _no_draws)
        with pytest.raises(ValueError, match="n_particles must be a positive int"):
            mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=n, seed=3)
        with pytest.raises(ValueError, match="n must be a positive int"):
            sample_ladder_positions(unit_box, unit_ladder, n, 3)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5, False])
    def test_seed_must_be_a_64_bit_unsigned_int(self, unit_ladder, unit_box, monkeypatch, seed):
        monkeypatch.setattr(_kernels, "uniform_array", _no_draws)
        with pytest.raises(ValueError, match=re.escape("seed must be an int in [0, 2**64)")):
            mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=100, seed=seed)
        with pytest.raises(ValueError, match=re.escape("seed must be an int in [0, 2**64)")):
            sample_ladder_positions(unit_box, unit_ladder, 100, seed)

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.5, math.nan])
    def test_survival_probability_is_checked_first(self, unit_ladder, unit_box, monkeypatch, r):
        monkeypatch.setattr(_kernels, "uniform_array", _no_draws)
        with pytest.raises(ValueError, match="survival probability r"):
            mc_mass_estimate(unit_box, 1.5, r, unit_ladder, n_particles=-5, seed=-1)

    def test_largest_seed_and_numpy_counts_are_accepted(self, unit_ladder, unit_box):
        top = mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=300, seed=2**64 - 1)
        assert 0.0 < top[0] < 1.0
        assert (mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=np.int64(300), seed=2)
                == mc_mass_estimate(unit_box, 1.5, 0.5, unit_ladder, n_particles=300, seed=2))


def _whole_walk(f, t, r, geom, n, seed):
    # the estimate of one walk over every particle at once, as one array
    x0, k0 = sample_ladder_positions(f, geom, n, seed)
    k_top = geom.reach_index(f.max_index(), t) + 2
    if math.isfinite(geom.n_intervals):
        k_top = min(k_top, int(geom.n_intervals) - 1)
    idx = range(k_top + 1)
    a, b, tail = (np.array([edge(k) for k in idx]) for edge in (geom.a, geom.b, geom.tail_delta))
    alive, _ = _kernels.ladder_survival(x0, k0, a, b, tail, r, t, seed)
    total, p = f.mass(), float(np.mean(alive))
    return total * p, total * float(np.sqrt(max(p * (1.0 - p), 0.0) / n))


def _dishonest_builtin():
    cfg = resolve_config("geometric-ladder-dishonest")
    return initial_density(cfg), cfg.geometry


def _affine_ladder():
    geom = IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0)
    return PiecewiseDensity.from_pieces(geom, [(0.0, 0.5, 1.0), (0.5, 1.0, 3.0)]), geom


class TestMonteCarloSlices:
    """The walk draws and walks ``MC_SLICE`` particles at a time; every draw
    is keyed by the particle's index, so the estimate is bitwise that of the
    whole walk at any slice length and particle count."""

    @pytest.mark.parametrize("case", [_dishonest_builtin, _affine_ladder])
    @pytest.mark.parametrize("size", [1, 7, 256])
    def test_estimate_does_not_depend_on_the_slicing(self, monkeypatch, case, size):
        f, geom = case()
        monkeypatch.setattr(expansion, "MC_SLICE", size)
        counts = sorted({k * size + d for k in (1, 3) for d in (-1, 0, 1)} - {0})
        for r in (1.0, 0.5):
            for n in counts:
                got = mc_mass_estimate(f, 1.5, r, geom, n_particles=n, seed=4242)
                want = _whole_walk(f, 1.5, r, geom, n, 4242)
                assert [x.hex() for x in got] == [x.hex() for x in want], (r, n)

    def test_each_slice_walks_its_own_particles(self, monkeypatch):
        f, geom = _dishonest_builtin()
        monkeypatch.setattr(expansion, "MC_SLICE", 100)
        calls = []
        walk = _kernels.ladder_survival

        def spy(x0, *args, first):
            calls.append((first, x0.size))
            return walk(x0, *args, first=first)

        monkeypatch.setattr(_kernels, "ladder_survival", spy)
        mc_mass_estimate(f, 1.5, 0.5, geom, n_particles=250, seed=1)
        assert calls == [(0, 100), (100, 100), (200, 50)]

    def test_memory_is_one_slice(self, monkeypatch):
        # a slice particle's position, interval, hop count, remaining time,
        # flags and the draw's and walk's index temporaries peak near 150
        # bytes at this slice length; a walk of every particle at once held
        # about 124 bytes per particle, some 40 times this bound at 64 slices
        f, geom = _dishonest_builtin()
        size = 4096
        monkeypatch.setattr(expansion, "MC_SLICE", size)

        def peak(slices):
            tracemalloc.start()
            try:
                mc_mass_estimate(f, 1.5, 0.5, geom, n_particles=slices * size, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(4), peak(64)
        assert abs(many - few) <= 0.1 * few, (few, many)
        assert many < 192 * size, many
