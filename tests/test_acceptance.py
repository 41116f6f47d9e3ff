"""End-to-end acceptance checks.

One test per shipped guarantee, each asserting its stated tolerance; the
verbose test listing gives one pass/fail line per criterion and every test
also prints an explicit summary line.  Timed criteria measure the
computational core only.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from honestflow import (
    Billiard,
    BoundaryRule,
    Expansion,
    IntervalUnion,
    PiecewiseDensity,
    VelocitySpec,
    composition_residual,
    defect,
    evolve,
    evolve_scaled,
    honesty_on_interval,
    mass_balance,
    mc_mass_estimate,
    resolvent_at,
    resolvent_defect,
    sample_ensemble,
    transport_ensemble,
)

SHIFT = BoundaryRule("shift", scale=1.0)


def unit_ladder():
    return IntervalUnion("affine", start=0.0, spacing=2.0, length=1.0)


def geometric_ladder():
    return IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.5)


def unit_block(geom):
    return PiecewiseDensity.from_pieces(geom, ((0.0, 1.0, 1.0),))


def both_ladders():
    unit = unit_ladder()
    geo = geometric_ladder()
    return ((unit, unit_block(unit)), (geo, unit_block(geo)))


def test_criterion_01_honest_ladder_conserves_mass():
    geom = unit_ladder()
    f = unit_block(geom)
    start = time.perf_counter()
    for t in (0.5, 1.5, 3.0, 5.0, 10.0):
        _, report = evolve(t, f, geom, SHIFT, tol=1e-12, n_cap=32)
        assert report.converged
        assert abs(sum(report.order_masses) - 1.0) <= 1e-12
        drep = defect(0.0, t, f, geom, SHIFT, tol=1e-10, n_cap=20)
        hits = [n for n, entry in enumerate(drep.entries) if entry < 1e-10]
        assert hits and hits[0] <= 20
        assert drep.verdict == "honest"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS - mass 1 within 1e-12, defect < 1e-10 by order 20 ({elapsed:.3f}s)")


def test_criterion_02_dishonest_ladder_defect():
    geom = geometric_ladder()
    f = unit_block(geom)
    start = time.perf_counter()
    for t in (1.0, 1.25, 1.5, 1.75, 2.0):
        rep = defect(0.0, t, f, geom, SHIFT, tol=1e-11, n_cap=128)
        assert rep.stabilized
        assert abs(rep.limit_estimate - (t - 1.0)) <= 1e-10
    _, total = evolve(2.5, f, geom, SHIFT, tol=1e-11, n_cap=64)
    assert sum(total.order_masses) <= 1e-10
    early = honesty_on_interval((0.5, 1.0), f, geom, SHIFT, tol=1e-11, n_cap=128)
    assert early.verdict == "honest"
    late = honesty_on_interval((1.0, 2.0), f, geom, SHIFT, tol=1e-11, n_cap=128)
    assert late.verdict == "dishonest"
    assert abs(late.witness_limit - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 2: PASS - defect limit t-1 within 1e-10, window verdicts split ({elapsed:.3f}s)")


def test_criterion_03_resolvent_matches_time_domain():
    unit, f_unit = both_ladders()[0]
    geo, f_geo = both_ladders()[1]
    time_verdicts = {
        "unit": defect(0.0, 6.0, f_unit, unit, SHIFT, tol=1e-11, n_cap=128).verdict,
        "geo": defect(0.0, 1.5, f_geo, geo, SHIFT, tol=1e-11, n_cap=128).verdict,
    }
    assert time_verdicts == {"unit": "honest", "geo": "dishonest"}
    for lam in (0.5, 1.0, 2.0):
        rep_unit = resolvent_defect(f_unit, lam, unit, SHIFT, tol=1e-11, n_cap=128)
        assert rep_unit.verdict == time_verdicts["unit"]
        for n, entry in enumerate(rep_unit.entries):
            exact = (1.0 - math.exp(-lam)) * math.exp(-lam * n) / lam
            assert abs(entry - exact) <= 1e-12
        rep_geo = resolvent_defect(f_geo, lam, geo, SHIFT, tol=1e-11, n_cap=128)
        assert rep_geo.verdict == time_verdicts["geo"]
        if lam == 1.0:
            exact_limit = (1.0 - math.exp(-1.0)) * math.exp(-1.0)
            assert abs(rep_geo.limit_estimate - exact_limit) <= 1e-10
    print("criterion 3: PASS - resolvent verdicts match time domain, entries exact to 1e-12")


def test_criterion_04_structural_identities():
    grid = (0.25, 0.75, 1.25, 1.75)
    for geom, f in both_ladders():
        for k in range(4):
            for t in grid:
                for s in grid:
                    assert composition_residual(k, t, s, f, geom, SHIFT) <= 1e-12
        for n in (1, 3):
            for t in (0.5, 1.5):
                rep = mass_balance(n, t, f, geom, SHIFT)
                assert abs(rep.lhs - rep.rhs) <= 1e-12
                assert all(b == 0.0 for b in rep.bracket_terms)
                rep9 = mass_balance(n, t, f, geom, SHIFT.scaled(0.9))
                assert abs(rep9.lhs - rep9.rhs) <= 1e-12
                assert all(b <= 1e-15 for b in rep9.bracket_terms)
    print("criterion 4: PASS - composition residual <= 1e-12, mass balance exact, brackets signed")


def test_criterion_05_mass_monotone_in_boundary_scale():
    geom = unit_ladder()
    f = unit_block(geom)
    scales = (0.25, 0.5, 0.75, 0.9, 1.0)
    masses = []
    for r in scales:
        _, rep = evolve_scaled(1.5, f, r, geom, SHIFT, tol=1e-12, n_cap=32)
        assert rep.converged
        masses.append(sum(rep.order_masses))
    assert all(lo < hi for lo, hi in zip(masses, masses[1:]))
    assert abs(masses[1] - 0.375) <= 1e-12
    expansions = [Expansion(geom, SHIFT.scaled(r), f, 2.0) for r in scales]
    xs = [geom.a(j) + i / 32.0 for j in range(4) for i in range(1, 32)]
    for ex_lo, ex_hi in zip(expansions, expansions[1:]):
        for x in xs:
            v_lo = sum(ex_lo.order_value(k, 1.5, x) for k in range(5))
            v_hi = sum(ex_hi.order_value(k, 1.5, x) for k in range(5))
            assert v_lo <= v_hi
    print("criterion 5: PASS - masses strictly increasing in scale, r=0.5 mass 0.375, pointwise domination")


def test_criterion_06_disk_billiard_ensemble():
    geom = Billiard("disk", center=(0.0, 0.0), radius=1.0, velocities=VelocitySpec("speeds", speeds=(1.0,)))

    start = time.perf_counter()
    ens = sample_ensemble(geom, 100_000, seed=2026)
    speeds0 = ens.speeds()
    cross = np.abs(ens.pos[:, 0] * ens.vel[:, 1] - ens.pos[:, 1] * ens.vel[:, 0]) / speeds0
    min_chord = float(np.min(2.0 * np.sqrt(np.maximum(1.0 - cross**2, 0.0))))
    assert min_chord > 0.0
    for t in (0.0, 1.25, 2.5, 5.0, 10.0, 20.0):
        moved = transport_ensemble(ens, t, geom)
        assert abs(moved.mass() - ens.mass()) <= 1e-12
        assert float(np.max(np.abs(moved.speeds() - 1.0))) <= 1e-12
        tails = moved.tally().tail_weights()
        n_floor = math.ceil(t * 1.0 / 2.0)  # at least one diameter per rebound
        assert np.all(np.diff(tails[n_floor:]) <= 0.0)
        max_rebounds = int(moved.rebounds.max())
        assert max_rebounds <= t / min_chord + 1.0
        assert tails[-1] == 0.0
        if max_rebounds > 0:
            assert all(w > 0.0 for w in tails[:max_rebounds])
        assert all(w == 0.0 for w in tails[max_rebounds:])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 6: PASS - weight and speeds conserved to 1e-12, rebound tail hits 0 at finite order ({elapsed:.2f}s)")


def test_criterion_07_monte_carlo_matches_exact():
    n = 100_000
    band = 3.0 / math.sqrt(n)
    for geom, f in both_ladders():
        for r in (0.5, 1.0):
            exact = sum(evolve_scaled(1.5, f, r, geom, SHIFT, tol=1e-12, n_cap=64)[1].order_masses)
            estimate, stderr = mc_mass_estimate(f, 1.5, r, geom, n_particles=n, seed=11)
            assert abs(estimate - exact) <= band
            assert stderr <= band
    print(f"criterion 7: PASS - particle estimates within 3/sqrt(N) = {band:.5f} of exact masses")


def _pulse_window(geom, x):
    """Support in t of the density value at x: under the pure shift each
    crossing order occupies one interval, so exactly one unit-length pulse
    passes any fixed point."""
    j = geom.index_of(x)
    d = x - geom.a(j)
    if j == 0:
        return max(0.0, x - 1.0), x
    if geom.rule == "affine":
        lo = float(j - 1)
    else:
        lo = 1.0 - 2.0 ** (1 - j)
    return lo + d, lo + d + 1.0


def test_criterion_08_laplace_consistency():
    points = {
        "affine": (0.25, 0.5, 2.25, 2.5, 4.75),
        "geometric": (0.25, 0.5, 3.25, 3.375, 6.125),
    }
    horizon = 12.0
    for geom, f in both_ladders():
        ex = Expansion(geom, SHIFT, f, horizon)
        for x in points[geom.rule]:
            j = geom.index_of(x)
            n_orders = j + 3

            def partial_sum(t):
                return sum(ex.order_value(k, t, x) for k in range(n_orders))

            lo, hi = _pulse_window(geom, x)
            assert hi < horizon
            for lam in (0.5, 1.0, 2.0):
                integral, quad_err = quad(
                    lambda t: math.exp(-lam * t) * partial_sum(t),
                    0.0,
                    horizon,
                    points=[lo, hi],
                    limit=200,
                )
                value, chain_bound = resolvent_at(f, lam, x, geom, SHIFT, n_max=96)
                assert abs(integral - value) <= chain_bound + abs(quad_err) + 1e-6
    print("criterion 8: PASS - time-domain Laplace quadrature matches resolvent values at all sample points")
