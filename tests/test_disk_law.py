"""The disk's rebound-count law in closed form, an oracle independent of the
transport kernels.

A position uniform on a disk of radius R with an isotropic direction is
uniform in (impact parameter b, distance to the wall s0), with density
1/(pi R^2) on |b| < R and 0 <= s0 <= L(b) = 2 sqrt(R^2 - b^2): the Liouville
measure of the billiard flow (Santalo, Integral Geometry and Geometric
Probability, 1976; Chernov and Markarian, Chaotic Billiards, 2006).  Every
chord of a particle has the same length L(b), so at speed v it has n >= 1
rebounds at time t iff s0 lies in (vt - nL, vt - (n-1)L], and none iff
s0 > vt.  Under a boundary scale sigma a particle with n rebounds weighs
sigma^n times its initial weight.

The law is integrated here by quadrature over b = R sin(theta); nothing is
shared with the kernels.  A speed band lo..hi draws v^2 uniform on
[lo^2, hi^2], a speed density 2v / (hi^2 - lo^2), so the band's law is the
single-speed law averaged over midpoint nodes in v^2, one more quadrature.
"""

import math

import numpy as np
import pytest

from honestflow import parse_config, resolve_config, run_scenario

# midpoint nodes in theta; the integrand is piecewise smooth in theta, with
# kinks where L = vt / k, so the quadrature error is far below the
# statistical tolerance
NODES = 200_000

# a speed band's nodes: midpoints in v^2, each carrying an equal share, on
# a coarser theta grid so that the (theta, speed) grid stays small
BAND_SPEEDS = 400
BAND_NODES = 4000

TIMES = (0.5, 2.0, 5.0)
ORDERS = 5


def rebound_law(radius, speeds, t, orders, nodes=NODES):
    """P(n, t) for n < orders, the probability of exactly n rebounds, for a
    speed drawn with equal probability from ``speeds``."""
    theta = (np.arange(nodes) + 0.5) * (math.pi / nodes) - math.pi / 2
    chord = 2.0 * radius * np.cos(theta)
    # db = R cos(theta) dtheta, over the disk's area pi R^2
    weight = radius * np.cos(theta) * (math.pi / nodes) / (math.pi * radius**2)
    # one row per speed, one column per node
    vt = np.reshape(np.asarray(speeds, dtype=np.float64), (-1, 1)) * t
    out = [np.sum(weight * np.maximum(0.0, chord - vt), axis=1)]
    for n in range(1, orders):
        lo = np.maximum(0.0, vt - n * chord)
        hi = np.minimum(chord, vt - (n - 1) * chord)
        out.append(np.sum(weight * np.maximum(0.0, hi - lo), axis=1))
    return np.mean(out, axis=1)


def band_speeds(lo, hi, count=BAND_SPEEDS):
    """Midpoint nodes of v^2 uniform on [lo^2, hi^2]."""
    u = (np.arange(count) + 0.5) / count
    return np.sqrt(lo**2 + u * (hi**2 - lo**2))


def expected_histogram(radius, velocities, scale, t, orders):
    if velocities.kind == "speeds":
        # a discrete speed list picks each speed with equal probability
        prob = rebound_law(radius, velocities.speeds, t, orders)
    else:
        speeds = band_speeds(velocities.speed_min, velocities.speed_max)
        prob = rebound_law(radius, speeds, t, orders, nodes=BAND_NODES)
    return prob, scale ** np.arange(orders)


OFF_CENTRE_TEXT = """\
[geometry]
kind = billiard
shape = disk
center = 1.5, -0.75
radius = 2.5
speeds = 0.5, 2

[boundary]
kind = specular
scale = 0.7

[density]
kind = ensemble
count = 200000
seed = 60607
region = domain

[run]
times = 0.5, 2, 5
label = off-centre-law
"""

BAND_TEXT = """\
[geometry]
kind = billiard
shape = disk
center = 0, 0
radius = 1
speed_band = 0.4, 1.6

[boundary]
kind = specular
scale = 1

[density]
kind = ensemble
count = 200000
seed = 8675
region = domain

[run]
times = 0.5, 2, 5
label = band-law
"""

OFF_CENTRE_BAND_TEXT = """\
[geometry]
kind = billiard
shape = disk
center = -2, 0.5
radius = 1.5
speed_band = 0.25, 1.25

[boundary]
kind = specular
scale = 0.6

[density]
kind = ensemble
count = 200000
seed = 1207
region = domain

[run]
times = 0.5, 2, 5
label = off-centre-band-law
"""

CONFIGS = {
    "off-centre": OFF_CENTRE_TEXT,
    "band": BAND_TEXT,
    "off-centre-band": OFF_CENTRE_BAND_TEXT,
}


def test_quadrature_matches_the_closed_form_without_rebounds():
    # P(0, t) pi R^2 = 2 R^2 asin(a / R) - a vt, with a = sqrt(R^2 - (vt / 2)^2)
    # the half-width of the chords longer than vt, and 0 once vt >= 2R
    for radius, vt in ((1.0, 0.5), (1.0, 1.9), (2.5, 1.0), (2.5, 4.0), (1.0, 2.5)):
        a = math.sqrt(max(0.0, radius**2 - (vt / 2.0) ** 2))
        want = (2.0 * radius**2 * math.asin(a / radius) - a * vt) / (math.pi * radius**2)
        assert rebound_law(radius, 1.0, vt, 1)[0] == pytest.approx(want, abs=1e-8)
    # the bins are a distribution: what 40 of them miss at t = 5, about
    # 1e-4, has chords shorter than vt / 39
    assert rebound_law(1.0, 1.0, 5.0, 40).sum() == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("lo, hi, t", [(0.4, 1.6, 0.5), (0.4, 1.6, 2.0), (0.25, 1.25, 2.0)])
def test_band_quadrature_matches_the_closed_form_without_rebounds(lo, hi, t):
    # the closed form of P(0, t) above, averaged over a speed grid 100
    # times finer than the band's nodes, against the band's quadrature
    v = band_speeds(lo, hi, 100 * BAND_SPEEDS)
    vt = v * t
    a = np.sqrt(np.maximum(0.0, 1.0 - (vt / 2.0) ** 2))
    want = np.mean((2.0 * np.arcsin(a) - a * vt) / math.pi)
    got = rebound_law(1.0, band_speeds(lo, hi), t, 1, nodes=BAND_NODES)[0]
    assert got == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("name", ["builtin", *CONFIGS])
def test_weighted_histograms_follow_the_law(name):
    if name == "builtin":
        cfg = resolve_config("disk-billiard")
    else:
        cfg = parse_config(CONFIGS[name])
    geom, scale, n = cfg.geometry, cfg.boundary.scale, cfg.count
    assert n <= 200_000
    rows = {row.t: row for row in run_scenario(cfg).rows}
    for t in TIMES:
        prob, weight = expected_histogram(geom.radius, geom.velocities, scale, t, ORDERS)
        got = np.zeros(ORDERS)
        masses = rows[t].rebound_masses[:ORDERS]
        got[:len(masses)] = masses
        # each particle weighs 1/n, so bin k holds scale^k / n per particle
        # in it: a binomial count.  A bin the law leaves empty (no particle
        # of the unit disk is still in flight at t = 2) must be exactly 0
        err = weight * np.sqrt(prob * (1.0 - prob) / n)
        assert np.all(np.abs(got - weight * prob) <= 5.0 * err), (t, got, weight * prob, err)
