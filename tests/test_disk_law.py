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
shared with the kernels.
"""

import math

import numpy as np
import pytest

from honestflow import parse_config, resolve_config, run_scenario

# midpoint nodes in theta; the integrand is piecewise smooth in theta, with
# kinks where L = vt / k, so the quadrature error is far below the
# statistical tolerance
NODES = 200_000

TIMES = (0.5, 2.0, 5.0)
ORDERS = 5


def rebound_law(radius, speed, t, orders):
    """P(n, t) for n < orders: the probability of exactly n rebounds."""
    theta = (np.arange(NODES) + 0.5) * (math.pi / NODES) - math.pi / 2
    chord = 2.0 * radius * np.cos(theta)
    # db = R cos(theta) dtheta, over the disk's area pi R^2
    weight = radius * np.cos(theta) * (math.pi / NODES) / (math.pi * radius**2)
    vt = speed * t
    out = [float(np.sum(weight * np.maximum(0.0, chord - vt)))]
    for n in range(1, orders):
        lo = np.maximum(0.0, vt - n * chord)
        hi = np.minimum(chord, vt - (n - 1) * chord)
        out.append(float(np.sum(weight * np.maximum(0.0, hi - lo))))
    return np.array(out)


def expected_histogram(radius, speeds, scale, t, orders):
    # a discrete speed list picks each speed with equal probability
    prob = np.mean([rebound_law(radius, v, t, orders) for v in speeds], axis=0)
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


@pytest.mark.parametrize("name", ["builtin", "off-centre"])
def test_weighted_histograms_follow_the_law(name):
    if name == "builtin":
        cfg = resolve_config("disk-billiard")
    else:
        cfg = parse_config(OFF_CENTRE_TEXT)
    geom, scale, n = cfg.geometry, cfg.boundary.scale, cfg.count
    assert n <= 200_000
    rows = {row.t: row for row in run_scenario(cfg).rows}
    for t in TIMES:
        prob, weight = expected_histogram(geom.radius, geom.velocities.speeds, scale, t, ORDERS)
        got = np.zeros(ORDERS)
        masses = rows[t].rebound_masses[:ORDERS]
        got[:len(masses)] = masses
        # each particle weighs 1/n, so bin k holds scale^k / n per particle
        # in it: a binomial count.  A bin the law leaves empty (no particle
        # of the unit disk is still in flight at t = 2) must be exactly 0
        err = weight * np.sqrt(prob * (1.0 - prob) / n)
        assert np.all(np.abs(got - weight * prob) <= 5.0 * err), (t, got, weight * prob, err)
