"""Polygon rebound counts against unfolding.

The square and the equilateral triangle tile the plane by reflection
in their edges.  Reflecting the table instead of the path turns a billiard
trajectory into a straight segment, and every rebound becomes a crossing of
one of the tiling's lines (Tabachnikov, *Geometry and Billiards*, 2005).
Those lines fall into families of parallels: an edge's line and its
translates by the table's width across that edge (two families for the
square, three for the triangle).  So the rebound count at time t is, per
family, the difference of the floors of the segment's ends measured in
line spacings, summed over the families.

The oracle below reads only the vertex list and the particles' initial
positions and velocities.  It is checked per particle against
``transport_ensemble`` on a polygon, one polygon sweep per time.
Particles whose segment passes within DELTA of a tiling vertex, grazes a
line, or starts or ends within DELTA of a line are left out: there the
count depends on rounding, and the sweep flags vertex hits and grazes as
degenerate.
"""

import math

import numpy as np
import pytest

from honestflow import Billiard, VelocitySpec, sample_ensemble, transport_ensemble

DELTA = 1e-6

SIDE = 1.5
SQUARE = ((0.25, -0.5), (0.25 + SIDE, -0.5), (0.25 + SIDE, -0.5 + SIDE), (0.25, -0.5 + SIDE))
TRIANGLE = ((0.0, 0.0), (SIDE, 0.0), (SIDE / 2.0, SIDE * math.sqrt(3.0) / 2.0))
# edges whose lines and translates make up the tiling: a square's opposite
# edges lie on one family, a triangle's three edges on three
TABLES = {"square": (SQUARE, (0, 1)), "triangle": (TRIANGLE, (0, 1, 2))}


def line_families(vertices, edges):
    """(unit normal, offset, spacing) per family: its lines are the points p
    with ``normal . p = offset + k * spacing`` for every integer k."""
    vs = np.array(vertices, dtype=np.float64)
    families = []
    for i in edges:
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % len(vs)]
        normal = np.array([y1 - y0, x0 - x1]) / math.hypot(x1 - x0, y1 - y0)
        heights = vs @ normal
        families.append((normal, float(heights.max()), float(heights.max() - heights.min())))
    return families


def unfolded_counts(pos, vel, t, families):
    """Rebounds of each particle by time t, and a mask of the particles the
    count is sure for."""
    counts = np.zeros(len(pos), dtype=np.int64)
    sure = np.ones(len(pos), dtype=bool)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    # u: signed distance past the family's edge line, in line spacings
    spans = []
    for normal, offset, spacing in families:
        u0 = (pos @ normal - offset) / spacing
        u1 = u0 + (vel @ normal) * t / spacing
        counts += np.abs(np.floor(u1) - np.floor(u0)).astype(np.int64)
        for u in (u0, u1):
            sure &= np.abs(u - np.round(u)) * spacing >= DELTA
        sure &= np.abs(vel @ normal) >= DELTA * speed
        spans.append((u0, u1))
    # a crossing close to a line of another family is close to a vertex
    for i, (u0, u1) in enumerate(spans):
        for p in np.flatnonzero(sure):
            lo, hi = sorted((u0[p], u1[p]))
            for line in range(math.floor(lo) + 1, math.floor(hi) + 1):
                at = (line - u0[p]) / (u1[p] - u0[p])
                for j, (v0, v1) in enumerate(spans):
                    v = v0[p] + (v1[p] - v0[p]) * at
                    if j != i and abs(v - round(v)) * families[j][2] < DELTA:
                        sure[p] = False
    return counts, sure


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("scale", [1.0, 0.8])
def test_polygon_rebounds_are_the_unfolded_crossings(table, scale):
    vertices, edges = TABLES[table]
    geom = Billiard("polygon", vertices=vertices,
                    velocities=VelocitySpec("speeds", speeds=(0.7, 1.9)))
    ens = sample_ensemble(geom, 2000, seed=29)
    families = line_families(vertices, edges)
    times = (0.3, 2.0, 6.5)
    for t in times:
        got = transport_ensemble(ens, t, geom, scale=scale)
        want, sure = unfolded_counts(ens.pos, ens.vel, t, families)
        assert sure.mean() > 0.99
        assert not got.degenerate[sure].any()
        np.testing.assert_array_equal(got.rebounds[sure], want[sure])
        np.testing.assert_array_equal(got.weight[sure], ens.weight[sure] * scale ** want[sure])
    # long enough for many rebounds per particle, so an error per rebound shows
    assert want[sure].mean() > 5

