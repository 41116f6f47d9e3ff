"""Geometries carrying the free flow.

Two families are supported:

* :class:`IntervalUnion` — a countable union of disjoint bounded intervals
  ``(a_k, b_k)`` on the line with unit rightward drift.  Mass enters each
  interval at ``a_k`` (incoming boundary) and leaves at ``b_k`` (outgoing
  boundary).  Interval families are given either explicitly or through a
  generator rule (``affine``: constant lengths, ``geometric``: lengths
  decaying by a fixed ratio), in which case endpoints are produced lazily
  and partial length sums come from closed forms.

* :class:`Billiard` — a bounded convex planar domain (disk or convex
  polygon) with straight-line flow ``x + t v`` and specular reflection at
  the boundary.  Velocities never change magnitude.

Phase points are plain floats for interval unions and ``(position,
velocity)`` pairs of length-2 arrays for billiards.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StayTimeViolation",
    "BoundaryPointError",
    "NoBackwardExit",
    "IntervalUnion",
    "VelocitySpec",
    "Billiard",
    "TANGENT_EPS",
    "advect",
    "stay_times",
    "boundary_foot",
    "rebound_sequence",
]

# relative tangency threshold |v.n|/|v| below which a reflection is refused
TANGENT_EPS = 1e-10


class StayTimeViolation(ValueError):
    """Requested flow time leaves the admissible stay window."""


class BoundaryPointError(ValueError):
    """Operation needs an interior point but got a boundary/exterior one."""


class NoBackwardExit(RuntimeError):
    """Backward ray never meets the boundary (no finite entry time)."""


# ---------------------------------------------------------------------------
# 1D interval unions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint union of intervals ``(a_k, b_k)``, ``a_k < b_k <= a_{k+1}``.

    ``rule`` is one of:

    - ``"affine"``: ``a_k = start + spacing * k``, every length equal to
      ``length``;
    - ``"geometric"``: ``a_k = start + spacing * k``, ``length_k = length *
      ratio**k`` with ``0 < ratio < 1``;
    - ``"explicit"``: finite endpoint list in ``intervals``.

    Generator rules describe infinitely many intervals; endpoints are
    computed on demand and never materialised wholesale.
    """

    rule: str
    start: float = 0.0
    spacing: float = 0.0
    length: float = 0.0
    ratio: float = 0.0
    intervals: tuple = field(default=())

    def __post_init__(self):
        for name in ("start", "spacing", "length", "ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.rule == "affine":
            if not (0.0 < self.length <= self.spacing):
                raise ValueError("affine rule needs 0 < length <= spacing")
        elif self.rule == "geometric":
            if not (0.0 < self.ratio < 1.0):
                raise ValueError("geometric rule needs 0 < ratio < 1")
            if not (0.0 < self.length <= self.spacing):
                raise ValueError("geometric rule needs 0 < length <= spacing")
        elif self.rule == "explicit":
            ivs = tuple((float(a), float(b)) for a, b in self.intervals)
            if not ivs:
                raise ValueError("explicit rule needs at least one interval")
            for a, b in ivs:
                if not (math.isfinite(a) and math.isfinite(b)):
                    raise ValueError(f"endpoints must be finite, got ({a}, {b})")
                if not a < b:
                    raise ValueError(f"degenerate interval ({a}, {b})")
            for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
                if not b0 <= a1:
                    raise ValueError("intervals must be disjoint and ordered")
            object.__setattr__(self, "intervals", ivs)
        else:
            raise ValueError(f"unknown interval rule {self.rule!r}")

    # -- endpoints ---------------------------------------------------------

    @property
    def n_intervals(self) -> float:
        """Number of intervals; ``math.inf`` for generator rules."""
        return len(self.intervals) if self.rule == "explicit" else math.inf

    def _check_index(self, k: int):
        if k < 0 or k >= self.n_intervals:
            raise IndexError(f"interval index {k} out of range")

    def a(self, k: int) -> float:
        self._check_index(k)
        if self.rule == "explicit":
            return self.intervals[k][0]
        return self.start + self.spacing * k

    def b(self, k: int) -> float:
        self._check_index(k)
        if self.rule == "explicit":
            return self.intervals[k][1]
        return self.a(k) + self.delta(k)

    def delta(self, k: int) -> float:
        """Length of interval k."""
        self._check_index(k)
        if self.rule == "explicit":
            a, b = self.intervals[k]
            return b - a
        if self.rule == "affine":
            return self.length
        return self.length * self.ratio**k

    def sum_delta(self, i: int, j: int) -> float:
        """Sum of interval lengths for indices i..j inclusive (0 if j < i)."""
        if j < i:
            return 0.0
        self._check_index(i)
        if self.rule == "affine":
            self._check_index(j)
            return self.length * (j - i + 1)
        if self.rule == "geometric":
            self._check_index(j)
            # length * (ratio^i - ratio^(j+1)) / (1 - ratio)
            return self.length * (self.ratio**i - self.ratio ** (j + 1)) / (1.0 - self.ratio)
        j = min(j, len(self.intervals) - 1)
        return float(sum(b - a for a, b in self.intervals[i : j + 1]))

    def tail_delta(self, i: int) -> float:
        """Sum of all interval lengths from index i on (may be ``inf``)."""
        if i >= self.n_intervals:
            return 0.0
        self._check_index(max(i, 0))
        if self.rule == "affine":
            return math.inf
        if self.rule == "geometric":
            return self.length * self.ratio**i / (1.0 - self.ratio)
        return float(sum(b - a for a, b in self.intervals[i:]))

    @property
    def total_length(self) -> float:
        return self.tail_delta(0)

    def reach_index(self, k_from: int, horizon: float, min_delta: float = 1e-30) -> int:
        """Largest interval index mass starting in interval ``k_from`` can
        occupy within ``horizon`` time units.

        Jumps between intervals are instantaneous; only interval lengths are
        traversed, so the bound is the smallest J with
        ``sum_delta(k_from + 1, J) >= horizon`` (gaps contribute nothing).
        When the remaining total length is below the horizon (summable
        lengths), the walk stops once interval lengths fall under
        ``min_delta``: anything shorter is below time resolution.
        """
        if not 0.0 <= horizon < math.inf:
            raise ValueError("horizon must be finite and nonnegative")
        j = k_from
        travelled = 0.0
        while True:
            if j + 1 >= self.n_intervals:
                return int(self.n_intervals) - 1
            if travelled >= horizon:
                return j
            j += 1
            travelled += self.delta(j)
            if self.delta(j) < min_delta:
                return j

    # -- point classification ------------------------------------------------

    def index_of(self, x: float):
        """Index k with ``a_k < x < b_k``, or None if x is not interior."""
        k = self._candidate(x)
        if k is None:
            return None
        return k if self.a(k) < x < self.b(k) else None

    def _candidate(self, x: float):
        if self.rule == "explicit":
            starts = [a for a, _ in self.intervals]
            k = bisect.bisect_right(starts, x) - 1
            return k if 0 <= k < len(self.intervals) else None
        # an index past every float (or a NaN point) is outside
        k = (x - self.start) / self.spacing
        return int(k) if 0 <= k < math.inf else None

    def classify(self, x: float) -> tuple[str, int | None]:
        """('interior'|'incoming'|'outgoing'|'outside', index)."""
        k = self._candidate(x)
        if k is None:
            return "outside", None
        if x == self.a(k):
            return "incoming", k
        if x == self.b(k):
            return "outgoing", k
        if self.a(k) < x < self.b(k):
            return "interior", k
        # gap between b_k and a_{k+1}
        if k + 1 < self.n_intervals and x == self.a(k + 1):
            return "incoming", k + 1
        return "outside", None

    def index_of_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised interior-index lookup; -1 marks non-interior points."""
        xs = np.asarray(xs, dtype=np.float64)
        if self.rule == "explicit":
            starts = np.array([a for a, _ in self.intervals])
            ends = np.array([b for _, b in self.intervals])
            k = np.searchsorted(starts, xs, side="right") - 1
            ok = (k >= 0) & (k < len(self.intervals))
            kk = np.clip(k, 0, len(self.intervals) - 1)
            ok &= (starts[kk] < xs) & (xs < ends[kk])
            return np.where(ok, k, -1)
        k = np.floor((xs - self.start) / self.spacing).astype(np.int64)
        ok = k >= 0
        kk = np.maximum(k, 0)
        a = self.start + self.spacing * kk
        if self.rule == "affine":
            d = np.full_like(xs, self.length)
        else:
            d = self.length * self.ratio ** kk.astype(np.float64)
        ok &= (a < xs) & (xs < a + d)
        return np.where(ok, k, -1)


# ---------------------------------------------------------------------------
# 2D convex billiards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VelocitySpec:
    """Velocity ensemble: finite speed set or speeds uniform on an annulus,
    directions isotropic either way."""

    kind: str  # "speeds" | "annulus"
    speeds: tuple = ()
    speed_min: float = 0.0
    speed_max: float = 0.0

    def __post_init__(self):
        if self.kind == "speeds":
            sp = tuple(float(s) for s in self.speeds)
            if not sp or any(s <= 0 for s in sp):
                raise ValueError("finite speed set must be positive")
            object.__setattr__(self, "speeds", sp)
        elif self.kind == "annulus":
            if not 0.0 < self.speed_min <= self.speed_max:
                raise ValueError("annulus needs 0 < speed_min <= speed_max")
        else:
            raise ValueError(f"unknown velocity spec {self.kind!r}")

    @property
    def max_speed(self) -> float:
        return max(self.speeds) if self.kind == "speeds" else self.speed_max

    @property
    def min_speed(self) -> float:
        return min(self.speeds) if self.kind == "speeds" else self.speed_min


@dataclass(frozen=True)
class Billiard:
    """Convex planar table: disk (center, radius) or convex polygon (CCW
    vertex list).  ``velocities`` describes the sampling ensemble and is
    optional for pure-geometry operations."""

    shape: str  # "disk" | "polygon"
    center: tuple = (0.0, 0.0)
    radius: float = 0.0
    vertices: tuple = ()
    velocities: VelocitySpec | None = None

    def __post_init__(self):
        if self.shape == "disk":
            if not self.radius > 0:
                raise ValueError("disk needs positive radius")
            object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        elif self.shape == "polygon":
            vs = tuple((float(x), float(y)) for x, y in self.vertices)
            if len(vs) < 3:
                raise ValueError("polygon needs at least 3 vertices")
            arr = np.array(vs)
            e = np.roll(arr, -1, axis=0) - arr
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            if not np.all(cross > 0):
                raise ValueError("vertices must list a strictly convex polygon counter-clockwise")
            object.__setattr__(self, "vertices", vs)
        else:
            raise ValueError(f"unknown billiard shape {self.shape!r}")

    # -- derived arrays (polygon) -------------------------------------------

    def edge_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals n_i and offsets d_i with the table equal to
        the intersection of half-planes ``n_i . x <= d_i``."""
        arr = np.array(self.vertices)
        e = np.roll(arr, -1, axis=0) - arr
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1)[:, None]
        d = np.sum(n * arr, axis=1)
        return n, d

    def contains(self, pos) -> bool:
        pos = np.asarray(pos, dtype=np.float64)
        if self.shape == "disk":
            return float(np.sum((pos - np.array(self.center)) ** 2)) < self.radius**2
        n, d = self.edge_normals()
        return bool(np.all(n @ pos < d))

    def outward_normal(self, pos) -> np.ndarray:
        pos = np.asarray(pos, dtype=np.float64)
        if self.shape == "disk":
            rel = pos - np.array(self.center)
            nr = float(np.linalg.norm(rel))
            if nr == 0.0:
                raise BoundaryPointError("center of the disk has no boundary normal")
            return rel / nr
        n, d = self.edge_normals()
        slack = d - n @ pos
        return n[int(np.argmin(slack))]

    def exit_time(self, pos, vel) -> float:
        """Forward flight time to the boundary from an interior point (or a
        boundary point moving inward)."""
        pos = np.asarray(pos, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        v2 = float(vel @ vel)
        if v2 == 0.0:
            raise ValueError("velocity must be nonzero")
        if self.shape == "disk":
            rel = pos - np.array(self.center)
            b = float(rel @ vel)
            c = float(rel @ rel) - self.radius**2
            disc = b * b - v2 * c
            if disc < 0.0:
                disc = 0.0
            root = math.sqrt(disc)
            # stable quadratic: avoid cancellation when b > 0 and c ~ 0
            if b > 0.0:
                s = -c / (b + root)
            else:
                s = (root - b) / v2
            return max(s, 0.0)
        n, d = self.edge_normals()
        speed_n = n @ vel
        ahead = speed_n > 0.0
        if not np.any(ahead):
            raise NoBackwardExit("ray never meets the polygon boundary")
        times = (d[ahead] - n[ahead] @ pos) / speed_n[ahead]
        return float(max(np.min(times), 0.0))

    def nearest_vertex_distance(self, pos) -> float:
        arr = np.array(self.vertices)
        return float(np.min(np.linalg.norm(arr - np.asarray(pos), axis=1)))


# ---------------------------------------------------------------------------
# Flow operations (dispatch on geometry kind)
# ---------------------------------------------------------------------------


def stay_times(p, geom):
    """Backward and forward boundary-hit times ``(tau_minus, tau_plus)`` of
    an interior phase point.

    Boundary or exterior points are refused with :class:`BoundaryPointError`.
    """
    if isinstance(geom, IntervalUnion):
        x = float(p)
        kind, k = geom.classify(x)
        if kind != "interior":
            raise BoundaryPointError(f"x={x} is {kind}, stay times need an interior point")
        return x - geom.a(k), geom.b(k) - x
    pos, vel = p
    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    if not geom.contains(pos):
        raise BoundaryPointError(f"position {pos.tolist()} is not interior to the table")
    return geom.exit_time(pos, -vel), geom.exit_time(pos, vel)


def advect(p, t, geom):
    """Move a phase point along the free flow by time t (either sign).

    t must lie strictly inside the stay window ``(-tau_minus, tau_plus)``;
    anything else raises :class:`StayTimeViolation` naming the violated
    stay time.
    """
    tau_minus, tau_plus = stay_times(p, geom)
    if not -tau_minus < t < tau_plus:
        which = ("backward stay time tau_minus=" + repr(tau_minus)) if t <= -tau_minus else (
            "forward stay time tau_plus=" + repr(tau_plus)
        )
        raise StayTimeViolation(f"t={t} violates {which}")
    if isinstance(geom, IntervalUnion):
        return float(p) + t
    pos, vel = p
    return np.asarray(pos, dtype=np.float64) + t * np.asarray(vel, dtype=np.float64), np.asarray(
        vel, dtype=np.float64
    )


def boundary_foot(z, geom):
    """Trace an outgoing boundary point back to the incoming boundary point
    it entered through; returns ``(foot, tau_minus)``.

    For interval unions z must equal some ``b_k`` and the foot is ``a_k``;
    for billiards z is ``(pos, vel)`` with pos on the boundary and
    ``v . n > 0``, and the foot is the other end of the chord.
    """
    if isinstance(geom, IntervalUnion):
        x = float(z)
        kind, k = geom.classify(x)
        if kind != "outgoing":
            raise BoundaryPointError(f"x={x} is {kind}, expected an outgoing endpoint b_k")
        tau = geom.b(k) - geom.a(k)
        if not math.isfinite(tau):
            raise NoBackwardExit("no finite backward exit time")
        return geom.a(k), tau
    pos, vel = z
    pos = np.asarray(pos, dtype=np.float64)
    vel = np.asarray(vel, dtype=np.float64)
    n = geom.outward_normal(pos)
    if float(vel @ n) <= 0.0:
        raise BoundaryPointError("phase point is not on the outgoing boundary")
    tau = geom.exit_time(pos, -vel)
    if not math.isfinite(tau):
        raise NoBackwardExit("no finite backward exit time")
    return (pos - tau * vel, vel), tau


def rebound_sequence(p, t_max, geom):
    """Forward rebound history of a billiard phase point up to time t_max.

    Returns ``(events, degenerate)`` where events is a list of
    ``(t_k, x_k, v_k)`` tuples: the k-th boundary hit time, hit position and
    post-reflection velocity (pointing inward).  Tangential hits
    (``|v.n|/|v| < TANGENT_EPS``) and polygon vertex hits (closer to a vertex
    than ``TANGENT_EPS`` times the largest vertex-coordinate magnitude, so
    that scaled copies of a table flag alike) are not reflected: the
    sequence stops there and ``degenerate`` is True.
    """
    if not isinstance(geom, Billiard):
        raise TypeError("rebound sequences are defined for billiard tables")
    pos, vel = p
    pos = np.asarray(pos, dtype=np.float64).copy()
    vel = np.asarray(vel, dtype=np.float64).copy()
    speed = float(np.linalg.norm(vel))
    if speed == 0.0:
        raise ValueError("velocity must be nonzero")
    if geom.shape == "polygon":
        vert_eps = TANGENT_EPS * float(np.max(np.abs(geom.vertices)))
    events = []
    elapsed = 0.0
    while True:
        s = geom.exit_time(pos, vel)
        if elapsed + s > t_max:
            return events, False
        elapsed += s
        pos = pos + s * vel
        if geom.shape == "disk":
            # re-anchor the hit onto the circle so chords stay exact
            c = np.array(geom.center)
            rel = pos - c
            rel /= np.linalg.norm(rel)
            pos = c + geom.radius * rel
            n = rel
        else:
            if geom.nearest_vertex_distance(pos) < vert_eps:
                return events, True
            n = geom.outward_normal(pos)
        vn = float(vel @ n)
        if abs(vn) < TANGENT_EPS * speed:
            return events, True
        vel = vel - 2.0 * vn * n
        events.append((elapsed, pos.copy(), vel.copy()))
