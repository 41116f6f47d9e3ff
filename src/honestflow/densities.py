"""Density representations: exact piecewise-constant densities on interval
unions and weighted particle ensembles on billiard tables.

A :class:`PiecewiseDensity` maps interval indices to step functions living
inside the corresponding intervals; all linear operations and the free
stream are closed on this class, so 1D evolution is exact.

A :class:`ParticleEnsemble` carries positions, velocities, weights, rebound
counters and degeneracy flags as flat numpy arrays.  Sampling is counter
based (splitmix64 keyed by seed, particle index and draw stream), so an
ensemble is a pure function of (geometry, spec, seed, size), and any slice
of indices can be drawn alone.

A :class:`ReboundCounts` holds the last three arrays alone.  A particle's
rebound count is the expansion order it contributes to, so these are all
that the ensemble reports read: the rebound histogram, its tail weights and
the degenerate weight.  ``transport_counts_times`` yields them along a
trajectory without transporting positions on a disk, and
``sample_disk_counts`` yields them for a sampled disk without ever holding
its positions or velocities.  Both feed ``_kernels.disk_counts`` one slice
of states at a time: views of the held ensemble, or draws of the helper
that ``sample_ensemble`` uses, each reduced to its chords and dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .geometry import Billiard, IntervalUnion, VelocitySpec
from .steps import StepFunction

__all__ = [
    "PiecewiseDensity",
    "ParticleEnsemble",
    "ReboundCounts",
    "free_stream",
    "restrict",
    "sample_disk_counts",
    "sample_ensemble",
    "sample_ladder_positions",
    "transport_counts_times",
    "transport_ensemble",
]

# draw-stream layout for counter-based sampling (per particle):
#   0, 1, 2 -> position; 3, 4 -> velocity; 8+ -> survival draws (kernels)
_POS_STREAMS = (0, 1, 2)
_VEL_STREAMS = (3, 4)


class PiecewiseDensity:
    """Finitely supported map ``interval index -> StepFunction``.

    Each step function must live inside its interval.  The zero function on
    an interval is simply absent from the map.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: dict[int, StepFunction]):
        self.parts = {int(k): f for k, f in parts.items() if not f.is_zero}

    @classmethod
    def zero(cls) -> "PiecewiseDensity":
        return cls({})

    @classmethod
    def from_pieces(cls, geom: IntervalUnion, pieces) -> "PiecewiseDensity":
        """Build from ``(lo, hi, value)`` pieces, validating that every piece
        sits inside a single interval of the geometry."""
        parts: dict[int, StepFunction] = {}
        for lo, hi, value in pieces:
            lo, hi, value = float(lo), float(hi), float(value)
            if not lo < hi:
                raise ValueError(f"piece ({lo}, {hi}) is empty")
            klo = geom.index_of(lo)
            if klo is None:
                kind, k = geom.classify(lo)
                klo = k if kind == "incoming" else None
            if klo is None or not hi <= geom.b(klo):
                raise ValueError(
                    f"piece ({lo}, {hi}) does not sit inside one interval of the geometry"
                )
            f = StepFunction.indicator(lo, hi, value)
            parts[klo] = parts[klo] + f if klo in parts else f
        return cls(parts)

    # -- queries -------------------------------------------------------------

    def mass(self) -> float:
        return float(sum(f.integral() for f in self.parts.values()))

    def abs_mass(self) -> float:
        return float(sum(f.abs_integral() for f in self.parts.values()))

    def min_value(self) -> float:
        if not self.parts:
            return 0.0
        return min(f.min_value() for f in self.parts.values())

    @property
    def is_nonnegative(self) -> bool:
        return self.min_value() >= 0.0

    def part(self, k: int) -> StepFunction:
        return self.parts.get(int(k), StepFunction.zero())

    def indices(self) -> list[int]:
        return sorted(self.parts)

    def __call__(self, x: float, geom: IntervalUnion) -> float:
        k = geom.index_of(x)
        if k is None:
            return 0.0
        return self.part(k)(x)

    def max_index(self) -> int:
        return max(self.parts) if self.parts else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseDensity):
            return NotImplemented
        return self.parts == other.parts

    def __repr__(self):
        return f"PiecewiseDensity({self.parts!r})"

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "PiecewiseDensity") -> "PiecewiseDensity":
        parts = dict(self.parts)
        for k, f in other.parts.items():
            parts[k] = parts[k] + f if k in parts else f
        return PiecewiseDensity(parts)

    def __sub__(self, other: "PiecewiseDensity") -> "PiecewiseDensity":
        return self + other.scale(-1.0)

    def scale(self, a: float) -> "PiecewiseDensity":
        return PiecewiseDensity({k: f.scale(a) for k, f in self.parts.items()})

    def l1_distance(self, other: "PiecewiseDensity") -> float:
        return (self - other).abs_mass()

    def to_rows(self):
        """Flat ``(k, lo, hi, value)`` rows for reports."""
        rows = []
        for k in self.indices():
            f = self.parts[k]
            for i in range(f.vals.size):
                rows.append((k, float(f.xs[i]), float(f.xs[i + 1]), float(f.vals[i])))
        return rows


def restrict(f: PiecewiseDensity, k: int) -> PiecewiseDensity:
    """Restriction to a single interval of the geometry."""
    part = f.part(k)
    return PiecewiseDensity({k: part}) if not part.is_zero else PiecewiseDensity.zero()


def free_stream(f: PiecewiseDensity, t: float, geom: IntervalUnion) -> PiecewiseDensity:
    """Drift by time t with absorption at the outgoing endpoints.

    Each interval's content shifts right; whatever crosses ``b_k`` is
    dropped here (it re-enters through the boundary operator at higher
    expansion orders, not in the free part).
    """
    if t < 0.0:
        raise ValueError("free stream runs forward in time")
    if t == 0.0:
        return f
    parts = {}
    for k, part in f.parts.items():
        shifted = part.shift(t).clip(geom.a(k), geom.b(k))
        if not shifted.is_zero:
            parts[k] = shifted
    return PiecewiseDensity(parts)


# ---------------------------------------------------------------------------
# particle ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReboundCounts:
    """Weights, rebound counters and degeneracy flags of N particles.

    Treat the arrays as read-only: the rebound histogram is built once, on
    first use, and every report derived from this record reads that one.
    Along a trajectory at scale 1 no weight changes, and every time's
    record holds one shared read-only weight array.
    """

    weight: np.ndarray
    rebounds: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return self.weight.shape[0]

    def mass(self) -> float:
        """Total weight, degenerate (frozen) particles included."""
        return float(self.weight.sum())

    def degenerate_weight(self) -> float:
        return float(self.weight[self.degenerate].sum())

    @cached_property
    def _histogram(self) -> np.ndarray:
        if len(self) == 0:
            hist = np.zeros(1)
        else:
            top = int(self.rebounds.max())
            hist = np.bincount(self.rebounds, weights=self.weight, minlength=top + 1)
        hist.flags.writeable = False
        return hist

    def rebound_histogram(self) -> np.ndarray:
        """Weight per rebound count, index n holding weight with exactly n.

        The same read-only array on every call; its last index is the
        largest rebound count."""
        return self._histogram

    def max_rebounds(self) -> int:
        return self.rebound_histogram().size - 1

    def tail_weights(self, n_max: int | None = None) -> np.ndarray:
        """``out[n]`` = weight of particles with at least n+1 rebounds.

        This estimates the time-integrated outgoing trace norm of expansion
        order n: exactly the mass whose (n+1)-th boundary hit happened
        within the elapsed time.  The array runs one order past the largest
        observed rebound count, so its last entry is exactly zero.
        """
        hist = np.concatenate([self.rebound_histogram(), [0.0]])
        if n_max is not None and n_max + 2 > hist.size:
            hist = np.concatenate([hist, np.zeros(n_max + 2 - hist.size)])
        tail = np.cumsum(hist[::-1])[::-1]
        out = tail[1:]
        return out if n_max is None else out[: n_max + 1]


@dataclass
class ParticleEnsemble:
    """Weighted billiard population.  Arrays share one length N."""

    pos: np.ndarray
    vel: np.ndarray
    weight: np.ndarray
    rebounds: np.ndarray
    degenerate: np.ndarray
    seed: int

    def __post_init__(self):
        n = self.pos.shape[0]
        if (
            self.pos.shape != (n, 2)
            or self.vel.shape != (n, 2)
            or self.weight.shape != (n,)
            or self.rebounds.shape != (n,)
            or self.degenerate.shape != (n,)
        ):
            raise ValueError("ensemble arrays have inconsistent shapes")

    @property
    def counts(self) -> ReboundCounts:
        """The weights, rebound counters and flags, not copied."""
        return ReboundCounts(self.weight, self.rebounds, self.degenerate)

    def __len__(self) -> int:
        return len(self.counts)

    def mass(self) -> float:
        """Total weight, degenerate (frozen) particles included."""
        return self.counts.mass()

    def speeds(self) -> np.ndarray:
        return np.sqrt(np.sum(self.vel * self.vel, axis=1))

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            self.pos.copy(),
            self.vel.copy(),
            self.weight.copy(),
            self.rebounds.copy(),
            self.degenerate.copy(),
            self.seed,
        )

    def degenerate_weight(self) -> float:
        return self.counts.degenerate_weight()

    def rebound_histogram(self) -> np.ndarray:
        """Weight per rebound count, as ``ReboundCounts.rebound_histogram``."""
        return self.counts.rebound_histogram()

    def max_rebounds(self) -> int:
        return self.counts.max_rebounds()

    def tail_weights(self, n_max: int | None = None) -> np.ndarray:
        """Tail weights per order, as ``ReboundCounts.tail_weights``."""
        return self.counts.tail_weights(n_max)


def _region_spec(region, geom: Billiard):
    if region == "domain":
        if geom.shape == "disk":
            return ("disk", geom.center[0], geom.center[1], geom.radius)
        return ("polygon",)
    if isinstance(region, str) and region.startswith("disk:"):
        cx, cy, rad = (float(s) for s in region[5:].split(","))
        # the region may touch the wall up to a slack relative to the table's
        # own size: its radius, or a polygon's largest vertex distance from
        # the vertex mean
        if geom.shape == "disk":
            gx, gy = geom.center
            fits = np.hypot(cx - gx, cy - gy) + rad <= geom.radius + 1e-12 * geom.radius
        else:
            verts = np.array(geom.vertices)
            size = float(np.max(np.hypot(*(verts - verts.mean(axis=0)).T)))
            n, d = geom.edge_normals()
            fits = np.all(n @ np.array([cx, cy]) + rad <= d + 1e-12 * size)
        if not fits or rad <= 0:
            raise ValueError(f"region {region!r} does not sit inside the table")
        return ("disk", cx, cy, rad)
    if isinstance(region, str) and region.startswith("box:"):
        x0, y0, x1, y1 = (float(s) for s in region[4:].split(","))
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"region {region!r} is empty")
        corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
        if not all(geom.contains(c) for c in corners):
            raise ValueError(f"region {region!r} does not sit inside the table")
        return ("box", x0, y0, x1, y1)
    raise ValueError(f"unknown sampling region {region!r}")


def _state_sampler(geom: Billiard, n: int, seed: int, region):
    # validates a request for n particles and returns draw(lo, hi): the
    # positions and velocities x, y, vx, vy of particles lo..hi-1, each a
    # pure function of (seed, index), so any slicing gives the same bits
    if geom.velocities is None:
        raise ValueError("billiard has no velocity spec to sample from")
    if n <= 0:
        raise ValueError("ensemble size must be positive")
    spec = _region_spec(region, geom)
    if spec[0] == "polygon":
        # fan triangulation of the convex polygon, area-weighted
        verts = np.array(geom.vertices)
        v0, rest = verts[0], verts[1:]
        areas = 0.5 * np.abs(
            (rest[:-1, 0] - v0[0]) * (rest[1:, 1] - v0[1])
            - (rest[1:, 0] - v0[0]) * (rest[:-1, 1] - v0[1])
        )
        cum = np.cumsum(areas) / areas.sum()
    vs = geom.velocities
    speeds = np.array(vs.speeds) if vs.kind == "speeds" else None

    def draw(lo, hi):
        # each particle's index is hashed once for all of its draw streams
        hashed = _kernels.index_hash(seed, np.arange(lo, hi, dtype=np.int64))
        u0 = _kernels.stream_draws(hashed, _POS_STREAMS[0])
        u1 = _kernels.stream_draws(hashed, _POS_STREAMS[1])
        if spec[0] == "disk":
            _, cx, cy, rad = spec
            r = rad * np.sqrt(u0)
            ang = 2.0 * np.pi * u1
            x, y = cx + r * np.cos(ang), cy + r * np.sin(ang)
        elif spec[0] == "box":
            _, x0, y0, x1, y1 = spec
            x, y = x0 + (x1 - x0) * u0, y0 + (y1 - y0) * u1
        else:
            tri = np.minimum(np.searchsorted(cum, u0, side="right"), cum.size - 1)
            u2 = _kernels.stream_draws(hashed, _POS_STREAMS[2])
            su = np.sqrt(u1)
            a, b, c = 1.0 - su, su * (1.0 - u2), su * u2
            p1, p2 = rest[tri], rest[tri + 1]
            x = a * v0[0] + b * p1[:, 0] + c * p2[:, 0]
            y = a * v0[1] + b * p1[:, 1] + c * p2[:, 1]
        uv0 = _kernels.stream_draws(hashed, _VEL_STREAMS[0])
        uv1 = _kernels.stream_draws(hashed, _VEL_STREAMS[1])
        if speeds is not None:
            pick = np.minimum((uv0 * speeds.size).astype(np.int64), speeds.size - 1)
            speed = speeds[pick]
        else:
            speed = np.sqrt(vs.speed_min**2 + uv0 * (vs.speed_max**2 - vs.speed_min**2))
        ang = 2.0 * np.pi * uv1
        return x, y, speed * np.cos(ang), speed * np.sin(ang)

    return draw


def _initial_counts(n: int) -> ReboundCounts:
    # unit total weight, no rebounds, nothing flagged
    return ReboundCounts(np.full(n, 1.0 / n), np.zeros(n, dtype=np.int64),
                         np.zeros(n, dtype=np.bool_))


def sample_ensemble(geom: Billiard, n: int, seed: int, region="domain") -> ParticleEnsemble:
    """Uniform positions on the region, isotropic velocities per the table's
    velocity spec, unit total weight."""
    draw = _state_sampler(geom, n, seed, region)
    pos, vel = np.empty((n, 2)), np.empty((n, 2))
    pos[:, 0], pos[:, 1], vel[:, 0], vel[:, 1] = draw(0, n)
    counts = _initial_counts(n)
    return ParticleEnsemble(pos, vel, counts.weight, counts.rebounds, counts.degenerate,
                            int(seed))


def sample_disk_counts(geom: Billiard, n: int, seed: int, region, times, scale: float):
    """The initial counts and the rebound-count trajectory of a sampled disk
    ensemble, from its chords alone.

    Returns ``(counts0, trajectory)``: ``counts0`` is bitwise
    ``sample_ensemble(geom, n, seed, region).counts``, and ``trajectory``
    yields bitwise what ``transport_counts_times`` yields for that ensemble,
    ``times``, ``geom`` and ``scale``.  Bad requests and times raise
    ValueError here.  No particle state is ever held whole: the particles
    cost 17 bytes each for chords plus 17 for their counts, and each time
    in hand 17 more, or 9 at scale 1.  ``counts0.weight`` is read-only, and
    at scale 1 every time's weight is that array itself.
    """
    if geom.shape != "disk":
        raise ValueError("disk counts are defined on a disk table")
    draw = _state_sampler(geom, n, seed, region)
    ts = _kernels.distinct_times(times)
    counts0 = _initial_counts(n)
    counts0.weight.flags.writeable = False
    steps = _kernels.disk_counts(draw, counts0.weight, counts0.rebounds, counts0.degenerate,
                                 geom, ts, scale)
    return counts0, _trajectory(ts, steps)


# a position may lie this far outside the table, relative to the table's
# largest coordinate magnitude: that magnitude sets the rounding of every
# position on the table, transported ones on the wall included
_OUTSIDE_SLACK = 1e-12


def _check_on_table(ens: ParticleEnsemble, geom: Billiard):
    # the kernels move a particle outside the table through its walls
    # silently wrong, so such a state is refused, naming the first one
    x, y = ens.pos[:, 0], ens.pos[:, 1]
    if geom.shape == "disk":
        cx, cy = geom.center
        outside = np.hypot(x - cx, y - cy) - geom.radius
        reach = max(abs(cx), abs(cy)) + geom.radius
    else:
        normals, offsets = geom.edge_normals()
        outside = np.full(len(ens), -np.inf)
        for (nx, ny), d in zip(normals, offsets):
            outside = np.maximum(outside, x * nx + y * ny - d)
        reach = float(np.max(np.abs(geom.vertices)))
    # NaN positions fail the comparison and are refused too
    bad = np.flatnonzero(~(outside <= _OUTSIDE_SLACK * reach))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"particle {i} at {ens.pos[i].tolist()} lies outside the table")


def transport_ensemble(
    ens: ParticleEnsemble, t: float, geom: Billiard, scale: float = 1.0
) -> ParticleEnsemble:
    """Billiard flow applied to every particle for time t.

    Rebound counters accumulate one per reflection (the expansion order the
    particle currently contributes to); grazing hits freeze the particle and
    raise its degenerate flag.  ``scale`` is the per-reflection boundary
    weight.  A particle outside the table, by more than rounding can put a
    transported one there, raises ValueError naming its index.
    """
    _check_on_table(ens, geom)
    out = ens.copy()
    _kernels.billiard_transport(
        out.pos, out.vel, out.weight, out.rebounds, out.degenerate, geom, t, scale=scale
    )
    return out


# particle states one polygon sweep may hold, summed over its times: bounds
# the sweep's memory (25 bytes per state: a row's weight, rebound count and
# flag, and its remaining time) to about 52 MB whatever the number of times
SWEEP_STATES = 1 << 21


def _polygon_trajectory(ens: ParticleEnsemble, weight, ts, geom: Billiard, scale: float):
    # (t, counts) at the distinct ascending times ts, views of the sweep's
    # rows; every group starts from ens, with weight for its weights, so it
    # stays bitwise, and the counts the caller holds can keep the previous
    # group alive while the next runs
    rows = max(1, SWEEP_STATES // max(1, len(ens)))
    for lo in range(0, ts.size, rows):
        group = ts[lo:lo + rows]
        counts = _kernels.polygon_counts(ens.pos, ens.vel, weight, ens.rebounds,
                                         ens.degenerate, geom, group, scale)
        for k, t in enumerate(group.tolist()):
            yield t, ReboundCounts(*(a[k] for a in counts))
        del counts


def transport_counts_times(ens: ParticleEnsemble, times, geom: Billiard, scale: float = 1.0):
    """The rebound counts of an ensemble's trajectory at several times.

    Returns an iterator of ``(t, counts)`` over the distinct ``times`` in
    ascending order; each ``counts`` is bitwise ``transport_ensemble(ens, t,
    geom, scale).counts``.  Bad times, and particles outside the table as
    ``transport_ensemble`` refuses them, raise ValueError here, not when
    iterating.  The weights are copied once, read-only, per call: at scale 1
    every time's counts hold that one copy, and no later write to
    ``ens.weight`` reaches them.  A disk never transports positions: each
    particle's first hit and chord are computed once, about 17 bytes per
    particle held for the whole trajectory, and each time then costs one
    streaming pass over them.  A polygon steps every particle's events once
    per group of times, up to the group's largest, each group holding at
    most ``SWEEP_STATES`` particle states of 25 bytes (weight, count and
    flag per time, never positions or velocities, plus the remaining time;
    17 at scale 1, with no weight), and yields views of the sweep's rows,
    without copying them.  The sweep runs one block of particles per CPU;
    its rows are the same bytes for any number of blocks.
    """
    ts = _kernels.distinct_times(times)
    _check_on_table(ens, geom)
    weight = ens.weight.copy()
    weight.flags.writeable = False
    if geom.shape == "disk":
        pos, vel = ens.pos, ens.vel
        steps = _kernels.disk_counts(
            lambda lo, hi: (pos[lo:hi, 0], pos[lo:hi, 1], vel[lo:hi, 0], vel[lo:hi, 1]),
            weight, ens.rebounds, ens.degenerate, geom, ts, scale)
        return _trajectory(ts, steps)
    return _polygon_trajectory(ens, weight, ts, geom, scale)


def _trajectory(ts, steps):
    # (t, counts) pairs from the disk kernel's (weight, rebounds, degenerate)
    return zip(ts.tolist(), (ReboundCounts(*arrays) for arrays in steps))


# ---------------------------------------------------------------------------
# 1D sampling (Monte Carlo cross-check of the exact lane)
# ---------------------------------------------------------------------------


def sample_ladder_positions(f: PiecewiseDensity, geom: IntervalUnion, n: int, seed: int):
    """Draw n positions from the normalised density by inverse CDF.

    Returns ``(x0, k0)``: positions and their interval indices.  The draw
    for particle i is keyed by (seed, i, stream 0) only, so it is stable
    under resizing of later particles.
    """
    if not f.is_nonnegative:
        raise ValueError("cannot sample from a signed density")
    total = f.mass()
    if total <= 0.0:
        raise ValueError("cannot sample from a zero density")
    lows, highs, vals, ks = [], [], [], []
    for k in f.indices():
        part = f.parts[k]
        for i in range(part.vals.size):
            if part.vals[i] > 0.0:
                lows.append(part.xs[i])
                highs.append(part.xs[i + 1])
                vals.append(part.vals[i])
                ks.append(k)
    lows = np.array(lows)
    highs = np.array(highs)
    masses = np.array(vals) * (highs - lows)
    cum = np.cumsum(masses)
    idx = np.arange(n, dtype=np.int64)
    u = _kernels.uniform_array(seed, idx, _POS_STREAMS[0]) * cum[-1]
    piece = np.searchsorted(cum, u, side="right")
    piece = np.minimum(piece, masses.size - 1)
    before = np.where(piece > 0, cum[piece - 1], 0.0)
    frac = (u - before) / masses[piece]
    x0 = lows[piece] + frac * (highs[piece] - lows[piece])
    k0 = np.array(ks, dtype=np.int64)[piece]
    return x0, k0
