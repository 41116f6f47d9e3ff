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
that the ensemble reports read, and only through a :class:`ReboundTally`:
the mass, the rebound histogram, its tail weights and the degenerate
weight.  ``transport_counts_times`` yields a held ensemble's counts along a
trajectory, one full-state transport per time.  A sampled ensemble's
particles start alike, so its tallies come from integer counts alone
(``ReboundTally.from_counts``); ``sample_counts`` counts a sampled
ensemble at every time in one pass, and never holds its particles.  The
billiard entry points refuse a boundary weight scale outside (0, 1].
"""

from __future__ import annotations

import math
import numbers
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
    "ReboundTally",
    "free_stream",
    "restrict",
    "sample_counts",
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
        # the mass bound is NaN or inf once a number is, or once the pieces
        # hold more mass than a float can
        mass = 0.0
        for lo, hi, value in pieces:
            lo, hi, value = float(lo), float(hi), float(value)
            mass += (hi - lo) * abs(value)
            if not np.isfinite(mass):
                raise ValueError(f"piece ({lo}, {hi}, {value}) makes the mass not finite")
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
            # pieces summing past the largest float are refused as not finite
            with np.errstate(over="ignore"):
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


def _repeated_sums(counts, value: float) -> np.ndarray:
    # 0.0 + value + value + ... over c copies for every entry c of counts, as
    # np.bincount adds them: one cumulative sum up to the largest count, in
    # chunks each starting from the last one's total
    sums = np.zeros(counts.shape)
    top = int(counts.max(initial=0))
    chunk = _kernels.DISK_CHUNK
    buf = np.empty(min(top, chunk) + 1)
    total = 0.0
    for lo in range(0, top, chunk):
        part = buf[:min(chunk, top - lo) + 1]
        part[0], part[1:] = total, value
        np.cumsum(part, out=part)
        inside = (counts > lo) & (counts < lo + part.size)
        sums[inside] = part[counts[inside] - lo]
        total = part[-1]
    return sums


@dataclass(frozen=True, eq=False)
class ReboundTally:
    """The report values of N particles' rebound counts at one time.

    A particle's rebound count is the expansion order it contributes to, so
    the reports read only these: the total weight, the weight per rebound
    count and the degenerate weight.  The histogram is read-only.
    """

    size: int
    total: float
    histogram: np.ndarray
    flagged: float

    def __post_init__(self):
        self.histogram.flags.writeable = False

    @classmethod
    def from_counts(cls, size, tallies, weights, mass=None) -> list["ReboundTally"]:
        """The tallies of ``size`` particles, one per ``(counts, flagged)`` of
        ``tallies``: ``counts[n]`` of them with n < ``weights.size`` rebounds,
        ``flagged[n]`` of those degenerate, each weighing ``weights[n]``.

        ``histogram[n]`` is 0.0 + w + w + ... over ``counts[n]`` copies of w,
        the bits of ``np.bincount(n, weights=w)``.  Given ``mass``, no weight
        has changed since sampling: it is the total, and the degenerate
        weight is the sum of f copies of ``weights[0]`` over the f flagged,
        the bits of ``w[d].sum()``.  Else both are ``math.fsum`` of their bins.
        """
        # every time's counts and flagged counts, zero-padded to one width
        grid = np.zeros((2, len(tallies), weights.size), dtype=np.intp)
        for k, (counts, flagged) in enumerate(tallies):
            grid[0, k, :counts.size], grid[1, k, :flagged.size] = counts, flagged
        sums = np.zeros(grid.shape)
        for w in np.unique(weights[grid.any(axis=(0, 1))]).tolist():
            sums[..., weights == w] = _repeated_sums(grid[..., weights == w], w)
        hists = [sums[0, k, :counts.size].copy() for k, (counts, _) in enumerate(tallies)]
        if mass is None:
            return [cls(size, math.fsum(h), h, math.fsum(f)) for h, f in zip(hists, sums[1])]
        return [cls(size, mass, h, float(np.broadcast_to(weights[0], (f.sum(),)).sum()))
                for h, (_, f) in zip(hists, tallies)]

    def __len__(self) -> int:
        return self.size

    def mass(self) -> float:
        """Total weight, degenerate (frozen) particles included."""
        return self.total

    def degenerate_weight(self) -> float:
        return self.flagged

    def rebound_histogram(self) -> np.ndarray:
        """Weight per rebound count, index n holding weight with exactly n.

        The same read-only array on every call; its last index is the
        largest rebound count."""
        return self.histogram

    def max_rebounds(self) -> int:
        return self.histogram.size - 1

    def tail_weights(self, n_max: int | None = None) -> np.ndarray:
        """``out[n]`` = weight of particles with at least n+1 rebounds.

        This estimates the time-integrated outgoing trace norm of expansion
        order n: exactly the mass whose (n+1)-th boundary hit happened
        within the elapsed time.  The array runs one order past the largest
        observed rebound count, so its last entry is exactly zero.
        """
        hist = np.concatenate([self.histogram, [0.0]])
        if n_max is not None and n_max + 2 > hist.size:
            hist = np.concatenate([hist, np.zeros(n_max + 2 - hist.size)])
        tail = np.cumsum(hist[::-1])[::-1]
        out = tail[1:]
        return out if n_max is None else out[: n_max + 1]


@dataclass(frozen=True, eq=False)
class ReboundCounts:
    """Weights, rebound counters and degeneracy flags of N particles.

    Treat the arrays as read-only: the report values are tallied once, on
    first use, and every report derived from this record reads that tally.
    Along a ``transport_counts_times`` trajectory at scale 1 no weight
    changes, and every time's record holds the snapshot's one read-only
    weight array.
    """

    weight: np.ndarray
    rebounds: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return self.weight.shape[0]

    def mass(self) -> float:
        """Total weight, degenerate (frozen) particles included."""
        return float(self.weight.sum())

    @cached_property
    def _tally(self) -> ReboundTally:
        hist = (np.bincount(self.rebounds, weights=self.weight) if len(self)
                else np.zeros(1))
        return ReboundTally(len(self), self.mass(), hist,
                            float(self.weight[self.degenerate].sum()))

    def degenerate_weight(self) -> float:
        return self._tally.degenerate_weight()

    def rebound_histogram(self) -> np.ndarray:
        """As ``ReboundTally.rebound_histogram``."""
        return self._tally.rebound_histogram()

    def max_rebounds(self) -> int:
        return self._tally.max_rebounds()

    def tail_weights(self, n_max: int | None = None) -> np.ndarray:
        """As ``ReboundTally.tail_weights``."""
        return self._tally.tail_weights(n_max)


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


def _numbers(text: str) -> tuple:
    # comma separated numbers; a ValueError names the text
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"expected comma separated numbers, got {text!r}") from None


# sampling regions besides "domain": prefix -> the numbers that follow it
_REGIONS = {"disk:": ("cx", "cy", "r"), "box:": ("x0", "y0", "x1", "y1")}


def _region_spec(region, geom: Billiard):
    # the sampling region as a tuple, once it parses and sits inside the
    # table; a ValueError says why not
    if region == "domain":
        if geom.shape == "disk":
            return ("disk", geom.center[0], geom.center[1], geom.radius)
        return ("polygon",)
    prefix = next((p for p in _REGIONS if isinstance(region, str) and region.startswith(p)), None)
    if prefix is None:
        raise ValueError(f"expected domain|disk:...|box:..., got {region!r}")
    values = _numbers(region[len(prefix):])
    if len(values) != len(_REGIONS[prefix]):
        raise ValueError(f"expected {prefix}{','.join(_REGIONS[prefix])}, got {region!r}")
    if prefix == "disk:":
        cx, cy, rad = values
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
            raise ValueError(f"{region!r} does not sit inside the table")
        return ("disk", cx, cy, rad)
    x0, y0, x1, y1 = values
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"{region!r} is empty")
    corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    if not all(geom.contains(c) for c in corners):
        raise ValueError(f"{region!r} does not sit inside the table")
    return ("box", x0, y0, x1, y1)


def _state_sampler(geom: Billiard, n: int, seed: int, region):
    # validates a request for n particles and returns draw(lo, hi, out,
    # work), which writes the positions and velocities x, y, vx, vy of
    # particles lo..hi-1, at most DISK_CHUNK of them, into the four buffers
    # out through four float64 buffers work at least hi - lo long.  Each
    # draw is a pure function of (seed, index, stream), so any slicing
    # gives the same bits
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
    # a draw's indices are lo + iota, so a draw is at most this long
    iota = np.arange(min(n, _kernels.DISK_CHUNK), dtype=np.uint64)

    def draw(lo, hi, out, work):
        x, y, vx, vy = out
        h, z, f, g = (a[:hi - lo] for a in work)
        # each particle's index is hashed once, in uint64 views, for all of
        # its draw streams
        h, z = h.view(np.uint64), z.view(np.uint64)
        _kernels._hash_into(np.add(iota[:hi - lo], lo, out=h), seed, z)

        def u(stream, into):
            return _kernels.stream_draws(h, stream, into, z)

        if spec[0] == "disk":
            _, cx, cy, rad = spec
            # r = rad sqrt(u0) in vx and the angle 2 pi u1 in vy
            r = np.multiply(np.sqrt(u(_POS_STREAMS[0], vx), out=vx), rad, out=vx)
            ang = np.multiply(u(_POS_STREAMS[1], vy), 2.0 * np.pi, out=vy)
            np.add(np.multiply(np.cos(ang, out=x), r, out=x), cx, out=x)
            np.add(np.multiply(np.sin(ang, out=y), r, out=y), cy, out=y)
        elif spec[0] == "box":
            _, x0, y0, x1, y1 = spec
            np.add(np.multiply(u(_POS_STREAMS[0], x), x1 - x0, out=x), x0, out=x)
            np.add(np.multiply(u(_POS_STREAMS[1], y), y1 - y0, out=y), y0, out=y)
        else:
            tri = np.minimum(np.searchsorted(cum, u(_POS_STREAMS[0], f), side="right"),
                             cum.size - 1)
            # barycentric weights a, b, c = 1 - su, su (1 - u2), su u2 of
            # su = sqrt(u1), in vx, vy and g
            su = np.sqrt(u(_POS_STREAMS[1], vx), out=vx)
            u2 = u(_POS_STREAMS[2], vy)
            c = np.multiply(su, u2, out=g)
            b = np.multiply(np.subtract(1.0, u2, out=vy), su, out=vy)
            a = np.subtract(1.0, su, out=vx)
            for o, col in ((x, 0), (y, 1)):
                # a v0 + b p1 + c p2 of the triangle (v0, p1, p2)
                np.multiply(a, v0[col], out=o)
                o += np.multiply(np.take(rest[:, col], tri, out=f, mode="clip"), b, out=f)
                o += np.multiply(np.take(rest[1:, col], tri, out=f, mode="clip"), c, out=f)
        if speeds is not None and speeds.size == 1:
            # the pick is always 0: its stream is not drawn
            speed = speeds[0]
        elif speeds is not None:
            pick = g.view(np.intp)
            np.copyto(pick, np.multiply(u(_VEL_STREAMS[0], f), speeds.size, out=f),
                      casting="unsafe")
            speed = np.take(speeds, np.minimum(pick, speeds.size - 1, out=pick), out=f, mode="clip")
        else:
            speed = np.multiply(u(_VEL_STREAMS[0], f), vs.speed_max**2 - vs.speed_min**2, out=f)
            np.sqrt(np.add(speed, vs.speed_min**2, out=f), out=f)
        ang = np.multiply(u(_VEL_STREAMS[1], g), 2.0 * np.pi, out=g)
        np.multiply(np.cos(ang, out=vx), speed, out=vx)
        np.multiply(np.sin(ang, out=vy), speed, out=vy)

    return draw


def sample_ensemble(geom: Billiard, n: int, seed: int, region="domain") -> ParticleEnsemble:
    """Uniform positions on the region, isotropic velocities per the table's
    velocity spec, unit total weight."""
    draw = _state_sampler(geom, n, seed, region)
    pos, vel = np.empty((n, 2)), np.empty((n, 2))
    # every draw is index-pure, so the slices give the bytes of one draw.
    # They run on the calling thread through one set of work buffers: a
    # second worker kept its buffers' memory and saved little of the draw
    work = [np.empty(min(n, _kernels.DISK_CHUNK)) for _ in range(4)]
    for lo in range(0, n, _kernels.DISK_CHUNK):
        hi = min(lo + _kernels.DISK_CHUNK, n)
        draw(lo, hi, (pos[lo:hi, 0], pos[lo:hi, 1], vel[lo:hi, 0], vel[lo:hi, 1]), work)
    # unit total weight, no rebounds, nothing flagged
    return ParticleEnsemble(pos, vel, np.full(n, 1.0 / n), np.zeros(n, dtype=np.int64),
                            np.zeros(n, dtype=np.bool_), int(seed))


def sample_counts(geom: Billiard, n: int, seed: int, region, times, scale: float):
    """The initial mass and the rebound tallies of a sampled ensemble's
    trajectory, counted at the call.

    Returns ``(mass, trajectory)``: ``mass`` is bitwise
    ``sample_ensemble(geom, n, seed, region).mass()``, and ``trajectory``
    yields ``(t, ReboundTally.from_counts(...))`` over the distinct ``times``
    in ascending order, a particle weighing ``(1 / n) * scale ** k`` after k
    rebounds, as ``billiard_transport`` weighs it.  At scale 1 each tally
    is bitwise that of ``transport_counts_times`` on the sampled ensemble,
    and below 1 its histogram is.  Bad requests, times and scales raise
    ValueError here.  No particle is held: each kernel worker draws its
    own into its buffers, and one pass counts every time.
    """
    ts = _kernels.distinct_times(times)
    _check_scale(scale)
    draw = _state_sampler(geom, n, seed, region)
    # the sampled ensemble's weights, summed as its mass() sums them
    mass = float(np.broadcast_to(1.0 / n, (n,)).sum())
    if not ts.size:
        return mass, iter(())
    tallies = (_kernels.disk_tallies if geom.shape == "disk"
               else _kernels.polygon_tallies)(draw, n, geom, ts)
    width = max(counts.size for counts, _ in tallies)
    w0, scale = 1.0 / n, float(scale)
    weights = w0 * scale ** np.arange(width)
    return mass, zip(ts.tolist(), ReboundTally.from_counts(n, tallies, weights,
                                                           mass if scale == 1.0 else None))


# a position may lie this far outside the table, relative to the table's
# largest coordinate magnitude: that magnitude sets the rounding of every
# position on the table, transported ones on the wall included
_OUTSIDE_SLACK = 1e-12


def _check_scale(scale):
    # the boundary operator has unit norm scaled by this weight, so a weight
    # outside (0, 1], NaN among them, is refused as BoundaryRule refuses it
    if not 0.0 < scale <= 1.0:
        raise ValueError("boundary weight scale must lie in (0, 1]")


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
    weight, in (0, 1].  A particle outside the table, by more than rounding
    can put a transported one there, raises ValueError naming its index.
    """
    _check_scale(scale)
    _check_on_table(ens, geom)
    out = ens.copy()
    _kernels.billiard_transport(
        out.pos, out.vel, out.weight, out.rebounds, out.degenerate, geom, t, scale=scale
    )
    return out


def transport_counts_times(ens: ParticleEnsemble, times, geom: Billiard, scale: float = 1.0):
    """The rebound counts of an ensemble's trajectory at several times.

    Returns an iterator of ``(t, counts)`` over the distinct ``times`` in
    ascending order; each ``counts`` is bitwise ``transport_ensemble(ens, t,
    geom, scale).counts``.  Bad times and scales, and particles outside the
    table as ``transport_ensemble`` refuses them, raise ValueError here.
    The result is a snapshot of ``ens`` at the call, its weights read-only;
    no times give an empty trajectory at once, with no snapshot.  Each time
    is then one ``_kernels.billiard_transport`` on fresh copies of the
    snapshot, and at scale 1 every time holds the snapshot's weights, which
    no kernel writes there.
    """
    ts = _kernels.distinct_times(times)
    _check_scale(scale)
    _check_on_table(ens, geom)
    if not ts.size:
        return iter(())
    snapshot = [a.copy() for a in (ens.pos, ens.vel, ens.weight, ens.rebounds, ens.degenerate)]
    snapshot[2].flags.writeable = False
    return _trajectory(snapshot, ts.tolist(), geom, float(scale))


def _trajectory(snapshot, ts, geom: Billiard, scale: float):
    # (t, counts) over ts, each moved from fresh copies of the snapshot;
    # the positions and velocities are dropped as the kernel returns
    pos, vel, weight, rebounds, degenerate = snapshot
    for t in ts:
        counts = ReboundCounts(weight if scale == 1.0 else weight.copy(), rebounds.copy(),
                               degenerate.copy())
        _kernels.billiard_transport(pos.copy(), vel.copy(), counts.weight, counts.rebounds,
                                    counts.degenerate, geom, t, scale=scale)
        yield t, counts


# ---------------------------------------------------------------------------
# 1D sampling (Monte Carlo cross-check of the exact lane)
# ---------------------------------------------------------------------------


def _ladder_sampler(f: PiecewiseDensity, n, seed, name="n"):
    # validates a request for n positions, the count named `name` in the
    # error, and returns draw(lo, hi): the positions and interval indices of
    # particles lo..hi-1, each keyed by (seed, index, stream 0) alone, so any
    # slicing gives the same bits
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n <= 0:
        raise ValueError(f"{name} must be a positive int, got {n!r}")
    _kernels._check_key(seed, "seed")
    if not f.is_nonnegative:
        raise ValueError("cannot sample from a signed density")
    if f.mass() <= 0.0:
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
    ks = np.array(ks, dtype=np.int64)

    def draw(lo, hi):
        idx = np.arange(lo, hi, dtype=np.int64)
        u = _kernels.uniform_array(seed, idx, _POS_STREAMS[0]) * cum[-1]
        piece = np.searchsorted(cum, u, side="right")
        piece = np.minimum(piece, masses.size - 1)
        before = np.where(piece > 0, cum[piece - 1], 0.0)
        frac = (u - before) / masses[piece]
        return lows[piece] + frac * (highs[piece] - lows[piece]), ks[piece]

    return draw


def sample_ladder_positions(f: PiecewiseDensity, geom: IntervalUnion, n: int, seed: int):
    """Draw n positions from the normalised density by inverse CDF.

    Returns ``(x0, k0)``: positions and their interval indices.  The draw
    for particle i is keyed by (seed, i, stream 0) only, so it is stable
    under resizing of later particles, and any slice of indices can be drawn
    alone: ``mc_mass_estimate`` draws one slice at a time.  ``n`` must be a
    positive int and ``seed`` an int in [0, 2**64), else ValueError.
    """
    return _ladder_sampler(f, n, seed)(0, n)
