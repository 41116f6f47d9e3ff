"""Hot numerical kernels: billiard ensemble transport and the 1D ladder
survival Monte Carlo.

The ladder walk steps every particle hop by hop.  A billiard has one
full-state transport to one time, ``billiard_transport``, and, for reports
that read rebound counts alone, one counts kernel per shape.  The polygon
steps event by event and ``polygon_counts`` takes every requested time in
one sweep.  The disk needs no stepping: its closed form costs O(1) per
particle whatever the number of rebounds, and ``disk_counts`` computes each
particle's first hit and chord once for all requested times, from states a
source hands it one slice at a time, so a sampler can feed it without an
ensemble ever being held whole.  The polygon sweep and the disk chords run
through one block runner: one contiguous block of particles per CPU, each on
its own thread, bitwise the same as one block.  Every billiard kernel reads
the graze threshold ``GRAZE_EPS`` and the reflection cap ``ITER_CAP``.

Randomness is counter-based: every uniform draw is a pure function of
(seed, particle index, stream index) through a splitmix64 finaliser, so
ensembles are reproducible bit-for-bit regardless of vectorisation, chunking
or evaluation order.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .geometry import TANGENT_EPS

# perfbench/measure.py reads this for its environment record; the next
# benchmark change drops that read, and this name with it
USE_NUMBA = False

# survival draws start at this stream index; lower streams seed positions
# and velocities (see densities.sample_* for the layout)
SURVIVAL_STREAM_BASE = 8

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV53 = float(2.0**-53)


def _mix64(z):
    z = (z ^ (z >> _U30)) * _MIX1
    z = (z ^ (z >> _U27)) * _MIX2
    return z ^ (z >> _U31)


def index_hash(seed: int, index) -> np.ndarray:
    """The per-index part of the draw hash, shared by all of an index's
    streams: ``mix(mix(seed + G) + G * index)`` as uint64."""
    s = np.uint64(seed)
    idx = np.atleast_1d(np.asarray(index)).astype(np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(_mix64(s + _GOLD) + _GOLD * idx)


def stream_draws(hashed, stream) -> np.ndarray:
    """Uniform draws in [0, 1) of ``stream`` from ``index_hash`` values."""
    st = np.atleast_1d(np.asarray(stream)).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = _mix64(hashed + _GOLD * st)
    return (h >> _U11) * _INV53


def uniform_array(seed: int, index, stream) -> np.ndarray:
    """Vectorised uniform draws in [0, 1) keyed by (seed, index, stream)."""
    return stream_draws(index_hash(seed, index), stream)


# ---------------------------------------------------------------------------
# 1D ladder survival Monte Carlo
# ---------------------------------------------------------------------------
#
# A particle drifts right at unit speed inside interval k, jumps from b_k to
# a_{k+1} instantly and survives each jump with probability r.  tail[k] holds
# the total interval length from k on: once the remaining time covers the
# whole tail the particle completes infinitely many jumps and is gone.


def _ladder_np(x0, k0, a, b, tail, r, t, seed):
    n = x0.shape[0]
    nk = a.shape[0]
    alive = np.ones(n, dtype=np.bool_)
    hops = np.zeros(n, dtype=np.int64)
    pos = x0.copy()
    k = k0.copy()
    rem = np.full(n, t)
    moving = np.ones(n, dtype=np.bool_)
    idx_all = np.arange(n)
    while True:
        idx = idx_all[moving]
        if idx.size == 0:
            break
        flight = b[k[idx]] - pos[idx]
        crossing = flight <= rem[idx]
        moving[idx[~crossing]] = False
        idx = idx[crossing]
        if idx.size == 0:
            break
        rem[idx] -= flight[crossing]
        if r < 1.0:
            u = uniform_array(seed, idx, SURVIVAL_STREAM_BASE + hops[idx])
            dead = u >= r
            alive[idx[dead]] = False
            moving[idx[dead]] = False
            idx = idx[~dead]
        hops[idx] += 1
        k[idx] += 1
        out = k[idx] >= nk
        safe = idx[~out]
        gone = safe[rem[safe] >= tail[k[safe]]]
        dead_idx = np.concatenate([idx[out], gone])
        alive[dead_idx] = False
        moving[dead_idx] = False
        still = safe[rem[safe] < tail[k[safe]]]
        pos[still] = a[k[still]]
    return alive, hops


def ladder_survival(x0, k0, a, b, tail, r, t, seed):
    """Transport a sampled ladder population to time t.

    Returns ``(alive, hops)``: whether each particle is still inside some
    interval at time t, and how many boundary jumps it made.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    k0 = np.asarray(k0, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    tail = np.asarray(tail, dtype=np.float64)
    if not 0.0 < r <= 1.0:
        raise ValueError("survival probability r must lie in (0, 1]")
    return _ladder_np(x0, k0, a, b, tail, float(r), float(t), int(seed))


# ---------------------------------------------------------------------------
# one block of particles per CPU
# ---------------------------------------------------------------------------


# the least number of particles worth a block of its own: a polygon round's
# fixed cost is paid per block, and on a hexagon two blocks of 10^4 particles
# about break even with one of 2 * 10^4.  Smaller ensembles run whole on the
# calling thread.
SWEEP_BLOCK_MIN = 1 << 14


def _sweep_workers(n):
    # one block per CPU this process may run on, none below SWEEP_BLOCK_MIN
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n // SWEEP_BLOCK_MIN))


def _run_blocks(size, work):
    # work(lo, hi) on one contiguous block of range(size) per worker: the
    # first block on the calling thread, each other one on a thread of its
    # own.  numpy releases the GIL inside its loops, so the blocks run side
    # by side.  A worker's exception is raised again here after the join.
    errors = []

    def run(lo, hi):
        try:
            work(lo, hi)
        except Exception as exc:
            errors.append(exc)

    workers = _sweep_workers(size)
    bounds = [size * b // workers for b in range(workers + 1)]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    threads = [threading.Thread(target=run, args=block) for block in blocks[1:]]
    for thread in threads:
        thread.start()
    run(*blocks[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# disk billiard transport
# ---------------------------------------------------------------------------


# The circle is integrable: reflection conserves the angular momentum about
# the centre, so after its first wall hit a particle repeats one chord for
# ever.  Every chord has the same flight time tau = 2R (v.n) / |v|^2 and
# advances the hit point by the same central angle pi - 2 theta, theta the
# angle of incidence, in the sense of the angular momentum.  The state at
# time t is therefore the first hit and its reflection rotated k times, plus
# the leftover flight, with k = floor((t - s0) / tau) further hits.  The
# first-hit time s0, the graze test and tau do not depend on t; the helpers
# below compute each of them one way, for the full-state kernel and for the
# counts-only one alike, so the two agree bitwise.

# particles per slice of the closed-form kernels: bounds their temporaries
# whatever the ensemble size
DISK_CHUNK = 1 << 16

# a hit whose normal velocity is below this fraction of the speed grazes:
# the particle freezes and is flagged degenerate instead of reflecting
GRAZE_EPS = TANGENT_EPS

# the reflection cap of every billiard transport: a particle owing more
# reflections stops at the last one and is flagged degenerate
ITER_CAP = 10_000_000


def _disk_exit(x, y, vx, vy, cx, cy, radius):
    # first hit: the same stable quadratic as Billiard.exit_time
    rx = x - cx
    ry = y - cy
    v2 = vx * vx + vy * vy
    bq = rx * vx + ry * vy
    cq = rx * rx + ry * ry - radius * radius
    root = np.sqrt(np.maximum(bq * bq - v2 * cq, 0.0))
    # where() evaluates both branches; mask the dead one's zero divisor
    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.maximum(np.where(bq > 0.0, -cq / (bq + root), (root - bq) / v2), 0.0)
    return s0, v2


def _disk_wall(x, y, vx, vy, v2, s0, cx, cy, radius):
    # the first hit re-anchored onto the circle: its unit normal, the normal
    # velocity, whether it grazes, and the chord period tau
    rx = x + vx * s0 - cx
    ry = y + vy * s0 - cy
    nr = np.sqrt(rx * rx + ry * ry)
    nx = rx / nr
    ny = ry / nr
    vn = vx * nx + vy * ny
    graze = np.abs(vn) < GRAZE_EPS * np.sqrt(v2)
    tau = 2.0 * radius * np.abs(vn) / v2
    return nx, ny, vn, graze, tau


def _disk_hits(rem, tau):
    # further hits k within the time rem left after the first one, the
    # particles capped, and the rebounds made
    k = np.floor(rem / tau)
    capped = k >= ITER_CAP
    k = np.minimum(k, ITER_CAP - 1)
    return k, capped, k.astype(np.int64) + 1


def _disk_slice(pos, vel, weight, rebounds, degenerate, cx, cy, radius, t, scale):
    x, y = pos[:, 0], pos[:, 1]
    vx, vy = vel[:, 0], vel[:, 1]
    s0, v2 = _disk_exit(x, y, vx, vy, cx, cy, radius)
    live = ~degenerate
    fly = np.flatnonzero(live & (s0 > t))
    x[fly] += vx[fly] * t
    y[fly] += vy[fly] * t
    hit = np.flatnonzero(live & (s0 <= t))
    ax = vx[hit]
    ay = vy[hit]
    s0 = s0[hit]
    nx, ny, vn, graze, tau = _disk_wall(x[hit], y[hit], ax, ay, v2[hit], s0, cx, cy, radius)
    gz = hit[graze]
    x[gz] = cx + radius * nx[graze]
    y[gz] = cy + radius * ny[graze]
    degenerate[gz] = True
    ok = ~graze
    idx = hit[ok]
    nx, ny, ax, ay, vn, tau = nx[ok], ny[ok], ax[ok], ay[ok], vn[ok], tau[ok]
    rem = t - s0[ok]
    k, capped, hits = _disk_hits(rem, tau)
    degenerate[idx[capped]] = True
    # velocity after the first reflection, and the central angle between
    # successive hits, 2 atan2(|v.n|, |n x v|): accurate near normal and
    # grazing incidence alike, signed by the angular momentum
    wx = ax - 2.0 * vn * nx
    wy = ay - 2.0 * vn * ny
    cross = nx * ay - ny * ax
    step = 2.0 * np.arctan2(np.abs(vn), np.abs(cross))
    ang = k * np.where(cross < 0.0, -step, step)
    ca = np.cos(ang)
    sa = np.sin(ang)
    left = np.where(capped, 0.0, rem - k * tau)
    ux = radius * nx + left * wx
    uy = radius * ny + left * wy
    x[idx] = cx + (ca * ux - sa * uy)
    y[idx] = cy + (sa * ux + ca * uy)
    vx[idx] = ca * wx - sa * wy
    vy[idx] = sa * wx + ca * wy
    rebounds[idx] += hits
    if scale != 1.0:
        weight[idx] *= scale ** hits


def _disk_chord_blocks(states, n, cx, cy, radius):
    # the time-independent part of particles 0..n-1, about 17 bytes each: the
    # first-hit time, the graze flag and the chord period.  states(lo, hi)
    # gives the positions and velocities x, y, vx, vy of particles lo..hi-1,
    # asked for one DISK_CHUNK slice at a time, so a state only ever exists
    # for the slice in hand.  Every value depends on its own particle alone,
    # so one block of slices per CPU gives the bytes of one whole pass.
    s0 = np.empty(n)
    graze = np.empty(n, dtype=np.bool_)
    tau = np.empty(n)

    def chords(lo, hi):
        for start in range(lo, hi, DISK_CHUNK):
            sl = slice(start, min(start + DISK_CHUNK, hi))
            x, y, vx, vy = states(sl.start, sl.stop)
            s0[sl], v2 = _disk_exit(x, y, vx, vy, cx, cy, radius)
            _, _, _, graze[sl], tau[sl] = _disk_wall(x, y, vx, vy, v2, s0[sl], cx, cy, radius)

    _run_blocks(n, chords)
    return s0, graze, tau


def _disk_count_steps(weight, rebounds, degenerate, chords, times, scale):
    # One streaming pass per time and slice, with no gather or scatter.  A
    # particle that does not move (s0 = inf for an input-degenerate one,
    # s0 > t, or a graze) gets hits = 0, so its count gains +0 and its weight
    # * 1.0; every moving one goes through the full-state kernel's own
    # expressions, so the rows are its bits.  At scale 1 no weight changes
    # and every time yields the one read-only weight array.
    s0, graze, tau = chords
    if scale == 1.0 and weight.flags.writeable:
        weight = weight.view()
        weight.flags.writeable = False
    for t in times.tolist():
        if t == 0.0:
            # nothing moves, not even a particle sitting on the wall
            yield (weight if scale == 1.0 else weight.copy()), rebounds.copy(), degenerate.copy()
            continue
        w = weight if scale == 1.0 else np.empty_like(weight)
        n, flagged = np.empty_like(rebounds), np.empty_like(degenerate)
        # the masked lanes divide by tau = 0 and cast the inf or nan k it gives
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, n.size, DISK_CHUNK):
                sl = slice(lo, lo + DISK_CHUNK)
                hit = s0[sl] <= t
                move = hit & ~graze[sl]
                _, capped, hits = _disk_hits(t - s0[sl], tau[sl])
                hits = np.where(move, hits, 0)
                np.add(rebounds[sl], hits, out=n[sl])
                flagged[sl] = degenerate[sl] | (hit & graze[sl]) | (move & capped)
                if scale != 1.0:
                    np.multiply(weight[sl], scale ** hits, out=w[sl])
        yield w, n, flagged


def disk_counts(states, weight, rebounds, degenerate, geom, times, scale):
    """Rebound counts of a disk ensemble at every one of ``times``.

    ``states(lo, hi)`` gives the positions and velocities ``x, y, vx, vy``
    of particles lo..hi-1; the arrays are left alone.  Returns an iterator
    of ``(weight, rebounds, degenerate)`` over ``distinct_times(times)``;
    the k-th is bitwise what ``billiard_transport`` leaves in those arrays
    on a copy of the ensemble for the k-th time.  At scale 1 no weight
    changes, and every time yields one read-only weight array: ``weight``
    itself if it is read-only, else a read-only view of it.  Positions and
    velocities are never transported: each particle's first-hit time, graze
    flag and chord period are computed once, here, and every time then costs
    one streaming pass over them.
    """
    times = distinct_times(times)
    cx, cy = geom.center
    s0, graze, tau = _disk_chord_blocks(states, weight.shape[0], float(cx), float(cy),
                                        float(geom.radius))
    # an input-degenerate particle never moves, so its first hit is at inf
    s0[degenerate] = np.inf
    return _disk_count_steps(weight, rebounds, degenerate, (s0, graze, tau), times,
                             float(scale))


# ---------------------------------------------------------------------------
# convex polygon billiard transport
# ---------------------------------------------------------------------------


# A particle's event sequence (hit time, hit point, reflected velocity, graze
# and vertex tests) does not depend on the transport time; only the stop test
# does.  The polygon kernel therefore steps each particle once, up to the
# largest requested time, with one row of remaining time per requested time.
# Every row goes through the same rounded subtractions that a transport to
# its own time makes, so each row is bitwise that transport's result.
# Rounded subtraction is monotone, so rem[k] <= rem[k + 1] holds throughout:
# rows close in time order, and a particle leaves the compacted working set
# when its last row closes.


def _snapshot(out, kk, cols, w, n, flagged, state):
    # rows kk of particles cols; state() gives their positions and velocities
    # and runs only when out holds them: a counts-only out is (weight,
    # rebounds, degenerate).  w is None at scale 1, where no weight changes
    # and out's weight rows are left as they are
    *full, weight, rebounds, degenerate = out
    if full:
        pos, vel = full
        pos[kk, cols, 0], pos[kk, cols, 1], vel[kk, cols, 0], vel[kk, cols, 1] = state()
    if w is not None:
        weight[kk, cols] = w
    rebounds[kk, cols] = n
    degenerate[kk, cols] = flagged


def _take(w, jj):
    # working weights jj; None stays None
    return None if w is None else w[jj]


def _sweep_block(pos, vel, weight, rebounds, degenerate, out, normals, offsets, verts,
                 times, scale, vert_eps):
    # ``out`` holds the input state in every row: rows that close before the
    # first round (input-degenerate particles, zero times) keep it.  The
    # inputs are read before the first write, so ``out`` may be views of them.
    speed = np.sqrt(np.sum(vel * vel, axis=1))
    idx = np.flatnonzero(~degenerate) if times.size and times[-1] > 0.0 else np.arange(0)
    x, y = pos[idx, 0], pos[idx, 1]
    vx, vy = vel[idx, 0], vel[idx, 1]
    n, speed = rebounds[idx], speed[idx]
    # the working weights; at scale 1 there are none to track
    w = weight[idx] if scale != 1.0 else None
    rem = np.repeat(times[:, None], idx.size, axis=1)
    rounds = 0
    # a particle with no hit ahead (s = inf) only ever flies; the garbage its
    # hit point gets in that round is dropped with it
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            rounds += 1
            # first hit: a running minimum over the edges; the strict < keeps
            # the first of tied edges, as an argmin over all of them would
            s = np.full(idx.size, np.inf)
            edge = np.zeros(idx.size, dtype=np.intp)
            for e, (ex, ey) in enumerate(normals):
                dv = vx * ex + vy * ey
                se = np.where(dv > 0.0, (offsets[e] - (x * ex + y * ey)) / dv, np.inf)
                first = se < s
                s = np.where(first, se, s)
                edge = np.where(first, e, edge)
            s = np.maximum(s, 0.0)
            open_ = rem > 0.0
            fly = s > rem
            kk, jj = np.nonzero(open_ & fly)
            r = rem[kk, jj]
            _snapshot(out, kk, idx[jj], _take(w, jj), n[jj], False,
                      lambda: (x[jj] + vx[jj] * r, y[jj] + vy[jj] * r, vx[jj], vy[jj]))
            hit = open_ & ~fly
            if rounds > ITER_CAP:
                # a row owing more than ITER_CAP reflections stops at the last
                # one; rows that reach their time first have flown out above
                kk, jj = np.nonzero(hit)
                _snapshot(out, kk, idx[jj], _take(w, jj), n[jj], True,
                          lambda: (x[jj], y[jj], vx[jj], vy[jj]))
                break
            rem = np.where(fly, 0.0, rem - s)
            x = x + vx * s
            y = y + vy * s
            # sqrt is monotone and correctly rounded: one root of the least
            # square is the least root
            near = np.full(idx.size, np.inf)
            for px, py in verts:
                dx = x - px
                dy = y - py
                near = np.minimum(near, dx * dx + dy * dy)
            near = np.sqrt(near)
            nx = normals[edge, 0]
            ny = normals[edge, 1]
            vn = vx * nx + vy * ny
            graze = (np.abs(vn) < GRAZE_EPS * speed) | (near < vert_eps)
            vx = np.where(graze, vx, vx - 2.0 * vn * nx)
            vy = np.where(graze, vy, vy - 2.0 * vn * ny)
            n = n + ~graze
            if w is not None:
                w = np.where(graze, w, w * scale)
            # a graze freezes every row that reached this hit; a reflection
            # closes the rows it leaves with no time
            kk, jj = np.nonzero(hit & (graze | (rem == 0.0)))
            _snapshot(out, kk, idx[jj], _take(w, jj), n[jj], graze[jj],
                      lambda: (x[jj], y[jj], vx[jj], vy[jj]))
            keep = ~graze & (rem[-1] > 0.0)
            if not keep.all():
                idx, x, y, vx, vy, n, speed = (
                    a[keep] for a in (idx, x, y, vx, vy, n, speed))
                w = _take(w, keep)
                rem = rem[:, keep]
    return out


def _polygon_sweep(arrays, out, geom, times, scale):
    normals, offsets = geom.edge_normals()
    verts = np.array(geom.vertices, dtype=np.float64)
    # relative to the largest coordinate, whose magnitude sets the rounding
    # of every hit point, so a table and its scaled copies flag alike
    vert_eps = GRAZE_EPS * float(np.max(np.abs(verts)))
    consts = (normals, offsets, verts, times, float(scale), vert_eps)

    # Particles never interact and each one takes part in every round until
    # it leaves, so a contiguous block of them, swept alone into its own
    # columns of out, gets bitwise the rows a whole sweep gives it.
    _run_blocks(arrays[0].shape[0], lambda lo, hi: _sweep_block(
        *(a[lo:hi] for a in arrays), tuple(o[:, lo:hi] for o in out), *consts))
    return out


def distinct_times(times) -> np.ndarray:
    """The distinct ``times`` in ascending order, as a float64 array.

    Raises ValueError unless every time is finite and nonnegative.
    """
    times = np.array(sorted({float(t) for t in times}), dtype=np.float64)
    if not np.all((times >= 0.0) & (times < np.inf)):
        raise ValueError("transport time must be finite and nonnegative")
    return times


def polygon_counts(pos, vel, weight, rebounds, degenerate, geom, times, scale):
    """Rebound counts of a polygon ensemble at every one of ``times``.

    The input arrays are left alone.  Returns ``(weight, rebounds,
    degenerate)`` with a leading axis over ``distinct_times(times)``; row k
    is bitwise what ``billiard_transport`` leaves in those arrays on a copy
    of the inputs for the k-th time.  One sweep steps each particle's events
    once, up to the largest time, and never writes the rows' positions or
    velocities: a row costs 17 bytes per particle, plus 8 of remaining time
    while it runs.  At scale 1 no weight changes: the weight rows are one
    read-only broadcast of ``weight``, and a row costs 9 bytes.
    """
    times = distinct_times(times)
    if scale == 1.0:
        weights = np.broadcast_to(weight, (times.size, weight.shape[0]))
    else:
        weights = np.repeat(weight[None], times.size, axis=0)
    out = (weights, *(np.repeat(a[None], times.size, axis=0) for a in (rebounds, degenerate)))
    return _polygon_sweep((pos, vel, weight, rebounds, degenerate), out, geom, times, scale)


def billiard_transport(pos, vel, weight, rebounds, degenerate, geom, t, scale=1.0):
    """Advance a billiard ensemble by time t in place (arrays are mutated).

    ``scale`` multiplies the particle weight at every reflection (the
    boundary operator weight).  Grazing hits (below ``GRAZE_EPS``) and
    polygon vertex hits freeze the particle and set its degenerate flag
    instead of reflecting.  A particle that would need more than
    ``ITER_CAP`` reflections stops at the last one and is marked degenerate
    too.  Returns the five arrays.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("transport time must be finite and nonnegative")
    arrays = (pos, vel, weight, rebounds, degenerate)
    if geom.shape == "disk":
        cx, cy = geom.center
        # at t = 0 nothing moves, not even a particle sitting on the wall
        if t > 0.0:
            for lo in range(0, pos.shape[0], DISK_CHUNK):
                _disk_slice(*(a[lo:lo + DISK_CHUNK] for a in arrays), float(cx), float(cy),
                            float(geom.radius), float(t), float(scale))
        return arrays
    # one row, written straight into the inputs
    _polygon_sweep(arrays, tuple(a[None] for a in arrays), geom, np.array([float(t)]), scale)
    return arrays
