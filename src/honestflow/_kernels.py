"""Hot numerical kernels: billiard ensemble transport and the 1D ladder
survival Monte Carlo.

The ladder walk steps a slice of particles hop by hop.  A billiard table
has two kernels: ``billiard_transport`` moves a held ensemble's full state
to one time in place, and a tally kernel counts a sampler's particles at
every time without holding them.  The polygon steps event by event in a
sweep that hands each row's particles, as they close, to a sink: the
transport writes its one row into its inputs, and ``polygon_tallies``
counts every time's row, each block drawing its particles into its working
state.  The disk's closed form costs O(1) per particle: ``disk_tallies``
counts a sampler's slices as it draws them, through ``out=`` into buffers
each worker makes once.  A tally keeps running counts, per rebound count,
of the particles and the flagged ones.  No kernel steps a weight: a
particle that reflects n - n0 times weighs w0 * scale ** (n - n0), which
``billiard_transport`` applies once, at its end.  Threaded kernels run on
``_run_blocks``, one worker per CPU with work of its own, bitwise the same
as one pass.  Billiard kernels read ``GRAZE_EPS`` and ``ITER_CAP``.

Randomness is counter-based: every uniform draw is a pure function of
(seed, particle index, stream index) through a splitmix64 finaliser, hashed
in place, so ensembles are reproducible bit-for-bit regardless of
vectorisation, chunking or evaluation order.
"""

from __future__ import annotations

import functools
import numbers
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


def _mix64(z, tmp):
    # splitmix64's finaliser on the uint64 array z, in place; tmp is uint64
    # scratch of z's shape
    for shift, mult in ((_U30, _MIX1), (_U27, _MIX2)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mult
    z ^= np.right_shift(z, _U31, out=tmp)
    return z


def _hash_into(z, seed, tmp):
    # index_hash of the uint64 indices z, in place; tmp is uint64 scratch
    z *= _GOLD
    with np.errstate(over="ignore"):
        key = np.atleast_1d(np.uint64(seed) + _GOLD)
    z += _mix64(key, np.empty_like(key))
    return _mix64(z, tmp)


def index_hash(seed: int, index) -> np.ndarray:
    """The per-index part of the draw hash, shared by all of an index's
    streams: ``mix(mix(seed + G) + G * index)`` as uint64."""
    idx = np.atleast_1d(np.asarray(index)).astype(np.uint64)
    return _hash_into(idx, seed, np.empty_like(idx))


def stream_draws(hashed, stream, out=None, z=None) -> np.ndarray:
    """Uniform draws in [0, 1) of ``stream`` from ``index_hash`` values,
    written into the float64 ``out`` through the uint64 scratch ``z`` of
    its shape, or into a new array."""
    st = np.atleast_1d(np.asarray(stream)).astype(np.uint64)
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(hashed), st.shape))
        z = np.empty(out.shape, dtype=np.uint64)
    _mix64(np.add(hashed, st * _GOLD, out=z), out.view(np.uint64))
    z >>= _U11
    return np.multiply(z, _INV53, out=out)


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


def _ladder_np(x0, k0, a, b, tail, r, t, seed, first):
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
            # ensemble indices first + idx, in uint64 for any first below 2**64
            keys = np.add(idx, first, dtype=np.uint64, casting="unsafe")
            u = uniform_array(seed, keys, SURVIVAL_STREAM_BASE + hops[idx])
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


def ladder_survival(x0, k0, a, b, tail, r, t, seed, first=0):
    """Transport a sampled ladder population to time t.

    Returns ``(alive, hops)``: whether each particle is still inside some
    interval at time t, and how many boundary jumps it made.  Array
    particle i is ensemble particle ``first + i``: its survival draws are
    keyed by that index, so a slice of an ensemble walks as it would whole.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    k0 = np.asarray(k0, dtype=np.int64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    tail = np.asarray(tail, dtype=np.float64)
    if not 0.0 < r <= 1.0:
        raise ValueError("survival probability r must lie in (0, 1]")
    _check_key(seed, "seed")
    _check_key(first, "first")
    return _ladder_np(x0, k0, a, b, tail, float(r), float(t), int(seed), int(first))


def _check_key(value, name):
    # a draw key, seed or particle index: an int in [0, 2**64), not a bool
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must be an int in [0, 2**64), got {value!r}")


# ---------------------------------------------------------------------------
# one worker per CPU
# ---------------------------------------------------------------------------


# the least number of particles worth a worker of its own: a polygon round's
# fixed cost is paid per block, and on a hexagon two blocks of 10^4 particles
# about break even with one of 2 * 10^4.  Smaller ensembles run whole on the
# calling thread.
SWEEP_BLOCK_MIN = 1 << 14


def _sweep_workers(n):
    # one worker per CPU this process may run on, each with at least
    # SWEEP_BLOCK_MIN particles
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n // SWEEP_BLOCK_MIN))


def _run_blocks(size, chunk, worker):
    """The results of ``work(lo, hi)`` over consecutive chunks of
    ``range(size)``, each ``chunk`` long but the last, in chunk order.

    One worker per CPU (``_sweep_workers``), the calling thread among them,
    makes its own ``work = worker()``, so buffers that ``work`` holds are
    never shared, and pulls chunks in index order; numpy releases the GIL
    inside its loops, so they run side by side.  The first exception a
    worker raises stops every worker after its current chunk, and is raised
    again here.
    """
    pending = enumerate(range(0, size, chunk))
    lock = threading.Lock()
    results = [None] * -(-size // chunk)
    errors = []

    def run():
        try:
            work = worker()
            while not errors:
                with lock:
                    i, lo = next(pending, (None, None))
                if lo is None:
                    return
                results[i] = work(lo, min(lo + chunk, size))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run)
               for _ in range(min(_sweep_workers(size), len(results)) - 1)]
    for thread in threads:
        thread.start()
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _add_counts(total, part):
    # total + part, counts zero-padded: into total unless part is longer
    if part.size > total.size:
        total, part = part.astype(np.intp), total
    total[:part.size] += part
    return total


class _Tally:
    # per row, running totals of np.bincount of the counts added and of the
    # flagged ones' counts; as a polygon sweep's sink, of the closing cells'
    def __init__(self, rows):
        self.rows = [[np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)]
                     for _ in range(rows)]

    def add(self, k, n, flagged):
        row = self.rows[k]
        row[0] = _add_counts(row[0], np.bincount(n))
        if flagged is not None:
            row[1] = _add_counts(row[1], np.bincount(flagged))

    def __call__(self, k, jj, lanes, flag, state):
        n = lanes[0][jj]
        self.add(k, n, None if flag is False else n if flag is True else n[flag[jj]])


def _totals(tallies, rows):
    # every row's (counts, flagged counts), summed over the tallies
    return [tuple(functools.reduce(_add_counts, (t.rows[k][i] for t in tallies),
                                   np.zeros(0, dtype=np.intp)) for i in (0, 1))
            for k in range(rows)]


# ---------------------------------------------------------------------------
# disk billiard transport
# ---------------------------------------------------------------------------


# The circle is integrable: after its first wall hit a particle repeats one
# chord for ever, of flight time tau = 2R (v.n) / |v|^2 and central angle
# pi - 2 theta.  The state at time t is the first hit and its reflection
# rotated k = floor((t - s0) / tau) times, plus the leftover flight.  s0, the
# graze test and tau do not depend on t; the helpers below compute each one
# way for both kernels, so the full-state kernel and the tallies agree.
# They write through out= into buffers their callers make, used in prefixes.

# particles per slice of the closed-form kernels: sets the size of each
# worker's buffers whatever the ensemble size
DISK_CHUNK = 1 << 15

# a hit whose normal velocity is below this fraction of the speed grazes:
# the particle freezes and is flagged degenerate instead of reflecting
GRAZE_EPS = TANGENT_EPS

# the reflection cap of every billiard transport: a particle owing more
# reflections stops at the last one and is flagged degenerate
ITER_CAP = 10_000_000


def _disk_exit(x, y, vx, vy, cx, cy, radius, out, ahead):
    # first hit: the same stable quadratic as Billiard.exit_time.  Returns
    # (s0, v2) in out[0] and out[1]; out[2:6] and the mask ahead are scratch
    m = x.shape[0]
    s0, v2, rx, ry, bq, t = (a[:m] for a in out)
    np.subtract(x, cx, out=rx)
    np.subtract(y, cy, out=ry)
    np.add(np.multiply(vx, vx, out=v2), np.multiply(vy, vy, out=t), out=v2)
    np.add(np.multiply(rx, vx, out=bq), np.multiply(ry, vy, out=t), out=bq)
    cq = np.add(np.multiply(rx, rx, out=rx), np.multiply(ry, ry, out=ry), out=rx)
    cq -= radius * radius
    root = np.subtract(np.multiply(bq, bq, out=ry), np.multiply(v2, cq, out=t), out=ry)
    np.sqrt(np.maximum(root, 0.0, out=root), out=root)
    # -cq / (bq + root) where bq > 0, else (root - bq) / v2: both are
    # computed, so mask the dead one's zero divisor
    with np.errstate(divide="ignore", invalid="ignore"):
        np.negative(cq, out=cq)
        cq /= np.add(bq, root, out=t)
        np.subtract(root, bq, out=s0)
        s0 /= v2
    _select(np.greater(bq, 0.0, out=ahead[:m]), cq, s0, t.view(np.uint64))
    return np.maximum(s0, 0.0, out=s0), v2


def _disk_wall(x, y, vx, vy, v2, s0, cx, cy, radius, out, graze):
    # the first hit re-anchored onto the circle: its unit normal, the normal
    # velocity, whether it grazes, and the chord period tau.  Returns
    # (nx, ny, vn, graze, tau) in out[0:4] and the mask graze; out[4] is
    # scratch
    m = x.shape[0]
    nx, ny, vn, tau, t = (a[:m] for a in out)
    graze = graze[:m]
    np.subtract(np.add(x, np.multiply(vx, s0, out=nx), out=nx), cx, out=nx)
    np.subtract(np.add(y, np.multiply(vy, s0, out=ny), out=ny), cy, out=ny)
    nr = np.add(np.multiply(nx, nx, out=t), np.multiply(ny, ny, out=vn), out=t)
    np.sqrt(nr, out=nr)
    nx /= nr
    ny /= nr
    np.add(np.multiply(vx, nx, out=vn), np.multiply(vy, ny, out=t), out=vn)
    np.less(np.abs(vn, out=tau), np.multiply(np.sqrt(v2, out=t), GRAZE_EPS, out=t), out=graze)
    np.divide(np.multiply(tau, 2.0 * radius, out=tau), v2, out=tau)
    return nx, ny, vn, graze, tau


def _disk_chords(x, y, vx, vy, cx, cy, radius, out, masks):
    # the time-independent part of a slice: s0 and tau in out[0] and
    # out[1], out[2:7] and two masks scratch.  A grazing particle never
    # moves, so its s0 becomes inf and its tau 1; it is returned in
    # grazed = (lanes, first hits)
    s0, tau, v2, *work = out
    s0, v2 = _disk_exit(x, y, vx, vy, cx, cy, radius, (s0, v2, *work), masks[0])
    *_, graze, tau = _disk_wall(x, y, vx, vy, v2, s0, cx, cy, radius,
                                (*work[:3], tau, work[3]), masks[1])
    lanes = np.flatnonzero(graze)
    grazed = lanes, s0[lanes]
    s0[lanes] = np.inf
    tau[lanes] = 1.0
    return s0, tau, grazed


def _disk_step(s0, tau, grazed, t, q, hit, n):
    # the rebounds of a slice's particles by time t, into q as floats and
    # the intp n: floor((t - s0) / tau) + 1 where s0 <= t, at most
    # ITER_CAP, else 0; hit is scratch.  Returns the lanes flagged by t:
    # those of grazed = (lanes, first hits) hit by t, and those capped,
    # owing more than ITER_CAP
    lanes, first = grazed
    if t == 0.0:
        # at t = 0 nothing moves, not even a particle sitting on the wall
        n.fill(0)
        return lanes[:0]
    np.subtract(t, s0, out=q)
    np.greater_equal(q, 0.0, out=hit)
    q /= tau
    np.floor(q, out=q)
    q += 1.0
    # a lane not hit by t (q <= 1, -inf or nan) gets +0.0, its bits cleared
    np.multiply(q.view(np.uint64), hit, out=q.view(np.uint64))
    flagged = lanes[first <= t]
    if np.fmax.reduce(q, initial=0.0) > ITER_CAP:
        flagged = np.concatenate([flagged, np.flatnonzero(q > ITER_CAP)])
        np.minimum(q, ITER_CAP, out=q)
    np.copyto(n, q, casting="unsafe")
    return flagged


def _disk_slice(pos, vel, rebounds, degenerate, cx, cy, radius, t):
    # a held slice moved to t > 0 in place, on the tallies' chords and step.
    # The chords leave the first hit's nx, ny and vn in out[3:6], and the
    # step its hits, capped, in q as floats and in n
    x, y = pos[:, 0], pos[:, 1]
    vx, vy = vel[:, 0], vel[:, 1]
    m = x.shape[0]
    out, masks = np.empty((7, m)), np.empty((2, m), dtype=np.bool_)
    n = np.empty(m, dtype=np.intp)
    s0, tau, (lanes, first) = _disk_chords(x, y, vx, vy, cx, cy, radius, out, masks)
    # a lane frozen on input neither flies nor hits
    s0[degenerate] = np.nan
    first[degenerate[lanes]] = np.inf
    q = out[2]
    flagged = _disk_step(s0, tau, (lanes, first), t, q, masks[0], n)
    # a grazing lane's s0 is inf: one hit by t flies too, and then stops on
    # the wall
    fly = np.flatnonzero(s0 > t)
    x[fly] += vx[fly] * t
    y[fly] += vy[fly] * t
    gz = lanes[first <= t]
    x[gz] = cx + radius * out[3][gz]
    y[gz] = cy + radius * out[4][gz]
    degenerate[flagged] = True
    # the lanes that reflect, k + 1 times; those capped are now flagged
    idx = np.flatnonzero(n)
    nx, ny, vn, ax, ay, s0, tau = (a[idx] for a in (*out[3:6], vx, vy, s0, tau))
    k = q[idx] - 1.0
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
    left = (t - s0) - k * tau
    left[degenerate[idx]] = 0.0
    ux = radius * nx + left * wx
    uy = radius * ny + left * wy
    x[idx] = cx + (ca * ux - sa * uy)
    y[idx] = cy + (sa * ux + ca * uy)
    vx[idx] = ca * wx - sa * wy
    vy[idx] = sa * wx + ca * wy
    rebounds[idx] += n[idx]


def _disk_geometry(geom):
    cx, cy = geom.center
    return float(cx), float(cy), float(geom.radius)


def disk_tallies(states, size, geom, times):
    """Integer tallies of a sampled disk's rebound counts: ``(np.bincount(n),
    np.bincount(n[d]))`` per time of ``distinct_times(times)``, for the
    rebounds and flags ``(n, d)`` that ``billiard_transport`` leaves there on
    ``size`` particles with neither, whose states ``states(lo, hi, out,
    work)`` writes: ``x, y, vx, vy`` of particles lo..hi-1 (at most
    ``DISK_CHUNK``) into the four buffers ``out``, through four float64
    buffers ``work``.  Each worker counts one slice at a time in buffers it
    makes once, into running totals of its own, added after the join, so
    nothing is held per particle or slice.
    """
    times = distinct_times(times).tolist()
    geometry = _disk_geometry(geom)
    tallies = []

    def worker():
        # rows of one block: x, y, vx, vy, then the chords' buffers (s0 and
        # tau first), the intp counts, and three masks in the last row
        chunk = min(size, DISK_CHUNK)
        buf = np.empty((13, chunk))
        n, masks = buf[11].view(np.intp), buf[12].view(np.bool_)[:3 * chunk].reshape(3, chunk)
        tally = _Tally(len(times))
        tallies.append(tally)

        def work(lo, hi):
            m = hi - lo
            state = [a[:m] for a in buf[:4]]
            states(lo, hi, state, buf[4:8])
            s0, tau, grazed = _disk_chords(*state, *geometry, buf[4:11], masks)
            # the step's float buffer is the chords' spent v2
            for k, t in enumerate(times):
                flagged = _disk_step(s0, tau, grazed, t, buf[6][:m], masks[2][:m], n[:m])
                tally.add(k, n[:m], n[flagged])

        return work

    _run_blocks(size, DISK_CHUNK, worker)
    return _totals(tallies, len(times))


# ---------------------------------------------------------------------------
# convex polygon billiard transport
# ---------------------------------------------------------------------------


# A particle's events do not depend on the transport time; only the stop
# test does.  The polygon kernel therefore steps each particle once, up to
# the largest requested time, with one row of remaining time per requested
# time, each going through the rounded subtractions a transport to its own
# time makes.  Rounded subtraction is monotone, so rows close in time order,
# leading rows closed for every working particle are dropped, and a particle
# leaves the compacted working set when its last row closes.  The round
# branches on no data-dependent mask and computes in work buffers that the
# call allocates once; each rewrite gives the branching, allocating form's
# bits, and the README says why.


def _select(mask, a, b, flip):
    # b = np.where(mask, a, b) in place, bit for bit: b ^ ((a ^ b) & M) on
    # uint64 views, M all ones where mask holds, taken as a product with the
    # 0/1 mask.  a is left alone; flip is uint64 scratch of b's shape
    bits = b.view(np.uint64)
    np.bitwise_xor(a.view(np.uint64), bits, out=flip)
    np.multiply(flip, mask, out=flip)
    bits ^= flip


def _row_sink(pos, vel, rebounds, degenerate):
    # a one-time sweep's sink, writing each closing particle's state into
    # the arrays at its index
    def sink(k, jj, lanes, flag, state):
        n, idx = lanes
        cols = idx[jj]
        pos[cols, 0], pos[cols, 1], vel[cols, 0], vel[cols, 1] = state()
        rebounds[cols] = n[jj]
        degenerate[cols] = flag[jj] if isinstance(flag, np.ndarray) else flag

    return sink


def _close(sink, mask, k0, lanes, flag, state):
    # hands row k0 + k the lanes set in mask's row k, found by one flat
    # nonzero per row; state(k, jj) gives their positions and velocities
    for k, row in enumerate(mask):
        jj = np.flatnonzero(row)
        if jj.size:
            sink(k0 + k, jj, lanes, flag, lambda: state(k, jj))


def _compact(bufs, spare, m, kept):
    # each working array bufs[i][:m], gathered to the lanes kept, moves into
    # a spare buffer, and its old buffer becomes the spare.  A gather copies
    # bits; the lanes are in range, and mode="clip" spares the copy of the
    # output that the bounds check of mode="raise" makes
    for i, buf in enumerate(bufs):
        dst = spare.pop()
        np.take(buf[:m], kept, out=dst[:kept.size], mode="clip")
        spare.append(buf)
        bufs[i] = dst


def _drop_rows(rem_buf, rem, closed, kept, row):
    # rem without its leading ``closed`` rows and, unless kept is None,
    # gathered to the lanes kept: row k into the front of rem_buf, its own
    # buffer, through the spare row.  Each gathered row ends no later than
    # the next old row starts, so it overwrites only rows already gathered
    if kept is None:
        return rem[closed:]
    m = kept.size
    for k, old in enumerate(rem[closed:]):
        np.take(old, kept, out=row[:m], mode="clip")
        rem_buf[k * m:(k + 1) * m] = row[:m]
    return rem_buf[:(rem.shape[0] - closed) * m].reshape(-1, m)


def _held_start(arrays, lo, hi, sink, times):
    # a sweep's start from particles lo..hi-1 of the held arrays (pos, vel,
    # rebounds, degenerate), for a sink writing into them: a cell closed
    # before the first round (a zero time, a particle flagged on input)
    # holds its state already, so none is handed
    pos, vel, rebounds, degenerate = (a[lo:hi] for a in arrays)
    idx = np.flatnonzero(~degenerate) if times.size and times[-1] > 0.0 else np.arange(0)
    m = idx.size
    state = [pos[idx, 0], pos[idx, 1], vel[idx, 0], vel[idx, 1],
             GRAZE_EPS * np.sqrt(np.sum(vel * vel, axis=1))[idx]]
    # every buffer of a kind shares one type, whatever the inputs' types
    state = [a.astype(np.float64, copy=False) for a in state]
    ints = [rebounds[idx].astype(np.intp, copy=False), idx]
    return state, ints, [np.empty(m) for _ in range(5)]


def _drawn_start(states, lo, hi, sink, times):
    # a sweep's start from particles lo..hi-1 drawn by ``states`` as for
    # disk_tallies, with no rebound or flag, for count sinks: they read no
    # state and no index lane
    m = hi - lo if times.size and times[-1] > 0.0 else 0
    state = [np.empty(m) for _ in range(5)]
    spare = [np.empty(m) for _ in range(5)]
    vx, vy, gs = state[2:]
    # into the working state, a sampler's slice at a time, through 4 spares
    for a in range(0, m, DISK_CHUNK):
        b = min(a + DISK_CHUNK, m)
        states(lo + a, lo + b, [v[a:b] for v in state[:4]], spare[:4])
    # GRAZE_EPS * speed, the bits of the held start's sum over vel * vel
    np.add(np.multiply(vx, vx, out=gs), np.multiply(vy, vy, out=spare[0]), out=gs)
    np.multiply(np.sqrt(gs, out=gs), GRAZE_EPS, out=gs)
    ints = [np.zeros(hi - lo, dtype=np.intp)]
    if times.size and times[0] == 0.0:
        sink(0, slice(None), (ints[0],), False, None)
    return state, ints, spare


def _sweep_block(start, lo, hi, sink, normals, offsets, verts, times, vert_eps):
    # Hands each (row, particle) cell of particles lo..hi-1 to ``sink`` once,
    # as its row closes: sink(k, jj, lanes, flag, state) gets row k, the
    # lanes jj closing in it of lanes = (count, *index), their flag (a bool
    # or a lane mask) and state(), their positions and velocities; no lane
    # carries a weight.  start(lo, hi, sink, times) hands the sink the cells
    # closed before the first round and returns the work buffers of m lanes:
    # the state (position, velocity, graze threshold GRAZE_EPS * speed), the
    # ints (count, and index if the sink reads one) and 5 spare floats.  Two spare ints and
    # two masks join them, used in prefixes, and the remaining times rem
    # (row k is the sink's row k0 + k) and two masks of its shape view flat
    # buffers.  Compaction moves each state array into a spare, and rem to
    # the front of its buffer.
    state, ints, spare = start(lo, hi, sink, times)
    m = state[0].size
    ispare = [np.empty(m, dtype=np.intp) for _ in range(2)]
    marks = [np.empty(m, dtype=np.bool_) for _ in range(2)]
    rem_buf = np.repeat(times, m)
    rem = rem_buf.reshape(times.size, m)
    cells = [np.empty(rem.size, dtype=np.bool_) for _ in range(2)]
    nxs, nys = np.ascontiguousarray(normals.T)
    k0 = 0
    rounds = 0
    # a particle with no hit ahead (s = inf) only ever flies; the garbage its
    # hit point gets in that round is dropped with it
    with np.errstate(divide="ignore", invalid="ignore"):
        while m:
            rounds += 1
            x, y, vx, vy, gs = (a[:m] for a in state)
            n, *idx = (a[:m] for a in ints)
            s, dv, q, t, u = (a[:m] for a in spare)
            edge, step = (a[:m] for a in ispare)
            first, ahead = (a[:m] for a in marks)
            open_, closing = (a[:rem.size].reshape(rem.shape) for a in cells)
            # first hit: a running minimum over the edges, an edge moved away
            # from (dv <= 0 or nan) counting as a hit at inf; the strict <
            # keeps the first of tied edges, the largest e that lowered s
            s.fill(np.inf)
            edge.fill(0)
            for e, (ex, ey) in enumerate(normals):
                # dv = vx * ex + vy * ey; q = (offset - (x * ex + y * ey)) / dv
                np.multiply(vx, ex, out=dv)
                np.multiply(vy, ey, out=t)
                dv += t
                np.multiply(x, ex, out=q)
                np.multiply(y, ey, out=t)
                q += t
                np.subtract(offsets[e], q, out=q)
                q /= dv
                np.less(q, s, out=first)
                np.greater(dv, 0.0, out=ahead)
                first &= ahead
                _select(first, q, s, dv.view(np.uint64))
                np.multiply(first, e, out=step)
                np.maximum(edge, step, out=edge)
            np.maximum(s, 0.0, out=s)
            np.greater(rem, 0.0, out=open_)
            flown = np.greater(s, rem, out=closing)
            flown &= open_
            lanes, here = (n, *idx), lambda k, jj: (x[jj], y[jj], vx[jj], vy[jj])
            _close(sink, flown, k0, lanes, False,
                   lambda k, jj: (x[jj] + vx[jj] * rem[k, jj], y[jj] + vy[jj] * rem[k, jj],
                                  vx[jj], vy[jj]))
            hit = np.not_equal(open_, flown, out=open_)
            if rounds > ITER_CAP:
                # a row owing more than ITER_CAP reflections stops at the last
                # one; rows that reach their time first have flown out above
                _close(sink, hit, k0, lanes, True, here)
                break
            # on an open row rem - s < 0 exactly where the row flies, never
            # -0.0, so the clamp gives 0 there; a closed row stays 0
            rem -= s
            np.maximum(rem, 0.0, out=rem)
            np.multiply(vx, s, out=t)
            x += t
            np.multiply(vy, s, out=t)
            y += t
            # sqrt is monotone and correctly rounded: one root of the least
            # square is the least root
            near = q
            near.fill(np.inf)
            for px, py in verts:
                np.subtract(x, px, out=dv)
                dv *= dv
                np.subtract(y, py, out=t)
                t *= t
                dv += t
                np.minimum(near, dv, out=near)
            np.sqrt(near, out=near)
            nx = np.take(nxs, edge, out=s, mode="clip")
            ny = np.take(nys, edge, out=dv, mode="clip")
            vn = np.multiply(vx, nx, out=t)
            np.multiply(vy, ny, out=u)
            vn += u
            graze = np.less(np.abs(vn, out=u), gs, out=first)
            graze |= np.less(near, vert_eps, out=ahead)
            # a reflection writes only the lanes that do not graze:
            # v -= 2 vn n and the count + 1
            reflect = np.logical_not(graze, out=ahead)
            np.multiply(vn, 2.0, out=u)
            np.subtract(vx, np.multiply(u, nx, out=q), out=vx, where=reflect)
            np.subtract(vy, np.multiply(u, ny, out=q), out=vy, where=reflect)
            np.add(n, reflect, out=n)
            # a graze freezes every row that reached this hit; a reflection
            # closes the rows it leaves with no time
            closes = np.equal(rem, 0.0, out=closing)
            closes |= graze
            closes &= hit
            _close(sink, closes, k0, lanes, graze, here)
            keep = np.greater(rem[-1], 0.0, out=first)
            keep &= reflect
            kept = None if keep.all() else np.flatnonzero(keep)
            if kept is not None and not kept.size:
                break
            # drop the leading rows closed for every kept particle; a kept
            # particle's last row is open, so the last row stays
            closed = 0
            while not np.any(rem[closed], where=keep):
                closed += 1
            k0 += closed
            rem = _drop_rows(rem_buf, rem, closed, kept, spare[0])
            if kept is not None:
                _compact(state, spare, m, kept)
                _compact(ints, ispare, m, kept)
                m = kept.size
    return sink


def _polygon_sweep(size, start, sink, geom, times):
    # sweeps each block lo..hi-1 of size particles, started by start, into
    # the sink sink(lo, hi), and returns the sinks in block order
    normals, offsets = geom.edge_normals()
    verts = np.array(geom.vertices, dtype=np.float64)
    # relative to the largest coordinate, whose magnitude sets the rounding
    # of every hit point, so a table and its scaled copies flag alike
    vert_eps = GRAZE_EPS * float(np.max(np.abs(verts)))
    consts = (normals, offsets, verts, times, vert_eps)

    # particles never interact, so a block swept alone hands its sink
    # bitwise the cells a whole sweep gives it; one block per worker
    return _run_blocks(size, max(1, -(-size // _sweep_workers(size))), lambda: lambda lo, hi: (
        _sweep_block(start, lo, hi, sink(lo, hi), *consts)))


def distinct_times(times) -> np.ndarray:
    """The distinct ``times`` in ascending order, as a float64 array.

    Raises ValueError unless every time is finite and nonnegative.
    """
    times = np.array(sorted({float(t) for t in times}), dtype=np.float64)
    if not np.all((times >= 0.0) & (times < np.inf)):
        raise ValueError("transport time must be finite and nonnegative")
    return times


def polygon_tallies(states, size, geom, times):
    """Integer tallies of a sampled polygon's rebound counts, as
    ``disk_tallies`` gives a disk's, from states it takes alike.  One sweep
    takes every time, with one row of remaining time each, and writes no
    row: each block draws its particles straight into its
    working state, one ``DISK_CHUNK`` slice at a time, and keeps running
    totals of its cells' counts as they close; the blocks' totals are added
    after the join.
    """
    times = distinct_times(times)
    blocks = _polygon_sweep(size, functools.partial(_drawn_start, states),
                            lambda lo, hi: _Tally(times.size), geom, times)
    return _totals(blocks, times.size)


def billiard_transport(pos, vel, weight, rebounds, degenerate, geom, t, scale=1.0):
    """Advance a billiard ensemble by time t in place (arrays are mutated).

    ``scale`` is the boundary operator weight: a particle that reflects k
    times by t has its weight multiplied by ``scale ** k``, in one power,
    and at scale 1 no weight is written.  Grazing hits (below
    ``GRAZE_EPS``) and polygon vertex hits freeze the particle and set its
    degenerate flag instead of reflecting.  A particle that would need more
    than ``ITER_CAP`` reflections stops at the last one and is marked
    degenerate too.  Returns the five arrays.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("transport time must be finite and nonnegative")
    held = (pos, vel, rebounds, degenerate)
    n0 = rebounds.copy() if scale != 1.0 else None
    if geom.shape == "disk":
        # at t = 0 nothing moves, not even a particle sitting on the wall
        if t > 0.0:
            for lo in range(0, pos.shape[0], DISK_CHUNK):
                _disk_slice(*(a[lo:lo + DISK_CHUNK] for a in held), *_disk_geometry(geom),
                            float(t))
    else:
        # one row, written straight into the inputs
        _polygon_sweep(pos.shape[0], functools.partial(_held_start, held),
                       lambda lo, hi: _row_sink(*(a[lo:hi] for a in held)),
                       geom, np.array([float(t)]))
    if n0 is not None:
        weight *= float(scale) ** (rebounds - n0)
    return pos, vel, weight, rebounds, degenerate
