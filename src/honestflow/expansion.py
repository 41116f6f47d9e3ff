"""Order-by-order boundary expansion of the transported density.

The evolved density splits into orders: order 0 is the free stream (mass
that has not touched the boundary), and order k carries exactly the mass
that has crossed the boundary k times.  On an interval union everything is
determined by boundary *time histories*:

- ``psi_k[m](s)``: outgoing trace of order k at ``b_m`` as a function of
  time, and
- ``u_k[j](s)``: incoming trace of order k at ``a_j``,

with the exact recursion ``psi_0[m](s) = f(b_m - s)``, ``u_k = rule applied
to psi_{k-1}`` entrywise in time, and ``psi_k[m](s) = u_k[m](s - length_m)``.
The order-k density on interval j at time t is the incoming history read
backwards: ``x -> u_k[j](t - (x - a_j))``.  All histories are step
functions, so every quantity below (densities, integrated traces, masses,
defects) is evaluated in closed form.

Truncation is certified: the mass missing beyond order n is bounded by the
time-integrated outgoing trace norm of order n, which telescopes out of the
order-mass balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .boundary import BoundaryRule, BoundaryVector, apply_rule, apply_rule_histories, flux_gap
from .densities import PiecewiseDensity, _ladder_sampler, free_stream
from .geometry import IntervalUnion
from .steps import StepFunction, clipped_integral, misses, running_totals

__all__ = [
    "Expansion",
    "TruncationReport",
    "MassBalanceReport",
    "order_density",
    "order_value",
    "evolve",
    "evolve_scaled",
    "integrated_trace",
    "mass_balance",
    "composition_residual",
    "mc_mass_estimate",
]

DEFAULT_TOL = 1e-8
DEFAULT_N_CAP = 128

# most history pieces one order may hold.  Breakpoints that never realign (a
# two-way kernel rule on a geometric ladder) double the pieces at every
# order; the largest order of any builtin or benchmark workload holds 200
MAX_ORDER_PIECES = 10**6


class Expansion:
    """Lazy per-order boundary histories of one initial density up to a time
    horizon ``t_max``."""

    def __init__(self, geom: IntervalUnion, rule: BoundaryRule, f: PiecewiseDensity, t_max: float):
        if not 0.0 <= t_max < math.inf:
            raise ValueError(f"time horizon t_max={t_max!r} must be finite and nonnegative")
        if rule.kind == "specular":
            raise ValueError("interval-union expansions need a shift or kernel rule")
        self.geom = geom
        self.rule = rule
        self.f = f
        self.t_max = float(t_max)
        psi0 = {}
        for m, part in f.parts.items():
            g = part.reflect(geom.b(m)).clip(0.0, self.t_max)
            if not g.is_zero:
                psi0[m] = g
        self._outgoing: list[dict[int, StepFunction]] = [psi0]
        self._incoming: list[dict[int, StepFunction]] = [{}]  # order 0 has no incoming part
        self._exhausted_at: int | None = 0 if not psi0 else None
        # (order, t) -> (order mass, [0, t] trace norm, flux gap of that trace)
        self._pass: dict[tuple[int, float], tuple[float, float, float]] = {}
        # order -> its histories as arrays, built on the order's first read
        self._in_arrays: dict[int, tuple[list, float]] = {}
        self._out_arrays: dict[int, list] = {}
        # order -> [last outgoing breakpoint, (trace norm, flux gap) from it on]
        self._covered: dict[int, list] = {}

    def _ensure(self, k: int):
        while len(self._outgoing) <= k:
            if self._exhausted_at is not None:
                self._incoming.append({})
                self._outgoing.append({})
                continue
            u = apply_rule_histories(self.rule, self._outgoing[-1], self.geom)
            pieces = sum(h.vals.size for h in u.values())
            if pieces > MAX_ORDER_PIECES:
                raise ValueError(
                    f"[run] n_cap: order {len(self._outgoing)} of the expansion holds {pieces} "
                    f"history pieces, above the budget of {MAX_ORDER_PIECES}; lower n_cap, "
                    "or the times and window ends"
                )
            psi = {}
            for m, h in u.items():
                g = h.shift(self.geom.delta(m)).clip(0.0, self.t_max)
                if not g.is_zero:
                    psi[m] = g
            self._incoming.append(u)
            self._outgoing.append(psi)
            if not psi:
                self._exhausted_at = len(self._outgoing) - 1

    def outgoing_history(self, k: int) -> dict[int, StepFunction]:
        self._ensure(k)
        return self._outgoing[k]

    def incoming_history(self, k: int) -> dict[int, StepFunction]:
        self._ensure(k)
        return self._incoming[k]

    def _incoming_arrays(self, k: int) -> tuple[list, float]:
        """Order k's incoming histories as ``(a_j, b_j, xs, vals)``, and the
        least start of any of them (``inf`` for none)."""
        if k not in self._in_arrays:
            rows = [(self.geom.a(j), self.geom.b(j), h.xs, h.vals)
                    for j, h in self.incoming_history(k).items()]
            self._in_arrays[k] = rows, min((xs[0] for _, _, xs, _ in rows), default=math.inf)
        return self._in_arrays[k]

    def _outgoing_arrays(self, k: int) -> list:
        """Order k's outgoing histories as ``(m, xs, vals, integral, running totals)``."""
        if k not in self._out_arrays:
            self._out_arrays[k] = [(m, h.xs, h.vals, h.integral(), running_totals(h.xs, h.vals))
                                   for m, h in self.outgoing_history(k).items()]
        return self._out_arrays[k]

    def _check_t(self, t: float):
        if not 0.0 <= t <= self.t_max:
            raise ValueError(f"t={t} outside the expansion horizon [0, {self.t_max}]")

    # -- exact evaluations ---------------------------------------------------

    def order_density(self, k: int, t: float) -> PiecewiseDensity:
        """Density of mass having crossed the boundary exactly k times."""
        self._check_t(t)
        if k == 0:
            return free_stream(self.f, t, self.geom)
        parts = {}
        for j, h in self.incoming_history(k).items():
            g = h.reflect(t).shift(self.geom.a(j)).clip(self.geom.a(j), self.geom.b(j))
            if not g.is_zero:
                parts[j] = g
        return PiecewiseDensity(parts)

    def order_value(self, k: int, t: float, x: float) -> float:
        """Pointwise value of the order-k density at interior point x."""
        self._check_t(t)
        kk = self.geom.index_of(x)
        if kk is None:
            raise ValueError(f"x={x} is not interior to the geometry")
        if k == 0:
            back = x - t
            return self.f.part(kk)(back) if back > self.geom.a(kk) else 0.0
        h = self.incoming_history(k).get(kk)
        if h is None:
            return 0.0
        return h(t - (x - self.geom.a(kk)))

    def order_mass(self, k: int, t: float) -> float:
        """``order_density(k, t).mass()``, read from the history arrays: the
        same breakpoint arithmetic and canonical pieces, no density built."""
        self._check_t(t)
        if k == 0:
            return free_stream(self.f, t, self.geom).mass()
        total = 0
        for a, b, xs, vals in self._incoming_arrays(k)[0]:
            if misses((t - xs[-1]) + a, (t - xs[0]) + a, a, b):  # it would add 0.0
                continue
            total += clipped_integral((t - xs[::-1]) + a, vals[::-1], a, b)
        return float(total)

    def integrated_trace(self, k: int, s: float, t: float) -> BoundaryVector:
        """Outgoing trace of order k integrated over the window [s, t]."""
        self._check_t(t)
        if not 0.0 <= s <= t:
            raise ValueError("need 0 <= s <= t")
        entries = []
        for m, xs, vals, whole, _ in self._outgoing_arrays(k):
            v = whole if s <= xs[0] and t >= xs[-1] else clipped_integral(xs, vals, s, t)
            if v != 0.0:
                entries.append((m, v))
        entries.sort()  # by index, as the indices are unique
        return BoundaryVector._trusted("outgoing", tuple(entries))

    def _order_pass(self, n: int, t: float) -> tuple[float, float, float]:
        """Order n at time t as the order pass reads it: its mass, its [0, t]
        outgoing trace norm and that trace's flux gap, computed once.  An
        order whose incoming histories all start at or after t has not
        entered the ladder by t, and its outgoing ones start later still:
        all three are exactly 0.  From the last breakpoint of the order's
        outgoing histories on, the [0, t] trace reads only whole integrals:
        those t share one norm and gap."""
        got = self._pass.get((n, t))
        if got is None:
            if n and self._incoming_arrays(n)[1] >= t:
                got = (0.0, 0.0, 0.0)
            else:
                if n not in self._covered:
                    ends = [xs[-1] for _, xs, *_ in self._outgoing_arrays(n)]
                    self._covered[n] = [max(ends, default=0.0), None]
                end, trace = self._covered[n]
                if t < end or trace is None:
                    tr = self.integrated_trace(n, 0.0, t)
                    trace = (tr.norm(), flux_gap(tr, self.rule, self.geom))
                    if t >= end:
                        self._covered[n][1] = trace
                got = (self.order_mass(n, t), *trace)
            self._pass[(n, t)] = got
        return got

    def partial_sums(self, t: float, tol: float, n_cap: int, width: int = 0) -> "TruncationReport":
        """The order pass at time t: order masses and [0, t] outgoing trace
        norms, order by order, until a trace norm drops below tol (it bounds
        all mass beyond that order) or order n_cap is reached.

        ``absorbed`` sums the flux gaps of every order whose trace norm was
        not below tol.  ``width`` only extends the recorded masses and norms
        to that order when the cut comes earlier; the cut does not depend on
        it.  Each order is evaluated once per t, so a second pass at the same
        t computes only the orders the first one did not reach."""
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        if n_cap < 0:
            raise ValueError("n_cap must be nonnegative")
        masses = []
        norms = []
        absorbed = 0.0
        n_used = None
        converged = False
        for n in range(max(n_cap, width) + 1):
            mass, norm, gap = self._order_pass(n, t)
            masses.append(mass)
            norms.append(norm)
            if n_used is None:
                converged = norm < tol
                if not converged:
                    absorbed += gap
                if converged or n == n_cap:
                    n_used = n
            if n_used is not None and n >= width:
                break
        return TruncationReport(n_used, norms[n_used], converged, tol, n_cap,
                                tuple(masses), tuple(norms), absorbed)


@dataclass(frozen=True)
class TruncationReport:
    """How an order sum was cut off.

    ``residual_bound`` bounds the l1 mass of every order beyond the last one
    included; ``converged`` records whether it dropped under tol before the
    order cap.  ``absorbed`` is the mass the boundary rule removed over the
    orders before the cut, including the cut order itself when it did not
    converge."""

    n_used: int
    residual_bound: float
    converged: bool
    tol: float
    n_cap: int
    order_masses: tuple
    trace_norms: tuple
    absorbed: float = 0.0


@dataclass(frozen=True)
class MassBalanceReport:
    """Both sides of the order-mass balance at (n, t).

    lhs: sum of order masses 0..n.  rhs: initial mass, minus the order-n
    integrated outgoing trace norm, plus the bracket terms (incoming minus
    outgoing integrated trace norms per order below n; each is <= 0, and
    exactly 0 for a conservative rule)."""

    n: int
    t: float
    lhs: float
    rhs: float
    order_masses: tuple
    bracket_terms: tuple
    final_trace_norm: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


def order_density(k: int, t: float, f: PiecewiseDensity, geom: IntervalUnion,
                  rule: BoundaryRule) -> PiecewiseDensity:
    return Expansion(geom, rule, f, t).order_density(k, t)


def order_value(k: int, t: float, f: PiecewiseDensity, x: float, geom: IntervalUnion,
                rule: BoundaryRule) -> float:
    return Expansion(geom, rule, f, t).order_value(k, t, x)


def integrated_trace(k: int, t: float, f: PiecewiseDensity, geom: IntervalUnion,
                     rule: BoundaryRule, s: float = 0.0) -> BoundaryVector:
    return Expansion(geom, rule, f, t).integrated_trace(k, s, t)


def evolve(
    t: float,
    f: PiecewiseDensity,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[PiecewiseDensity, TruncationReport]:
    """Partial order sum at time t with certified truncation.

    Orders are accumulated until the integrated outgoing trace norm of the
    last order drops below tol (that norm bounds all mass beyond it) or the
    order cap is hit, in which case the report says so and the density is
    the partial result.
    """
    ex = Expansion(geom, rule, f, t)
    report = ex.partial_sums(t, tol, n_cap)
    total = sum((ex.order_density(n, t) for n in range(report.n_used + 1)), PiecewiseDensity.zero())
    return total, report


def evolve_scaled(
    t: float,
    f: PiecewiseDensity,
    r: float,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[PiecewiseDensity, TruncationReport]:
    """Same as :func:`evolve` with the rule's overall weight replaced by r."""
    return evolve(t, f, geom, rule.scaled(r), tol=tol, n_cap=n_cap)


def mass_balance(
    n: int, t: float, f: PiecewiseDensity, geom: IntervalUnion, rule: BoundaryRule
) -> MassBalanceReport:
    """Exact order-mass balance at truncation order n and time t, from the order pass."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ex = Expansion(geom, rule, f, t)
    masses, out_norms, _ = zip(*(ex._order_pass(k, t) for k in range(n + 1)))
    brackets = tuple(
        apply_rule(rule, ex.integrated_trace(k, 0.0, t), geom).norm() - out_norms[k]
        for k in range(n)
    )
    rhs = f.mass() - out_norms[n] + float(sum(brackets))
    return MassBalanceReport(n, t, float(sum(masses)), rhs, masses, brackets, out_norms[n])


def composition_residual(
    k: int, t: float, s: float, f: PiecewiseDensity, geom: IntervalUnion, rule: BoundaryRule
) -> float:
    """l1 gap in the order composition law at (t, s):

    order k at time t+s versus the convolution of orders j at t applied to
    orders k-j at s, summed over j.
    """
    if k < 0 or t < 0.0 or s < 0.0:
        raise ValueError("need k >= 0 and nonnegative times")
    direct = Expansion(geom, rule, f, t + s).order_density(k, t + s)
    inner = Expansion(geom, rule, f, s)
    combined = PiecewiseDensity.zero()
    for j in range(k + 1):
        g = inner.order_density(k - j, s)
        if not g.parts:
            continue
        combined = combined + Expansion(geom, rule, g, t).order_density(j, t)
    return direct.l1_distance(combined)


# particles per slice of the Monte Carlo walk: its peak is about 2 MB
# whatever the particle count; slices of 2**16 peaked at 9 MB and walked no
# faster
MC_SLICE = 1 << 14


def mc_mass_estimate(
    f: PiecewiseDensity,
    t: float,
    r: float,
    geom: IntervalUnion,
    n_particles: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the evolved mass, with its standard error.

    Particles are drawn from f, drift right at unit speed, jump from each
    outgoing endpoint to the next incoming one and survive each jump with
    probability r (counter-based draws).  This is a cross-check of the
    exact order sum, not an exact path.  The particles are drawn and walked
    ``MC_SLICE`` at a time, so memory is O(slice) for any ``n_particles``;
    every draw is keyed by the particle's index, so the estimate does not
    depend on the slicing.  Bad t, r, ``n_particles`` (a positive int) or
    seed (an int in [0, 2**64)) raise ValueError before any draw.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    if not 0.0 < r <= 1.0:
        raise ValueError("survival probability r must lie in (0, 1]")
    draw = _ladder_sampler(f, n_particles, seed, "n_particles")
    k_top = geom.reach_index(f.max_index(), t) + 2
    if math.isfinite(geom.n_intervals):
        k_top = min(k_top, int(geom.n_intervals) - 1)
    idx = range(k_top + 1)
    a = np.array([geom.a(k) for k in idx])
    b = np.array([geom.b(k) for k in idx])
    tail = np.array([geom.tail_delta(k) for k in idx])
    survivors = 0
    for lo in range(0, n_particles, MC_SLICE):
        x0, k0 = draw(lo, min(lo + MC_SLICE, n_particles))
        alive, _ = _kernels.ladder_survival(x0, k0, a, b, tail, r, t, seed, first=lo)
        survivors += int(np.count_nonzero(alive))
    total = f.mass()
    # bitwise np.mean(alive) of one whole walk: a float sum of 0/1 values is
    # exact below 2**53
    p = survivors / n_particles
    estimate = total * p
    stderr = total * float(np.sqrt(max(p * (1.0 - p), 0.0) / n_particles))
    return estimate, stderr
