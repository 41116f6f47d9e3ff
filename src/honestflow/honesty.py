"""Honesty diagnostics: does the evolved density account for all mass?

The expansion's time-integrated outgoing trace norms ``d_n = |trace of
order n integrated over [s, t]|`` always converge as n grows; their limit
is the mass defect over the window.  A zero limit on every subwindow means
the evolution is honest there (semigroup mass matches the generator's
bookkeeping); a positive limit is leaked mass and its size is the defect.

The same verdict is available in the resolvent domain: the l1 norms of the
iterated boundary chain ``(damped transit after boundary rule)^n`` applied
to the no-reentry resolvent trace decay to zero exactly for honest
evolutions, for one (equivalently every) positive resolvent parameter.

Stabilisation rule (both domains): the sequence is considered settled once
5 consecutive increments stay below tol/10 (window defects also need the
earliest trace arrival to have stopped moving); the verdict then compares
the last entry against tol.  Hitting the order cap first leaves the verdict
inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (
    BoundaryRule, BoundaryVector, apply_rule, damped_transit, flux_gap, outgoing_resolvent_trace,
)
from .densities import ParticleEnsemble, PiecewiseDensity, ReboundCounts, ReboundTally
from .expansion import DEFAULT_N_CAP, DEFAULT_TOL, Expansion, evolve
from .geometry import IntervalUnion
from .steps import cumulative_at

__all__ = [
    "DefectReport",
    "ResolventReport",
    "IntervalHonestyReport",
    "SufficiencyReport",
    "MassLossResult",
    "EnsembleDecayReport",
    "mass_loss",
    "defect",
    "honesty_on_interval",
    "resolvent_defect",
    "sufficient_honesty_check",
    "absorption_rate_estimate",
    "mass_defect_estimate",
    "ensemble_trace_decay",
]

STABLE_SPAN = 5

HONEST = "honest"
DISHONEST = "dishonest"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DefectReport:
    window: tuple
    entries: tuple
    limit_estimate: float
    stabilized: bool
    verdict: str
    tol: float
    n_cap: int


@dataclass(frozen=True)
class ResolventReport:
    lam: float
    entries: tuple
    limit_estimate: float
    stabilized: bool
    verdict: str
    tol: float
    n_cap: int


@dataclass(frozen=True)
class IntervalHonestyReport:
    window: tuple
    verdict: str
    witness_window: tuple
    witness_limit: float
    grid_points: int
    reports: tuple


@dataclass(frozen=True)
class SufficiencyReport:
    mode: str  # "profile" | "domination"
    satisfied: bool
    witness_index: int | None
    lhs: float
    rhs: float


@dataclass(frozen=True)
class MassLossResult:
    window: tuple
    loss: float
    conclusive: bool


@dataclass(frozen=True)
class EnsembleDecayReport:
    elapsed: float
    tail_weights: tuple
    max_rebounds: int
    degenerate_weight: float
    stat_tol: float
    verdict: str


def _require_nonnegative(f: PiecewiseDensity):
    if not f.is_nonnegative:
        raise ValueError("honesty verdicts are defined for nonnegative densities")


# verdicts from best to worst: one dishonest part makes the whole dishonest,
# else one inconclusive part leaves it inconclusive
_RANKED = (HONEST, INCONCLUSIVE, DISHONEST)


def _worst(verdicts) -> str:
    """The worst of verdicts; honest when there are none."""
    return max(verdicts, key=_RANKED.index, default=HONEST)


def _classify(entries: list[float], tol: float, stabilized: bool) -> str:
    if not stabilized:
        return INCONCLUSIVE
    return HONEST if entries[-1] <= tol else DISHONEST


def _run_sequence(step, tol: float, n_cap: int):
    """Generate d_0, d_1, ... until stabilised or capped."""
    entries: list[float] = []
    stabilized = False
    for n in range(n_cap + 1):
        entries.append(float(step(n)))
        if len(entries) > STABLE_SPAN:
            recent = entries[-(STABLE_SPAN + 1):]
            if all(abs(b - a) < tol / 10.0 for a, b in zip(recent, recent[1:])):
                stabilized = True
                break
    return entries, stabilized


def _settle_windows(ex: Expansion, points, tol: float, n_cap: int) -> list[DefectReport]:
    """Window-defect sequences of every subwindow ``[points[i], points[j]]``,
    i < j, in the order of ``np.triu_indices``, from one pass over the orders.

    The points ascend to an end t within the expansion's horizon, and only
    [0, t] is read: every shift is positive, so left of t the histories are
    those of an expansion to t, and a history starting at or after t is
    skipped, as that expansion would have clipped it away.

    The histories are nonnegative, so order n's trace norm on [g_i, g_j] is
    ``C_n(g_j) - C_n(g_i)``, where ``C_n(g)`` integrates all of order n's
    outgoing histories over (-inf, g].  Each order evaluates C_n at the G
    points once per history and forms all P = G(G-1)/2 entries as one
    array: O(orders x (histories x G + P)) in all.

    Stopping rule, per pair: a (near-)repeating positive entry is ambiguous.
    It is the limit when the trace histories have stopped moving (arrival
    times frozen), but mass still marching toward the window end can break
    the plateau at a later order.  So a pair settles once its last
    ``STABLE_SPAN`` increments stay below tol/10 *and* the earliest arrival
    time of the orders' histories (one per order, shared by every pair)
    moved by less than tol/10 over the same span.  A settled pair takes no
    more entries; the pass ends when every pair has settled or the order
    cap is reached.  Orders whose histories vanish identically on [0, t]
    end every open sequence exactly: every later entry is zero.
    """
    points = np.asarray(points, dtype=np.float64)
    end = points[-1]
    lo, hi = np.triu_indices(points.size, k=1)
    n_pairs = lo.size
    table: list[np.ndarray] = []  # entries of order n for every pair
    arrivals: list[float] = []
    counts = np.full(n_pairs, n_cap + 1)
    stabilized = np.zeros(n_pairs, dtype=bool)
    open_pairs = np.arange(n_pairs)
    for n in range(n_cap + 1):
        hist = [h for h in ex._outgoing_arrays(n) if h[1][0] < end]
        if not hist:
            # exhausted: all remaining orders are identically zero on [0, t]
            table.append(np.zeros(n_pairs))
            counts[open_pairs] = n + 1
            stabilized[open_pairs] = True
            break
        cum = sum(cumulative_at(xs, vals, totals, points) for _, xs, vals, _, totals in hist)
        table.append(cum[hi] - cum[lo])
        arrivals.append(min(xs[0] for _, xs, _, _, _ in hist))
        if n < STABLE_SPAN:
            continue
        recent = arrivals[-(STABLE_SPAN + 1):]
        if any(abs(b - a) >= tol / 10.0 for a, b in zip(recent, recent[1:])):
            continue
        steps = np.diff(np.array(table[-(STABLE_SPAN + 1):])[:, open_pairs], axis=0)
        done = np.all(np.abs(steps) < tol / 10.0, axis=0)
        counts[open_pairs[done]] = n + 1
        stabilized[open_pairs[done]] = True
        open_pairs = open_pairs[~done]
        if not open_pairs.size:
            break
    ends = points.tolist()
    reports = []
    for i, j, row, count, settled in zip(lo.tolist(), hi.tolist(), np.array(table).T.tolist(),
                                         counts.tolist(), stabilized.tolist()):
        entries = tuple(row[:count])
        reports.append(DefectReport(
            (ends[i], ends[j]), entries, entries[-1], settled,
            _classify(entries, tol, settled), tol, n_cap,
        ))
    return reports


def mass_loss(
    s: float,
    t: float,
    f: PiecewiseDensity,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> MassLossResult:
    """Mass lost between times s and t per the evolved partial sums.

    Unconverged partial sums make the result inconclusive (the loss then
    mixes true leakage with truncation error).
    """
    if not 0.0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    _require_nonnegative(f)
    d_s, rep_s = evolve(s, f, geom, rule, tol=tol, n_cap=n_cap)
    d_t, rep_t = evolve(t, f, geom, rule, tol=tol, n_cap=n_cap)
    return MassLossResult((s, t), d_s.mass() - d_t.mass(), rep_s.converged and rep_t.converged)


def defect(
    s: float,
    t: float,
    f: PiecewiseDensity,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> DefectReport:
    """Defect of the window [s, t]: limit of the integrated outgoing trace
    norms over expansion orders.  Zero limit = honest window.

    This is the one pair of :func:`honesty_on_interval`'s order pass on the
    two-point grid (s, t): per order, one cumulative trace evaluation per
    history at s and t."""
    if not 0.0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    _require_nonnegative(f)
    return _settle_windows(Expansion(geom, rule, f, t), (s, t), tol, n_cap)[0]


def honesty_on_interval(
    window: tuple,
    f: PiecewiseDensity,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
    grid_points: int = 8,
    *,
    _expansion: Expansion | None = None,
) -> IntervalHonestyReport:
    """Honesty verdict on a time interval via a grid of subwindows.

    The window [s, t] is honest when the defect vanishes on every subwindow;
    the report carries the worst witness found.  A single dishonest
    subwindow decides the verdict; otherwise any inconclusive subwindow
    leaves the whole interval inconclusive.

    One pass over the orders serves the whole grid: each order's
    cumulative trace ``C_n`` is evaluated at the G grid points, and the
    P = G(G-1)/2 subwindow entries ``C_n(g_j) - C_n(g_i)`` come out as one
    array, so the cost is O(orders x (histories x G + P)) rather than one
    trace sequence per subwindow.  Each subwindow keeps its own stopping
    rule (see :func:`_settle_windows`).

    ``_expansion``, an expansion of f whose horizon reaches t, is read
    instead of building one to t; the report is the same.
    """
    s, t = (float(window[0]), float(window[1]))
    if not 0.0 <= s < t:
        raise ValueError("window must satisfy 0 <= s < t")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    _require_nonnegative(f)
    ex = _expansion
    if ex is None:
        ex = Expansion(geom, rule, f, t)
    elif t > ex.t_max:
        raise ValueError(f"window end {t} beyond the expansion horizon {ex.t_max}")
    grid = np.linspace(s, t, grid_points)
    reports = _settle_windows(ex, grid, tol, n_cap)
    worst = max(reports, key=lambda r: r.limit_estimate)
    return IntervalHonestyReport((s, t), _worst(r.verdict for r in reports), worst.window,
                                 worst.limit_estimate, grid_points, tuple(reports))


def resolvent_defect(
    f: PiecewiseDensity,
    lam: float,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> ResolventReport:
    """Frequency-domain honesty test at resolvent parameter lam.

    Iterates the boundary chain on the no-reentry resolvent trace and
    watches its l1 norm; decay to zero is equivalent to honesty and the
    verdict does not depend on lam."""
    _require_nonnegative(f)
    state = {"w": outgoing_resolvent_trace(f, lam, geom)}

    def step(n: int) -> float:
        if n > 0:
            state["w"] = damped_transit(apply_rule(rule, state["w"], geom), lam, geom)
        return state["w"].norm()

    entries, stabilized = _run_sequence(step, tol, n_cap)
    return ResolventReport(
        float(lam), tuple(entries), entries[-1], stabilized,
        _classify(entries, tol, stabilized), tol, n_cap,
    )


def sufficient_honesty_check(
    geom: IntervalUnion,
    rule: BoundaryRule,
    h=None,
    k_check: int = 32,
    f: PiecewiseDensity | None = None,
    lam: float | None = None,
    slack: float = 0.0,
) -> SufficiencyReport:
    """Two sufficient honesty certificates; neither failing proves
    dishonesty.

    Profile mode (pass ``h``): h maps outgoing indices to strictly positive
    weights; the rule must not increase h when the redistributed value at
    ``a_k`` is compared with h at the paired ``b_k``.  Only indices up to
    ``k_check`` are examined, so on an infinite geometry this certifies the
    checked range only: the full certificate needs the same inequality at
    every index *and* a summable profile, neither of which a finite scan can
    establish.  Zero or negative profile entries are refused.

    Domination mode (pass ``f`` and ``lam``): one boundary round trip must
    not raise the no-reentry resolvent trace of f at any outgoing index.
    Satisfied, this certifies the trajectory of f honest outright: the
    iterated chain is then entrywise monotone under an l1 envelope, so its
    norms decay to the zero fixed point.
    """
    if (h is None) == (f is None and lam is None):
        raise ValueError("pass either a profile h, or a density f with lam")
    if h is not None:
        top = k_check
        if np.isfinite(geom.n_intervals):
            top = min(top, int(geom.n_intervals) - 1)
        hv = {}
        for k in range(top + 1):
            val = float(h(k)) if callable(h) else float(h[k])
            if val <= 0.0:
                raise ValueError(f"profile must be strictly positive, h({k}) = {val}")
            hv[k] = val
        image = apply_rule(rule, BoundaryVector.from_dict("outgoing", hv), geom)
        for k in range(top + 1):
            got = image.get(k)
            if got > hv[k] + slack:
                return SufficiencyReport("profile", False, k, got, hv[k])
        return SufficiencyReport("profile", True, None, 0.0, 0.0)
    _require_nonnegative(f)
    base = outgoing_resolvent_trace(f, lam, geom)
    once = damped_transit(apply_rule(rule, base, geom), lam, geom)
    for k in sorted(set(dict(once.entries)) | set(dict(base.entries))):
        if once.get(k) > base.get(k) + slack:
            return SufficiencyReport("domination", False, k, once.get(k), base.get(k))
    return SufficiencyReport("domination", True, None, 0.0, 0.0)


def absorption_rate_estimate(
    f: PiecewiseDensity,
    t: float,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[float, bool]:
    """Estimate of the instantaneous boundary absorption rate of f.

    Averages over [0, t] the boundary flux gaps of the orders that
    :func:`mass_defect_estimate` counts as absorbed; this is a finite-time,
    truncated-order *estimate* of the absorption functional, not a certified
    value.  Returns (estimate, converged flag for the order sum).
    """
    if t <= 0.0:
        raise ValueError("need t > 0 for a rate estimate")
    _require_nonnegative(f)
    rep = Expansion(geom, rule, f, t).partial_sums(t, tol, n_cap)
    return rep.absorbed / t, rep.converged


def mass_defect_estimate(
    f: PiecewiseDensity,
    t: float,
    geom: IntervalUnion,
    rule: BoundaryRule,
    tol: float = DEFAULT_TOL,
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[float, bool]:
    """Unaccounted mass change over [0, t]: (evolved mass - initial mass)
    plus everything the boundary rule absorbed.  Zero for honest evolutions,
    strictly negative where mass escapes the accounting.  Returns
    (estimate, converged flag); the estimate carries the truncation error of
    the partial sum, so pick tol accordingly.

    The absorbed mass is the flux gap summed over every order whose [0, t]
    trace norm was not below tol: the orders before the cut, and the cut
    order itself when the order cap stopped the sum."""
    if t < 0.0:
        raise ValueError("need t >= 0")
    _require_nonnegative(f)
    if t == 0.0:
        return 0.0, True
    rep = Expansion(geom, rule, f, t).partial_sums(t, tol, n_cap)
    return sum(rep.order_masses) + rep.absorbed - f.mass(), rep.converged


def ensemble_trace_decay(ens: ParticleEnsemble | ReboundCounts | ReboundTally, elapsed: float,
                         stat_tol: float | None = None) -> EnsembleDecayReport:
    """Trace-decay check for a transported billiard ensemble, for its
    rebound counts alone, or for their tally: all offer the same report
    methods.

    ``tail_weights()[n]`` estimates the order-n integrated outgoing trace
    norm; for a bounded convex table it must reach zero at finite order.
    Degenerate (frozen) particles cannot finish their rebounds, so more than
    a statistical tolerance of degenerate weight leaves the check
    inconclusive."""
    if stat_tol is None:
        stat_tol = 3.0 / float(np.sqrt(max(len(ens), 1))) * max(ens.mass(), 1.0)
    tails = ens.tail_weights()
    degenerate_weight = ens.degenerate_weight()
    max_rebounds = ens.max_rebounds()
    if degenerate_weight > stat_tol:
        verdict = INCONCLUSIVE
    elif tails.size == 0 or tails[-1] <= stat_tol:
        verdict = HONEST
    else:
        verdict = INCONCLUSIVE
    return EnsembleDecayReport(
        float(elapsed), tuple(float(x) for x in tails), max_rebounds,
        degenerate_weight, float(stat_tol), verdict,
    )
