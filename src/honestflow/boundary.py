"""Boundary traces, boundary rules and resolvent-parameter operators.

On an interval union the incoming boundary is the set of left endpoints
``a_k`` and the outgoing boundary the right endpoints ``b_k``; both carry
counting measure, so traces are finitely supported index -> value maps
(:class:`BoundaryVector`) with the l1 norm.

A :class:`BoundaryRule` sends outgoing traces to incoming ones: the shift
rule feeds each ``b_k`` into ``a_{k+1}`` and the kernel rule redistributes
``b_k`` over rows of a substochastic matrix; both carry an overall weight
``scale`` in (0, 1].  The specular rule marks billiard reflection and has no
discrete-vector action.

The resolvent-parameter operators below (all for lam > 0) are the exact
closed forms used by the frequency-domain honesty test:

- :func:`damped_transit`: incoming value carried across its interval,
  damped by ``exp(-lam * length)``;
- :func:`outgoing_resolvent_trace`: outgoing trace of the no-reentry
  resolvent of a density;
- :func:`absorbing_resolvent_at`: pointwise no-reentry resolvent;
- :func:`incoming_extension_at`: pointwise damped extension of an incoming
  trace into its interval;
- :func:`resolvent_at`: pointwise full resolvent via the boundary series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .densities import PiecewiseDensity
from .geometry import IntervalUnion
from .steps import StepFunction

__all__ = [
    "BoundaryVector",
    "BoundaryRule",
    "apply_rule",
    "flux_gap",
    "damped_transit",
    "outgoing_resolvent_trace",
    "absorbing_resolvent_at",
    "incoming_extension_at",
    "resolvent_at",
]


@dataclass(frozen=True)
class BoundaryVector:
    """Finitely supported trace on one side of the boundary.

    Values given for the same index add up; entries that come to zero are
    dropped.
    """

    side: str  # "incoming" | "outgoing"
    entries: tuple = ()  # sorted ((index, value), ...)

    def __post_init__(self):
        if self.side not in ("incoming", "outgoing"):
            raise ValueError(f"unknown boundary side {self.side!r}")
        summed: dict[int, float] = {}
        for k, v in self.entries:
            k, v = int(k), float(v)
            summed[k] = summed[k] + v if k in summed else v
        object.__setattr__(
            self, "entries", tuple((k, v) for k, v in sorted(summed.items()) if v != 0.0))

    @classmethod
    def _trusted(cls, side: str, entries: tuple) -> "BoundaryVector":
        """Wrap entries sorted by unique int index, float and nonzero."""
        out = object.__new__(cls)
        object.__setattr__(out, "side", side)
        object.__setattr__(out, "entries", entries)
        return out

    @classmethod
    def from_dict(cls, side: str, d: dict) -> "BoundaryVector":
        return cls(side, tuple(d.items()))

    def to_dict(self) -> dict[int, float]:
        return dict(self.entries)

    def get(self, k: int) -> float:
        return dict(self.entries).get(int(k), 0.0)

    def norm(self) -> float:
        """l1 norm against the counting measure."""
        return float(sum(abs(v) for _, v in self.entries))

    def signed_sum(self) -> float:
        return float(sum(v for _, v in self.entries))

    def scale(self, a: float) -> "BoundaryVector":
        return BoundaryVector(self.side, tuple((k, a * v) for k, v in self.entries))

    def __add__(self, other: "BoundaryVector") -> "BoundaryVector":
        if self.side != other.side:
            raise ValueError("cannot add traces on different boundary sides")
        d = self.to_dict()
        for k, v in other.entries:
            d[k] = d.get(k, 0.0) + v
        return BoundaryVector.from_dict(self.side, d)

    def __sub__(self, other: "BoundaryVector") -> "BoundaryVector":
        return self + other.scale(-1.0)


@dataclass(frozen=True)
class BoundaryRule:
    """Norm-one positive boundary operator, scaled by ``scale`` in (0, 1].

    kinds:
      - ``shift``: outgoing ``b_k`` feeds incoming ``a_{k+1}``;
      - ``kernel``: outgoing ``b_k`` feeds row k of a substochastic matrix
        with finite rows (``rows[k] = ((j, p), ...)``, p >= 0, row sums <= 1,
        and at least one row sum equal to 1 within 1e-12);
      - ``specular``: billiard reflection marker (no discrete action).
    """

    kind: str
    scale: float = 1.0
    rows: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in ("shift", "kernel", "specular"):
            raise ValueError(f"unknown boundary rule {self.kind!r}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("boundary weight scale must lie in (0, 1]")
        if self.kind == "kernel":
            rows = {}
            for k, row in dict(self.rows).items():
                row = tuple((int(j), float(p)) for j, p in row)
                if any(p < 0.0 for _, p in row):
                    raise ValueError(f"row {k} has a negative weight")
                if sum(p for _, p in row) > 1.0 + 1e-12:
                    raise ValueError(f"row {k} sums above 1")
                rows[int(k)] = tuple((j, p) for j, p in row if p > 0.0)
            if rows and max(sum(p for _, p in row) for row in rows.values()) < 1.0 - 1e-12:
                raise ValueError("kernel must have norm one: some row must sum to 1")
            if not rows:
                raise ValueError("kernel rule needs at least one row")
            object.__setattr__(self, "rows", tuple(sorted(rows.items())))

    def scaled(self, r: float) -> "BoundaryRule":
        """Same redistribution with overall weight r (replaces, not stacks)."""
        return BoundaryRule(self.kind, r, self.rows)

    @cached_property
    def _row_map(self) -> dict:
        return dict(self.rows)

    def row(self, k: int):
        if self.kind == "shift":
            return ((k + 1, 1.0),)
        return self._row_map.get(int(k), ())

    def feeds(self, outgoing_index: int, geom: IntervalUnion):
        """Row of (incoming index, weight) pairs, geometry bounds applied."""
        n = geom.n_intervals
        return tuple((j, p) for j, p in self.row(outgoing_index) if j < n)


def _image(rule: BoundaryRule, trace: BoundaryVector, geom: IntervalUnion) -> list:
    """``apply_rule``'s entries, nonzero and sorted by index, with no vector built."""
    if rule.kind == "specular":
        raise ValueError("specular rule has no action on interval-union traces")
    if trace.side != "outgoing":
        raise ValueError("boundary rule consumes outgoing traces")
    scale = float(rule.scale)
    out: dict[int, float] = {}
    for k, v in trace.entries:
        for j, p in rule.feeds(k, geom):
            out[j] = out.get(j, 0.0) + scale * p * v
    return [(j, v) for j, v in sorted(out.items()) if v != 0.0]


def apply_rule(rule: BoundaryRule, trace: BoundaryVector, geom: IntervalUnion) -> BoundaryVector:
    """Send an outgoing trace through the boundary rule."""
    # int indices and float values, as the trace and the rule's rows hold
    return BoundaryVector._trusted("incoming", tuple(_image(rule, trace, geom)))


def flux_gap(trace: BoundaryVector, rule: BoundaryRule, geom: IntervalUnion) -> float:
    """Signed outgoing-minus-redistributed boundary flux of a trace.

    For nonnegative traces this is the l1 norm lost in one boundary pass
    (zero exactly when the rule is conservative on the trace's support).
    """
    return trace.signed_sum() - float(sum(v for _, v in _image(rule, trace, geom)))


def apply_rule_histories(rule: BoundaryRule, hist: dict[int, StepFunction], geom: IntervalUnion):
    """Same combinatorics on whole time histories (index -> StepFunction)."""
    if rule.kind == "specular":
        raise ValueError("specular rule has no action on interval-union traces")
    out: dict[int, StepFunction] = {}
    for k, f in hist.items():
        if f.is_zero:
            continue
        for j, p in rule.feeds(k, geom):
            g = f.scale(rule.scale * p)
            out[j] = out[j] + g if j in out else g
    return {j: f for j, f in out.items() if not f.is_zero}


def _check_lam(lam: float):
    if not (isinstance(lam, (int, float)) and lam > 0.0 and math.isfinite(lam)):
        raise ValueError("resolvent parameter lam must be positive and finite")


def damped_transit(trace: BoundaryVector, lam: float, geom: IntervalUnion) -> BoundaryVector:
    """Carry an incoming trace across each interval with exponential damping:
    the value at ``a_k`` arrives at ``b_k`` multiplied by
    ``exp(-lam * (b_k - a_k))``."""
    _check_lam(lam)
    if trace.side != "incoming":
        raise ValueError("damped transit consumes incoming traces")
    return BoundaryVector(
        "outgoing",
        tuple((k, v * math.exp(-lam * geom.delta(k))) for k, v in trace.entries),
    )


def outgoing_resolvent_trace(f: PiecewiseDensity, lam: float, geom: IntervalUnion) -> BoundaryVector:
    """Outgoing trace of the no-reentry resolvent of f: the entry at ``b_k``
    integrates f over interval k against the exponential clock run to
    ``b_k``."""
    _check_lam(lam)
    return BoundaryVector(
        "outgoing",
        tuple((k, part.exp_integral(lam, geom.b(k))) for k, part in f.parts.items()),
    )


def absorbing_resolvent_at(f: PiecewiseDensity, lam: float, x: float, geom: IntervalUnion) -> float:
    """No-reentry resolvent of f evaluated at an interior point x."""
    _check_lam(lam)
    k = geom.index_of(x)
    if k is None:
        raise ValueError(f"x={x} is not interior to the geometry")
    return f.part(k).clip(geom.a(k), x).exp_integral(lam, x)


def incoming_extension_at(trace: BoundaryVector, lam: float, x: float, geom: IntervalUnion) -> float:
    """Damped extension of an incoming trace to an interior point: the value
    at ``a_k`` reaches x multiplied by ``exp(-lam * (x - a_k))``."""
    _check_lam(lam)
    if trace.side != "incoming":
        raise ValueError("extension consumes incoming traces")
    k = geom.index_of(x)
    if k is None:
        raise ValueError(f"x={x} is not interior to the geometry")
    v = trace.get(k)
    return v * math.exp(-lam * (x - geom.a(k)))


def resolvent_at(
    f: PiecewiseDensity,
    lam: float,
    x: float,
    geom: IntervalUnion,
    rule: BoundaryRule,
    n_max: int = 64,
) -> tuple[float, float]:
    """Pointwise resolvent of the boundary-perturbed generator.

    Sums the no-reentry part plus ``n_max`` boundary round trips; returns
    ``(value, bound)`` where bound is the l1 norm of the first neglected
    boundary iterate (the chain mass not yet folded in).
    """
    _check_lam(lam)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    total = absorbing_resolvent_at(f, lam, x, geom)
    w = outgoing_resolvent_trace(f, lam, geom)
    for _ in range(n_max):
        if not w.entries:
            return total, 0.0
        incoming = apply_rule(rule, w, geom)
        total += incoming_extension_at(incoming, lam, x, geom)
        w = damped_transit(incoming, lam, geom)
    return total, w.norm()
