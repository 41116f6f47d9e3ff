"""Workload definitions and their independent oracles.

Each workload turns the benchmark seed into one scenario config text (the
program sees only that text) and checks the finished report bundle against
an oracle that does not call the code under test.  Every check is one
operation; ``ops_failed_frac`` is failed checks over checks attempted.

Ladders: the seed draws the positive piece values of the initial density.
Billiards: the seed is the ensemble seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Monte Carlo cross-check size for ladder-dishonest (particles per report time)
MC_PARTICLES = 200_000
# an estimate may sit this many standard errors away from the exact mass
MC_SIGMAS = 5.0
# relative rounding allowance when comparing sums computed in another order
ROUNDING = 1e-12
# billiard weight must be conserved to this absolute accuracy
BILLIARD_MASS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    config: object  # seed -> config text
    check: object  # (result, seed, mc_estimates) -> list[Check]
    mc_particles: int = 0  # > 0: run the Monte Carlo oracle at every report time


@dataclass(frozen=True)
class Check:
    """One checked diagnostic of one scenario run."""

    what: str
    ok: bool
    detail: str


def _piece_values(seed: int, n: int) -> list[float]:
    rng = random.Random(seed)
    return [0.5 + rng.random() for _ in range(n)]


def _pieces_text(pieces) -> str:
    return "; ".join(f"{lo!r}, {hi!r}, {v!r}" for lo, hi, v in pieces)


def _config(geometry: str, boundary: str, density: str, run: str) -> str:
    return (
        f"[geometry]\n{geometry}\n\n[boundary]\n{boundary}\n\n"
        f"[density]\n{density}\n\n[run]\n{run}\n"
    )


def _ladder_pieces(seed: int, n_pieces: int) -> list[tuple]:
    """``n_pieces`` equal pieces over [0, 1] with seeded values in [0.5, 1.5)."""
    vals = _piece_values(seed, n_pieces)
    return [(i / n_pieces, (i + 1) / n_pieces, v) for i, v in enumerate(vals)]


def _pieces_of(result) -> list[tuple]:
    return [tuple(map(float, p)) for p in result.config.pieces]


def _mass_below(pieces, x: float) -> float:
    """Exact integral of the step density over (-inf, x]."""
    return sum(v * max(0.0, min(hi, x) - lo) for lo, hi, v in pieces)


# -- ladder-dishonest -----------------------------------------------------------

DISHONEST_PIECES = 4


def dishonest_config(seed: int) -> str:
    pieces = _ladder_pieces(seed, DISHONEST_PIECES)
    return _config(
        "kind = interval-union\nrule = geometric\nstart = 0\nspacing = 3\nlength = 1\nratio = 0.5",
        "kind = shift\nscale = 1",
        f"kind = piecewise\npieces = {_pieces_text(pieces)}",
        "times = 0.5, 1, 1.5, 2, 2.5\ntol = 1e-12\nn_cap = 64\nlambdas = 1\n"
        "windows = 0.5, 1; 1, 2\ngrid_points = 16\nlabel = ladder-dishonest",
    )


def dishonest_exact_mass(pieces, t: float) -> float:
    """Mass left at time t on the geometric ladder of total length 2: a
    particle starting at x runs off the end once x + t reaches 2."""
    return _mass_below(pieces, min(1.0, 2.0 - t))


def check_dishonest(result, seed: int, mc_estimates) -> list[Check]:
    pieces = _pieces_of(result)
    total = _mass_below(pieces, 1.0)
    rounding = ROUNDING * total
    checks = []
    for row in result.rows:
        exact = dishonest_exact_mass(pieces, row.t)
        err = abs(row.mass - exact)
        checks.append(Check(f"row t={row.t:g}", err <= result.config.tol + rounding,
                            f"mass {row.mass!r} exact {exact!r}"))
    want = {(0.5, 1.0): "honest", (1.0, 2.0): "dishonest"}
    for rep in result.window_reports:
        expected = want.get(tuple(rep.window), "missing")
        checks.append(Check(f"window {rep.window}", rep.verdict == expected,
                            f"verdict {rep.verdict} want {expected}"))
    for rep in result.resolvent_reports:
        checks.append(Check(f"resolvent lambda={rep.lam:g}", rep.verdict == "dishonest",
                            f"verdict {rep.verdict} want dishonest"))
    for t, (estimate, stderr) in mc_estimates:
        exact = dishonest_exact_mass(pieces, t)
        err = abs(estimate - exact)
        # rounding matters where every particle survives (stderr 0)
        ok = err <= MC_SIGMAS * stderr + rounding
        checks.append(Check(f"monte-carlo t={t:g}", ok,
                            f"estimate {estimate!r} +- {stderr!r} exact {exact!r}"))
    return checks


# -- ladder-kernel --------------------------------------------------------------

KERNEL_PIECES = 2
KERNEL_ROWS = 260


def kernel_config(seed: int) -> str:
    pieces = _ladder_pieces(seed, KERNEL_PIECES)
    rows = "\n".join(f"row_{k} = {k + 1}:0.5, {k + 2}:0.5" for k in range(KERNEL_ROWS))
    return _config(
        "kind = interval-union\nrule = affine\nstart = 0\nspacing = 2\nlength = 1",
        f"kind = kernel\nscale = 1\n{rows}",
        f"kind = piecewise\npieces = {_pieces_text(pieces)}",
        "times = 10, 40, 100\ntol = 1e-12\nn_cap = 128\nlambdas = 1\n"
        "windows = 0, 100\ngrid_points = 4\nlabel = ladder-kernel",
    )


def check_kernel(result, seed: int, mc_estimates) -> list[Check]:
    """Every row index reachable by t = 100 has a full kernel row, so the
    evolution conserves the initial mass and every verdict is honest."""
    cfg = result.config
    initial = _mass_below(_pieces_of(result), 1.0)
    checks = []
    for row in result.rows:
        err = abs(row.mass - initial)
        checks.append(Check(f"row t={row.t:g}", err <= cfg.tol,
                            f"mass {row.mass!r} initial {initial!r}"))
    for rep in result.window_reports:
        checks.append(Check(f"window {rep.window}", rep.verdict == "honest",
                            f"verdict {rep.verdict} witness-limit {rep.witness_limit!r}"))
    for rep in result.resolvent_reports:
        checks.append(Check(f"resolvent lambda={rep.lam:g}", rep.verdict == "honest",
                            f"verdict {rep.verdict}"))
    return checks


# -- billiards --------------------------------------------------------------------

BILLIARD_TIMES = "0.5, 2, 5, 10, 20"


def disk_config(seed: int) -> str:
    return _config(
        "kind = billiard\nshape = disk\ncenter = 0, 0\nradius = 1\nspeeds = 1",
        "kind = specular\nscale = 1",
        f"kind = ensemble\ncount = 1000000\nseed = {seed}\nregion = domain",
        f"times = {BILLIARD_TIMES}\ntol = 1e-12\nn_cap = 64\nlabel = billiard-disk",
    )


def hexagon_vertices() -> list[tuple]:
    return [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]


def polygon_config(seed: int) -> str:
    verts = "; ".join(f"{x!r}, {y!r}" for x, y in hexagon_vertices())
    return _config(
        f"kind = billiard\nshape = polygon\nvertices = {verts}\nspeeds = 1",
        "kind = specular\nscale = 1",
        f"kind = ensemble\ncount = 100000\nseed = {seed}\nregion = domain",
        f"times = {BILLIARD_TIMES}\ntol = 1e-12\nn_cap = 64\nwindows = 0, 10\n"
        "label = billiard-polygon",
    )


def check_billiard(result, seed: int, mc_estimates) -> list[Check]:
    """Specular walls with scale 1 keep every weight: the sampled ensemble
    has unit mass, and so has every transported row."""
    checks = [Check("initial mass", abs(result.initial_mass - 1.0) <= BILLIARD_MASS_TOL,
                    f"initial {result.initial_mass!r}")]
    for row in result.rows:
        err = abs(row.mass - result.initial_mass)
        checks.append(Check(f"row t={row.t:g}", err <= BILLIARD_MASS_TOL,
                            f"mass {row.mass!r} initial {result.initial_mass!r}"))
    for rep in result.window_reports:
        checks.append(Check(f"window 0,{rep.elapsed:g}", rep.verdict == "honest",
                            f"verdict {rep.verdict}"))
    rep = result.decay_report
    checks.append(Check("trace decay", rep is not None and rep.verdict == "honest",
                        f"verdict {rep.verdict if rep else None}"))
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        # the subwindow grid dominates and no particles move; the Monte Carlo
        # oracle times the ladder survival kernel
        Workload(
            "ladder-dishonest",
            dishonest_config, check_dishonest, mc_particles=MC_PARTICLES,
        ),
        # deep orders with growing histories and few subwindows: the
        # kernel-rule cost of building histories
        Workload(
            "ladder-kernel",
            kernel_config, check_kernel,
        ),
        # the disk transport kernel takes nearly all the time; no exact-lane
        # code runs
        Workload(
            "billiard-disk",
            disk_config, check_billiard,
        ),
        # the polygon transport path, which a disk-only change leaves alone
        Workload(
            "billiard-polygon",
            polygon_config, check_billiard,
        ),
    )
}
