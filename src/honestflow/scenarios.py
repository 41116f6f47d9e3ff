"""Config-driven scenario runner: geometry + boundary rule + initial density,
bound into reproducible experiments with machine-readable reports.

Config grammar (INI-style sections, ``key = value`` entries, ``#`` comments):

    [geometry]
    kind = interval-union | billiard
    # interval-union keys
    rule = affine | geometric | explicit
    start = 0.0            # first left endpoint (affine / geometric)
    spacing = 2.0          # left-endpoint spacing (affine) or base (geometric)
    length = 1.0           # interval length (affine) or first length (geometric)
    ratio = 0.5            # length ratio per step (geometric)
    intervals = 0,1; 2,3   # explicit interval list, semicolon separated
    # billiard keys
    shape = disk | polygon
    center = 0, 0
    radius = 1.0
    vertices = x,y; x,y; x,y
    speeds = 1.0, 2.0      # finite speed set (isotropic directions), or
    speed_band = 0.5, 2.0  # speeds uniform on an annulus

    [boundary]
    kind = shift | kernel | specular
    scale = 1.0            # per-crossing weight, in (0, 1]
    row_0 = 1:0.5, 2:0.5   # kernel rows (outgoing index -> incoming weights)

    [density]
    kind = piecewise | ensemble
    pieces = 0, 1, 1.0     # lo, hi, value triples, semicolon separated
    count = 100000         # ensemble size, 1..10**7
    seed = 42              # required for ensembles, in [0, 2**64)
    region = domain | disk:cx,cy,r | box:x0,y0,x1,y1

    [run]
    times = 0.5, 1.5, 3    # report times (time-series rows), finite
    tol = 1e-8             # expansion / diagnostic tolerance
    n_cap = 128            # order cap
    lambdas = 0.5, 1, 2    # resolvent test parameters (ladders only)
    windows = 0,1.5; 1,2   # honesty windows, semicolon separated
    grid_points = 8        # subwindow grid for window verdicts, 2..256
    output_dir = reports
    label = my-scenario

Report files are deterministic: rerunning the same config and seed yields
byte-identical bytes (17 significant digits, fixed column order, no
timestamps).  Every number in them comes from a library operation; rendering
only formats.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .boundary import BoundaryRule
# transport_ensemble is not called here; perfbench/tracing.py wraps it under
# this name
from .densities import (
    PiecewiseDensity, ReboundCounts, sample_disk_counts, sample_ensemble, transport_counts_times,
    transport_ensemble,
)
from .expansion import DEFAULT_N_CAP, DEFAULT_TOL, Expansion, TruncationReport
from .geometry import Billiard, IntervalUnion, VelocitySpec
from . import honesty as _hon

BUILTIN_NAMES = ("unit-ladder-honest", "geometric-ladder-dishonest", "disk-billiard")

# ensemble seeds key counter-based draws as unsigned 64-bit integers
_SEED_LIMIT = 2**64

# a ladder window holds G(G-1)/2 subwindow reports, built from one entry
# table over all of them: 32 640 per window at G = 256
MAX_GRID_POINTS = 256

# the largest expansion order a run may ask for: its cost grows linearly in
# the orders (the dishonest ladder builtin takes about 1.8 s and 50 MB at
# this cap on a 2-core machine)
MAX_N_CAP = 10**4

# an ensemble holds 49 bytes per particle, about 0.5 GB at this many
MAX_PARTICLES = 10**7

# billiard radii and speeds lie in [MIN_SCALE, MAX_SCALE], and every table
# coordinate within MAX_SCALE in magnitude.  The disk's first-hit quadratic
# is of fourth degree in them (|r|^2 |v|^2, about radius^2 speed^2), and
# these bounds keep every such product within [1e-300, 1e300]: finite and
# normal in float64
MIN_SCALE = 1e-75
MAX_SCALE = 1e75
# a table must span at least this fraction of its largest coordinate
# magnitude, or its positions round onto too few points to tell apart
MIN_RELATIVE_SIZE = 1e-6

# sampling regions besides "domain": prefix -> the numbers that follow it
_REGION_FIELDS = {"disk:": ("cx", "cy", "r"), "box:": ("x0", "y0", "x1", "y1")}


class ConfigError(ValueError):
    """Raised when a scenario config fails validation; names the field."""


# -- parsing helpers --------------------------------------------------------


def _floats(text: str, where: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: expected comma separated numbers, got {text!r}") from exc


def _pairs(text: str, where: str) -> tuple:
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _floats(chunk, where)
        if len(vals) != 2:
            raise ConfigError(f"{where}: expected pairs 'a,b', got {chunk.strip()!r}")
        out.append((vals[0], vals[1]))
    return tuple(out)


def _triples(text: str, where: str) -> tuple:
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _floats(chunk, where)
        if len(vals) != 3:
            raise ConfigError(f"{where}: expected triples 'lo,hi,value', got {chunk.strip()!r}")
        out.append((vals[0], vals[1], vals[2]))
    return tuple(out)


class _Section:
    """One config section with used-key tracking and typed lookups."""

    def __init__(self, name: str, items: dict):
        self.name = name
        self.items = items
        self.used: set = set()

    def has(self, key: str) -> bool:
        return key in self.items

    def raw(self, key: str, default=None):
        self.used.add(key)
        return self.items.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.items:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return self.raw(key)

    def text(self, key: str, default=None):
        v = self.raw(key, default)
        return v if v is None else str(v).strip()

    def number(self, key: str, default=None):
        v = self.raw(key, default)
        if v is None or isinstance(v, float):
            return v
        try:
            return float(v)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: expected a number, got {v!r}") from exc

    def integer(self, key: str, default=None):
        v = self.raw(key, default)
        if v is None or isinstance(v, int):
            return v
        try:
            return int(str(v).strip())
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: expected an integer, got {v!r}") from exc

    def reject_unused(self):
        stray = sorted(set(self.items) - self.used)
        if stray:
            raise ConfigError(f"[{self.name}] unknown key {stray[0]!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: geometry, boundary rule, initial density, run plan."""

    label: str
    geometry: object  # IntervalUnion | Billiard
    boundary: BoundaryRule
    density_kind: str  # "piecewise" | "ensemble"
    pieces: tuple = ()
    count: int = 0
    seed: int | None = None
    region: str = "domain"
    times: tuple = ()
    tol: float = DEFAULT_TOL
    n_cap: int = DEFAULT_N_CAP
    lambdas: tuple = ()
    windows: tuple = ()
    grid_points: int = 8
    output_dir: str = "reports"

    @property
    def is_billiard(self) -> bool:
        return isinstance(self.geometry, Billiard)


def _parse_geometry(sec: _Section):
    kind = sec.text("kind")
    if kind == "interval-union":
        rule = sec.text("rule")
        if rule not in ("affine", "geometric", "explicit"):
            raise ConfigError(f"[geometry] rule: expected affine|geometric|explicit, got {rule!r}")
        try:
            if rule == "explicit":
                ivs = _pairs(sec.require("intervals"), "[geometry] intervals")
                geom = IntervalUnion("explicit", intervals=ivs)
            else:
                kwargs = dict(
                    start=sec.number("start", 0.0),
                    spacing=float(sec.require("spacing")),
                    length=float(sec.require("length")),
                )
                if rule == "geometric":
                    kwargs["ratio"] = float(sec.require("ratio"))
                geom = IntervalUnion(rule, **kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[geometry] {exc}") from exc
        sec.reject_unused()
        return geom
    if kind == "billiard":
        shape = sec.text("shape")
        if shape not in ("disk", "polygon"):
            raise ConfigError(f"[geometry] shape: expected disk|polygon, got {shape!r}")
        if sec.has("speeds") == sec.has("speed_band"):
            raise ConfigError("[geometry] give exactly one of speeds / speed_band")
        try:
            if sec.has("speeds"):
                speeds = _floats(sec.require("speeds"), "[geometry] speeds")
                _check_scales(speeds, "[geometry] speeds")
                vel = VelocitySpec("speeds", speeds=speeds)
            else:
                lo_hi = _floats(sec.require("speed_band"), "[geometry] speed_band")
                if len(lo_hi) != 2:
                    raise ConfigError("[geometry] speed_band: expected 'lo, hi'")
                _check_scales(lo_hi, "[geometry] speed_band")
                vel = VelocitySpec("annulus", speed_min=lo_hi[0], speed_max=lo_hi[1])
            if shape == "disk":
                center = _floats(sec.text("center", "0, 0"), "[geometry] center")
                if len(center) != 2:
                    raise ConfigError("[geometry] center: expected 'x, y'")
                _check_coordinates(center, "[geometry] center")
                sec.require("radius")
                radius = sec.number("radius")
                _check_scales((radius,), "[geometry] radius")
                _check_size(radius, center, "[geometry] radius")
                geom = Billiard("disk", center=center, radius=radius, velocities=vel)
            else:
                verts = _pairs(sec.require("vertices"), "[geometry] vertices")
                coords = [c for v in verts for c in v]
                _check_coordinates(coords, "[geometry] vertices")
                if verts:
                    xs, ys = zip(*verts)
                    extent = max(max(xs) - min(xs), max(ys) - min(ys))
                    _check_size(extent, coords, "[geometry] vertices")
                geom = Billiard("polygon", vertices=verts, velocities=vel)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[geometry] {exc}") from exc
        sec.reject_unused()
        return geom
    raise ConfigError(f"[geometry] kind: expected interval-union|billiard, got {kind!r}")


def _check_scales(values, where: str):
    if not all(MIN_SCALE <= v <= MAX_SCALE for v in values):
        raise ConfigError(f"{where}: every value must lie in [{MIN_SCALE:g}, {MAX_SCALE:g}]")


def _check_coordinates(values, where: str):
    if not all(abs(v) <= MAX_SCALE for v in values):
        raise ConfigError(f"{where}: coordinates must lie within {MAX_SCALE:g} in magnitude")


def _check_size(size: float, coords, where: str):
    largest = max((abs(c) for c in coords), default=0.0)
    if size < MIN_RELATIVE_SIZE * largest:
        raise ConfigError(f"{where}: the table must span at least {MIN_RELATIVE_SIZE:g} "
                          f"of its largest coordinate magnitude, {largest:g}")


def _parse_boundary(sec: _Section) -> BoundaryRule:
    kind = sec.text("kind")
    if kind not in ("shift", "kernel", "specular"):
        raise ConfigError(f"[boundary] kind: expected shift|kernel|specular, got {kind!r}")
    scale = sec.number("scale", 1.0)
    rows = {}
    for key in list(sec.items):
        if not key.startswith("row_"):
            continue
        try:
            k = int(key[4:])
        except ValueError as exc:
            raise ConfigError(f"[boundary] {key}: row keys look like row_<outgoing index>") from exc
        entries = []
        for chunk in str(sec.raw(key)).split(","):
            if not chunk.strip():
                continue
            if ":" not in chunk:
                raise ConfigError(f"[boundary] {key}: entries look like 'incoming:weight'")
            j, p = chunk.split(":", 1)
            try:
                entries.append((int(j), float(p)))
            except ValueError as exc:
                raise ConfigError(f"[boundary] {key}: bad entry {chunk.strip()!r}") from exc
        rows[k] = tuple(entries)
    if rows and kind != "kernel":
        raise ConfigError("[boundary] row_* entries are only valid with kind = kernel")
    if kind == "kernel" and not rows:
        raise ConfigError("[boundary] kernel rule needs at least one row_<k> entry")
    try:
        rule = BoundaryRule(kind, scale=scale, rows=tuple(rows.items()))
    except ValueError as exc:
        raise ConfigError(f"[boundary] {exc}") from exc
    sec.reject_unused()
    return rule


def _parse_density(sec: _Section, geometry) -> dict:
    kind = sec.text("kind")
    if kind == "piecewise":
        if isinstance(geometry, Billiard):
            raise ConfigError("[density] piecewise densities need an interval-union geometry")
        pieces = _triples(sec.require("pieces"), "[density] pieces")
        try:
            PiecewiseDensity.from_pieces(geometry, pieces)
        except ValueError as exc:
            raise ConfigError(f"[density] pieces: {exc}") from exc
        sec.reject_unused()
        return dict(density_kind="piecewise", pieces=pieces)
    if kind == "ensemble":
        if not isinstance(geometry, Billiard):
            raise ConfigError("[density] ensembles need a billiard geometry")
        count = sec.integer("count", 0)
        if count is None or count < 1:
            raise ConfigError("[density] count: ensembles need count >= 1")
        if count > MAX_PARTICLES:
            raise ConfigError(f"[density] count: at most {MAX_PARTICLES}")
        if not sec.has("seed"):
            raise ConfigError("[density] seed: required whenever an ensemble is requested")
        seed = sec.integer("seed")
        if not 0 <= seed < _SEED_LIMIT:
            raise ConfigError(f"[density] seed: must lie in [0, 2**64), got {seed}")
        region = sec.text("region", "domain")
        _check_region(region)
        sec.reject_unused()
        return dict(density_kind="ensemble", count=count, seed=seed, region=region)
    raise ConfigError(f"[density] kind: expected piecewise|ensemble, got {kind!r}")


def _check_region(region: str):
    if region == "domain":
        return
    for prefix, fields in _REGION_FIELDS.items():
        if region.startswith(prefix):
            vals = _floats(region[len(prefix):], "[density] region")
            if len(vals) != len(fields):
                raise ConfigError(f"[density] region: expected {prefix}{','.join(fields)}, got {region!r}")
            return
    raise ConfigError(f"[density] region: expected domain|disk:...|box:..., got {region!r}")


def parse_config(text: str, label: str | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config from its text form."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",), comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    sections = {name: _Section(name, dict(cp.items(name))) for name in cp.sections()}
    for required in ("geometry", "boundary", "density", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    for name in sections:
        if name not in ("geometry", "boundary", "density", "run"):
            raise ConfigError(f"unknown section [{name}]")

    geometry = _parse_geometry(sections["geometry"])
    boundary = _parse_boundary(sections["boundary"])
    if isinstance(geometry, Billiard) and boundary.kind != "specular":
        raise ConfigError("[boundary] kind: billiard scenarios use the specular rule")
    if isinstance(geometry, IntervalUnion) and boundary.kind == "specular":
        raise ConfigError("[boundary] kind: interval-union scenarios use shift or kernel rules")
    density = _parse_density(sections["density"], geometry)

    run = sections["run"]
    times = _floats(run.text("times", ""), "[run] times")
    if not times:
        raise ConfigError("[run] times: need at least one report time")
    if not all(math.isfinite(t) for t in times):
        raise ConfigError(f"[run] times: times must be finite, got {run.text('times')!r}")
    if any(t < 0 for t in times):
        raise ConfigError("[run] times: times must be nonnegative")
    tol = run.number("tol", DEFAULT_TOL)
    if not 0 < tol < math.inf:
        raise ConfigError("[run] tol: must be positive and finite")
    n_cap = run.integer("n_cap", DEFAULT_N_CAP)
    if n_cap < 1:
        raise ConfigError("[run] n_cap: must be at least 1")
    if n_cap > MAX_N_CAP:
        raise ConfigError(f"[run] n_cap: at most {MAX_N_CAP}")
    lambdas = _floats(run.text("lambdas", ""), "[run] lambdas")
    if not all(0 < l < math.inf for l in lambdas):
        raise ConfigError("[run] lambdas: resolvent parameters must be positive and finite")
    windows = _pairs(run.text("windows", ""), "[run] windows")
    for s, t in windows:
        if not (math.isfinite(s) and math.isfinite(t)):
            raise ConfigError(f"[run] windows: need finite s,t, got {s},{t}")
        if not 0 <= s < t:
            raise ConfigError(f"[run] windows: need 0 <= s < t, got {s},{t}")
    grid_points = run.integer("grid_points", 8)
    if grid_points < 2:
        raise ConfigError("[run] grid_points: need at least 2")
    if grid_points > MAX_GRID_POINTS:
        raise ConfigError(f"[run] grid_points: at most {MAX_GRID_POINTS}")
    out_dir = run.text("output_dir", "reports")
    cfg_label = run.text("label", None) or label
    if not cfg_label:
        raise ConfigError("[run] label: required (or pass a label when parsing)")
    run.reject_unused()

    if isinstance(geometry, Billiard) and lambdas:
        raise ConfigError("[run] lambdas: resolvent diagnostics are not defined for billiards")
    if isinstance(geometry, Billiard) and any(s != 0.0 for s, _ in windows):
        raise ConfigError("[run] windows: billiard honesty windows must start at 0")

    return ScenarioConfig(
        label=cfg_label,
        geometry=geometry,
        boundary=boundary,
        times=tuple(times),
        tol=float(tol),
        n_cap=int(n_cap),
        lambdas=tuple(lambdas),
        windows=tuple(windows),
        grid_points=int(grid_points),
        output_dir=out_dir,
        **density,
    )


def load_config(path) -> ScenarioConfig:
    p = Path(path)
    return parse_config(p.read_text(), label=p.stem)


def builtin_config_text(name: str) -> str:
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown builtin scenario {name!r}; have {', '.join(BUILTIN_NAMES)}")
    return (resources.files("honestflow") / "configs" / f"{name}.cfg").read_text()


def resolve_config(name_or_path: str) -> ScenarioConfig:
    """Builtin scenario name, or a path to a config file."""
    if name_or_path in BUILTIN_NAMES:
        return parse_config(builtin_config_text(name_or_path), label=name_or_path)
    p = Path(name_or_path)
    if not p.exists():
        raise ConfigError(
            f"{name_or_path!r} is neither a builtin scenario ({', '.join(BUILTIN_NAMES)}) nor a config file"
        )
    return load_config(p)


def with_overrides(cfg: ScenarioConfig, tol=None, n_cap=None, seed=None) -> ScenarioConfig:
    changes = {}
    if tol is not None:
        if not 0 < tol < math.inf:
            raise ConfigError("tol override must be positive and finite")
        changes["tol"] = float(tol)
    if n_cap is not None:
        if n_cap < 1:
            raise ConfigError("n_cap override must be at least 1")
        if n_cap > MAX_N_CAP:
            raise ConfigError(f"n_cap override must be at most {MAX_N_CAP}")
        changes["n_cap"] = int(n_cap)
    if seed is not None:
        if cfg.density_kind != "ensemble":
            raise ConfigError("seed override only applies to ensemble scenarios")
        if not 0 <= seed < _SEED_LIMIT:
            raise ConfigError(f"seed override must lie in [0, 2**64), got {seed}")
        changes["seed"] = int(seed)
    return replace(cfg, **changes) if changes else cfg


def initial_density(cfg: ScenarioConfig):
    """Materialize the configured initial state."""
    if cfg.density_kind == "piecewise":
        return PiecewiseDensity.from_pieces(cfg.geometry, cfg.pieces)
    return sample_ensemble(cfg.geometry, cfg.count, cfg.seed, cfg.region)


# -- running ----------------------------------------------------------------


@dataclass(frozen=True)
class TimeRow:
    """One time-series row: partial-sum state at time t."""

    t: float
    mass: float
    mass_defect: float
    residual_bound: float
    n_used: int
    converged: bool
    order_masses: tuple
    trace_norms: tuple


@dataclass(frozen=True)
class EnsembleRow:
    """One time-series row for a transported particle ensemble."""

    t: float
    mass: float
    mass_defect: float
    degenerate_weight: float
    max_rebounds: int
    rebound_masses: tuple
    tail_weights: tuple


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    kind: str  # "ladder" | "ensemble"
    initial_mass: float
    rows: tuple
    n_orders: int
    window_reports: tuple = ()
    resolvent_reports: tuple = ()
    decay_report: object = None

    @property
    def verdict(self) -> str:
        """Worst verdict across all diagnostics in the bundle."""
        verdicts = [r.verdict for r in self.window_reports]
        verdicts += [r.verdict for r in self.resolvent_reports]
        if self.decay_report is not None:
            verdicts.append(self.decay_report.verdict)
        if _hon.DISHONEST in verdicts:
            return _hon.DISHONEST
        if _hon.INCONCLUSIVE in verdicts:
            return _hon.INCONCLUSIVE
        return _hon.HONEST


def _ladder_row(f: PiecewiseDensity, t: float, rep: TruncationReport) -> TimeRow:
    """Row at time t from its order pass; the per-order columns run to
    whatever width the pass recorded."""
    mass = float(sum(rep.order_masses[:rep.n_used + 1]))
    return TimeRow(
        t=float(t),
        mass=mass,
        mass_defect=mass + rep.absorbed - f.mass(),
        residual_bound=rep.residual_bound,
        n_used=rep.n_used,
        converged=rep.converged,
        order_masses=rep.order_masses,
        trace_norms=rep.trace_norms,
    )


def _run_ladder(cfg: ScenarioConfig) -> ScenarioResult:
    geom, rule = cfg.geometry, cfg.boundary
    f = PiecewiseDensity.from_pieces(geom, cfg.pieces)
    t_max = max(cfg.times)
    ex = Expansion(geom, rule, f, t_max)
    reports = [ex.partial_sums(t, cfg.tol, cfg.n_cap) for t in cfg.times]
    n_orders = max(rep.n_used for rep in reports)
    # rows cut before the widest one get their higher orders' true values
    # (zero once the expansion is exhausted), so every row has the same width
    rows = tuple(
        _ladder_row(f, t, rep if rep.n_used == n_orders
                    else ex.partial_sums(t, cfg.tol, cfg.n_cap, n_orders))
        for t, rep in zip(cfg.times, reports)
    )
    # a window ending by t_max reads the rows' expansion; one ending later
    # builds its own
    window_reports = tuple(
        _hon.honesty_on_interval(w, f, geom, rule, tol=cfg.tol, n_cap=cfg.n_cap,
                                 grid_points=cfg.grid_points,
                                 _expansion=ex if w[1] <= t_max else None)
        for w in cfg.windows
    )
    resolvent_reports = tuple(
        _hon.resolvent_defect(f, lam, geom, rule, tol=cfg.tol, n_cap=cfg.n_cap)
        for lam in cfg.lambdas
    )
    return ScenarioResult(
        config=cfg,
        kind="ladder",
        initial_mass=f.mass(),
        rows=rows,
        n_orders=n_orders,
        window_reports=window_reports,
        resolvent_reports=resolvent_reports,
    )


def _ensemble_row(t: float, counts: ReboundCounts, initial_mass: float) -> EnsembleRow:
    mass = counts.mass()
    return EnsembleRow(
        t=float(t),
        mass=mass,
        mass_defect=mass - initial_mass,
        degenerate_weight=counts.degenerate_weight(),
        max_rebounds=counts.max_rebounds(),
        rebound_masses=tuple(float(x) for x in counts.rebound_histogram()),
        tail_weights=tuple(float(x) for x in counts.tail_weights()),
    )


def _sampled_counts(cfg: ScenarioConfig, times):
    # the configured ensemble's initial counts and its rebound-count
    # trajectory at times; a disk is sampled straight into chords and never
    # holds a particle state
    geom, scale = cfg.geometry, cfg.boundary.scale
    if geom.shape == "disk":
        return sample_disk_counts(geom, cfg.count, cfg.seed, cfg.region, times, scale)
    ens0 = sample_ensemble(geom, cfg.count, cfg.seed, cfg.region)
    return ens0.counts, transport_counts_times(ens0, times, geom, scale=scale)


def _run_ensemble(cfg: ScenarioConfig) -> ScenarioResult:
    ends = [_window_end(w) for w in cfg.windows]
    counts0, trajectory = _sampled_counts(cfg, (*cfg.times, *ends))
    initial_mass = counts0.mass()
    t_max = max(cfg.times)
    rows = [None] * len(cfg.times)
    window_reports = [None] * len(ends)
    # one pass over the trajectory's rebound counts, each snapshot's
    # histogram built once; rows and windows keep config order
    for t, counts in trajectory:
        for i, ti in enumerate(cfg.times):
            if ti == t:
                rows[i] = _ensemble_row(ti, counts, initial_mass)
        for i, end in enumerate(ends):
            if end == t:
                window_reports[i] = _hon.ensemble_trace_decay(counts, end)
        if t == t_max:
            decay = _hon.ensemble_trace_decay(counts, t_max)
    n_orders = max(len(row.rebound_masses) - 1 for row in rows)
    padded = tuple(
        replace(
            row,
            rebound_masses=row.rebound_masses + (0.0,) * (n_orders + 1 - len(row.rebound_masses)),
            tail_weights=row.tail_weights + (0.0,) * max(0, n_orders + 1 - len(row.tail_weights)),
        )
        for row in rows
    )
    return ScenarioResult(
        config=cfg,
        kind="ensemble",
        initial_mass=initial_mass,
        rows=padded,
        n_orders=n_orders,
        window_reports=tuple(window_reports),
        decay_report=decay,
    )


def _window_end(window) -> float:
    s, t = window
    if s != 0.0:
        raise ConfigError("[run] windows: billiard honesty windows must start at 0")
    return t


def _window_decay(cfg: ScenarioConfig, window):
    t = _window_end(window)
    _, ((_, counts),) = _sampled_counts(cfg, (t,))
    return _hon.ensemble_trace_decay(counts, t)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Execute the full report bundle for one validated config."""
    if cfg.is_billiard:
        return _run_ensemble(cfg)
    return _run_ladder(cfg)


# -- rendering --------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def time_series_csv(result: ScenarioResult) -> str:
    """CSV time series: fixed column order, 17 significant digits."""
    k = result.n_orders
    buf = io.StringIO()
    if result.kind == "ladder":
        head = ["t", "mass", "mass_defect", "residual_bound", "n_used", "converged"]
        head += [f"mass_order_{n}" for n in range(k + 1)]
        head += [f"trace_order_{n}" for n in range(k + 1)]
        buf.write(",".join(head) + "\n")
        for row in result.rows:
            cells = [
                _fmt(row.t), _fmt(row.mass), _fmt(row.mass_defect),
                _fmt(row.residual_bound), str(row.n_used), _fmt(row.converged),
            ]
            cells += [_fmt(m) for m in row.order_masses]
            cells += [_fmt(v) for v in row.trace_norms]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()
    head = ["t", "mass", "mass_defect", "degenerate_weight", "max_rebounds"]
    head += [f"rebound_mass_{n}" for n in range(k + 1)]
    head += [f"tail_weight_{n}" for n in range(k + 1)]
    buf.write(",".join(head) + "\n")
    for row in result.rows:
        cells = [
            _fmt(row.t), _fmt(row.mass), _fmt(row.mass_defect),
            _fmt(row.degenerate_weight), str(row.max_rebounds),
        ]
        cells += [_fmt(m) for m in row.rebound_masses]
        cells += [_fmt(v) for v in row.tail_weights]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def _describe_geometry(geom) -> str:
    if isinstance(geom, IntervalUnion):
        if geom.rule == "explicit":
            return f"interval-union explicit n={geom.n_intervals}"
        extra = f" ratio={_fmt(geom.ratio)}" if geom.rule == "geometric" else ""
        return (
            f"interval-union {geom.rule} start={_fmt(geom.start)} "
            f"spacing={_fmt(geom.spacing)} length={_fmt(geom.length)}{extra}"
        )
    if geom.shape == "disk":
        return f"billiard disk center={_fmt(geom.center[0])},{_fmt(geom.center[1])} radius={_fmt(geom.radius)}"
    return f"billiard polygon vertices={len(geom.vertices)}"


def summary_text(result: ScenarioResult) -> str:
    """Structured-text summary: verdicts, limits, truncation bounds."""
    cfg = result.config
    lines = [
        f"scenario: {cfg.label}",
        f"geometry: {_describe_geometry(cfg.geometry)}",
        f"boundary: {cfg.boundary.kind} scale={_fmt(cfg.boundary.scale)}",
        f"initial-mass: {_fmt(result.initial_mass)}",
        f"tolerance: {_fmt(cfg.tol)}",
        f"order-cap: {cfg.n_cap}",
        f"overall-verdict: {result.verdict}",
        "",
        "[time-series]",
    ]
    if result.kind == "ladder":
        for row in result.rows:
            lines.append(
                f"t={_fmt(row.t)} mass={_fmt(row.mass)} mass-defect={_fmt(row.mass_defect)} "
                f"residual-bound={_fmt(row.residual_bound)} n-used={row.n_used} "
                f"converged={_fmt(row.converged)}"
            )
    else:
        for row in result.rows:
            lines.append(
                f"t={_fmt(row.t)} mass={_fmt(row.mass)} mass-defect={_fmt(row.mass_defect)} "
                f"degenerate-weight={_fmt(row.degenerate_weight)} max-rebounds={row.max_rebounds}"
            )
    if result.window_reports:
        lines += ["", "[windows]"]
        for rep in result.window_reports:
            if isinstance(rep, _hon.IntervalHonestyReport):
                s, t = rep.window
                ws, wt = rep.witness_window
                lines.append(
                    f"window={_fmt(s)},{_fmt(t)} verdict={rep.verdict} "
                    f"witness={_fmt(ws)},{_fmt(wt)} witness-limit={_fmt(rep.witness_limit)}"
                )
            else:
                lines.append(
                    f"window=0,{_fmt(rep.elapsed)} verdict={rep.verdict} "
                    f"final-tail={_fmt(rep.tail_weights[-1] if rep.tail_weights else 0.0)} "
                    f"stat-tol={_fmt(rep.stat_tol)}"
                )
    if result.resolvent_reports:
        lines += ["", "[resolvents]"]
        for rep in result.resolvent_reports:
            lines.append(
                f"lambda={_fmt(rep.lam)} verdict={rep.verdict} limit={_fmt(rep.limit_estimate)} "
                f"orders={len(rep.entries) - 1} stabilized={_fmt(rep.stabilized)}"
            )
    if result.decay_report is not None:
        rep = result.decay_report
        lines += [
            "",
            "[trace-decay]",
            f"elapsed={_fmt(rep.elapsed)} verdict={rep.verdict} "
            f"max-rebounds={rep.max_rebounds} degenerate-weight={_fmt(rep.degenerate_weight)} "
            f"stat-tol={_fmt(rep.stat_tol)}",
            "tail-weights=" + ",".join(_fmt(x) for x in rep.tail_weights),
        ]
    return "\n".join(lines) + "\n"


def output_directory(cfg: ScenarioConfig) -> Path:
    """Configured output directory; HONESTFLOW_OUTPUT_DIR overrides."""
    env = os.environ.get("HONESTFLOW_OUTPUT_DIR")
    return Path(env) if env else Path(cfg.output_dir)


def write_reports(result: ScenarioResult, out_dir=None) -> tuple:
    """Write the CSV series and text summary; returns the paths written."""
    base = Path(out_dir) if out_dir is not None else output_directory(result.config)
    base.mkdir(parents=True, exist_ok=True)
    series = base / f"{result.config.label}-series.csv"
    summary = base / f"{result.config.label}-summary.txt"
    with open(series, "w", newline="\n") as fh:
        fh.write(time_series_csv(result))
    with open(summary, "w", newline="\n") as fh:
        fh.write(summary_text(result))
    return series, summary
