"""Config-driven scenario runner: geometry + boundary rule + initial density,
bound into reproducible experiments with machine-readable reports.

Config grammar (INI-style sections, ``key = value`` entries, ``#`` comments);
``_FIELDS`` holds each key's parser, default and bounds:

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
    row_<k> = 1:0.5, 2:0.5 # kernel row of outgoing index k: incoming weights

    [density]
    kind = piecewise | ensemble
    pieces = 0, 1, 1.0     # lo, hi, value triples, semicolon separated
    count = 100000         # ensemble size
    seed = 42              # required for ensembles
    region = domain | disk:cx,cy,r | box:x0,y0,x1,y1   # inside the table

    [run]
    times = 0.5, 1.5, 3    # report times (time-series rows)
    tol = 1e-8             # expansion / diagnostic tolerance
    n_cap = 128            # order cap
    lambdas = 0.5, 1, 2    # resolvent test parameters (ladders only)
    windows = 0,1.5; 1,2   # honesty windows, semicolon separated
    grid_points = 8        # subwindow grid for window verdicts
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
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .boundary import BoundaryRule
# transport_ensemble is not called here; perfbench/tracing.py wraps it under
# this name
from .densities import (
    PiecewiseDensity, ReboundTally, _numbers, _region_spec, sample_counts, sample_ensemble,
    transport_ensemble,
)
from .expansion import DEFAULT_N_CAP, DEFAULT_TOL, Expansion, TruncationReport
from .geometry import Billiard, IntervalUnion, VelocitySpec
from . import honesty as _hon

BUILTIN_NAMES = ("unit-ladder-honest", "geometric-ladder-dishonest", "disk-billiard")

# a ladder window holds G(G-1)/2 subwindow reports, built from one entry
# table over all of them: 32 640 per window at G = 256
MAX_GRID_POINTS = 256

# the largest expansion order a run may ask for: its cost grows linearly in
# the orders (the dishonest ladder builtin takes about 1.8 s and 50 MB at
# this cap on a 2-core machine)
MAX_N_CAP = 10**4

# a sampled polygon's sweep buffers take about 172 bytes per particle at five
# times, 10 more per further time: about 1.7 GB at this many.  A disk's are
# per worker
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


class ConfigError(ValueError):
    """Raised when a scenario config fails validation; names the field."""


# -- value parsers ----------------------------------------------------------
#
# Each takes a value's text and returns the value, or raises ValueError
# with the message tail that follows "[section] key: ".


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _integer(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


# what a grouped value holds, by group size
_GROUP_NAMES = {2: "pairs 'a,b'", 3: "triples 'lo,hi,value'"}


def _groups(text: str, size: int) -> tuple:
    """Semicolon separated groups of ``size`` comma separated numbers."""
    out = []
    for chunk in filter(str.strip, text.split(";")):
        values = _numbers(chunk)
        if len(values) != size:
            raise ValueError(f"expected {_GROUP_NAMES[size]}, got {chunk.strip()!r}")
        out.append(values)
    return tuple(out)


def _windows(text: str) -> tuple:
    windows = _groups(text, 2)
    for s, t in windows:
        if not (math.isfinite(s) and math.isfinite(t)):
            raise ValueError(f"need finite s,t, got {s},{t}")
        if not 0 <= s < t:
            raise ValueError(f"need 0 <= s < t, got {s},{t}")
    return windows


def _row(text: str) -> tuple:
    # one kernel row: (incoming index, weight) entries
    entries = []
    for chunk in filter(str.strip, text.split(",")):
        if ":" not in chunk:
            raise ValueError("entries look like 'incoming:weight'")
        j, p = chunk.split(":", 1)
        try:
            entries.append((int(j), float(p)))
        except ValueError:
            raise ValueError(f"bad entry {chunk.strip()!r}") from None
    return tuple(entries)


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
    # parse_config's density of pieces; not an init field, so replace() leaves None
    density: object = field(default=None, init=False, compare=False, repr=False)

    @property
    def is_billiard(self) -> bool:
        return isinstance(self.geometry, Billiard)


# -- the field table --------------------------------------------------------
#
# section -> key -> (parser, default, *bounds).  The parser is a value
# parser above, or a tuple of choices.  The default is the value of a key
# left out, or _REQUIRED.  A bound is (lo, hi, tail), inclusive limits on
# every number of the value, or (predicate, tail); the first bound a value
# fails is reported as "[section] key: <tail>", the tail formatted with the
# value and its text (raw).  Overrides report "<key> override <tail>".

_REQUIRED = object()
# the least positive and the largest finite float: 0 < x < inf reads as
# _LEAST <= x <= _LARGEST
_LEAST, _LARGEST = math.ulp(0.0), math.nextafter(math.inf, 0.0)
_SCALES = (MIN_SCALE, MAX_SCALE, f"every value must lie in [{MIN_SCALE:g}, {MAX_SCALE:g}]")
_COORDINATES = (-MAX_SCALE, MAX_SCALE, f"coordinates must lie within {MAX_SCALE:g} in magnitude")

_FIELDS = {
    "geometry": {
        "kind": (("interval-union", "billiard"), None),
        "rule": (("affine", "geometric", "explicit"), None),
        "start": (_number, 0.0),
        "spacing": (_number, _REQUIRED),
        "length": (_number, _REQUIRED),
        "ratio": (_number, _REQUIRED),
        "intervals": (lambda text: _groups(text, 2), _REQUIRED),
        "shape": (("disk", "polygon"), None),
        "center": (_numbers, (0.0, 0.0), (lambda v: len(v) == 2, "expected 'x, y'"),
                   _COORDINATES),
        "radius": (_number, _REQUIRED, _SCALES),
        "vertices": (lambda text: _groups(text, 2), _REQUIRED, _COORDINATES),
        "speeds": (_numbers, _REQUIRED, _SCALES),
        "speed_band": (_numbers, _REQUIRED, (lambda v: len(v) == 2, "expected 'lo, hi'"),
                       _SCALES),
    },
    "boundary": {
        "kind": (("shift", "kernel", "specular"), None),
        "scale": (_number, 1.0,
                  (lambda v: 0.0 < v <= 1.0, "boundary weight scale must lie in (0, 1]")),
        "row_<k>": (_row, _REQUIRED),
    },
    "density": {
        "kind": (("piecewise", "ensemble"), None),
        "pieces": (lambda text: _groups(text, 3), _REQUIRED),
        "count": (_integer, 0, (1, math.inf, "ensembles need count >= 1"),
                  (-math.inf, MAX_PARTICLES, f"at most {MAX_PARTICLES}")),
        # seeds key counter-based draws as unsigned 64-bit integers
        "seed": (_integer, None,
                 (lambda v: v is not None, "required whenever an ensemble is requested"),
                 (0, 2**64 - 1, "must lie in [0, 2**64), got {value}")),
        "region": (str.strip, "domain"),
    },
    # read in this order, each into the ScenarioConfig field of its name
    "run": {
        "times": (_numbers, (), (bool, "need at least one report time"),
                  (-_LARGEST, _LARGEST, "times must be finite, got {raw!r}"),
                  (0.0, math.inf, "times must be nonnegative")),
        "tol": (_number, ScenarioConfig.tol, (_LEAST, _LARGEST, "must be positive and finite")),
        "n_cap": (_integer, ScenarioConfig.n_cap, (1, math.inf, "must be at least 1"),
                  (-math.inf, MAX_N_CAP, f"must be at most {MAX_N_CAP}")),
        "lambdas": (_numbers, (),
                    (_LEAST, _LARGEST, "resolvent parameters must be positive and finite")),
        "windows": (_windows, ()),
        "grid_points": (_integer, ScenarioConfig.grid_points, (2, math.inf, "need at least 2"),
                        (-math.inf, MAX_GRID_POINTS, f"at most {MAX_GRID_POINTS}")),
        "output_dir": (str.strip, ScenarioConfig.output_dir),
        "label": (str.strip, None),
    },
}


def _numbers_in(value) -> list:
    # the numbers of a number, a tuple of them, or a tuple of tuples
    if not isinstance(value, tuple):
        return [value]
    return [x for v in value for x in (v if isinstance(v, tuple) else (v,))]


def _check(value, bounds, where: str, raw=None):
    # the first bound value fails, as a ConfigError prefixed by where
    for *test, tail in bounds:
        ok = (test[0](value) if len(test) == 1 else
              all(test[0] <= x <= test[1] for x in _numbers_in(value)))
        if not ok:
            raise ConfigError(where + tail.format(value=value, raw=raw))


class _Section:
    """One config section, read through the field table, with used-key
    tracking."""

    def __init__(self, name: str, items: dict):
        self.name = name
        self.items = items
        self.used: set = set()

    def get(self, key: str, field: str | None = None):
        """The checked value of key, by the table entry of field (key if
        None)."""
        parse, default, *bounds = _FIELDS[self.name][field or key]
        self.used.add(key)
        raw = self.items.get(key)
        where = f"[{self.name}] {key}: "
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            value = default
        else:
            try:
                value = raw.strip() if isinstance(parse, tuple) else parse(raw)
            except ValueError as exc:
                raise ConfigError(where + str(exc)) from exc
        if isinstance(parse, tuple) and value not in parse:
            raise ConfigError(f"{where}expected {'|'.join(parse)}, got {value!r}")
        _check(value, bounds, where, raw)
        return value

    def reject_unused(self):
        stray = sorted(set(self.items) - self.used)
        if stray:
            raise ConfigError(f"[{self.name}] unknown key {stray[0]!r}")


def _made(where: str, make, *args, **kwargs):
    # a library constructor's refusal, as a ConfigError prefixed by where
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc


def _parse_geometry(sec: _Section):
    if sec.get("kind") == "interval-union":
        rule = sec.get("rule")
        if rule == "explicit":
            keys = ("intervals",)
        else:
            keys = ("start", "spacing", "length") + (("ratio",) if rule == "geometric" else ())
        # an explicit rule's refusals are all of its intervals
        where = "[geometry] intervals:" if rule == "explicit" else "[geometry]"
        geom = _made(where, IntervalUnion, rule, **{key: sec.get(key) for key in keys})
        sec.reject_unused()
        return geom
    shape = sec.get("shape")
    if ("speeds" in sec.items) == ("speed_band" in sec.items):
        raise ConfigError("[geometry] give exactly one of speeds / speed_band")
    if "speeds" in sec.items:
        vel = _made("[geometry] speeds:", VelocitySpec, "speeds", speeds=sec.get("speeds"))
    else:
        lo, hi = sec.get("speed_band")
        vel = _made("[geometry] speed_band:", VelocitySpec, "annulus", speed_min=lo,
                    speed_max=hi)
    if shape == "disk":
        center, radius = sec.get("center"), sec.get("radius")
        _check_size(radius, center, "[geometry] radius")
        geom = _made("[geometry]", Billiard, "disk", center=center, radius=radius,
                     velocities=vel)
    else:
        verts = sec.get("vertices")
        coords = _numbers_in(verts)
        if verts:
            xs, ys = zip(*verts)
            _check_size(max(max(xs) - min(xs), max(ys) - min(ys)), coords,
                        "[geometry] vertices")
        geom = _made("[geometry] vertices:", Billiard, "polygon", vertices=verts,
                     velocities=vel)
    sec.reject_unused()
    return geom


def _check_size(size: float, coords, where: str):
    largest = max((abs(c) for c in coords), default=0.0)
    if size < MIN_RELATIVE_SIZE * largest:
        raise ConfigError(f"{where}: the table must span at least {MIN_RELATIVE_SIZE:g} "
                          f"of its largest coordinate magnitude, {largest:g}")


def _parse_boundary(sec: _Section) -> BoundaryRule:
    kind, scale = sec.get("kind"), sec.get("scale")
    rows = {}
    for key in [key for key in sec.items if key.startswith("row_")]:
        try:
            k = int(key[4:])
        except ValueError as exc:
            raise ConfigError(f"[boundary] {key}: row keys look like row_<outgoing index>") from exc
        rows[k] = sec.get(key, "row_<k>")
    if rows and kind != "kernel":
        raise ConfigError("[boundary] row_* entries are only valid with kind = kernel")
    if kind == "kernel" and not rows:
        raise ConfigError("[boundary] kernel rule needs at least one row_<k> entry")
    rule = _made("[boundary]", BoundaryRule, kind, scale=scale, rows=tuple(rows.items()))
    sec.reject_unused()
    return rule


# the refusal of an honesty verdict, from a config's windows or lambdas or
# from the command line, on a signed density
SIGNED_DENSITY = "[density] pieces: honesty verdicts are defined for nonnegative densities"


def _parse_density(sec: _Section, geometry) -> tuple:
    # the density's ScenarioConfig fields, and its validated PiecewiseDensity or None
    billiard = isinstance(geometry, Billiard)
    if sec.get("kind") == "piecewise":
        if billiard:
            raise ConfigError("[density] piecewise densities need an interval-union geometry")
        pieces = sec.get("pieces")
        f = _made("[density] pieces:", PiecewiseDensity.from_pieces, geometry, pieces)
        sec.reject_unused()
        return dict(density_kind="piecewise", pieces=pieces), f
    if not billiard:
        raise ConfigError("[density] ensembles need a billiard geometry")
    count, seed, region = sec.get("count"), sec.get("seed"), sec.get("region")
    _made("[density] region:", _region_spec, region, geometry)
    sec.reject_unused()
    return dict(density_kind="ensemble", count=count, seed=seed, region=region), None


def parse_config(text: str, label: str | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config from its text form."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",), comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    sections = {name: _Section(name, dict(cp.items(name))) for name in cp.sections()}
    for required in _FIELDS:
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    for name in sections:
        if name not in _FIELDS:
            raise ConfigError(f"unknown section [{name}]")

    geometry = _parse_geometry(sections["geometry"])
    boundary = _parse_boundary(sections["boundary"])
    if isinstance(geometry, Billiard) and boundary.kind != "specular":
        raise ConfigError("[boundary] kind: billiard scenarios use the specular rule")
    if isinstance(geometry, IntervalUnion) and boundary.kind == "specular":
        raise ConfigError("[boundary] kind: interval-union scenarios use shift or kernel rules")
    density, f = _parse_density(sections["density"], geometry)

    run = sections["run"]
    plan = {key: run.get(key) for key in _FIELDS["run"]}
    plan["label"] = plan["label"] or label
    if not plan["label"]:
        raise ConfigError("[run] label: required (or pass a label when parsing)")
    run.reject_unused()

    if isinstance(geometry, Billiard) and plan["lambdas"]:
        raise ConfigError("[run] lambdas: resolvent diagnostics are not defined for billiards")
    if isinstance(geometry, Billiard) and any(s != 0.0 for s, _ in plan["windows"]):
        raise ConfigError("[run] windows: billiard honesty windows must start at 0")
    if (plan["windows"] or plan["lambdas"]) and f is not None and not f.is_nonnegative:
        raise ConfigError(SIGNED_DENSITY)
    cfg = ScenarioConfig(geometry=geometry, boundary=boundary, **plan, **density)
    object.__setattr__(cfg, "density", f)
    return cfg


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
    """cfg with the given tol, n_cap and seed, each checked against the
    bounds of its config key."""
    changes = {}
    for section, key, value in (("run", "tol", tol), ("run", "n_cap", n_cap),
                                ("density", "seed", seed)):
        if value is None:
            continue
        if key == "seed" and cfg.density_kind != "ensemble":
            raise ConfigError("seed override only applies to ensemble scenarios")
        _, _, *bounds = _FIELDS[section][key]
        _check(value, bounds, f"{key} override ")
        changes[key] = float(value) if key == "tol" else int(value)
    return replace(cfg, **changes) if changes else cfg


def initial_density(cfg: ScenarioConfig):
    """Materialize the configured initial state."""
    if cfg.density_kind == "piecewise":
        return cfg.density or PiecewiseDensity.from_pieces(cfg.geometry, cfg.pieces)
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
    f = initial_density(cfg)
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


def _ensemble_row(t: float, counts: ReboundTally, initial_mass: float) -> EnsembleRow:
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
    # the configured ensemble's initial mass and its trajectory of rebound
    # tallies at times, formed from integer counts
    return sample_counts(cfg.geometry, cfg.count, cfg.seed, cfg.region, times,
                         cfg.boundary.scale)


def _run_ensemble(cfg: ScenarioConfig) -> ScenarioResult:
    ends = [_window_end(w) for w in cfg.windows]
    initial_mass, trajectory = _sampled_counts(cfg, (*cfg.times, *ends))
    t_max = max(cfg.times)
    rows = [None] * len(cfg.times)
    window_reports = [None] * len(ends)
    # one pass over the trajectory's rebound counts, each time tallied
    # once; rows and windows keep config order
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
            # floats all: _fmt's last branch, with no type tests
            cells += [format(float(x), ".17g") for x in row.order_masses + row.trace_norms]
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
        # floats all: _fmt's last branch, with no type tests
        cells += [format(float(x), ".17g") for x in row.rebound_masses + row.tail_weights]
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
