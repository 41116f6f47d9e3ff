import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from honestflow import (
    BUILTIN_NAMES,
    Billiard,
    ConfigError,
    IntervalUnion,
    ParticleEnsemble,
    PiecewiseDensity,
    ScenarioConfig,
    absorption_rate_estimate,
    builtin_config_text,
    ensemble_trace_decay,
    evolve,
    initial_density,
    load_config,
    mass_defect_estimate,
    parse_config,
    resolve_config,
    run_scenario,
    summary_text,
    time_series_csv,
    transport_counts_times,
    transport_ensemble,
    with_overrides,
    write_reports,
)
from honestflow import _kernels, cli, densities, expansion, scenarios
from honestflow.expansion import Expansion
from honestflow.scenarios import _window_decay

LADDER_TEXT = """\
[geometry]
kind = interval-union
rule = affine
start = 0
spacing = 2
length = 1

[boundary]
kind = shift
scale = 1

[density]
kind = piecewise
pieces = 0, 1, 1

[run]
times = 0.5, 1.5
label = demo
"""

# geometric ladder with a lossy shift and an order cap that the rows from
# t = 1 on hit: every diagnostic must count the capped order's loss alike
LOSSY_CAPPED_TEXT = """\
[geometry]
kind = interval-union
rule = geometric
start = 0
spacing = 3
length = 1
ratio = 0.5

[boundary]
kind = shift
scale = 0.9

[density]
kind = piecewise
pieces = 0, 1, 1

[run]
times = 0.5, 1, 1.5, 2, 2.5
tol = 1e-12
n_cap = 30
label = lossy-capped
"""

SPREADING_GEOMETRIC_TEXT = """\
[geometry]
kind = interval-union
rule = geometric
start = 0
spacing = 3
length = 1
ratio = 0.34

[boundary]
kind = kernel
scale = 1
""" + "".join(f"row_{k} = {k + 1}:0.5, {k + 2}:0.5\n" for k in range(48)) + """
[density]
kind = piecewise
pieces = 0, 1, 1

[run]
times = 0.5, 2.5
tol = 1e-12
n_cap = 42
windows = 0, 2.5
label = spreading
"""

BILLIARD_TEXT = """\
[geometry]
kind = billiard
shape = disk
center = 0, 0
radius = 1
speeds = 1

[boundary]
kind = specular
scale = 1

[density]
kind = ensemble
count = 2000
seed = 7
region = domain

[run]
times = 0.5, 2
label = little-disk
"""


POLYGON_TEXT = """\
[geometry]
kind = billiard
shape = polygon
vertices = 0, 0; 3, 0; 0.7, 1.9
speeds = 1

[boundary]
kind = specular
scale = 0.9

[density]
kind = ensemble
count = 2000
seed = 11
region = domain

[run]
times = 2, 0.5, 2
windows = 0, 2; 0, 3.5
label = little-triangle
"""


# off-centre disk, annulus speeds, lossy walls; one window ends at a report
# time, one does not
DISK_TEXT = """\
[geometry]
kind = billiard
shape = disk
center = 0.3, -0.7
radius = 2.5
speed_band = 0.5, 2

[boundary]
kind = specular
scale = 0.9

[density]
kind = ensemble
count = 2000
seed = 11
region = domain

[run]
times = 2, 0.5, 2
windows = 0, 2; 0, 3.5
label = little-off-centre-disk
"""

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestParseConfig:
    def test_minimal_ladder_round_trip(self):
        cfg = parse_config(LADDER_TEXT)
        assert isinstance(cfg, ScenarioConfig)
        assert isinstance(cfg.geometry, IntervalUnion)
        assert cfg.boundary.kind == "shift"
        assert cfg.density_kind == "piecewise"
        assert cfg.pieces == ((0.0, 1.0, 1.0),)
        assert cfg.times == (0.5, 1.5)
        assert cfg.label == "demo"
        assert not cfg.is_billiard

    def test_billiard_round_trip(self):
        cfg = parse_config(BILLIARD_TEXT)
        assert isinstance(cfg.geometry, Billiard)
        assert cfg.density_kind == "ensemble"
        assert cfg.count == 2000
        assert cfg.seed == 7
        assert cfg.is_billiard

    def test_missing_section_is_named(self):
        text = LADDER_TEXT.replace("[boundary]", "[elsewhere]")
        with pytest.raises(ConfigError, match=r"missing required section \[boundary\]"):
            parse_config(text)

    def test_extra_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config(LADDER_TEXT + "\n[extras]\nfoo = 1\n")

    def test_unknown_key_is_named(self):
        text = LADDER_TEXT.replace("spacing = 2", "spacing = 2\nwobble = 3")
        with pytest.raises(ConfigError, match="wobble"):
            parse_config(text)

    def test_bad_geometry_kind(self):
        text = LADDER_TEXT.replace("kind = interval-union", "kind = moebius")
        with pytest.raises(ConfigError, match=r"\[geometry\] kind"):
            parse_config(text)

    def test_bad_ladder_rule(self):
        text = LADDER_TEXT.replace("rule = affine", "rule = random")
        with pytest.raises(ConfigError, match=r"\[geometry\] rule"):
            parse_config(text)

    def test_missing_spacing(self):
        text = LADDER_TEXT.replace("spacing = 2\n", "")
        with pytest.raises(ConfigError, match="spacing"):
            parse_config(text)

    def test_billiard_needs_specular(self):
        text = BILLIARD_TEXT.replace("kind = specular", "kind = shift")
        with pytest.raises(ConfigError, match="specular"):
            parse_config(text)

    def test_ladder_rejects_specular(self):
        text = LADDER_TEXT.replace("kind = shift", "kind = specular")
        with pytest.raises(ConfigError, match="shift or kernel"):
            parse_config(text)

    def test_kernel_rows_parse(self):
        text = LADDER_TEXT.replace(
            "kind = shift\nscale = 1",
            "kind = kernel\nscale = 1\nrow_0 = 1:0.5, 2:0.5\nrow_1 = 2:1",
        )
        cfg = parse_config(text)
        assert cfg.boundary.kind == "kernel"
        assert dict(cfg.boundary.rows) == {0: ((1, 0.5), (2, 0.5)), 1: ((2, 1.0),)}

    def test_rows_require_kernel_kind(self):
        text = LADDER_TEXT.replace("scale = 1\n\n[density]", "scale = 1\nrow_0 = 1:1\n\n[density]", 1)
        with pytest.raises(ConfigError, match="row_"):
            parse_config(text)

    def test_kernel_without_rows(self):
        text = LADDER_TEXT.replace("kind = shift", "kind = kernel")
        with pytest.raises(ConfigError, match="at least one row"):
            parse_config(text)

    def test_bad_row_entry_is_named(self):
        text = LADDER_TEXT.replace(
            "kind = shift\nscale = 1",
            "kind = kernel\nscale = 1\nrow_0 = 1;0.5",
        )
        with pytest.raises(ConfigError, match="row_0"):
            parse_config(text)

    def test_ensemble_requires_seed(self):
        text = BILLIARD_TEXT.replace("seed = 7\n", "")
        with pytest.raises(ConfigError, match=r"\[density\] seed"):
            parse_config(text)

    def test_ensemble_needs_billiard(self):
        text = LADDER_TEXT.replace(
            "kind = piecewise\npieces = 0, 1, 1",
            "kind = ensemble\ncount = 10\nseed = 0",
        )
        with pytest.raises(ConfigError, match="billiard"):
            parse_config(text)

    def test_piecewise_needs_ladder(self):
        text = BILLIARD_TEXT.replace(
            "kind = ensemble\ncount = 2000\nseed = 7\nregion = domain",
            "kind = piecewise\npieces = 0, 1, 1",
        )
        with pytest.raises(ConfigError, match="interval-union"):
            parse_config(text)

    def test_bad_region_is_named(self):
        text = BILLIARD_TEXT.replace("region = domain", "region = everywhere")
        with pytest.raises(ConfigError, match="everywhere"):
            parse_config(text)

    @pytest.mark.parametrize(
        "region",
        ["disk:0,0", "disk:0,0,0.5,1", "box:0,0,0.5", "disk:0,zero,0.5", "box:a,b,c,d", "domainwide"],
    )
    def test_malformed_region_is_named(self, region):
        text = BILLIARD_TEXT.replace("region = domain", f"region = {region}")
        with pytest.raises(ConfigError, match=r"\[density\] region: "):
            parse_config(text)

    def test_wellformed_regions_parse(self):
        for region in ("disk:0.1,0,0.5", "box:-0.5,-0.5,0.5,0.5"):
            cfg = parse_config(BILLIARD_TEXT.replace("region = domain", f"region = {region}"))
            assert cfg.region == region

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1e3"])
    def test_seed_out_of_range_is_named(self, seed):
        text = BILLIARD_TEXT.replace("seed = 7", f"seed = {seed}")
        with pytest.raises(ConfigError, match=r"\[density\] seed"):
            parse_config(text)

    def test_largest_seed_accepted(self):
        cfg = parse_config(BILLIARD_TEXT.replace("seed = 7", f"seed = {2**64 - 1}"))
        assert len(initial_density(cfg)) == cfg.count

    def test_pieces_validated_against_geometry(self):
        text = LADDER_TEXT.replace("pieces = 0, 1, 1", "pieces = 0, 1.5, 1")
        with pytest.raises(ConfigError, match=r"\[density\] pieces"):
            parse_config(text)

    def test_billiard_rejects_lambdas(self):
        text = BILLIARD_TEXT.replace("times = 0.5, 2", "times = 0.5, 2\nlambdas = 1")
        with pytest.raises(ConfigError, match=r"\[run\] lambdas"):
            parse_config(text)

    def test_billiard_windows_start_at_zero(self):
        text = BILLIARD_TEXT.replace("times = 0.5, 2", "times = 0.5, 2\nwindows = 1, 2")
        with pytest.raises(ConfigError, match="start at 0"):
            parse_config(text)

    def test_times_required(self):
        text = LADDER_TEXT.replace("times = 0.5, 1.5", "times =")
        with pytest.raises(ConfigError, match="at least one report time"):
            parse_config(text)

    def test_negative_time_rejected(self):
        text = LADDER_TEXT.replace("times = 0.5, 1.5", "times = -0.5, 1.5")
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config(text)

    @pytest.mark.parametrize("times", ["0.5, nan", "inf", "-inf, 1"])
    def test_non_finite_time_rejected(self, times):
        text = LADDER_TEXT.replace("times = 0.5, 1.5", f"times = {times}")
        with pytest.raises(ConfigError, match=r"\[run\] times: .*finite"):
            parse_config(text)

    @pytest.mark.parametrize("window", ["0, inf", "nan, 1", "0, nan"])
    def test_non_finite_window_rejected(self, window):
        text = LADDER_TEXT.replace("label = demo", f"label = demo\nwindows = {window}")
        with pytest.raises(ConfigError, match=r"\[run\] windows: .*finite"):
            parse_config(text)

    def test_bad_tol(self):
        text = LADDER_TEXT.replace("label = demo", "label = demo\ntol = 0")
        with pytest.raises(ConfigError, match=r"\[run\] tol"):
            parse_config(text)

    def test_bad_n_cap(self):
        text = LADDER_TEXT.replace("label = demo", "label = demo\nn_cap = 0")
        with pytest.raises(ConfigError, match=r"\[run\] n_cap"):
            parse_config(text)

    def test_n_cap_bounded(self):
        # refused at parse time: the order loop's time and memory grow
        # linearly in n_cap
        text = LADDER_TEXT.replace("label = demo", "label = demo\nn_cap = {}")
        with pytest.raises(ConfigError, match=r"^\[run\] n_cap: at most 10000$"):
            parse_config(text.format(scenarios.MAX_N_CAP + 1))
        assert parse_config(text.format(scenarios.MAX_N_CAP)).n_cap == 10_000

    @pytest.mark.parametrize("field, value", [("tol", "inf"), ("tol", "nan"),
                                              ("lambdas", "1, inf"), ("lambdas", "nan")])
    def test_non_finite_tol_and_lambdas_rejected(self, field, value):
        text = LADDER_TEXT.replace("label = demo", f"label = demo\n{field} = {value}")
        with pytest.raises(ConfigError, match=rf"\[run\] {field}: .*finite"):
            parse_config(text)

    def test_grid_points_bounded(self, monkeypatch):
        # refused at parse time: no grid or subwindow table is ever built
        monkeypatch.setattr("honestflow.honesty.honesty_on_interval", None)
        monkeypatch.setattr("numpy.linspace", None)
        text = LADDER_TEXT.replace("label = demo", "label = demo\nwindows = 0, 1\ngrid_points = {}")
        with pytest.raises(ConfigError, match=r"^\[run\] grid_points: at most 256$"):
            parse_config(text.format(257))
        with pytest.raises(ConfigError, match=r"\[run\] grid_points: at most 256"):
            parse_config(text.format(10**12))
        assert parse_config(text.format(256)).grid_points == 256

    def test_ensemble_count_bounded(self, monkeypatch):
        # refused at parse time: nothing is sampled
        monkeypatch.setattr(scenarios, "sample_ensemble", None)
        text = BILLIARD_TEXT.replace("count = 2000", "count = {}")
        with pytest.raises(ConfigError, match=r"^\[density\] count: at most 10000000$"):
            parse_config(text.format(10**7 + 1))
        with pytest.raises(ConfigError, match=r"\[density\] count: at most"):
            parse_config(text.format(10**13))
        assert parse_config(text.format(10**7)).count == scenarios.MAX_PARTICLES == 10**7

    @pytest.mark.parametrize("old, new, field", [
        # NaN chord counts cast to negative integers
        ("radius = 1", "radius = 1e-300", "radius"),
        # |v|^2 overflows and half the weight reads as degenerate
        ("speeds = 1", "speeds = 1e308", "speeds"),
        # every sampled position rounds onto the centre
        ("center = 0, 0", "center = 1e308, 0", "center"),
    ])
    def test_disk_float_breakdown_rejected(self, old, new, field, tmp_path, capsys):
        text = BILLIARD_TEXT.replace(old, new)
        with pytest.raises(ConfigError, match=rf"^\[geometry\] {field}: "):
            parse_config(text)
        path = tmp_path / "broken.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"honestflow: [geometry] {field}: ")

    @pytest.mark.parametrize("old, new, field", [
        ("speeds = 1", "speeds = 1, 1e-76", "speeds"),
        ("speeds = 1", "speeds = nan", "speeds"),
        ("speeds = 1", "speed_band = 1, 1e76", "speed_band"),
        ("radius = 1", "radius = inf", "radius"),
        ("radius = 1", "radius = 1e76", "radius"),
        ("center = 0, 0", "center = 0, -1e76", "center"),
        ("center = 0, 0", "center = 2e6, 0", "radius"),
    ])
    def test_disk_table_ranges(self, old, new, field):
        with pytest.raises(ConfigError, match=rf"^\[geometry\] {field}: "):
            parse_config(BILLIARD_TEXT.replace(old, new))
        # the same table at every bound parses
        assert parse_config(BILLIARD_TEXT.replace("radius = 1", "radius = 1e75")
                            .replace("speeds = 1", "speeds = 1e-75, 1e75")
                            .replace("center = 0, 0", "center = 1e75, -1e75"))

    @pytest.mark.parametrize("factor", [2.0**249, 2.0**-249])
    def test_extreme_disk_counts_as_the_unit_disk(self, factor):
        # radius, speed and centre scaled by a power of two near each bound
        # (2**249 is 9.0e74): scaling by 2**k is exact in float64 while every
        # product stays finite and normal, so every first hit is finite and
        # the rebound counts are bitwise those of the unit table
        unit = BILLIARD_TEXT.replace("center = 0, 0", "center = 1, -1")
        scaled = (unit.replace("radius = 1", f"radius = {factor!r}")
                  .replace("speeds = 1", f"speeds = {factor!r}")
                  .replace("center = 1, -1", f"center = {factor!r}, {-factor!r}"))
        cfg, ref = parse_config(scaled), parse_config(unit)
        ens = initial_density(cfg)
        chords = _kernels._disk_chord_blocks(
            lambda lo, hi: (ens.pos[lo:hi, 0], ens.pos[lo:hi, 1], ens.vel[lo:hi, 0],
                            ens.vel[lo:hi, 1]),
            len(ens), factor, -factor, factor)
        assert np.all(np.isfinite(chords[0]))
        # the sampler's draws give the held ensemble's chords, bit for bit
        draw = densities._state_sampler(cfg.geometry, cfg.count, cfg.seed, cfg.region)
        drawn = _kernels._disk_chord_blocks(draw, cfg.count, factor, -factor, factor)
        for x, y in zip(drawn, chords, strict=True):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        got = transport_counts_times(ens, cfg.times, cfg.geometry)
        want = transport_counts_times(initial_density(ref), ref.times, ref.geometry)
        for (t, a), (u, b) in zip(got, want, strict=True):
            assert t == u
            assert np.array_equal(a.rebounds, b.rebounds)
            assert np.array_equal(a.degenerate, b.degenerate)
            assert not a.degenerate.any()
        assert a.rebounds.sum() > 0

    @pytest.mark.parametrize("vertices", ["0, 0; 3, 0; 0.7, 1e76",
                                          "1e7, 0; 10000003, 0; 1e7, 1"])
    def test_polygon_table_ranges(self, vertices):
        text = POLYGON_TEXT.replace("vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = {}")
        with pytest.raises(ConfigError, match=r"^\[geometry\] vertices: "):
            parse_config(text.format(vertices))
        assert parse_config(text.format("1e6, 0; 1000003, 0; 1e6, 1"))

    def test_nonpositive_lambda_rejected(self):
        text = LADDER_TEXT.replace("label = demo", "label = demo\nlambdas = 0.5, -1")
        with pytest.raises(ConfigError, match=r"\[run\] lambdas"):
            parse_config(text)

    def test_backwards_window_rejected(self):
        text = LADDER_TEXT.replace("label = demo", "label = demo\nwindows = 2, 1")
        with pytest.raises(ConfigError, match=r"\[run\] windows"):
            parse_config(text)

    def test_label_required_without_fallback(self):
        text = LADDER_TEXT.replace("label = demo\n", "")
        with pytest.raises(ConfigError, match=r"\[run\] label"):
            parse_config(text)
        assert parse_config(text, label="fallback").label == "fallback"

    def test_config_label_beats_fallback(self):
        assert parse_config(LADDER_TEXT, label="other").label == "demo"

    def test_unparseable_text(self):
        with pytest.raises(ConfigError, match="config syntax"):
            parse_config("this is not an ini file")


class TestConfigSources:
    def test_builtins_resolve_under_their_own_name(self):
        for name in BUILTIN_NAMES:
            cfg = resolve_config(name)
            assert cfg.label == name

    def test_builtin_text_parses(self):
        for name in BUILTIN_NAMES:
            cfg = parse_config(builtin_config_text(name))
            assert cfg.label == name

    def test_benchmark_configs_parse(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        for name, workload in workloads.WORKLOADS.items():
            assert parse_config(workload.config(2**64 - 1)).label == name

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError, match="unknown builtin"):
            builtin_config_text("no-such-scenario")

    def test_unresolvable_name(self):
        with pytest.raises(ConfigError, match="neither a builtin"):
            resolve_config("definitely/missing.cfg")

    def test_load_config_uses_file_stem_as_label(self, tmp_path):
        text = LADDER_TEXT.replace("label = demo\n", "")
        path = tmp_path / "my-run.cfg"
        path.write_text(text)
        assert load_config(path).label == "my-run"
        assert resolve_config(str(path)).label == "my-run"


class TestOverrides:
    def test_tol_and_n_cap_replace(self):
        cfg = parse_config(LADDER_TEXT)
        out = with_overrides(cfg, tol=1e-6, n_cap=12)
        assert out.tol == 1e-6
        assert out.n_cap == 12
        assert cfg.tol != 1e-6  # original untouched

    def test_no_overrides_is_identity(self):
        cfg = parse_config(LADDER_TEXT)
        assert with_overrides(cfg) is cfg

    def test_seed_override_needs_ensemble(self):
        cfg = parse_config(LADDER_TEXT)
        with pytest.raises(ConfigError, match="seed override"):
            with_overrides(cfg, seed=1)
        billiard = parse_config(BILLIARD_TEXT)
        assert with_overrides(billiard, seed=11).seed == 11

    def test_invalid_override_values(self):
        cfg = parse_config(LADDER_TEXT)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="tol override"):
                with_overrides(cfg, tol=tol)
        with pytest.raises(ConfigError, match="n_cap override"):
            with_overrides(cfg, n_cap=0)

    def test_seed_override_range(self):
        cfg = parse_config(BILLIARD_TEXT)
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match=r"seed override must lie in \[0, 2\*\*64\)"):
                with_overrides(cfg, seed=seed)
        assert with_overrides(cfg, seed=2**64 - 1).seed == 2**64 - 1


class TestInitialDensity:
    def test_piecewise(self):
        cfg = parse_config(LADDER_TEXT)
        f = initial_density(cfg)
        assert isinstance(f, PiecewiseDensity)
        assert f.mass() == pytest.approx(1.0, abs=1e-15)

    def test_ensemble(self):
        cfg = parse_config(BILLIARD_TEXT)
        ens = initial_density(cfg)
        assert isinstance(ens, ParticleEnsemble)
        assert len(ens) == 2000
        assert ens.mass() == pytest.approx(1.0, abs=1e-12)


def _full_state_decay(cfg, ens0, t):
    ens_t = transport_ensemble(ens0, t, cfg.geometry, scale=cfg.boundary.scale)
    return ensemble_trace_decay(ens_t.counts, t)


def _assert_windows_match_full_state(cfg, ens0, result):
    # the run's window and t_max decay reports, and the `honesty` command's
    # window report, each against a separate full-state transport
    want = tuple(_full_state_decay(cfg, ens0, t) for _, t in cfg.windows)
    assert result.window_reports == want
    assert tuple(_window_decay(cfg, w) for w in cfg.windows) == want
    assert result.decay_report == _full_state_decay(cfg, ens0, 2.0)
    assert result.window_reports[1].max_rebounds > result.decay_report.max_rebounds


class TestRunScenario:
    def test_honest_builtin_bundle(self):
        result = run_scenario(resolve_config("unit-ladder-honest"))
        assert result.kind == "ladder"
        assert result.verdict == "honest"
        assert len(result.rows) == 5
        for row in result.rows:
            assert row.converged
            assert row.mass == pytest.approx(1.0, abs=1e-12)
            assert abs(row.mass_defect) < 1e-12
        assert len(result.window_reports) == 1
        assert len(result.resolvent_reports) == 3
        assert {rep.verdict for rep in result.resolvent_reports} == {"honest"}

    def test_dishonest_builtin_bundle(self):
        result = run_scenario(resolve_config("geometric-ladder-dishonest"))
        assert result.verdict == "dishonest"
        verdicts = {rep.window: rep.verdict for rep in result.window_reports}
        assert verdicts[(0.5, 1.0)] == "honest"
        assert verdicts[(1.0, 2.0)] == "dishonest"
        assert result.resolvent_reports[0].verdict == "dishonest"
        # mass leaks after t = 1 with nothing absorbed to account for it
        by_t = {row.t: row for row in result.rows}
        assert by_t[0.5].mass_defect == pytest.approx(0.0, abs=1e-12)
        assert by_t[1.5].mass_defect == pytest.approx(-0.5, abs=1e-10)
        assert by_t[2.5].mass == pytest.approx(0.0, abs=1e-12)

    def test_rows_padded_to_common_width(self):
        result = run_scenario(resolve_config("unit-ladder-honest"))
        widths = {len(row.order_masses) for row in result.rows}
        assert widths == {result.n_orders + 1}
        assert {len(row.trace_norms) for row in result.rows} == {result.n_orders + 1}

    def test_one_expansion_per_ladder_run(self, monkeypatch):
        # both windows of this builtin end by its last report time, so the
        # rows' expansion serves them too
        horizons = []
        init = Expansion.__init__

        def counted(self, geom, rule, f, t_max):
            horizons.append(t_max)
            init(self, geom, rule, f, t_max)

        monkeypatch.setattr(Expansion, "__init__", counted)
        cfg = resolve_config("geometric-ladder-dishonest")
        run_scenario(cfg)
        assert horizons == [max(cfg.times)]
        horizons.clear()
        run_scenario(replace(cfg, windows=((1.0, 2.0), (0.5, 3.0))))
        assert horizons == [max(cfg.times), 3.0]

    def test_order_mass_once_per_order_and_time(self, monkeypatch):
        calls = []
        order_mass = Expansion.order_mass

        def counted(self, k, t):
            calls.append((k, t))
            return order_mass(self, k, t)

        monkeypatch.setattr(Expansion, "order_mass", counted)
        result = run_scenario(resolve_config("geometric-ladder-dishonest"))
        assert len(calls) == len(set(calls))
        # every order of every row is read once, except those that have not
        # entered the ladder by the row's time: their columns are 0 unread
        read = {(k, row.t) for row in result.rows for k in range(result.n_orders + 1)
                if row.order_masses[k] or row.trace_norms[k]}
        assert read <= set(calls) <= {(k, row.t) for row in result.rows
                                      for k in range(result.n_orders + 1)}
        # a row cut early was widened without evaluating its orders again
        assert min(row.n_used for row in result.rows) < result.n_orders

    def test_diagnostics_agree_with_the_rows(self):
        cfg = parse_config(LOSSY_CAPPED_TEXT)
        result = run_scenario(cfg)
        f = initial_density(cfg)
        geom, rule = cfg.geometry, cfg.boundary
        assert [row.converged for row in result.rows] == [True, False, False, False, False]
        for row in result.rows:
            eta, converged = mass_defect_estimate(f, row.t, geom, rule, tol=cfg.tol, n_cap=cfg.n_cap)
            assert eta == pytest.approx(row.mass_defect, abs=1e-12)
            assert converged == row.converged
            absorbed = row.mass_defect - row.mass + f.mass()
            rate, _ = absorption_rate_estimate(f, row.t, geom, rule, tol=cfg.tol, n_cap=cfg.n_cap)
            assert rate * row.t == pytest.approx(absorbed, abs=1e-12)
            _, rep = evolve(row.t, f, geom, rule, tol=cfg.tol, n_cap=cfg.n_cap)
            assert rep.n_used == row.n_used
            assert rep.order_masses == row.order_masses[:row.n_used + 1]
            assert rep.trace_norms == row.trace_norms[:row.n_used + 1]

    def test_ensemble_bundle(self):
        result = run_scenario(parse_config(BILLIARD_TEXT))
        assert result.kind == "ensemble"
        assert result.decay_report is not None
        assert result.verdict == "honest"
        for row in result.rows:
            assert row.mass == pytest.approx(1.0, abs=1e-12)
            assert row.tail_weights[-1] == 0.0

    def test_polygon_reports_match_separate_transports(self):
        # one window ends at a report time, one does not
        cfg = parse_config(POLYGON_TEXT)
        result = run_scenario(cfg)
        ens0 = initial_density(cfg)
        assert [row.t for row in result.rows] == [2.0, 0.5, 2.0]
        assert result.rows[0] == result.rows[2]
        _assert_windows_match_full_state(cfg, ens0, result)

    def test_disk_reports_match_separate_transports(self):
        # rows and windows read rebound counts alone; separate full-state
        # transports are the reference
        cfg = parse_config(DISK_TEXT)
        result = run_scenario(cfg)
        ens0 = initial_density(cfg)
        assert [row.t for row in result.rows] == [2.0, 0.5, 2.0]
        assert result.rows[0] == result.rows[2]
        _assert_windows_match_full_state(cfg, ens0, result)
        assert result.rows[0].mass < result.initial_mass
        for row in result.rows:
            ref = transport_ensemble(ens0, row.t, cfg.geometry, scale=0.9)
            hist = ref.rebound_histogram()
            assert row.mass == ref.mass()
            assert row.rebound_masses[:hist.size] == tuple(hist)
            assert row.max_rebounds == ref.rebounds.max()
            assert row.degenerate_weight == float(ref.weight[ref.degenerate].sum())

    def test_disk_runs_hold_no_particle_state(self, monkeypatch):
        # a disk is sampled straight into chords: with every way to build a
        # particle state refused, the run and the honesty window give the
        # same reports
        cfg = parse_config(DISK_TEXT)
        want = run_scenario(cfg)
        windows = [_window_decay(cfg, w) for w in cfg.windows]

        def refuse(*args, **kwargs):
            raise AssertionError("a disk run built a particle state")

        monkeypatch.setattr(densities, "sample_ensemble", refuse)
        monkeypatch.setattr(scenarios, "sample_ensemble", refuse)
        monkeypatch.setattr(ParticleEnsemble, "__post_init__", refuse)
        got = run_scenario(cfg)
        assert got == want
        assert time_series_csv(got) == time_series_csv(want)
        assert summary_text(got) == summary_text(want)
        assert [_window_decay(cfg, w) for w in cfg.windows] == windows
        with pytest.raises(AssertionError, match="particle state"):
            run_scenario(parse_config(POLYGON_TEXT))

    def test_ladder_csv_is_reproducible(self):
        cfg = resolve_config("geometric-ladder-dishonest")
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert time_series_csv(first) == time_series_csv(second)
        assert summary_text(first) == summary_text(second)

    def test_ensemble_csv_is_reproducible(self):
        cfg = parse_config(BILLIARD_TEXT)
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert time_series_csv(first) == time_series_csv(second)
        assert summary_text(first) == summary_text(second)

    def test_csv_shape(self):
        result = run_scenario(parse_config(LADDER_TEXT))
        lines = time_series_csv(result).strip().split("\n")
        assert len(lines) == 1 + len(result.rows)
        header = lines[0].split(",")
        assert header[:6] == ["t", "mass", "mass_defect", "residual_bound", "n_used", "converged"]
        assert len(header) == 6 + 2 * (result.n_orders + 1)
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_summary_mentions_verdict_and_label(self):
        result = run_scenario(parse_config(LADDER_TEXT))
        text = summary_text(result)
        assert "scenario: demo" in text
        assert "overall-verdict: honest" in text
        assert "[time-series]" in text


class TestReports:
    def test_write_reports_round_trip(self, tmp_path):
        result = run_scenario(parse_config(LADDER_TEXT))
        series, summary = write_reports(result, out_dir=tmp_path)
        assert series == tmp_path / "demo-series.csv"
        assert summary == tmp_path / "demo-summary.txt"
        assert series.read_text() == time_series_csv(result)
        assert summary.read_text() == summary_text(result)

    def test_rewrites_are_byte_identical(self, tmp_path):
        cfg = parse_config(LADDER_TEXT)
        series, summary = write_reports(run_scenario(cfg), out_dir=tmp_path)
        first = (series.read_bytes(), summary.read_bytes())
        write_reports(run_scenario(cfg), out_dir=tmp_path)
        assert (series.read_bytes(), summary.read_bytes()) == first

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HONESTFLOW_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        result = run_scenario(parse_config(LADDER_TEXT))
        series, summary = write_reports(result)
        assert series.parent == tmp_path / "elsewhere"
        assert series.exists() and summary.exists()


class TestCli:
    @pytest.fixture(autouse=True)
    def _redirect_reports(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HONESTFLOW_OUTPUT_DIR", str(tmp_path / "reports"))
        self.out_dir = tmp_path / "reports"
        self.tmp_path = tmp_path

    def test_run_honest_exits_zero(self, capsys):
        code = cli.main(["run", "unit-ladder-honest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall-verdict: honest" in out
        assert (self.out_dir / "unit-ladder-honest-series.csv").exists()
        assert (self.out_dir / "unit-ladder-honest-summary.txt").exists()

    def test_run_over_the_piece_budget_exits_one(self, capsys, monkeypatch):
        # a two-way kernel rule on a geometric ladder doubles the history
        # pieces at every order; a low budget stops it early
        monkeypatch.setattr(expansion, "MAX_ORDER_PIECES", 64)
        path = self.tmp_path / "spreading.cfg"
        path.write_text(SPREADING_GEOMETRIC_TEXT)
        assert cli.main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("honestflow: [run] n_cap: order ")
        assert "history pieces, above the budget of 64" in captured.err
        assert not self.out_dir.exists()

    def test_run_dishonest_exits_two(self, capsys):
        code = cli.main(["run", "geometric-ladder-dishonest"])
        assert code == 2
        assert "overall-verdict: dishonest" in capsys.readouterr().out

    def test_run_stdout_reproducible(self, capsys):
        cli.main(["run", "geometric-ladder-dishonest"])
        first = capsys.readouterr().out
        cli.main(["run", "geometric-ladder-dishonest"])
        assert capsys.readouterr().out == first

    def test_run_billiard_config_file(self, capsys):
        path = self.tmp_path / "little-disk.cfg"
        path.write_text(BILLIARD_TEXT)
        code = cli.main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall-verdict: honest" in out
        assert (self.out_dir / "little-disk-series.csv").exists()

    def test_honesty_dishonest_window(self, capsys):
        code = cli.main(["honesty", "geometric-ladder-dishonest", "--window", "1,2"])
        out = capsys.readouterr().out
        assert code == 2
        assert "verdict: dishonest" in out
        limit = float(out.split("witness-limit: ")[1].split("\n")[0])
        assert limit == pytest.approx(1.0, abs=1e-10)

    def test_honesty_honest_window(self, capsys):
        code = cli.main(["honesty", "geometric-ladder-dishonest", "--window", "0.5,1"])
        assert code == 0
        assert "verdict: honest" in capsys.readouterr().out

    def test_honesty_starved_of_orders_is_inconclusive(self, capsys):
        code = cli.main(["honesty", "geometric-ladder-dishonest", "--window", "0,1.5", "--n-cap", "4"])
        assert code == 3
        assert "verdict: inconclusive" in capsys.readouterr().out

    def test_honesty_billiard_window(self, capsys):
        path = self.tmp_path / "little-disk.cfg"
        path.write_text(BILLIARD_TEXT)
        code = cli.main(["honesty", str(path), "--window", "0,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: honest" in out
        assert "tail-weights:" in out

    def test_honesty_billiard_window_must_start_at_zero(self, capsys):
        path = self.tmp_path / "little-disk.cfg"
        path.write_text(BILLIARD_TEXT)
        code = cli.main(["honesty", str(path), "--window", "1,2"])
        assert code == 1
        assert "start at 0" in capsys.readouterr().err

    def test_resolvent_honest(self, capsys):
        code = cli.main(["resolvent", "unit-ladder-honest", "--lambda", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: honest" in out
        entries = [float(x) for x in out.split("entries: ")[1].strip().split(",")]
        expected = (1.0 - math.exp(-1.0)) * math.exp(-1.0)
        assert entries[1] == pytest.approx(expected, abs=1e-12)

    def test_resolvent_dishonest(self, capsys):
        code = cli.main(["resolvent", "geometric-ladder-dishonest", "--lambda", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "verdict: dishonest" in out
        limit = float(out.split("limit: ")[1].split("\n")[0])
        assert limit == pytest.approx((1.0 - math.exp(-1.0)) * math.exp(-1.0), abs=1e-10)

    def test_resolvent_rejects_billiards(self, capsys):
        path = self.tmp_path / "little-disk.cfg"
        path.write_text(BILLIARD_TEXT)
        code = cli.main(["resolvent", str(path), "--lambda", "1"])
        assert code == 1
        assert "not defined for billiard" in capsys.readouterr().err

    def test_resolvent_rejects_nonpositive_lambda(self, capsys):
        code = cli.main(["resolvent", "unit-ladder-honest", "--lambda", "-1"])
        assert code == 1
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_resolvent_rejects_non_finite_lambda(self, capsys, lam):
        assert cli.main(["resolvent", "unit-ladder-honest", "--lambda", lam]) == 1
        assert capsys.readouterr().err == (
            "honestflow: --lambda: resolvent parameter must be positive and finite\n")

    @pytest.mark.parametrize("command", [["run"], ["honesty", "--window", "0,1"],
                                         ["resolvent", "--lambda", "1"]])
    def test_n_cap_override_bounded(self, capsys, command):
        # refused before any order is built
        code = cli.main([command[0], "geometric-ladder-dishonest", *command[1:],
                         "--n-cap", "100000000"])
        assert code == 1
        assert capsys.readouterr().err == "honestflow: n_cap override must be at most 10000\n"
        assert not self.out_dir.exists()

    def test_unknown_scenario_exits_one(self, capsys):
        code = cli.main(["run", "not-a-scenario"])
        assert code == 1
        assert "neither a builtin" in capsys.readouterr().err

    def test_bad_window_text_exits_one(self, capsys):
        code = cli.main(["honesty", "unit-ladder-honest", "--window", "backwards"])
        assert code == 1
        assert "--window" in capsys.readouterr().err

    def test_reversed_window_exits_one(self, capsys):
        code = cli.main(["honesty", "unit-ladder-honest", "--window", "2,1"])
        assert code == 1
        assert "0 <= s < t" in capsys.readouterr().err

    def test_seed_override_on_ladder_exits_one(self, capsys):
        code = cli.main(["run", "unit-ladder-honest", "--seed", "5"])
        assert code == 1
        assert "seed override" in capsys.readouterr().err

    def test_bad_override_value_exits_one(self, capsys):
        code = cli.main(["run", "unit-ladder-honest", "--tol", "0"])
        assert code == 1
        assert "tol override" in capsys.readouterr().err

    def _config_file(self, text, name="custom"):
        path = self.tmp_path / f"{name}.cfg"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("times", ["0.5, nan", "inf"])
    @pytest.mark.parametrize("base", [LADDER_TEXT, BILLIARD_TEXT], ids=["ladder", "disk"])
    def test_non_finite_times_exit_one(self, capsys, base, times):
        old = "times = 0.5, 1.5" if base is LADDER_TEXT else "times = 0.5, 2"
        code = cli.main(["run", self._config_file(base.replace(old, f"times = {times}"))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("honestflow: [run] times: ")

    @pytest.mark.parametrize("window", ["0, inf", "0, nan"])
    @pytest.mark.parametrize("base", [LADDER_TEXT, BILLIARD_TEXT], ids=["ladder", "disk"])
    def test_non_finite_windows_exit_one(self, capsys, base, window):
        text = base.replace("[run]\n", f"[run]\nwindows = {window}\n")
        code = cli.main(["run", self._config_file(text)])
        assert code == 1
        assert capsys.readouterr().err.startswith("honestflow: [run] windows: ")

    @pytest.mark.parametrize("window", ["0,inf", "0,nan"])
    def test_non_finite_window_flag_exits_one(self, capsys, window):
        code = cli.main(["honesty", self._config_file(BILLIARD_TEXT), "--window", window])
        assert code == 1
        assert "--window" in capsys.readouterr().err

    def test_seed_out_of_range_exits_one(self, capsys):
        text = BILLIARD_TEXT.replace("seed = 7", "seed = -1")
        code = cli.main(["run", self._config_file(text)])
        assert code == 1
        assert capsys.readouterr().err.startswith("honestflow: [density] seed: ")
        code = cli.main(["run", self._config_file(BILLIARD_TEXT), "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("honestflow: seed override must lie in ")

    def test_short_region_exits_one(self, capsys):
        text = BILLIARD_TEXT.replace("region = domain", "region = disk:0,0")
        code = cli.main(["run", self._config_file(text)])
        assert code == 1
        assert capsys.readouterr().err.startswith("honestflow: [density] region: ")

    def test_usage_error_raises_string_exit(self):
        # argparse exits would collide with verdict codes; the parser is
        # rerouted to SystemExit(str), which the interpreter turns into 1
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert isinstance(exc.value.code, str)
        with pytest.raises(SystemExit) as exc:
            cli.main(["honesty", "unit-ladder-honest"])  # missing --window
        assert isinstance(exc.value.code, str)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "unit-ladder-honest", "--tol", "abc"])
        assert isinstance(exc.value.code, str)


def _fuzz_numbers(lo, hi):
    """Mostly numbers in [lo, hi], one draw in four from the edge values."""
    inside = st.floats(lo, hi)
    edges = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
    return st.one_of(inside, inside, inside, edges)


def _number_list(values):
    return ", ".join(repr(v) for v in values)


class TestLadderRunFuzz:
    """Every ladder ``[run]`` input ends in a report (exit 0, 2 or 3) or a
    named refusal (exit 1): no traceback and nothing else on stderr.
    Billiards are left out: their transport has no work budget yet, so a
    huge time would run for minutes."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        base=st.sampled_from([LADDER_TEXT, LOSSY_CAPPED_TEXT]),
        times=st.lists(_fuzz_numbers(0.0, 12.0), min_size=1, max_size=3),
        windows=st.lists(st.tuples(_fuzz_numbers(0.0, 6.0), _fuzz_numbers(0.0, 12.0)),
                         max_size=2),
        grid_points=st.integers(2, 12),
        tol=_fuzz_numbers(1e-14, 1e-2),
        n_cap=st.integers(1, 40),
        lambdas=st.lists(_fuzz_numbers(0.0, 5.0), max_size=2),
    )
    def test_cli_run_exits_cleanly(self, tmp_path, monkeypatch, capsys, base, times, windows,
                                   grid_points, tol, n_cap, lambdas):
        monkeypatch.setenv("HONESTFLOW_OUTPUT_DIR", str(tmp_path / "reports"))
        run = (
            f"[run]\ntimes = {_number_list(times)}\n"
            f"windows = {'; '.join(_number_list(w) for w in windows)}\n"
            f"grid_points = {grid_points}\ntol = {tol!r}\nn_cap = {n_cap}\n"
            f"lambdas = {_number_list(lambdas)}\nlabel = fuzz\n"
        )
        path = tmp_path / "fuzz.cfg"
        path.write_text(base[:base.index("[run]")] + run)
        code = cli.main(["run", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert all(line.startswith("honestflow: ") for line in err.splitlines())
        if code == 1:
            assert err.startswith("honestflow: [run] ")
