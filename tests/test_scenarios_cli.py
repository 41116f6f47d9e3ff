import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from honestflow import cli, densities, expansion, scenarios
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
        with pytest.raises(ConfigError, match=r"^\[run\] n_cap: must be at most 10000$"):
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
    def test_extreme_disk_rebounds_as_the_unit_disk(self, factor):
        # radius, speed and centre scaled by a power of two near each bound
        # (2**249 is 9.0e74): scaling by 2**k is exact in float64 while every
        # product stays finite and normal, so every first hit is finite and
        # the rebound counts are bitwise those of the unit table
        unit = BILLIARD_TEXT.replace("center = 0, 0", "center = 1, -1")
        scaled = (unit.replace("radius = 1", f"radius = {factor!r}")
                  .replace("speeds = 1", f"speeds = {factor!r}")
                  .replace("center = 1, -1", f"center = {factor!r}, {-factor!r}"))
        cfg, ref = parse_config(scaled), parse_config(unit)
        got = transport_counts_times(initial_density(cfg), cfg.times, cfg.geometry)
        want = transport_counts_times(initial_density(ref), ref.times, ref.geometry)
        for (t, a), (u, b) in zip(got, want, strict=True):
            assert t == u
            assert np.array_equal(a.rebounds, b.rebounds)
            assert np.array_equal(a.degenerate, b.degenerate)
            assert not a.degenerate.any()
        assert a.rebounds.sum() > 0

        # a sampled disk, its states drawn slice by slice, tallies them alike
        def tallies(c):
            _, trajectory = densities.sample_counts(c.geometry, c.count, c.seed, c.region,
                                                         c.times, 1.0)
            return [(t, tally.rebound_histogram().tobytes(), tally.degenerate_weight(),
                     tally.mass()) for t, tally in trajectory]

        assert tallies(cfg) == tallies(ref)

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


GEOMETRIC_TEXT = LADDER_TEXT.replace("rule = affine", "rule = geometric").replace(
    "length = 1", "length = 1\nratio = 0.5")
EXPLICIT_TEXT = LADDER_TEXT.replace("rule = affine\nstart = 0\nspacing = 2\nlength = 1",
                                    "rule = explicit\nintervals = 0, 1; 2, 3")
KERNEL_TEXT = LADDER_TEXT.replace("kind = shift", "kind = kernel\nrow_0 = 1:1")

# every exit-1 message of the config parser, byte for byte: (base text, the
# text replaced once, its replacement, the ConfigError message)
BAD_CONFIGS = [
    (LADDER_TEXT, "[boundary]", "[elsewhere]",
     "missing required section [boundary]"),
    (LADDER_TEXT, "label = demo", "label = demo\n[extras]\nfoo = 1",
     "unknown section [extras]"),
    (LADDER_TEXT, "[geometry]", "this is not an ini file\n[geometry]",
     "config syntax: File contains no section headers.\nfile: '<string>', line: "
     "1\n'this is not an ini file\\n'"),
    (LADDER_TEXT, "kind = interval-union\n", "",
     "[geometry] kind: expected interval-union|billiard, got None"),
    (LADDER_TEXT, "kind = interval-union", "kind = moebius",
     "[geometry] kind: expected interval-union|billiard, got 'moebius'"),
    (LADDER_TEXT, "rule = affine\n", "",
     "[geometry] rule: expected affine|geometric|explicit, got None"),
    (LADDER_TEXT, "rule = affine", "rule = random",
     "[geometry] rule: expected affine|geometric|explicit, got 'random'"),
    (LADDER_TEXT, "start = 0", "start = abc",
     "[geometry] start: expected a number, got 'abc'"),
    (LADDER_TEXT, "spacing = 2\n", "",
     "[geometry] missing required key 'spacing'"),
    (LADDER_TEXT, "spacing = 2", "spacing = abc",
     "[geometry] spacing: expected a number, got 'abc'"),
    (LADDER_TEXT, "length = 1\n", "",
     "[geometry] missing required key 'length'"),
    (LADDER_TEXT, "length = 1", "length = abc",
     "[geometry] length: expected a number, got 'abc'"),
    (LADDER_TEXT, "length = 1", "length = 3",
     "[geometry] affine rule needs 0 < length <= spacing"),
    (LADDER_TEXT, "spacing = 2", "spacing = 2\nwobble = 3",
     "[geometry] unknown key 'wobble'"),
    (LADDER_TEXT, "spacing = 2", "spacing = 2\nratio = 0.5",
     "[geometry] unknown key 'ratio'"),
    (LADDER_TEXT, "spacing = 2", "spacing = 2\nradius = 1",
     "[geometry] unknown key 'radius'"),
    (GEOMETRIC_TEXT, "ratio = 0.5\n", "",
     "[geometry] missing required key 'ratio'"),
    (GEOMETRIC_TEXT, "ratio = 0.5", "ratio = abc",
     "[geometry] ratio: expected a number, got 'abc'"),
    (GEOMETRIC_TEXT, "ratio = 0.5", "ratio = 1.5",
     "[geometry] geometric rule needs 0 < ratio < 1"),
    (GEOMETRIC_TEXT, "length = 1", "length = 0",
     "[geometry] geometric rule needs 0 < length <= spacing"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3\n", "",
     "[geometry] missing required key 'intervals'"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = 0, 1; 2",
     "[geometry] intervals: expected pairs 'a,b', got '2'"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = 0, 1; 2, x",
     "[geometry] intervals: expected comma separated numbers, got ' 2, x'"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = 1, 0",
     "[geometry] intervals: degenerate interval (1.0, 0.0)"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = 0, 3; 2, 4",
     "[geometry] intervals: intervals must be disjoint and ordered"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = ;",
     "[geometry] intervals: explicit rule needs at least one interval"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = 0, 1; 2, inf",
     "[geometry] intervals: endpoints must be finite, got (2.0, inf)"),
    (EXPLICIT_TEXT, "intervals = 0, 1; 2, 3", "intervals = 0, 1\nstart = 0",
     "[geometry] unknown key 'start'"),
    (BILLIARD_TEXT, "shape = disk\n", "",
     "[geometry] shape: expected disk|polygon, got None"),
    (BILLIARD_TEXT, "shape = disk", "shape = ellipse",
     "[geometry] shape: expected disk|polygon, got 'ellipse'"),
    (BILLIARD_TEXT, "speeds = 1\n", "",
     "[geometry] give exactly one of speeds / speed_band"),
    (BILLIARD_TEXT, "speeds = 1", "speeds = 1\nspeed_band = 1, 2",
     "[geometry] give exactly one of speeds / speed_band"),
    (BILLIARD_TEXT, "speeds = 1", "speeds = 1, x",
     "[geometry] speeds: expected comma separated numbers, got '1, x'"),
    (BILLIARD_TEXT, "speeds = 1", "speeds = 1, 1e-76",
     "[geometry] speeds: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "speeds = 1", "speeds = 1e76",
     "[geometry] speeds: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "speeds = 1", "speeds = nan",
     "[geometry] speeds: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "speeds = 1", "speeds = ",
     "[geometry] speeds: finite speed set must be positive"),
    (BILLIARD_TEXT, "speeds = 1", "speed_band = 1",
     "[geometry] speed_band: expected 'lo, hi'"),
    (BILLIARD_TEXT, "speeds = 1", "speed_band = 1, x",
     "[geometry] speed_band: expected comma separated numbers, got '1, x'"),
    (BILLIARD_TEXT, "speeds = 1", "speed_band = 2, 1",
     "[geometry] speed_band: annulus needs 0 < speed_min <= speed_max"),
    (BILLIARD_TEXT, "speeds = 1", "speed_band = 1e-76, 1",
     "[geometry] speed_band: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "speeds = 1", "speed_band = 1, 1e76",
     "[geometry] speed_band: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "center = 0, 0", "center = 1",
     "[geometry] center: expected 'x, y'"),
    (BILLIARD_TEXT, "center = 0, 0", "center = 0, x",
     "[geometry] center: expected comma separated numbers, got '0, x'"),
    (BILLIARD_TEXT, "center = 0, 0", "center = 0, -1e76",
     "[geometry] center: coordinates must lie within 1e+75 in magnitude"),
    (BILLIARD_TEXT, "center = 0, 0", "center = 2e6, 0",
     "[geometry] radius: the table must span at least 1e-06 of its largest "
     "coordinate magnitude, 2e+06"),
    (BILLIARD_TEXT, "radius = 1\n", "",
     "[geometry] missing required key 'radius'"),
    (BILLIARD_TEXT, "radius = 1", "radius = abc",
     "[geometry] radius: expected a number, got 'abc'"),
    (BILLIARD_TEXT, "radius = 1", "radius = 0",
     "[geometry] radius: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "radius = 1", "radius = 1e-76",
     "[geometry] radius: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "radius = 1", "radius = 1e76",
     "[geometry] radius: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "radius = 1", "radius = inf",
     "[geometry] radius: every value must lie in [1e-75, 1e+75]"),
    (BILLIARD_TEXT, "radius = 1", "radius = 1\nvertices = 0, 0; 1, 0; 0, 1",
     "[geometry] unknown key 'vertices'"),
    (BILLIARD_TEXT, "radius = 1", "radius = 1\nrule = affine",
     "[geometry] unknown key 'rule'"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9\n", "",
     "[geometry] missing required key 'vertices'"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = 0, 0; 3",
     "[geometry] vertices: expected pairs 'a,b', got '3'"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = 0, 0; 3, y",
     "[geometry] vertices: expected comma separated numbers, got ' 3, y'"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = 0, 0; 3, 0",
     "[geometry] vertices: polygon needs at least 3 vertices"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = 0, 0; 0.7, 1.9; 3, 0",
     "[geometry] vertices: vertices must list a strictly convex polygon counter-clockwise"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = 0, 0; 3, 0; 0.7, 1e76",
     "[geometry] vertices: coordinates must lie within 1e+75 in magnitude"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9", "vertices = 1e7, 0; 10000003, 0; 1e7, 1",
     "[geometry] vertices: the table must span at least 1e-06 of its largest "
     "coordinate magnitude, 1e+07"),
    (POLYGON_TEXT, "vertices = 0, 0; 3, 0; 0.7, 1.9",
     "vertices = 0, 0; 3, 0; 0.7, 1.9\ncenter = 0, 0",
     "[geometry] unknown key 'center'"),
    (LADDER_TEXT, "kind = shift\n", "",
     "[boundary] kind: expected shift|kernel|specular, got None"),
    (LADDER_TEXT, "kind = shift", "kind = reflect",
     "[boundary] kind: expected shift|kernel|specular, got 'reflect'"),
    (LADDER_TEXT, "scale = 1", "scale = abc",
     "[boundary] scale: expected a number, got 'abc'"),
    (LADDER_TEXT, "scale = 1", "scale = 1.5",
     "[boundary] scale: boundary weight scale must lie in (0, 1]"),
    (LADDER_TEXT, "scale = 1", "scale = 0",
     "[boundary] scale: boundary weight scale must lie in (0, 1]"),
    (LADDER_TEXT, "scale = 1", "scale = nan",
     "[boundary] scale: boundary weight scale must lie in (0, 1]"),
    (LADDER_TEXT, "scale = 1", "scale = 1\nrow_0 = 1:1",
     "[boundary] row_* entries are only valid with kind = kernel"),
    (LADDER_TEXT, "scale = 1", "scale = 1\nwobble = 1",
     "[boundary] unknown key 'wobble'"),
    (LADDER_TEXT, "kind = shift", "kind = kernel",
     "[boundary] kernel rule needs at least one row_<k> entry"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_x = 1:1",
     "[boundary] row_x: row keys look like row_<outgoing index>"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_0 = 1;1",
     "[boundary] row_0: entries look like 'incoming:weight'"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_0 = 1:x",
     "[boundary] row_0: bad entry '1:x'"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_0 = x:1",
     "[boundary] row_0: bad entry 'x:1'"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_0 = 1:0.5",
     "[boundary] kernel must have norm one: some row must sum to 1"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_0 = 1:0.7, 2:0.7",
     "[boundary] row 0 sums above 1"),
    (KERNEL_TEXT, "row_0 = 1:1", "row_0 = 1:-0.5, 2:1",
     "[boundary] row 0 has a negative weight"),
    (LADDER_TEXT, "kind = shift", "kind = specular",
     "[boundary] kind: interval-union scenarios use shift or kernel rules"),
    (BILLIARD_TEXT, "kind = specular", "kind = shift",
     "[boundary] kind: billiard scenarios use the specular rule"),
    (BILLIARD_TEXT, "kind = specular", "kind = kernel\nrow_0 = 1:1",
     "[boundary] kind: billiard scenarios use the specular rule"),
    (LADDER_TEXT, "kind = piecewise\n", "",
     "[density] kind: expected piecewise|ensemble, got None"),
    (LADDER_TEXT, "kind = piecewise", "kind = cloud",
     "[density] kind: expected piecewise|ensemble, got 'cloud'"),
    (LADDER_TEXT, "pieces = 0, 1, 1\n", "",
     "[density] missing required key 'pieces'"),
    (LADDER_TEXT, "pieces = 0, 1, 1", "pieces = 0, 1",
     "[density] pieces: expected triples 'lo,hi,value', got '0, 1'"),
    (LADDER_TEXT, "pieces = 0, 1, 1", "pieces = 0, 1, x",
     "[density] pieces: expected comma separated numbers, got '0, 1, x'"),
    (LADDER_TEXT, "pieces = 0, 1, 1", "pieces = 0, 1.5, 1",
     "[density] pieces: piece (0.0, 1.5) does not sit inside one interval of the geometry"),
    (LADDER_TEXT, "pieces = 0, 1, 1", "pieces = 1, 0, 1",
     "[density] pieces: piece (1.0, 0.0) is empty"),
    (LADDER_TEXT, "pieces = 0, 1, 1", "pieces = 0, 1, 1\ncount = 5",
     "[density] unknown key 'count'"),
    (LADDER_TEXT, "kind = piecewise\npieces = 0, 1, 1", "kind = ensemble\ncount = 10\nseed = 0",
     "[density] ensembles need a billiard geometry"),
    (BILLIARD_TEXT, "kind = ensemble\ncount = 2000\nseed = 7\nregion = domain",
     "kind = piecewise\npieces = 0, 1, 1",
     "[density] piecewise densities need an interval-union geometry"),
    (BILLIARD_TEXT, "count = 2000\n", "",
     "[density] count: ensembles need count >= 1"),
    (BILLIARD_TEXT, "count = 2000", "count = abc",
     "[density] count: expected an integer, got 'abc'"),
    (BILLIARD_TEXT, "count = 2000", "count = 1.5",
     "[density] count: expected an integer, got '1.5'"),
    (BILLIARD_TEXT, "count = 2000", "count = 0",
     "[density] count: ensembles need count >= 1"),
    (BILLIARD_TEXT, "count = 2000", "count = -3",
     "[density] count: ensembles need count >= 1"),
    (BILLIARD_TEXT, "count = 2000", "count = 10000001",
     "[density] count: at most 10000000"),
    (BILLIARD_TEXT, "seed = 7\n", "",
     "[density] seed: required whenever an ensemble is requested"),
    (BILLIARD_TEXT, "seed = 7", "seed = abc",
     "[density] seed: expected an integer, got 'abc'"),
    (BILLIARD_TEXT, "seed = 7", "seed = 1e3",
     "[density] seed: expected an integer, got '1e3'"),
    (BILLIARD_TEXT, "seed = 7", "seed = -1",
     "[density] seed: must lie in [0, 2**64), got -1"),
    (BILLIARD_TEXT, "seed = 7", "seed = 18446744073709551616",
     "[density] seed: must lie in [0, 2**64), got 18446744073709551616"),
    (BILLIARD_TEXT, "region = domain", "region = everywhere",
     "[density] region: expected domain|disk:...|box:..., got 'everywhere'"),
    (BILLIARD_TEXT, "region = domain", "region = domainwide",
     "[density] region: expected domain|disk:...|box:..., got 'domainwide'"),
    (BILLIARD_TEXT, "region = domain", "region = disk:0,0",
     "[density] region: expected disk:cx,cy,r, got 'disk:0,0'"),
    (BILLIARD_TEXT, "region = domain", "region = disk:0,0,0.5,1",
     "[density] region: expected disk:cx,cy,r, got 'disk:0,0,0.5,1'"),
    (BILLIARD_TEXT, "region = domain", "region = disk:0,zero,0.5",
     "[density] region: expected comma separated numbers, got '0,zero,0.5'"),
    (BILLIARD_TEXT, "region = domain", "region = box:0,0,0.5",
     "[density] region: expected box:x0,y0,x1,y1, got 'box:0,0,0.5'"),
    (BILLIARD_TEXT, "region = domain", "region = box:a,b,c,d",
     "[density] region: expected comma separated numbers, got 'a,b,c,d'"),
    (BILLIARD_TEXT, "region = domain", "region = domain\npieces = 0, 1, 1",
     "[density] unknown key 'pieces'"),
    (LADDER_TEXT, "times = 0.5, 1.5\n", "",
     "[run] times: need at least one report time"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times =",
     "[run] times: need at least one report time"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times = 0.5, x",
     "[run] times: expected comma separated numbers, got '0.5, x'"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times = 0.5, nan",
     "[run] times: times must be finite, got '0.5, nan'"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times = inf",
     "[run] times: times must be finite, got 'inf'"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times = -inf, 1",
     "[run] times: times must be finite, got '-inf, 1'"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times = -0.5, 1.5",
     "[run] times: times must be nonnegative"),
    (LADDER_TEXT, "times = 0.5, 1.5", "times = -0.5, nan",
     "[run] times: times must be finite, got '-0.5, nan'"),
    (LADDER_TEXT, "label = demo", "label = demo\ntol = 0",
     "[run] tol: must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\ntol = -1",
     "[run] tol: must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\ntol = inf",
     "[run] tol: must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\ntol = nan",
     "[run] tol: must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\ntol = abc",
     "[run] tol: expected a number, got 'abc'"),
    (LADDER_TEXT, "label = demo", "label = demo\nn_cap = 0",
     "[run] n_cap: must be at least 1"),
    (LADDER_TEXT, "label = demo", "label = demo\nn_cap = 10001",
     "[run] n_cap: must be at most 10000"),
    (LADDER_TEXT, "label = demo", "label = demo\nn_cap = 1.5",
     "[run] n_cap: expected an integer, got '1.5'"),
    (LADDER_TEXT, "label = demo", "label = demo\nn_cap = abc",
     "[run] n_cap: expected an integer, got 'abc'"),
    (LADDER_TEXT, "label = demo", "label = demo\nlambdas = 0.5, -1",
     "[run] lambdas: resolvent parameters must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\nlambdas = 0",
     "[run] lambdas: resolvent parameters must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\nlambdas = 1, inf",
     "[run] lambdas: resolvent parameters must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\nlambdas = nan",
     "[run] lambdas: resolvent parameters must be positive and finite"),
    (LADDER_TEXT, "label = demo", "label = demo\nlambdas = 1, x",
     "[run] lambdas: expected comma separated numbers, got '1, x'"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = 2, 1",
     "[run] windows: need 0 <= s < t, got 2.0,1.0"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = -1, 1",
     "[run] windows: need 0 <= s < t, got -1.0,1.0"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = 0, inf",
     "[run] windows: need finite s,t, got 0.0,inf"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = nan, 1",
     "[run] windows: need finite s,t, got nan,1.0"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = 0, 1; 2",
     "[run] windows: expected pairs 'a,b', got '2'"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = 0, x",
     "[run] windows: expected comma separated numbers, got '0, x'"),
    (LADDER_TEXT, "label = demo", "label = demo\nwindows = 2, 1; 0, inf",
     "[run] windows: need 0 <= s < t, got 2.0,1.0"),
    (LADDER_TEXT, "label = demo", "label = demo\ngrid_points = 1",
     "[run] grid_points: need at least 2"),
    (LADDER_TEXT, "label = demo", "label = demo\ngrid_points = 257",
     "[run] grid_points: at most 256"),
    (LADDER_TEXT, "label = demo", "label = demo\ngrid_points = 1000000000000",
     "[run] grid_points: at most 256"),
    (LADDER_TEXT, "label = demo", "label = demo\ngrid_points = abc",
     "[run] grid_points: expected an integer, got 'abc'"),
    (LADDER_TEXT, "label = demo\n", "",
     "[run] label: required (or pass a label when parsing)"),
    (LADDER_TEXT, "label = demo", "label =",
     "[run] label: required (or pass a label when parsing)"),
    (LADDER_TEXT, "label = demo", "label = demo\nwobble = 1",
     "[run] unknown key 'wobble'"),
    (LADDER_TEXT, "pieces = 0, 1, 1", "pieces = 0, 1, 1\noutput_dir = elsewhere",
     "[density] unknown key 'output_dir'"),
    (LADDER_TEXT, "label = demo", "label = demo\ntol = 0\nn_cap = 0",
     "[run] tol: must be positive and finite"),
    (BILLIARD_TEXT, "label = little-disk", "label = little-disk\nlambdas = 1",
     "[run] lambdas: resolvent diagnostics are not defined for billiards"),
    (BILLIARD_TEXT, "label = little-disk", "label = little-disk\nwindows = 1, 2",
     "[run] windows: billiard honesty windows must start at 0"),
    (BILLIARD_TEXT, "label = little-disk", "label = little-disk\nlambdas = -1",
     "[run] lambdas: resolvent parameters must be positive and finite"),
]

# (base text, with_overrides keywords, the ConfigError message)
BAD_OVERRIDES = [
    (LADDER_TEXT, {"tol": 0.0}, "tol override must be positive and finite"),
    (LADDER_TEXT, {"tol": -1.0}, "tol override must be positive and finite"),
    (LADDER_TEXT, {"tol": math.inf}, "tol override must be positive and finite"),
    (LADDER_TEXT, {"tol": math.nan}, "tol override must be positive and finite"),
    (LADDER_TEXT, {"n_cap": 0}, "n_cap override must be at least 1"),
    (LADDER_TEXT, {"n_cap": 10001}, "n_cap override must be at most 10000"),
    (LADDER_TEXT, {"seed": 1}, "seed override only applies to ensemble scenarios"),
    (BILLIARD_TEXT, {"seed": -1}, "seed override must lie in [0, 2**64), got -1"),
    (BILLIARD_TEXT, {"seed": 2**64},
     "seed override must lie in [0, 2**64), got 18446744073709551616"),
    (LADDER_TEXT, {"tol": 0.0, "n_cap": 0}, "tol override must be positive and finite"),
]


class TestConfigMessages:
    @pytest.mark.parametrize("base, old, new, message", BAD_CONFIGS)
    def test_bad_config_message(self, base, old, new, message):
        assert old in base
        with pytest.raises(ConfigError) as exc:
            parse_config(base.replace(old, new, 1))
        assert str(exc.value) == message

    def test_every_table_key_is_covered(self):
        edits = "\n" + "\n".join(old + "\n" + new for _, old, new, _ in BAD_CONFIGS)
        for section, fields in scenarios._FIELDS.items():
            for key in fields:
                assert f"\n{key.replace('<k>', '0')} =" in edits, (section, key)

    @pytest.mark.parametrize("base, overrides, message", BAD_OVERRIDES)
    def test_bad_override_message(self, base, overrides, message):
        with pytest.raises(ConfigError) as exc:
            with_overrides(parse_config(base), **overrides)
        assert str(exc.value) == message


# a config text for every key with a numeric limit in the field table, given
# the text of the key's value
LIMIT_CONFIGS = {
    "center": lambda v: BILLIARD_TEXT.replace("center = 0, 0", f"center = {v}, 0")
                                     .replace("radius = 1", "radius = 1e75"),
    "radius": lambda v: BILLIARD_TEXT.replace("radius = 1", f"radius = {v}"),
    "vertices": lambda v: POLYGON_TEXT.replace("vertices = 0, 0; 3, 0; 0.7, 1.9",
                                               f"vertices = 0, 0; {v}, 0; 0, {v}"),
    "speeds": lambda v: BILLIARD_TEXT.replace("speeds = 1", f"speeds = {v}"),
    "speed_band": lambda v: BILLIARD_TEXT.replace("speeds = 1", f"speed_band = {v}, {v}"),
    "count": lambda v: BILLIARD_TEXT.replace("count = 2000", f"count = {v}"),
    "seed": lambda v: BILLIARD_TEXT.replace("seed = 7", f"seed = {v}"),
    "times": lambda v: LADDER_TEXT.replace("times = 0.5, 1.5", f"times = {v}"),
    **{key: (lambda v, key=key: LADDER_TEXT.replace("label = demo", f"label = demo\n{key} = {v}"))
       for key in ("tol", "n_cap", "lambdas", "grid_points")},
}


def _table_limits():
    """(section, key, side, limit, tail) for every finite limit of the
    field table; side is 0 for a lower limit, 1 for an upper one."""
    for section, fields in scenarios._FIELDS.items():
        for key, (_, _, *bounds) in fields.items():
            for *limits, tail in bounds:
                for side, limit in enumerate(limits if len(limits) == 2 else ()):
                    if math.isfinite(limit):
                        yield section, key, side, limit, tail


class TestFieldLimits:
    def test_every_limited_key_has_a_config(self):
        assert {key for _, key, *_ in _table_limits()} == set(LIMIT_CONFIGS)

    @pytest.mark.parametrize("section, key, side, limit, tail", list(_table_limits()))
    def test_limit_parses_and_one_step_past_it_exits_one(self, section, key, side, limit, tail,
                                                        tmp_path, capsys):
        config = LIMIT_CONFIGS[key]
        step = 1 if side else -1
        past = limit + step if isinstance(limit, int) else math.nextafter(limit, step * math.inf)
        path = tmp_path / "past.cfg"
        path.write_text(config(repr(past)))
        assert cli.main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"honestflow: [{section}] {key}: ")
        try:
            parse_config(config(repr(limit)))
        except ConfigError as exc:
            # only another bound of the key may refuse the limit itself
            others = [b[-1] for b in scenarios._FIELDS[section][key][2:] if b[-1] != tail]
            assert str(exc) in [f"[{section}] {key}: {other}" for other in others]


class TestConfigDocs:
    def test_every_table_key_is_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config_format = readme.split("### Config format")[1].split("\n### ")[0]
        grammar = scenarios.__doc__.split("Config grammar")[1]
        for section, fields in scenarios._FIELDS.items():
            assert f"\n    [{section}]\n" in grammar
            for key in fields:
                assert f"`{key}" in config_format or f"\n{key} =" in config_format, key
                assert f"\n    {key} =" in grammar, key


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

    def test_one_initial_density_per_ladder_parse_and_run(self, monkeypatch):
        # parse_config builds the density to validate its pieces, and the
        # run reads that one; a replace()d config builds its own, to the
        # same report bytes
        built = []
        from_pieces = PiecewiseDensity.from_pieces.__func__

        def counted(cls, geom, pieces):
            built.append(pieces)
            return from_pieces(cls, geom, pieces)

        monkeypatch.setattr(PiecewiseDensity, "from_pieces", classmethod(counted))
        cfg = parse_config(builtin_config_text("geometric-ladder-dishonest"), label="dishonest")
        result = run_scenario(cfg)
        assert len(built) == 1
        assert replace(cfg).density is None
        rebuilt = run_scenario(replace(cfg))
        assert len(built) == 2
        assert time_series_csv(rebuilt) == time_series_csv(result)
        assert summary_text(rebuilt) == summary_text(result)

    def test_replaced_pieces_run_as_parsed(self):
        # the parsed density is not carried over to a config with new pieces
        text = builtin_config_text("geometric-ladder-dishonest")
        cfg = parse_config(text, label="dishonest")
        other = parse_config(text.replace("pieces = 0, 1, 1", "pieces = 0, 0.5, 2; 0.5, 1, 1"),
                             label="dishonest")
        got, want = run_scenario(replace(cfg, pieces=other.pieces)), run_scenario(other)
        assert time_series_csv(got) == time_series_csv(want)
        assert summary_text(got) == summary_text(want)
        assert time_series_csv(got) != time_series_csv(run_scenario(cfg))

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
            w, n, d = ref.weight, ref.rebounds, ref.degenerate
            # below scale 1 the totals are math.fsum of their bins
            assert row.mass == math.fsum(hist.tolist())
            assert row.mass == pytest.approx(ref.mass(), rel=1e-12, abs=0.0)
            assert row.rebound_masses[:hist.size] == tuple(hist)
            assert row.max_rebounds == ref.rebounds.max()
            assert row.degenerate_weight == math.fsum(np.bincount(n[d], weights=w[d]).tolist())

    @pytest.mark.parametrize("text", [DISK_TEXT, POLYGON_TEXT], ids=["disk", "polygon"])
    def test_billiard_runs_hold_no_particle_state(self, monkeypatch, text):
        # a sampled table is drawn straight into its kernel's work buffers:
        # with every way to build a particle state refused, the run and the
        # honesty window give the same reports
        cfg = parse_config(text)
        want = run_scenario(cfg)
        windows = [_window_decay(cfg, w) for w in cfg.windows]

        def refuse(*args, **kwargs):
            raise AssertionError("a billiard run built a particle state")

        monkeypatch.setattr(densities, "sample_ensemble", refuse)
        monkeypatch.setattr(scenarios, "sample_ensemble", refuse)
        monkeypatch.setattr(ParticleEnsemble, "__post_init__", refuse)
        got = run_scenario(cfg)
        assert got == want
        assert time_series_csv(got) == time_series_csv(want)
        assert summary_text(got) == summary_text(want)
        assert [_window_decay(cfg, w) for w in cfg.windows] == windows
        # the patch is live: building a state still raises
        with pytest.raises(AssertionError, match="particle state"):
            densities.sample_ensemble(cfg.geometry, cfg.count, cfg.seed, cfg.region)
        with pytest.raises(AssertionError, match="particle state"):
            ParticleEnsemble(*(np.zeros((1, 2)),) * 2, *(np.zeros(1),) * 3, 0)

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

    @pytest.mark.parametrize("command", [["honesty", "--window", "0,4"],
                                         ["resolvent", "--lambda", "1"]])
    def test_signed_density_verdict_names_the_field(self, capsys, command):
        # the config holds no windows or lambdas: the flag asks for the verdict
        text = LADDER_TEXT.replace("pieces = 0, 1, 1", "pieces = 0, 1, -1")
        code = cli.main([command[0], self._config_file(text), *command[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("honestflow: [density] pieces: honesty verdicts are defined "
                                "for nonnegative densities\n")

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

    @pytest.mark.parametrize("old, new, field", [
        ("start = 0", "start = inf", "[geometry] start"),
        ("start = 0", "start = -inf", "[geometry] start"),
        ("start = 0", "start = nan", "[geometry] start"),
        ("spacing = 2", "spacing = inf", "[geometry] spacing"),
        ("length = 1", "length = nan", "[geometry] length"),
        ("ratio = 0.5", "ratio = -inf", "[geometry] ratio"),
        ("pieces = 0, 1, 1", "pieces = -inf, 1, 1", "[density] pieces"),
        ("pieces = 0, 1, 1", "pieces = 0, 1, nan", "[density] pieces"),
        ("pieces = 0, 1, 1", "pieces = 0, 1, 1e308; 0, 1, 1e308", "[density] pieces"),
        ("rule = geometric\nstart = 0\nspacing = 2\nlength = 1\nratio = 0.5",
         "rule = explicit\nintervals = 0, inf", "[geometry] intervals"),
        ("rule = geometric\nstart = 0\nspacing = 2\nlength = 1\nratio = 0.5",
         "rule = explicit\nintervals = -inf, 1", "[geometry] intervals"),
    ])
    def test_non_finite_ladder_numbers_exit_one(self, capsys, old, new, field):
        # these ended in an OverflowError traceback, blamed another field, or
        # ran on an unbounded interval
        assert old in GEOMETRIC_TEXT
        code = cli.main(["run", self._config_file(GEOMETRIC_TEXT.replace(old, new))])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"honestflow: {field}: ")
        assert not self.out_dir.exists()

    def test_short_region_exits_one(self, capsys):
        text = BILLIARD_TEXT.replace("region = domain", "region = disk:0,0")
        code = cli.main(["run", self._config_file(text)])
        assert code == 1
        assert capsys.readouterr().err.startswith("honestflow: [density] region: ")

    @pytest.mark.parametrize("region, message", [
        ("disk:0,0,2", "'disk:0,0,2' does not sit inside the table"),
        ("disk:0.5,0,0.6", "'disk:0.5,0,0.6' does not sit inside the table"),
        ("box:-1,-1,1,1", "'box:-1,-1,1,1' does not sit inside the table"),
        ("box:0.2,0,0.1,0.5", "'box:0.2,0,0.1,0.5' is empty"),
    ])
    def test_region_outside_the_table_exits_one_at_parse(self, capsys, monkeypatch, region,
                                                         message):
        # refused by the parser, before anything is sampled
        monkeypatch.setattr(densities, "_state_sampler", None)
        text = BILLIARD_TEXT.replace("region = domain", f"region = {region}")
        assert cli.main(["run", self._config_file(text)]) == 1
        assert capsys.readouterr().err == f"honestflow: [density] region: {message}\n"
        assert not self.out_dir.exists()

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


# ladder geometry numbers: mostly values that make a valid ladder, some in
# [-4, 4], and the float edges
_LADDER_EDGES = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, -1e308]


def _ladder_numbers(*nice):
    # three draws in four are valid
    return st.one_of(*[st.sampled_from(nice)] * 6, st.floats(-4.0, 4.0),
                     st.sampled_from(_LADDER_EDGES))


def _pairs_text(groups):
    return "; ".join(_number_list(g) for g in groups)


class TestLadderGeometryFuzz:
    """Every ladder geometry and piecewise density ends in a report or a
    named refusal, as in ``TestLadderRunFuzz``."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rule=st.sampled_from(scenarios._FIELDS["geometry"]["rule"][0]),
        numbers=st.fixed_dictionaries(dict(
            start=_ladder_numbers(0.0, -1.0), spacing=_ladder_numbers(2.0, 3.0),
            length=_ladder_numbers(1.0, 0.5), ratio=_ladder_numbers(0.5, 0.9))),
        intervals=st.lists(st.tuples(_ladder_numbers(0.0, 2.0), _ladder_numbers(1.0, 3.0)),
                           min_size=1, max_size=3),
        pieces=st.lists(st.tuples(_ladder_numbers(0.0, 0.5), _ladder_numbers(0.5, 1.0),
                                  _ladder_numbers(1.0, -0.5, 1e308)),
                        min_size=1, max_size=2),
    )
    @example(rule="geometric", numbers=dict(start=math.inf, spacing=3.0, length=1.0, ratio=0.5),
             intervals=[(0.0, 1.0)], pieces=[(0.0, 1.0, 1.0)])
    @example(rule="affine", numbers=dict(start=0.0, spacing=2.0, length=1.0, ratio=0.5),
             intervals=[(0.0, 1.0)], pieces=[(-math.inf, 1.0, 1.0)])
    @example(rule="explicit", numbers=dict(start=0.0, spacing=0.0, length=0.0, ratio=0.0),
             intervals=[(0.0, 0.5)], pieces=[(0.0, 0.5, -1.0)])
    def test_cli_run_exits_cleanly(self, tmp_path, monkeypatch, capsys, rule, numbers,
                                   intervals, pieces):
        monkeypatch.setenv("HONESTFLOW_OUTPUT_DIR", str(tmp_path / "reports"))
        keys = (("intervals",) if rule == "explicit" else
                ("start", "spacing", "length") + (("ratio",) if rule == "geometric" else ()))
        assert set(keys) <= set(scenarios._FIELDS["geometry"])
        values = dict(numbers, intervals=_pairs_text(intervals))
        geometry = "".join(f"{key} = {values[key]!r}\n" for key in keys).replace("'", "")
        text = (
            f"[geometry]\nkind = interval-union\nrule = {rule}\n{geometry}\n"
            "[boundary]\nkind = shift\nscale = 0.9\n\n"
            f"[density]\nkind = piecewise\npieces = {_pairs_text(pieces)}\n\n"
            "[run]\ntimes = 0.5, 2\nwindows = 0.5, 1\nlambdas = 1\ngrid_points = 4\n"
            "n_cap = 16\nlabel = fuzz\n"
        )
        path = tmp_path / "fuzz.cfg"
        path.write_text(text)
        code = cli.main(["run", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert all(line.startswith("honestflow: ") for line in err.splitlines())
        if code == 1:
            assert err.startswith(("honestflow: [geometry] ", "honestflow: [density] "))
