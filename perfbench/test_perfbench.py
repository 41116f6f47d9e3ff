"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from measure import run_once  # noqa: E402
from workloads import MC_SIGMAS, WORKLOADS, dishonest_exact_mass  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def results():
    """One real scenario result per workload that the oracle tests perturb."""
    from honestflow import expansion, scenarios
    from honestflow.densities import PiecewiseDensity

    out = {}
    for name in ("ladder-dishonest", "ladder-kernel", "billiard-polygon"):
        cfg = scenarios.parse_config(WORKLOADS[name].config(SEED))
        estimates = []
        if WORKLOADS[name].mc_particles:
            f = PiecewiseDensity.from_pieces(cfg.geometry, cfg.pieces)
            estimates = [(t, expansion.mc_mass_estimate(f, t, 1.0, cfg.geometry,
                                                        n_particles=20_000, seed=SEED))
                         for t in cfg.times]
        out[name] = (scenarios.run_scenario(cfg), estimates)
    return out


def _failed(name, result, estimates=()):
    return [c.what for c in WORKLOADS[name].check(result, SEED, list(estimates)) if not c.ok]


def _replace_row(result, i, **changes):
    rows = list(result.rows)
    rows[i] = dataclasses.replace(rows[i], **changes)
    return dataclasses.replace(result, rows=tuple(rows))


def _replace_verdict(result, field, i, verdict):
    reports = list(getattr(result, field))
    reports[i] = dataclasses.replace(reports[i], verdict=verdict)
    return dataclasses.replace(result, **{field: tuple(reports)})


# -- tracing ------------------------------------------------------------------------


def test_traced_run_restores_every_patched_name():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracing.patch_table()]
    rep = run_once(WORKLOADS["ladder-dishonest"], WORKLOADS["ladder-dishonest"].config(SEED),
                   SEED, tracing.Tracer())
    assert rep.layers["expansion.trace_calls"] > 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left patched"


def test_names_are_restored_when_the_traced_block_raises():
    from honestflow import scenarios

    original = vars(scenarios)["run_scenario"]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert scenarios.run_scenario is not original
            raise RuntimeError("boom")
    assert scenarios.run_scenario is original


@pytest.mark.parametrize("name", ["ladder-dishonest", "billiard-polygon"])
def test_report_bytes_identical_with_tracing_on_and_off(name):
    text = WORKLOADS[name].config(SEED)
    plain = run_once(WORKLOADS[name], text, SEED)
    traced = run_once(WORKLOADS[name], text, SEED, tracing.Tracer())
    assert plain.digest == traced.digest


def test_counts_repeat_exactly_across_traced_runs():
    w = WORKLOADS["ladder-dishonest"]
    first = run_once(w, w.config(SEED), SEED, tracing.Tracer()).layers
    second = run_once(w, w.config(SEED), SEED, tracing.Tracer()).layers
    for key in tracing.COUNT_METRICS:
        assert first[key] == second[key], key
    assert first["honesty.subwindows"] == 2 * (16 * 15 // 2)


def test_worker_thread_spans_hang_under_the_open_scenario_span():
    tracer = tracing.Tracer()
    w = WORKLOADS["ladder-dishonest"]
    run_once(w, w.config(SEED), SEED, tracer)
    root_ids = {s[0] for s in tracer.spans if s[1] == tracing.ROOT}
    windows = [s for s in tracer.spans if s[1] == "honesty.window"]
    assert len(root_ids) == 1 and len(windows) == 2
    assert all(s[4] in root_ids for s in windows)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "a", 0.0, 10.0, None),
        (1, "b", 1.0, 4.0, 0),  # b and c overlap, as worker threads can
        (2, "c", 3.0, 6.0, 0),
        (3, "d", 2.0, 3.0, 1),
    ]
    got = tracing.self_times(spans)
    assert got["a"] == pytest.approx(5.0)
    assert got["b"] == pytest.approx(2.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["d"] == pytest.approx(1.0)


def test_span_stacks_are_per_thread():
    tracer = tracing.Tracer()
    root = tracer.open(tracing.ROOT)
    seen = {}

    def worker():
        token = tracer.open("w")
        seen["parent"] = token[1]
        tracer.close("w", token)

    inner = tracer.open("main-child")
    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close("main-child", inner)
    tracer.close(tracing.ROOT, root)
    assert seen["parent"] == root[0]


# -- oracles ------------------------------------------------------------------------


def test_oracles_pass_on_unperturbed_output(results):
    assert _failed("ladder-dishonest", *results["ladder-dishonest"]) == []
    assert _failed("billiard-polygon", *results["billiard-polygon"]) == []


def test_kernel_oracle_counts_a_dishonest_window_as_failed(results):
    """Every ladder-kernel verdict must be honest; a dishonest window (what
    the plateau guard in honesty._settle_traces yields at this commit) is a
    failed operation, never an expected one."""
    result, _ = results["ladder-kernel"]
    honest = _replace_verdict(result, "window_reports", 0, "honest")
    assert _failed("ladder-kernel", honest) == []
    dishonest = _replace_verdict(result, "window_reports", 0, "dishonest")
    assert _failed("ladder-kernel", dishonest) == ["window (0.0, 100.0)"]


def test_dishonest_oracle_rejects_perturbed_output(results):
    result, est = results["ladder-dishonest"]
    row = result.rows[2]
    assert _failed("ladder-dishonest", _replace_row(result, 2, mass=row.mass + 1e-9), est) == [
        f"row t={row.t:g}"]
    assert _failed("ladder-dishonest", _replace_verdict(result, "window_reports", 0, "dishonest"),
                   est) == ["window (0.5, 1.0)"]
    assert _failed("ladder-dishonest", _replace_verdict(result, "window_reports", 1, "honest"),
                   est) == ["window (1.0, 2.0)"]
    assert _failed("ladder-dishonest", _replace_verdict(result, "resolvent_reports", 0, "honest"),
                   est) == ["resolvent lambda=1"]
    t, (_, stderr) = est[2]
    exact = dishonest_exact_mass(result.config.pieces, t)
    moved = list(est)
    moved[2] = (t, (exact + (MC_SIGMAS - 0.5) * stderr, stderr))
    assert _failed("ladder-dishonest", result, moved) == []
    moved[2] = (t, (exact + (MC_SIGMAS + 0.5) * stderr, stderr))
    assert _failed("ladder-dishonest", result, moved) == [f"monte-carlo t={t:g}"]


def test_kernel_oracle_rejects_perturbed_output(results):
    result, _ = results["ladder-kernel"]
    result = _replace_verdict(result, "window_reports", 0, "honest")
    row = result.rows[1]
    assert _failed("ladder-kernel", _replace_row(result, 1, mass=row.mass + 1e-9)) == [
        f"row t={row.t:g}"]
    assert _failed("ladder-kernel", _replace_verdict(result, "resolvent_reports", 0,
                                                     "dishonest")) == ["resolvent lambda=1"]


def test_billiard_oracle_rejects_perturbed_output(results):
    result, _ = results["billiard-polygon"]
    row = result.rows[3]
    assert _failed("billiard-polygon", _replace_row(result, 3, mass=row.mass - 1e-9)) == [
        f"row t={row.t:g}"]
    assert _failed("billiard-polygon", _replace_verdict(result, "window_reports", 0,
                                                        "inconclusive")) == ["window 0,10"]
    decay = dataclasses.replace(result.decay_report, verdict="inconclusive")
    assert _failed("billiard-polygon", dataclasses.replace(result, decay_report=decay)) == [
        "trace decay"]


def test_configs_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        assert w.config(3) == w.config(3)
        assert w.config(3) != w.config(4)


# -- BENCHMARK.json and the runner -------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"] and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and w["name"] in WORKLOADS
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["name"] in tracing.LAYER_UNITS
        assert m["unit"] == tracing.LAYER_UNITS[m["name"]]
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    # a full measurement (4 + 22 runs per workload, each run_seconds plus
    # set-up) fits in 3420 s
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 5) < 3420


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-dishonest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
