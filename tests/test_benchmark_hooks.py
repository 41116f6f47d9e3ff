"""The benchmark's layer tracer (``perfbench/tracing.py``) wraps library names
where their callers look them up.  Entering ``traced`` reads every one of
them, so a library rename that would break a traced benchmark run fails
here, in the library's own suite.  The benchmark's ``setup_s`` times
``import honestflow``; what that import must not load is guarded here too."""

import os
import subprocess
import sys
from pathlib import Path

import honestflow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_import_loads_no_thread_pool():
    # every threaded kernel (the polygon sweep and a sampled disk's
    # tallies) starts plain threads through one block runner;
    # concurrent.futures would add about 7 ms to every import.
    # sample_ensemble draws on the calling thread
    src = str(Path(honestflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, honestflow; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_dishonest_ladder_builds_few_validated_step_functions(monkeypatch):
    # the exact lane transforms and integrates histories on their arrays:
    # one run of this builtin used to validate 1 703 StepFunction
    # constructions and now validates none: it reads the initial density
    # its parse validated
    from honestflow import scenarios
    from honestflow.steps import StepFunction

    calls = []
    init = StepFunction.__init__

    def counted(self, xs, vals):
        calls.append(1)
        init(self, xs, vals)

    cfg = scenarios.resolve_config("geometric-ladder-dishonest")
    monkeypatch.setattr(StepFunction, "__init__", counted)
    scenarios.run_scenario(cfg)
    assert len(calls) == 0


def test_tracer_finds_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    table = tracing.patch_table()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in table]
    with tracing.traced(tracing.Tracer()):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left patched"


DISK_TEXT = """\
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
count = 200
seed = 3
region = domain

[run]
times = 0.5, 4
label = traced-disk
"""


def test_traced_disk_run_counts_its_rebounds(monkeypatch):
    # the tracer reads billiard_transport's positional rebound and flag
    # arrays; disk reports read rebound counts without calling it, so the
    # full-state transports drive it here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from honestflow import scenarios

    cfg = scenarios.parse_config(DISK_TEXT)
    ens = scenarios.initial_density(cfg)
    with tracing.traced(tracing.Tracer()) as tracer:
        for t in cfg.times:
            scenarios.transport_ensemble(ens, t, cfg.geometry, scale=cfg.boundary.scale)
    assert tracer.counts["kernels.rebound_events"] > 0
    assert sum(name == "kernels.transport" for _, name, *_ in tracer.spans) == 2


def test_traced_monte_carlo_records_its_survival_walks(monkeypatch):
    # the walk runs one slice at a time through _kernels.ladder_survival,
    # looked up on the module, so the tracer times every slice
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from honestflow import expansion, scenarios

    cfg = scenarios.resolve_config("geometric-ladder-dishonest")
    f = scenarios.initial_density(cfg)
    monkeypatch.setattr(expansion, "MC_SLICE", 64)
    with tracing.traced(tracing.Tracer()) as tracer:
        expansion.mc_mass_estimate(f, 1.5, 0.5, cfg.geometry, n_particles=200, seed=3)
    names = [name for _, name, *_ in tracer.spans]
    assert names.count("expansion.mc") == 1
    assert names.count("kernels.survival") == 4
