"""Measuring process: runs one workload's scenario repeatedly and checks it.

Run as:  python3 perfbench/measure.py --workload NAME --seed N --seconds S
             --trace 0|1

with ``src`` on ``PYTHONPATH``.  ``run.py`` starts it, so the process runs
only this workload and its peak RSS is the workload's.  One repetition is
``parse_config``, ``run_scenario`` and rendering both report texts (timed
as ``run_s``), then the Monte Carlo oracle if the workload has one (timed as
``oracle_s``), then the checks.  Repetitions go on until the next one would
end after ``--seconds``.  With ``--trace 1`` every second repetition is
traced, and the traced ones give the per-layer metrics.  The last stdout
line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402


@dataclass
class Repetition:
    run_s: float
    oracle_s: float | None
    checks: list
    digest: str
    layers: dict | None


def run_once(workload, text: str, seed: int, tracer: Tracer | None = None) -> Repetition:
    """One timed scenario, its oracle and its checks; traced if ``tracer``."""
    from honestflow import expansion, scenarios
    from honestflow.densities import PiecewiseDensity

    if tracer is not None:
        tracer.reset()
    with traced(tracer) if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        cfg = scenarios.parse_config(text)
        result = scenarios.run_scenario(cfg)
        report = scenarios.time_series_csv(result) + scenarios.summary_text(result)
        run_s = time.perf_counter() - t0
        estimates, oracle_s = [], None
        if workload.mc_particles:
            t1 = time.perf_counter()
            f = PiecewiseDensity.from_pieces(cfg.geometry, cfg.pieces)
            for t in cfg.times:
                est = expansion.mc_mass_estimate(
                    f, t, cfg.boundary.scale, cfg.geometry,
                    n_particles=workload.mc_particles, seed=seed,
                )
                estimates.append((t, est))
            oracle_s = time.perf_counter() - t1
    layers = layer_metrics(tracer.spans, tracer.counts) if tracer is not None else None
    return Repetition(
        run_s, oracle_s, workload.check(result, seed, estimates),
        hashlib.sha256(report.encode()).hexdigest(), layers,
    )


def environment() -> dict:
    import importlib.util

    import numpy

    from honestflow import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    text = workload.config(seed)
    tracer = Tracer() if trace else None
    reps: list[Repetition] = []
    traced_reps: list[Repetition] = []
    start = time.perf_counter()
    while True:
        use_tracer = tracer if trace and len(reps) > len(traced_reps) else None
        rep = run_once(workload, text, seed, use_tracer)
        (traced_reps if use_tracer else reps).append(rep)
        done = len(reps) + len(traced_reps)
        elapsed = time.perf_counter() - start
        if (reps and (traced_reps or not trace)
                and elapsed + elapsed / done > seconds):
            break
    everything = reps + traced_reps
    checks = [c for rep in everything for c in rep.checks]
    # the README promises byte-identical reports for one config and seed,
    # traced or not
    for rep in everything[1:]:
        checks.append(_same_bytes(rep, everything[0]))
    out = {
        "workload": name,
        "seed": seed,
        "repetitions": len(reps),
        "run_s": [rep.run_s for rep in reps],
        "oracle_s": [rep.oracle_s for rep in reps if rep.oracle_s is not None],
        "attempted": len(checks),
        "failed": sum(not c.ok for c in checks),
        "failures": sorted({f"{c.what}: {c.detail}" for c in checks if not c.ok}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if trace:
        traced_run_s = [rep.run_s for rep in traced_reps]
        out["traced_repetitions"] = len(traced_reps)
        out["traced_run_s"] = traced_run_s
        out["trace_overhead"] = median(traced_run_s) / median(out["run_s"]) - 1.0
        keys = traced_reps[0].layers
        out["layers"] = {k: median(rep.layers[k] for rep in traced_reps) for k in keys}
    return out


def _same_bytes(rep: Repetition, first: Repetition) -> Check:
    return Check("report bytes repeat", rep.digest == first.digest,
                 f"sha256 {rep.digest[:12]} first {first.digest[:12]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
