"""honestflow benchmark: times the public library path from outside.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is a workload of ``perfbench/workloads.py``; ``all`` runs each of them
in turn.  The program is the package under ``src/``, imported from source.
For every workload the benchmark

- makes the scenario config from ``--seed`` (the program sees only that);
- with ``--trace 0``, times ``import honestflow`` plus ``resolve_config`` in
  fresh interpreters (``setup_s``, median of several), then starts one
  process that runs only this workload for ``--seconds`` seconds and reports
  the median ``run_s``, its ``peak_rss_mb`` and, where the workload has the
  Monte Carlo oracle, the median ``oracle_s``;
- with ``--trace 1``, runs the same process with every second repetition
  traced, and reports the per-layer metrics of the traced repetitions and
  the tracing overhead;
- checks every repetition's output against the workload's oracle.

Human-readable lines come first; the line before last is a JSON record with
every metric, the check failures and the environment; the last line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``)
entries of ``BENCHMARK.json``.  With ``--workload all`` the last line maps
each workload to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_s": "s",
    "ops_failed_frac": "1",
    "trace_overhead": "1",
    **LAYER_UNITS,
}
SETUP_SAMPLES = 7
# one workload, with every process it starts, ends within this many seconds
DEADLINE_S = 170.0

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import honestflow
honestflow.resolve_config(sys.argv[1])
elapsed = time.perf_counter() - t0
print(honestflow.__file__)
print(repr(elapsed))
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, timeout: float) -> str:
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"a child process ran past its {timeout:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"child process failed:\n{proc.stderr.strip()}")
    return proc.stdout


def setup_times(config_path: Path, deadline: float) -> list[float]:
    """``import honestflow`` plus ``resolve_config`` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = _run([sys.executable, "-c", SETUP_CODE, str(config_path)],
                   timeout=max(1.0, deadline - time.monotonic()))
        module_file, elapsed = out.split("\n")[:2]
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"honestflow was imported from {module_file}, not from {SRC}")
        samples.append(float(elapsed))
    return samples


def measure(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    out = _run([sys.executable, str(HERE / "measure.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
               timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.strip().splitlines()[-1])


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict,
                 workdir: Path) -> tuple[dict, dict]:
    """(record, result) for one workload; prints its human-readable lines."""
    deadline = time.monotonic() + DEADLINE_S
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    metrics = {}
    if not trace:
        config_path = workdir / f"{name}.cfg"
        config_path.write_text(WORKLOADS[name].config(seed))
        setup = setup_times(config_path, deadline)
        record["setup_s"] = setup
        metrics["setup_s"] = median(setup)
    m = measure(name, seed, seconds, trace, deadline)
    record.update(m)
    metrics["run_s"] = median(m["run_s"])
    metrics["peak_rss_mb"] = m["peak_rss_mb"]
    if m["oracle_s"]:
        metrics["oracle_s"] = median(m["oracle_s"])
    if trace:
        metrics.update(m["layers"])
        metrics["trace_overhead"] = m["trace_overhead"]
    failed_frac = m["failed"] / m["attempted"]
    record["metrics"] = {**metrics, "ops_failed_frac": failed_frac}

    env = m["env"]
    print(f"== {name}  seed={seed}  {m['repetitions']} timed repetitions"
          f"{'  + ' + str(m['traced_repetitions']) + ' traced' if trace else ''}")
    print(f"   env: python {env['python']}  numpy {env['numpy']}  numba importable "
          f"{env['numba_importable']}  USE_NUMBA {env['use_numba']}  nproc {env['nproc']}")
    samples = {"setup_s": record.get("setup_s", []), "run_s": m["run_s"], "oracle_s": m["oracle_s"]}
    for key, value in metrics.items():
        extra = f"  (median, {_spread(samples[key])})" if samples.get(key) else ""
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"   {key:34s} {shown} {UNITS[key]}{extra}")
    print(f"   checks: {m['attempted'] - m['failed']} of {m['attempted']} passed"
          f"  (ops_failed_frac {failed_frac:.6g})")
    for failure in m["failures"]:
        print(f"   FAILED {failure}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted},
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="honestflow benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be nonnegative and --seconds at least 1")

    try:
        if not (SRC / "honestflow" / "__init__.py").is_file():
            raise BenchmarkError(f"no honestflow sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        records, results = {}, {}
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            for name in names:
                records[name], results[name] = run_workload(
                    name, args.seed, args.seconds, bool(args.trace), spec, Path(workdir))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(records))
        print(json.dumps(results))
    else:
        print(json.dumps(records[args.workload]))
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
