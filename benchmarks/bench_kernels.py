"""Timing of the hot kernels.

Run as:  python3 benchmarks/bench_kernels.py [N]

Covers billiard ensemble transport on the disk (specular), which has a
single closed-form numpy kernel, and the 1D survival walk used by the Monte
Carlo mass oracle, timed on both its compiled and pure-numpy paths.  The
compiled path is warmed up first so compile time is excluded.
"""

import sys
import time

from honestflow import IntervalUnion, Billiard, VelocitySpec, sample_ensemble, transport_ensemble
from honestflow.expansion import mc_mass_estimate
from honestflow.densities import PiecewiseDensity
from honestflow._kernels import HAS_NUMBA


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_disk(n):
    disk = Billiard("disk", center=(0.0, 0.0), radius=1.0, velocities=VelocitySpec("speeds", speeds=(1.0,)))
    ens = sample_ensemble(disk, n, seed=42)
    return {"closed": timed(lambda: transport_ensemble(ens, 20.0, disk))}


def bench_ladder(n):
    geo = IntervalUnion("geometric", start=0.0, spacing=3.0, length=1.0, ratio=0.5)
    f = PiecewiseDensity.from_pieces(geo, [(0.0, 1.0, 1.0)])
    results = {}
    if HAS_NUMBA:
        mc_mass_estimate(f, 1.5, 0.5, geo, n_particles=1000, seed=0, use_numba=True)  # warm-up
        results["numba"] = timed(lambda: mc_mass_estimate(f, 1.5, 0.5, geo, n_particles=n, seed=0, use_numba=True))
    results["numpy"] = timed(lambda: mc_mass_estimate(f, 1.5, 0.5, geo, n_particles=n, seed=0, use_numba=False))
    return results


def report(name, results):
    print(f"{name}:")
    for path, secs in results.items():
        print(f"  {path:6s} {secs * 1e3:10.2f} ms")
    if "numba" in results and "numpy" in results:
        print(f"  speedup {results['numpy'] / results['numba']:8.1f}x")


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    print(f"particles: {n}")
    if not HAS_NUMBA:
        print("numba unavailable or disabled; timing the ladder numpy path only")
    report(f"disk transport (t=20, N={n})", bench_disk(n))
    report(f"ladder survival walk (t=1.5, r=0.5, N={n})", bench_ladder(n))


if __name__ == "__main__":
    main()
