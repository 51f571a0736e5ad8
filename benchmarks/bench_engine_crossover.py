"""Fit-engine crossover: batch versus dual fits across dimensions.

``engine="auto"`` fits on the dual engine up to
:data:`repro.core.framework.AUTO_DUAL_MAX_DIM` dimensions and on batch above
it, for every engine-aware estimator.  This bench measures where that line
belongs.  It fits Ex-DPC, Approx-DPC and S-Approx-DPC with both engines,
serially, on two data shapes at every requested ``d``:

* ``blobs`` -- 12 Gaussian blobs of 3,000 points each, centers uniform in
  ``[0, 100]^d``, standard deviation 2, ``d_cut=6``;
* ``household`` -- the 4-D household stand-in (20,000 points,
  ``d_cut=3000``), cut to its first ``d`` columns or padded with Gaussian
  noise columns (standard deviation 500).

Each fit runs ``--repeats`` times and reports its best total and
dependency-phase (δ) seconds.  Labels and densities must be bit-identical
between the engines, or the bench raises.  This is the one engine x
dimension sweep of the repo; it backs the "When dual wins" table in
``docs/performance.md``.  Run::

    PYTHONPATH=src python benchmarks/bench_engine_crossover.py --dims 2,4,6,8,10,12
    PYTHONPATH=src python benchmarks/bench_engine_crossover.py --algorithms approx-dpc
"""

from __future__ import annotations

import argparse
import platform
import subprocess

import numpy as np

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.data import generate_real_like
from repro.kernels import effective_kernel


def blobs(dim: int, seed: int = 0) -> tuple[np.ndarray, float]:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 100.0, size=(12, dim))
    members = np.repeat(np.arange(12), 3_000)
    return centers[members] + rng.normal(0.0, 2.0, size=(members.size, dim)), 6.0


def household(dim: int, seed: int = 0) -> tuple[np.ndarray, float]:
    points = generate_real_like("household", n_points=20_000, seed=seed)[0]
    if dim <= points.shape[1]:
        return np.ascontiguousarray(points[:, :dim]), 3_000.0
    noise = np.random.default_rng(seed).normal(0.0, 500.0, size=(points.shape[0], dim - points.shape[1]))
    return np.hstack([points, noise]), 3_000.0


SHAPES = {"blobs": blobs, "household": household}
ALGORITHMS = {"ex-dpc": ExDPC, "approx-dpc": ApproxDPC, "s-approx-dpc": SApproxDPC}


def best_fit(estimator, points: np.ndarray, d_cut: float, engine: str, repeats: int):
    best = None
    for _ in range(repeats):
        result = estimator(d_cut=d_cut, n_clusters=12, engine=engine, n_jobs=1, backend="serial").fit(points)
        if best is None or result.timings_["total"] < best.timings_["total"]:
            best = result
    return best


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="2,4,6,8,10,12")
    parser.add_argument("--shapes", default="blobs,household")
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS))
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = "unknown"
    print(f"# rev {rev}, python {platform.python_version()}, numpy {np.__version__}, "
          f"kernel {effective_kernel(None)}, serial, best of {args.repeats}")
    print("| algorithm | shape | d | batch total (δ) | dual total (δ) | dual speed-up |")
    print("|---|---|---|---|---|---|")
    for algorithm in args.algorithms.split(","):
        for shape in args.shapes.split(","):
            for dim in (int(d) for d in args.dims.split(",")):
                points, d_cut = SHAPES[shape](dim)
                batch = best_fit(ALGORITHMS[algorithm], points, d_cut, "batch", args.repeats)
                dual = best_fit(ALGORITHMS[algorithm], points, d_cut, "dual", args.repeats)
                for name in ("rho_", "labels_"):
                    if not np.array_equal(getattr(batch, name), getattr(dual, name)):
                        raise AssertionError(f"{algorithm} {shape} d={dim}: engines disagree on {name}")
                tb, td = batch.timings_, dual.timings_
                print(f"| {algorithm} | {shape} | {dim} | {tb['total']:.2f} s ({tb['dependency']:.2f} s) | "
                      f"{td['total']:.2f} s ({td['dependency']:.2f} s) | {tb['total'] / td['total']:.1f}x |",
                      flush=True)


if __name__ == "__main__":
    main()
