"""Figure 9: running time versus the number of threads, measured.

The paper measures wall-clock time from 1 to 48 OpenMP threads: Scan and the
proposed approximation algorithms scale nearly linearly (Approx-DPC reaches
16--24x at 48 threads), Ex-DPC plateaus because its dependent-point phase is
sequential, and LSH-DDP's scaling depends on the dataset because it does not
balance load.

This bench sweeps real worker counts on a 2-D Syn dataset (``--n`` points,
default 20k) and reports wall-clock phase times and speedups.  The default
``--backend process`` runs the density/dependency phases on worker processes
reading the dataset and the flattened kd-tree through shared memory (see
docs/parallel.md), which is where genuine multicore speedup shows up;
``thread`` and ``serial`` are available for comparison.

Two hardware-independent checks gate every run, so the bench is meaningful on
a 1-CPU machine too:

* labels must be bit-for-bit identical across worker counts (the backend
  contract);
* for every fit that ran on the dual engine, the work counters (``work_``)
  must be identical across worker counts, because the dual engine's
  decomposition is a function of the data alone.  The batch engine's chunk
  boundaries follow the worker count, so its counters legitimately differ
  and ``--engine batch`` skips this check.

Run ``python benchmarks/bench_fig9_threads.py``; ``--engine`` selects the
query engine of the proposed algorithms (default: the library default, see
docs/performance.md), ``--workers`` the worker counts and ``--json PATH``
dumps the series for the perf trajectory.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.bench import ENGINE_AWARE_ALGORITHMS, print_series, run_performance_suite
from repro.bench.workloads import BenchWorkload
from repro.core.framework import ENGINE_CHOICES, effective_engine, resolve_engine
from repro.data.synthetic import generate_syn


def _measured_sweep(
    backend: str,
    n_points: int,
    workers: list[int],
    algorithms: list[str],
    engine: str,
    seed: int = 0,
) -> dict:
    """Measured wall-clock scaling sweep on a 2-D Syn dataset.

    Fits every algorithm once per worker count on the selected backend and
    records the density / dependency / total phase times and the work
    counters.  Raises if labels differ between worker counts, or if the work
    counters of a dual-engine fit do.
    """
    points, true_labels = generate_syn(n_points=n_points, n_peaks=13, seed=seed)
    workload = BenchWorkload(
        name=f"syn-{n_points}",
        points=points,
        d_cut=2_000.0,
        n_clusters=13,
        rho_min=5.0,
        true_labels=true_labels,
    )
    phases = ("local_density", "dependency", "total")
    series: dict[str, dict[str, list[float]]] = {
        name: {phase: [] for phase in phases} for name in algorithms
    }
    work: dict[str, list[dict[str, float]]] = {name: [] for name in algorithms}
    reference_labels: dict[str, np.ndarray] = {}
    dual_fits = (
        {name for name in algorithms if name in ENGINE_AWARE_ALGORITHMS}
        if effective_engine(engine, points.shape[1]) == "dual"
        else set()
    )
    for n_jobs in workers:
        results = run_performance_suite(
            workload, algorithms, engine=engine, backend=backend, n_jobs=n_jobs
        )
        for name, result in results.items():
            for phase in phases:
                series[name][phase].append(result.timings_[phase])
            work[name].append(dict(result.work_))
            if name not in reference_labels:
                reference_labels[name] = result.labels_
            elif not np.array_equal(reference_labels[name], result.labels_):
                raise AssertionError(
                    f"{name}: labels changed between worker counts on the "
                    f"{backend} backend"
                )
            if name in dual_fits and work[name][-1] != work[name][0]:
                raise AssertionError(
                    f"{name}: dual-engine work counters changed between worker "
                    f"counts on the {backend} backend: {work[name][0]} at "
                    f"n_jobs={workers[0]}, {work[name][-1]} at n_jobs={n_jobs}"
                )
    speedups = {
        name: [per_phase["total"][0] / t for t in per_phase["total"]]
        for name, per_phase in series.items()
    }
    density_speedups = {
        name: [per_phase["local_density"][0] / t for t in per_phase["local_density"]]
        for name, per_phase in series.items()
    }
    return {
        "mode": "measured",
        "backend": backend,
        "engine": engine,
        "n_points": n_points,
        "workers": workers,
        "times_s": series,
        "work": work,
        "work_checked": sorted(dual_fits),
        "speedups_total": speedups,
        "speedups_density": density_speedups,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Figure 9: time vs threads")
    parser.add_argument(
        "--engine",
        choices=list(ENGINE_CHOICES),
        default=None,
        help="query engine for Ex-DPC / Approx-DPC / S-Approx-DPC "
        "(default: the library default, REPRO_DEFAULT_ENGINE or 'auto')",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="process",
        help="execution backend of the worker sweep",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=20_000,
        help="dataset cardinality (2-D Syn)",
    )
    parser.add_argument(
        "--workers",
        type=str,
        default="1,2,4",
        help="comma-separated worker counts",
    )
    parser.add_argument(
        "--algorithms",
        type=str,
        default="Ex-DPC,Approx-DPC,S-Approx-DPC",
        help="comma-separated algorithms",
    )
    parser.add_argument("--json", type=str, default=None, help="dump series to this path")
    args = parser.parse_args()

    engine = resolve_engine(args.engine)
    if args.backend == "process" and engine == "scalar":
        parser.error(
            "--backend process does not support the scalar engine: it has no "
            "process kernels and would silently degrade to threads, "
            "mislabelling the measured curves"
        )
    workers = [int(w) for w in args.workers.split(",") if w.strip()]
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    payload = _measured_sweep(args.backend, args.n, workers, algorithms, engine)
    print_series(
        f"Figure 9 (backend={args.backend}, engine={engine}, n={args.n}):"
        " wall-clock total time [s] vs workers",
        "workers",
        workers,
        {name: payload["times_s"][name]["total"] for name in algorithms},
    )
    print_series(
        f"Figure 9 (backend={args.backend}): total speedup vs workers",
        "workers",
        workers,
        payload["speedups_total"],
    )
    print_series(
        f"Figure 9 (backend={args.backend}): density-phase speedup vs workers",
        "workers",
        workers,
        payload["speedups_density"],
    )
    checked = payload["work_checked"]
    print(
        "Checks passed: labels identical across worker counts; work counters"
        " identical for "
        + (", ".join(checked) if checked else "no fit (none ran on the dual engine)")
        + "."
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"JSON written to {args.json}")


if __name__ == "__main__":
    main()
