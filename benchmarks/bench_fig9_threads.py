"""Figure 9: running time versus the number of threads.

The paper measures wall-clock time from 1 to 48 OpenMP threads: Scan and the
proposed approximation algorithms scale nearly linearly (Approx-DPC reaches
16--24x at 48 threads), Ex-DPC plateaus because its dependent-point phase is
sequential, and LSH-DDP's scaling depends on the dataset because it does not
balance load.

CPython's GIL makes genuine thread scaling impossible for pure-Python code, so
this bench regenerates the figure with the *simulated multicore model*: every
run records per-task costs and each phase's scheduling policy (dynamic /
cost-based greedy / sequential / unbalanced hash), and the simulator computes
the makespan a t-thread machine would achieve.  An efficiency factor models
the memory-bandwidth saturation that keeps the paper's measured 48-thread
speedups below ideal.

Since the process-backend refactor the figure has a second, *measured* mode:
pass ``--backend {serial,thread,process}`` to sweep real worker counts on a
2-D Syn dataset (``--n`` points, default 20k) and report wall-clock phase
times and speedups instead of the simulated model.  ``--backend process``
runs the density/dependency phases on worker processes reading the dataset
and the flattened kd-tree through shared memory (see docs/parallel.md), which
is where genuine multicore speedup shows up; labels are checked to be
bit-for-bit identical across every worker count.

Run the full simulated figure with ``python benchmarks/bench_fig9_threads.py``;
pass ``--engine {scalar,batch,both}`` to select the query engine(s) of the
proposed algorithms (see docs/performance.md) and ``--json PATH`` to dump the
series for the perf trajectory.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro.bench import (
    ENGINE_AWARE_ALGORITHMS,
    load_workload,
    print_series,
    real_workload_names,
    run_performance_suite,
)
from repro.bench.workloads import BenchWorkload
from repro.data.synthetic import generate_syn

THREAD_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32, 48)
ALGORITHMS = ["Scan", "LSH-DDP", "CFSFDP-A", "Ex-DPC", "Approx-DPC", "S-Approx-DPC"]

#: Parallel efficiency used for the simulation; < 1 models the shared-memory
#: bandwidth and hyper-threading effects of the paper's dual-socket machine.
EFFICIENCY = 0.55


def _sweep(
    dataset: str,
    algorithms=ALGORITHMS,
    thread_counts=THREAD_COUNTS,
    engine: str | None = None,
):
    workload = load_workload(dataset)
    results = run_performance_suite(workload, algorithms, engine=engine)
    times = {
        name: [
            result.parallel_profile_.simulated_time(threads, efficiency=EFFICIENCY)
            for threads in thread_counts
        ]
        for name, result in results.items()
    }
    speedups = {
        name: [
            result.parallel_profile_.speedup(threads, efficiency=EFFICIENCY)
            for threads in thread_counts
        ]
        for name, result in results.items()
    }
    return times, speedups


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
    records the density / dependency / total phase times.  Labels must be
    bit-for-bit identical across worker counts (the backend contract); the
    sweep raises if they are not.
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
    reference_labels: dict[str, np.ndarray] = {}
    for n_jobs in workers:
        results = run_performance_suite(
            workload, algorithms, engine=engine, backend=backend, n_jobs=n_jobs
        )
        for name, result in results.items():
            for phase in phases:
                series[name][phase].append(result.timings_[phase])
            if name not in reference_labels:
                reference_labels[name] = result.labels_
            elif not np.array_equal(reference_labels[name], result.labels_):
                raise AssertionError(
                    f"{name}: labels changed between worker counts on the "
                    f"{backend} backend"
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
        "speedups_total": speedups,
        "speedups_density": density_speedups,
    }


def test_thread_scaling_shapes(benchmark, airline_workload):
    """Benchmark the profile collection and check the Figure 9 shapes."""
    results = benchmark.pedantic(
        run_performance_suite,
        args=(airline_workload, ["Ex-DPC", "Approx-DPC", "LSH-DDP"]),
        rounds=1,
        iterations=1,
    )
    approx_speedup = results["Approx-DPC"].parallel_profile_.speedup(48, EFFICIENCY)
    ex_speedup = results["Ex-DPC"].parallel_profile_.speedup(48, EFFICIENCY)
    lsh_speedup = results["LSH-DDP"].parallel_profile_.speedup(48, EFFICIENCY)
    assert approx_speedup > ex_speedup
    assert approx_speedup >= lsh_speedup


def main() -> None:
    parser = argparse.ArgumentParser(description="Figure 9: time vs threads")
    parser.add_argument(
        "--engine",
        choices=["scalar", "batch", "dual", "both", "all"],
        default="both",
        help="query engine for Ex-DPC / Approx-DPC / S-Approx-DPC "
        "('both' = scalar+batch, 'all' adds the dual-tree engine)",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default=None,
        help="run a *measured* wall-clock worker sweep on this backend "
        "instead of the simulated model",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=20_000,
        help="dataset cardinality of the measured sweep (2-D Syn)",
    )
    parser.add_argument(
        "--workers",
        type=str,
        default="1,2,4",
        help="comma-separated worker counts of the measured sweep",
    )
    parser.add_argument(
        "--algorithms",
        type=str,
        default="Ex-DPC,Approx-DPC,S-Approx-DPC",
        help="comma-separated algorithms of the measured sweep",
    )
    parser.add_argument("--json", type=str, default=None, help="dump series to this path")
    args = parser.parse_args()

    if args.backend is not None:
        engine = "batch" if args.engine in ("both", "all") else args.engine
        if args.backend == "process" and engine == "scalar":
            parser.error(
                "--backend process requires the batch engine: the scalar "
                "engine has no process kernels and would silently degrade to "
                "threads, mislabelling the measured curves"
            )
        workers = [int(w) for w in args.workers.split(",") if w.strip()]
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        payload = _measured_sweep(args.backend, args.n, workers, algorithms, engine)
        print_series(
            f"Figure 9 (measured, backend={args.backend}, engine={engine},"
            f" n={args.n}): wall-clock total time [s] vs workers",
            "workers",
            workers,
            {name: payload["times_s"][name]["total"] for name in algorithms},
        )
        print_series(
            f"Figure 9 (measured, backend={args.backend}): total speedup vs workers",
            "workers",
            workers,
            payload["speedups_total"],
        )
        print_series(
            f"Figure 9 (measured, backend={args.backend}):"
            " density-phase speedup vs workers",
            "workers",
            workers,
            payload["speedups_density"],
        )
        print(
            "Measured mode: the process backend runs the density and"
            " dependency phases on worker processes over shared memory, so"
            " these curves are genuine multicore wall-clock speedups (the"
            " thread backend is GIL-bound outside the numpy kernels; Ex-DPC's"
            " sequential dependency phase caps its total speedup either way)."
        )
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"JSON written to {args.json}")
        return

    if args.engine == "both":
        engines = ["scalar", "batch"]
    elif args.engine == "all":
        engines = ["scalar", "batch", "dual"]
    else:
        engines = [args.engine]

    # The baselines ignore the engine switch, so fit them once per dataset
    # and sweep only the engine-aware algorithms once per engine.
    baseline_algorithms = [a for a in ALGORITHMS if a not in ENGINE_AWARE_ALGORITHMS]
    proposed_algorithms = [a for a in ALGORITHMS if a in ENGINE_AWARE_ALGORITHMS]

    payload: dict = {"thread_counts": list(THREAD_COUNTS), "datasets": {}}
    for dataset in real_workload_names():
        base_times, base_speedups = _sweep(dataset, algorithms=baseline_algorithms)
        payload["datasets"][dataset] = {
            "baselines": {"times_s": base_times, "speedups": base_speedups},
            "engines": {},
        }
        print_series(
            f"Figure 9 ({dataset}, baselines):"
            " simulated running time [s] vs threads",
            "threads",
            THREAD_COUNTS,
            base_times,
        )
        for engine in engines:
            times, speedups = _sweep(
                dataset, algorithms=proposed_algorithms, engine=engine
            )
            payload["datasets"][dataset]["engines"][engine] = {
                "times_s": times,
                "speedups": speedups,
            }
            print_series(
                f"Figure 9 ({dataset}, engine={engine}):"
                " simulated running time [s] vs threads",
                "threads",
                THREAD_COUNTS,
                times,
            )
            print_series(
                f"Figure 9 ({dataset}, engine={engine}):"
                " simulated speedup vs threads",
                "threads",
                THREAD_COUNTS,
                speedups,
            )
    print(
        "Paper shape: Approx-DPC / S-Approx-DPC reach 15-24x at 48 threads,"
        " Ex-DPC plateaus early (sequential dependency phase), LSH-DDP trails"
        " the cost-balanced algorithms.  The batch engine shifts the absolute"
        " times down without changing the scaling shape (the simulated profile"
        " records the same per-task cost model for both engines)."
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"JSON written to {args.json}")


if __name__ == "__main__":
    main()
