"""Benchmark runners: build algorithms, share thresholds, collect result rows.

The paper's protocol for every accuracy experiment is: run Ex-DPC, fix
``rho_min`` and ``delta_min`` from its decision graph, then evaluate every
approximation algorithm under those same thresholds with Ex-DPC's clustering
as ground truth (Rand index).  :func:`shared_thresholds` and
:func:`run_accuracy_suite` implement that protocol; the performance benches
use :func:`run_performance_suite`, which records wall-clock timings, distance
computation counts and memory of every algorithm on a workload.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines import CFSFDPA, LSHDDP, RTreeScanDPC, ScanDPC
from repro.bench.workloads import BenchWorkload
from repro.core import ApproxDPC, DPCResult, ExDPC, SApproxDPC
from repro.metrics import rand_index

__all__ = [
    "ALGORITHM_BUILDERS",
    "ENGINE_AWARE_ALGORITHMS",
    "build_algorithm",
    "shared_thresholds",
    "run_accuracy_suite",
    "run_performance_suite",
]

#: Algorithms that accept the ``engine={"scalar","batch"}`` switch of the
#: vectorised batch query engine (see docs/performance.md).  Baselines keep
#: their own code paths and ignore the flag.
ENGINE_AWARE_ALGORITHMS = frozenset({"Ex-DPC", "Approx-DPC", "S-Approx-DPC"})

#: Algorithm name -> builder(d_cut, center selection kwargs) for every
#: algorithm the evaluation section compares.  The names match the paper.
ALGORITHM_BUILDERS: dict[str, Callable] = {
    "Scan": lambda d_cut, **kwargs: ScanDPC(d_cut=d_cut, **kwargs),
    "R-tree + Scan": lambda d_cut, **kwargs: RTreeScanDPC(d_cut=d_cut, **kwargs),
    "LSH-DDP": lambda d_cut, **kwargs: LSHDDP(d_cut=d_cut, **kwargs),
    "CFSFDP-A": lambda d_cut, **kwargs: CFSFDPA(d_cut=d_cut, **kwargs),
    "Ex-DPC": lambda d_cut, **kwargs: ExDPC(d_cut=d_cut, **kwargs),
    "Approx-DPC": lambda d_cut, **kwargs: ApproxDPC(d_cut=d_cut, **kwargs),
    "S-Approx-DPC": lambda d_cut, epsilon=0.8, **kwargs: SApproxDPC(
        d_cut=d_cut, epsilon=epsilon, **kwargs
    ),
}


def build_algorithm(name: str, d_cut: float, **kwargs):
    """Instantiate one of the evaluation algorithms by its paper name."""
    if name not in ALGORITHM_BUILDERS:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {sorted(ALGORITHM_BUILDERS)}"
        )
    return ALGORITHM_BUILDERS[name](d_cut, **kwargs)


def shared_thresholds(
    workload: BenchWorkload, seed: int = 0
) -> tuple[float, float, DPCResult]:
    """Fix ``(rho_min, delta_min)`` from Ex-DPC's decision graph.

    Returns the thresholds plus the Ex-DPC reference result obtained with
    them.  When the decision-graph gap for the requested cluster count falls
    below ``d_cut`` (so a threshold cannot legally exceed ``d_cut``), the
    reference run falls back to top-k center selection and ``delta_min`` is
    reported as ``nan``; accuracy suites then evaluate every algorithm in
    top-k mode, which keeps the comparison well-defined.
    """
    explore = ExDPC(
        d_cut=workload.d_cut,
        rho_min=workload.rho_min,
        n_clusters=workload.n_clusters,
        seed=seed,
    ).fit(workload.points)
    rho_min, delta_min = explore.decision_graph().suggest_thresholds(
        workload.n_clusters, rho_min=workload.rho_min
    )
    if delta_min <= workload.d_cut:
        return workload.rho_min, float("nan"), explore
    reference = ExDPC(
        d_cut=workload.d_cut, rho_min=rho_min, delta_min=delta_min, seed=seed
    ).fit(workload.points)
    return rho_min, delta_min, reference


def _center_kwargs(workload: BenchWorkload, rho_min: float, delta_min: float) -> dict:
    """Center-selection kwargs implementing the shared-threshold protocol."""
    import math

    if math.isnan(delta_min):
        return {"rho_min": rho_min, "n_clusters": workload.n_clusters}
    return {"rho_min": rho_min, "delta_min": delta_min}


def run_accuracy_suite(
    workload: BenchWorkload,
    algorithms: list[str],
    seed: int = 0,
    epsilon: float | None = None,
) -> list[dict]:
    """Run the accuracy protocol of §6.1 on one workload.

    Returns one row per algorithm with the Rand index against Ex-DPC (the
    ground truth, as in Tables 2--5) and the runtime.
    """
    rho_min, delta_min, reference = shared_thresholds(workload, seed=seed)
    kwargs = _center_kwargs(workload, rho_min, delta_min)

    rows: list[dict] = []
    for name in algorithms:
        extra = dict(kwargs)
        if name == "S-Approx-DPC" and epsilon is not None:
            extra["epsilon"] = epsilon
        model = build_algorithm(name, workload.d_cut, seed=seed, **extra)
        result = model.fit(workload.points)
        rows.append(
            {
                "dataset": workload.name,
                "algorithm": name,
                "rand_index": rand_index(reference.labels_, result.labels_),
                "n_clusters": result.n_clusters_,
                "time_s": result.timings_["total"],
            }
        )
    return rows


def run_performance_suite(
    workload: BenchWorkload,
    algorithms: list[str],
    seed: int = 0,
    epsilon: float | None = None,
    engine: str | None = None,
    backend: str | None = None,
    n_jobs: int = 1,
) -> dict[str, DPCResult]:
    """Fit every requested algorithm once on the workload and return the results.

    Used by the efficiency experiments (Table 6, Table 7, Figures 7--9); the
    caller extracts timings, work counts or memory from each
    :class:`~repro.core.result.DPCResult`.  ``engine`` selects the query
    engine for the algorithms in
    :data:`ENGINE_AWARE_ALGORITHMS` (``None`` keeps each algorithm's
    default); ``backend`` and ``n_jobs`` select the execution backend and
    worker count of every algorithm's parallel phases (``None`` / ``1`` keep
    the defaults), which is how the thread-scaling sweeps run.
    """
    results: dict[str, DPCResult] = {}
    for name in algorithms:
        extra: dict = {"rho_min": workload.rho_min, "n_clusters": workload.n_clusters}
        if name == "S-Approx-DPC" and epsilon is not None:
            extra["epsilon"] = epsilon
        if engine is not None and name in ENGINE_AWARE_ALGORITHMS:
            extra["engine"] = engine
        if backend is not None:
            extra["backend"] = backend
        if n_jobs != 1:
            extra["n_jobs"] = n_jobs
        model = build_algorithm(name, workload.d_cut, seed=seed, **extra)
        results[name] = model.fit(workload.points)
    return results
