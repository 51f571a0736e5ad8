"""Thread-scaling behaviour of each algorithm (the paper's Figure 9, simulated).

Run with::

    python examples/scaling_threads.py

Every estimator records, for each phase, the scheduling policy the paper uses
(dynamic, cost-based greedy, or none for Ex-DPC's sequential dependency phase)
and the per-task costs.  The ``parallel_profile_`` of a result can then answer
"how long would this run take on t threads?".  This example prints the
simulated speedup curves, which reproduce the shapes of Figure 9:

* Approx-DPC and S-Approx-DPC scale almost linearly,
* Ex-DPC plateaus because its dependency phase cannot be parallelised,
* LSH-DDP is limited by its lack of load balancing.

Thread scaling is simulated rather than measured with real threads because
CPython's GIL serialises them; ``docs/parallel.md`` shows how to measure real
worker scaling on the process backend.
"""

from __future__ import annotations

from repro import ApproxDPC, ExDPC, LSHDDP, SApproxDPC, ScanDPC
from repro.data import generate_syn

THREADS = (1, 2, 4, 8, 12, 24, 48)


def main() -> None:
    points, _ = generate_syn(n_points=6_000, n_peaks=13, seed=0)
    d_cut = 2_000.0

    algorithms = [
        ScanDPC(d_cut=d_cut, rho_min=5, n_clusters=13, seed=0),
        ExDPC(d_cut=d_cut, rho_min=5, n_clusters=13, seed=0),
        ApproxDPC(d_cut=d_cut, rho_min=5, n_clusters=13, seed=0),
        SApproxDPC(d_cut=d_cut, epsilon=0.5, rho_min=5, n_clusters=13, seed=0),
        LSHDDP(d_cut=d_cut, rho_min=5, n_clusters=13, seed=0),
    ]

    header = "algorithm      " + "".join(f"{t:>8d}" for t in THREADS)
    print("simulated speedup over single-thread execution")
    print(header)
    print("-" * len(header))
    for model in algorithms:
        result = model.fit(points)
        profile = result.parallel_profile_
        speedups = [profile.speedup(t) for t in THREADS]
        row = f"{result.algorithm_:15s}" + "".join(f"{s:8.1f}" for s in speedups)
        print(row)

    print(
        "\nEx-DPC saturates early (sequential dependency phase); the"
        " approximation algorithms keep scaling, as in Figure 9 of the paper."
    )


if __name__ == "__main__":
    main()
