"""Ablation: the number of density partitions ``s`` in Approx-DPC's fallback.

Approx-DPC resolves the dependent points of undecided cell maxima with a
partition-based exact search; Equation (2) of the paper fixes the number of
density slices ``s`` so that the case-(ii) scan cost balances the ``s - 1``
nearest-neighbour searches.  This ablation sweeps ``s`` around the
Equation (2) value and reports the dependency-phase time and work.

Run the full ablation with ``python benchmarks/bench_ablation_partitions.py``.
"""

from __future__ import annotations

from repro.bench import load_workload, print_table
from repro.core import ApproxDPC
from repro.core.dependency_join import solve_partition_count

PARTITION_COUNTS = (2, 4, 8, 16, 32, None)  # None = Equation (2)


def _rows(workload, partition_counts=PARTITION_COUNTS) -> list[dict]:
    rows = []
    for count in partition_counts:
        result = ApproxDPC(
            d_cut=workload.d_cut,
            rho_min=workload.rho_min,
            n_clusters=workload.n_clusters,
            n_partitions=count,
            seed=0,
        ).fit(workload.points)
        label = (
            f"eq.(2) -> {solve_partition_count(workload.n_points, workload.dim)}"
            if count is None
            else str(count)
        )
        rows.append(
            {
                "n_partitions": label,
                "delta_time_s": result.timings_["dependency"],
                "delta_distance_calcs": result.work_["dependency_distance_calcs"],
                "total_time_s": result.timings_["total"],
            }
        )
    return rows


def test_partition_count_does_not_change_quality(benchmark, syn_workload):
    """The fallback partition count only affects speed, not the clustering."""
    rows = benchmark.pedantic(
        _rows, args=(syn_workload, (4, None)), rounds=1, iterations=1
    )
    assert len(rows) == 2
    few = ApproxDPC(
        d_cut=syn_workload.d_cut, n_clusters=syn_workload.n_clusters, n_partitions=4, seed=0
    ).fit(syn_workload.points)
    default = ApproxDPC(
        d_cut=syn_workload.d_cut, n_clusters=syn_workload.n_clusters, seed=0
    ).fit(syn_workload.points)
    assert (few.labels_ == default.labels_).all()


def main() -> None:
    workload = load_workload("airline")
    rows = _rows(workload)
    print_table(
        f"Ablation: fallback partition count s on Approx-DPC "
        f"(Airline-like, n={workload.n_points})",
        rows,
    )
    print(
        "Too few partitions inflate the case-(ii) scans, too many inflate the"
        " per-partition searches; Equation (2) sits near the minimum."
    )


if __name__ == "__main__":
    main()
