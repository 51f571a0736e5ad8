"""Table 4: Rand index of LSH-DDP and Approx-DPC on the real datasets.

The paper reports that Approx-DPC reaches 0.96--0.999 on Airline, Household,
PAMAP2 and Sensor and beats LSH-DDP on every dataset.  The bench runs the same
protocol on the distribution-matched stand-ins of :mod:`repro.data.real_like`.

Run the full table with ``python benchmarks/bench_table4_real_accuracy.py``.
"""

from __future__ import annotations

from repro.bench import load_workload, print_table, real_workload_names, run_accuracy_suite

ALGORITHMS = ["LSH-DDP", "Approx-DPC"]


def _table(names) -> list[dict]:
    rows = []
    for name in names:
        workload = load_workload(name)
        suite = run_accuracy_suite(workload, ALGORITHMS)
        row = {"dataset": workload.name}
        for entry in suite:
            row[entry["algorithm"]] = entry["rand_index"]
        rows.append(row)
    return rows


def test_real_accuracy_household(benchmark):
    """Benchmark one column (Household) of Table 4."""
    rows = benchmark.pedantic(_table, args=(["household"],), rounds=1, iterations=1)
    assert rows[0]["Approx-DPC"] > 0.85


def main() -> None:
    rows = _table(real_workload_names())
    print_table(
        "Table 4: Rand index on the real-dataset stand-ins "
        "(ground truth: Ex-DPC, shared thresholds)",
        rows,
    )
    print("Paper shape: Approx-DPC >= 0.96 everywhere and above LSH-DDP on every dataset.")


if __name__ == "__main__":
    main()
