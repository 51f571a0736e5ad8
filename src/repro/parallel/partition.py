"""Cost-based greedy task partitioning (the paper's load-balancing primitive).

Approx-DPC assigns tasks (cells or points) to threads so that every thread has
almost the same total estimated cost.  Minimising the maximum per-thread cost
is the classic multiprocessor scheduling problem, which is NP-complete; the
paper uses the greedy *Longest Processing Time* (LPT) algorithm of Graham
[1969], which guarantees a makespan within 3/2 of the optimum (4/3 - 1/(3m)
in Graham's tight bound) and takes ``O(n log n + n t)`` time.

:func:`greedy_partition` implements LPT: sort tasks by decreasing cost and
repeatedly assign the next task to the currently least-loaded thread.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["greedy_partition", "partition_imbalance", "hash_partition"]


def greedy_partition(costs, n_workers: int) -> list[np.ndarray]:
    """Partition tasks across workers with the greedy LPT heuristic.

    Parameters
    ----------
    costs:
        One-dimensional array of non-negative task costs; ``costs[i]`` is the
        estimated cost of task ``i``.
    n_workers:
        Number of workers (threads) to partition over.

    Returns
    -------
    list of numpy.ndarray
        ``n_workers`` arrays of task indices.  Workers may receive an empty
        array when there are fewer tasks than workers.

    Notes
    -----
    Costs of zero are allowed (for instance, empty cells); negative costs are
    rejected.
    """
    n_workers = check_positive_int(n_workers, "n_workers")
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    if costs.size and costs.min() < 0.0:
        raise ValueError("task costs must be non-negative")

    assignments: list[list[int]] = [[] for _ in range(n_workers)]
    if costs.size == 0:
        return [np.empty(0, dtype=np.intp) for _ in range(n_workers)]

    order = np.argsort(costs, kind="stable")[::-1]
    # Min-heap of (current_load, worker_id); ties broken by worker id so the
    # result is deterministic.
    heap: list[tuple[float, int]] = [(0.0, worker) for worker in range(n_workers)]
    heapq.heapify(heap)
    for task in order:
        load, worker = heapq.heappop(heap)
        assignments[worker].append(int(task))
        heapq.heappush(heap, (load + float(costs[task]), worker))

    return [np.asarray(tasks, dtype=np.intp) for tasks in assignments]


def hash_partition(n_tasks: int, n_workers: int) -> list[np.ndarray]:
    """Partition tasks round-robin (the naive policy the paper criticises).

    LSH-DDP distributes work without regard to cost; this helper reproduces
    that policy so the load-balancing ablation can compare it against
    :func:`greedy_partition`.
    """
    n_workers = check_positive_int(n_workers, "n_workers")
    if n_tasks < 0:
        raise ValueError("n_tasks must be non-negative")
    assignments = [
        np.arange(worker, n_tasks, n_workers, dtype=np.intp)
        for worker in range(n_workers)
    ]
    return assignments


def partition_imbalance(costs, assignments) -> float:
    """Return the load imbalance of a partition.

    Defined as ``max_load / mean_load``; a perfectly balanced partition has
    imbalance 1.0.  Returns 1.0 when the total cost is zero.  Computed as
    ``max_load / total * workers`` so that neither a subnormal total (whose
    mean underflows to zero) nor a huge one (whose ``max * workers``
    overflows) leaves the ``[1, workers]`` range.
    """
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    loads = np.asarray(
        [float(costs[np.asarray(tasks, dtype=np.intp)].sum()) for tasks in assignments]
    )
    total = loads.sum()
    if total <= 0.0:
        return 1.0
    return float(loads.max() / total * len(loads))
