"""Multicore parallelization runtime.

The paper parallelizes its algorithms on a multicore CPU with two policies:

* **dynamic scheduling** (OpenMP ``schedule(dynamic)``) for Ex-DPC's local
  density phase, where per-task costs are unknown in advance, and
* **cost-based greedy partitioning** (the 3/2-approximation LPT algorithm of
  Graham) for Approx-DPC and S-Approx-DPC, where each task's cost can be
  estimated cheaply before it runs.

This package implements both policies over a small task abstraction, provides
a real executor with pluggable backends (``serial`` / ``thread`` /
``process``; see :mod:`repro.parallel.backends`), shared-memory array
publishing for the process backend (:mod:`repro.parallel.shm`), and an
analytic *simulated multicore model* that computes the makespan a
``t``-thread machine would achieve for a measured set of task costs under
each policy.  The simulation regenerates the paper's thread-scaling figure
(Figure 9) shape analytically; the process backend additionally produces
*measured* wall-clock speedup curves (``benchmarks/bench_fig9_threads.py
--backend process``).  See ``docs/parallel.md`` for the backend
architecture.

For the vectorised ``engine="batch"`` hot paths, the executor additionally
supports *chunked* execution (:func:`repro.parallel.executor.split_indices`
and :meth:`~repro.parallel.executor.ParallelExecutor.map_index_chunks`): the
point-index range is split into a few contiguous chunks per worker and each
worker answers its whole chunk with one vectorised batch query instead of one
Python task per point.  ``docs/performance.md`` describes the design.
"""

from repro.parallel.backends import BACKENDS, ChunkTask, resolve_backend
from repro.parallel.executor import ParallelExecutor, resolve_n_jobs, split_indices
from repro.parallel.partition import greedy_partition, partition_imbalance
from repro.parallel.scheduler import dynamic_schedule_makespan, static_schedule_makespan
from repro.parallel.shm import BundleSpec, SharedArrayBundle
from repro.parallel.simulate import (
    ParallelPhase,
    SimulatedMulticore,
    simulate_speedup_curve,
)

__all__ = [
    "BACKENDS",
    "ChunkTask",
    "resolve_backend",
    "ParallelExecutor",
    "resolve_n_jobs",
    "split_indices",
    "BundleSpec",
    "SharedArrayBundle",
    "greedy_partition",
    "partition_imbalance",
    "dynamic_schedule_makespan",
    "static_schedule_makespan",
    "ParallelPhase",
    "SimulatedMulticore",
    "simulate_speedup_curve",
]
