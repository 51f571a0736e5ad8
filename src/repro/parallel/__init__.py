"""Multicore parallelization runtime.

The paper parallelizes its algorithms on a multicore CPU, with dynamic
scheduling for Ex-DPC's local density phase and cost-based greedy
partitioning for Approx-DPC and S-Approx-DPC.  This package runs every
parallel phase on a real executor with pluggable backends (``serial`` /
``thread`` / ``process``; see :mod:`repro.parallel.backends`) and
shared-memory array publishing for the process backend
(:mod:`repro.parallel.shm`).  Work runs in contiguous index chunks
(:func:`repro.parallel.executor.split_indices`), the same chunking on every
backend, so results and work counters do not depend on the backend or the
worker count.  The process backend produces the *measured* wall-clock
speedup curves of the paper's thread-scaling figure (Figure 9;
``benchmarks/bench_fig9_threads.py``).  See ``docs/parallel.md`` for the
backend architecture.

For the vectorised hot paths the executor offers *chunked* execution
(:meth:`~repro.parallel.executor.ParallelExecutor.map_index_chunks`): the
point-index range is split into a few contiguous chunks per worker and each
worker answers its whole chunk with one vectorised batch query instead of one
Python task per point.  ``docs/performance.md`` describes the design.
"""

from repro.parallel.backends import BACKENDS, ChunkTask, resolve_backend
from repro.parallel.executor import ParallelExecutor, resolve_n_jobs, split_indices
from repro.parallel.shm import BundleSpec, SharedArrayBundle

__all__ = [
    "BACKENDS",
    "ChunkTask",
    "resolve_backend",
    "ParallelExecutor",
    "resolve_n_jobs",
    "split_indices",
    "BundleSpec",
    "SharedArrayBundle",
]
