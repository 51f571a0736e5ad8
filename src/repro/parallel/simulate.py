"""Simulated multicore execution model.

The paper's Figure 9 measures wall-clock time as the number of OpenMP threads
grows from 1 to 48.  Reproducing that experiment literally in pure Python is
impossible because the GIL serialises CPU-bound Python threads (the
process backend of ``docs/parallel.md`` measures real worker scaling
instead).  What the figure actually demonstrates, however, is a property of
the *schedules*: phases partitioned with the cost-based greedy algorithm
scale nearly linearly, the sequential dependency phase of Ex-DPC does not,
and LSH-DDP's unbalanced partitioning scales only on some datasets.

This module therefore models a multicore machine analytically.  During a
(serial) run, every algorithm records the phases it executed and, for parallel
phases, the per-task costs (measured in seconds, or any other additive unit).
:class:`SimulatedMulticore` then computes the makespan of each phase for a
given thread count under the phase's scheduling policy and sums them into a
simulated total runtime.  The resulting speedup curves reproduce the *shape*
of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.partition import greedy_partition, hash_partition
from repro.parallel.scheduler import dynamic_schedule_makespan, static_schedule_makespan
from repro.utils.validation import check_positive_int

__all__ = ["ParallelPhase", "SimulatedMulticore", "simulate_speedup_curve"]

#: Scheduling policies understood by the simulator.
POLICIES = ("sequential", "dynamic", "greedy", "hash")


@dataclass
class ParallelPhase:
    """One phase of an algorithm, as recorded during a run.

    Attributes
    ----------
    name:
        Human-readable phase name (for example ``"local_density"``).
    policy:
        One of ``"sequential"`` (never parallelised, e.g. Ex-DPC's dependency
        phase), ``"dynamic"`` (work-queue scheduling), ``"greedy"`` (cost-based
        LPT partitioning) or ``"hash"`` (round-robin partitioning, used to
        model LSH-DDP).
    task_costs:
        Per-task costs for parallelisable phases.  For sequential phases this
        may be a single-element array holding the phase's total cost.
    serial_overhead:
        Cost that is paid once regardless of the thread count (sorting,
        partition computation, result merging).
    """

    name: str
    policy: str
    task_costs: np.ndarray
    serial_overhead: float = 0.0

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        self.task_costs = np.asarray(self.task_costs, dtype=np.float64).reshape(-1)
        if self.task_costs.size and self.task_costs.min() < 0.0:
            raise ValueError("task costs must be non-negative")
        self.serial_overhead = float(self.serial_overhead)
        if self.serial_overhead < 0.0:
            raise ValueError("serial_overhead must be non-negative")

    @property
    def total_cost(self) -> float:
        """Total single-thread cost of the phase (tasks + overhead)."""
        return float(self.task_costs.sum() + self.serial_overhead)

    def makespan(self, n_threads: int, efficiency: float = 1.0) -> float:
        """Simulated wall-clock time of this phase on ``n_threads`` threads.

        Parameters
        ----------
        n_threads:
            Number of simulated threads.
        efficiency:
            Per-thread parallel efficiency in ``(0, 1]``; values below 1 model
            memory-bandwidth saturation and hyper-threading (the reason the
            paper's 48-thread speedups stay below 48x).
        """
        n_threads = check_positive_int(n_threads, "n_threads")
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")

        if self.policy == "sequential" or n_threads == 1:
            return self.total_cost

        effective = 1.0 + (n_threads - 1) * efficiency
        if self.policy == "dynamic":
            parallel = dynamic_schedule_makespan(self.task_costs, n_threads)
        elif self.policy == "greedy":
            assignments = greedy_partition(self.task_costs, n_threads)
            parallel = static_schedule_makespan(self.task_costs, assignments)
        else:  # hash
            assignments = hash_partition(self.task_costs.size, n_threads)
            parallel = static_schedule_makespan(self.task_costs, assignments)

        # The schedule makespan assumes perfectly efficient threads; rescale the
        # parallel part so that the aggregate throughput matches ``effective``
        # threads instead of ``n_threads``.
        total_tasks = float(self.task_costs.sum())
        if parallel > 0.0 and total_tasks > 0.0:
            ideal = total_tasks / n_threads
            slack = parallel - ideal
            parallel = total_tasks / effective + max(slack, 0.0)
        return parallel + self.serial_overhead


class SimulatedMulticore:
    """Aggregate the phases of one algorithm run into simulated runtimes.

    Instances are produced by every estimator in :mod:`repro.core` and
    :mod:`repro.baselines` (available as ``result.parallel_profile_``) and can
    answer "how long would this run have taken on ``t`` threads?".
    """

    def __init__(self, phases: list[ParallelPhase] | None = None):
        self._phases: list[ParallelPhase] = list(phases) if phases else []

    def add_phase(
        self,
        name: str,
        policy: str,
        task_costs,
        serial_overhead: float = 0.0,
    ) -> ParallelPhase:
        """Record a phase and return it."""
        phase = ParallelPhase(
            name=name,
            policy=policy,
            task_costs=np.asarray(task_costs, dtype=np.float64).reshape(-1),
            serial_overhead=serial_overhead,
        )
        self._phases.append(phase)
        return phase

    @property
    def phases(self) -> list[ParallelPhase]:
        """The recorded phases, in execution order."""
        return list(self._phases)

    def phase(self, name: str) -> ParallelPhase:
        """Return the first phase with the given name."""
        for phase in self._phases:
            if phase.name == name:
                return phase
        raise KeyError(f"no phase named {name!r}")

    def total_serial_time(self) -> float:
        """Single-thread total runtime implied by the recorded costs."""
        return float(sum(phase.total_cost for phase in self._phases))

    def simulated_time(self, n_threads: int, efficiency: float = 1.0) -> float:
        """Simulated total runtime on ``n_threads`` threads."""
        return float(
            sum(phase.makespan(n_threads, efficiency) for phase in self._phases)
        )

    def speedup(self, n_threads: int, efficiency: float = 1.0) -> float:
        """Simulated speedup over single-thread execution."""
        serial = self.total_serial_time()
        if serial <= 0.0:
            return 1.0
        return serial / self.simulated_time(n_threads, efficiency)


def simulate_speedup_curve(
    profile: SimulatedMulticore,
    thread_counts,
    efficiency: float = 1.0,
) -> dict[int, float]:
    """Return ``{threads: simulated_time}`` over a sweep of thread counts."""
    return {
        int(t): profile.simulated_time(int(t), efficiency) for t in thread_counts
    }
