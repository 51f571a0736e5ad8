"""Unit tests for repro.parallel (partition, scheduler, executor, simulate)."""

import os
import warnings

import numpy as np
import pytest

from repro.parallel.executor import ParallelExecutor, resolve_n_jobs
from repro.parallel.partition import greedy_partition, hash_partition, partition_imbalance
from repro.parallel.scheduler import dynamic_schedule_makespan, static_schedule_makespan
from repro.parallel.simulate import ParallelPhase, SimulatedMulticore, simulate_speedup_curve


class TestGreedyPartition:
    def test_covers_every_task_once(self):
        costs = np.random.default_rng(0).uniform(1.0, 10.0, size=57)
        parts = greedy_partition(costs, 5)
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(57))

    def test_balances_uniform_costs(self):
        costs = np.ones(100)
        parts = greedy_partition(costs, 4)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_beats_hash_partition_on_skewed_costs(self):
        rng = np.random.default_rng(1)
        costs = rng.pareto(1.2, size=200) + 0.1
        greedy = greedy_partition(costs, 8)
        hashed = hash_partition(200, 8)
        assert partition_imbalance(costs, greedy) <= partition_imbalance(costs, hashed)

    def test_graham_bound(self):
        # LPT guarantees makespan <= (4/3 - 1/(3m)) * OPT; compare against the
        # trivial lower bounds max(cost) and sum/m.
        rng = np.random.default_rng(2)
        costs = rng.uniform(0.5, 20.0, size=64)
        workers = 6
        parts = greedy_partition(costs, workers)
        makespan = static_schedule_makespan(costs, parts)
        lower_bound = max(costs.max(), costs.sum() / workers)
        assert makespan <= (4.0 / 3.0) * lower_bound + 1e-9

    def test_empty_costs(self):
        parts = greedy_partition([], 3)
        assert len(parts) == 3
        assert all(p.size == 0 for p in parts)

    def test_fewer_tasks_than_workers(self):
        parts = greedy_partition([5.0, 1.0], 4)
        non_empty = [p for p in parts if p.size]
        assert len(non_empty) == 2

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            greedy_partition([-1.0, 2.0], 2)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            greedy_partition([1.0], 0)

    def test_deterministic(self):
        costs = np.random.default_rng(3).uniform(size=30)
        a = greedy_partition(costs, 4)
        b = greedy_partition(costs, 4)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)


class TestHashPartition:
    def test_round_robin(self):
        parts = hash_partition(10, 3)
        np.testing.assert_array_equal(parts[0], [0, 3, 6, 9])
        np.testing.assert_array_equal(parts[1], [1, 4, 7])

    def test_invalid(self):
        with pytest.raises(ValueError):
            hash_partition(-1, 2)


class TestImbalance:
    def test_perfect_balance_is_one(self):
        costs = np.ones(8)
        parts = greedy_partition(costs, 4)
        assert partition_imbalance(costs, parts) == pytest.approx(1.0)

    def test_zero_total_cost(self):
        assert partition_imbalance(np.zeros(4), hash_partition(4, 2)) == 1.0

    def test_subnormal_total_cost(self):
        # The mean of a subnormal total underflows to zero; the imbalance
        # must stay finite and warning-free.
        costs = np.array([5e-324, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imbalance = partition_imbalance(costs, hash_partition(2, 2))
        assert imbalance == 2.0


class TestSchedulers:
    def test_dynamic_single_worker_is_sum(self):
        costs = [1.0, 2.0, 3.0]
        assert dynamic_schedule_makespan(costs, 1) == pytest.approx(6.0)

    def test_dynamic_known_example(self):
        # Two workers, tasks [4, 3, 2, 1] in order: w0 gets 4, w1 gets 3,
        # w1 finishes first and takes 2 (total 5), w0 takes 1 (total 5).
        assert dynamic_schedule_makespan([4.0, 3.0, 2.0, 1.0], 2) == pytest.approx(5.0)

    def test_dynamic_never_below_lower_bounds(self):
        rng = np.random.default_rng(4)
        costs = rng.uniform(0.1, 5.0, size=40)
        span = dynamic_schedule_makespan(costs, 6)
        assert span >= costs.max() - 1e-12
        assert span >= costs.sum() / 6 - 1e-12

    def test_dynamic_empty(self):
        assert dynamic_schedule_makespan([], 4) == 0.0

    def test_dynamic_rejects_negative(self):
        with pytest.raises(ValueError):
            dynamic_schedule_makespan([-1.0], 2)

    def test_static_makespan(self):
        costs = np.array([5.0, 1.0, 1.0, 1.0])
        assignments = [np.array([0]), np.array([1, 2, 3])]
        assert static_schedule_makespan(costs, assignments) == pytest.approx(5.0)

    def test_static_empty_assignments(self):
        assert static_schedule_makespan([], []) == 0.0


class TestExecutor:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4
        assert resolve_n_jobs(-1) >= 1

    def test_resolve_rejects_invalid(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)

    def test_resolve_all_cpus_survives_refused_affinity(self, monkeypatch):
        # Some platforms expose sched_getaffinity but refuse the query at
        # runtime (restricted containers); -1 must fall back to cpu_count.
        def refused(pid):
            raise OSError("affinity query refused")

        monkeypatch.setattr(os, "sched_getaffinity", refused, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_n_jobs(-1) == 6

    def test_resolve_all_cpus_survives_unknown_cpu_count(self, monkeypatch):
        # cpu_count may return None; -1 still resolves to at least one job.
        def refused(pid):
            raise OSError("affinity query refused")

        monkeypatch.setattr(os, "sched_getaffinity", refused, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_n_jobs(-1) == 1

    def test_serial_map_preserves_order(self):
        executor = ParallelExecutor(1)
        assert executor.map(lambda x: x * x, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_threaded_map_preserves_order(self):
        executor = ParallelExecutor(4)
        assert executor.map(lambda x: x + 1, list(range(50))) == list(range(1, 51))

    def test_map_chunks_skips_empty(self):
        executor = ParallelExecutor(1)
        results = executor.map_chunks(sum, [[1, 2], [], [3]])
        assert results == [3, 3]


class TestSimulatedMulticore:
    def test_sequential_phase_never_speeds_up(self):
        phase = ParallelPhase(name="dep", policy="sequential", task_costs=[10.0])
        assert phase.makespan(1) == pytest.approx(10.0)
        assert phase.makespan(48) == pytest.approx(10.0)

    def test_greedy_phase_scales(self):
        costs = np.ones(64)
        phase = ParallelPhase(name="rho", policy="greedy", task_costs=costs)
        assert phase.makespan(8) == pytest.approx(8.0)
        assert phase.makespan(1) == pytest.approx(64.0)

    def test_dynamic_phase_scales(self):
        costs = np.ones(100)
        phase = ParallelPhase(name="rho", policy="dynamic", task_costs=costs)
        assert phase.makespan(10) == pytest.approx(10.0)

    def test_hash_phase_suffers_from_skew(self):
        # One huge task plus many small ones: greedy isolates the huge task,
        # round-robin may co-locate it with others.
        costs = np.ones(63)
        costs = np.concatenate([[100.0], costs])
        greedy = ParallelPhase(name="a", policy="greedy", task_costs=costs)
        hashed = ParallelPhase(name="a", policy="hash", task_costs=costs)
        assert greedy.makespan(8) <= hashed.makespan(8) + 1e-9

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ParallelPhase(name="x", policy="magic", task_costs=[1.0])

    def test_efficiency_bounds(self):
        phase = ParallelPhase(name="x", policy="greedy", task_costs=np.ones(10))
        with pytest.raises(ValueError):
            phase.makespan(4, efficiency=0.0)
        with pytest.raises(ValueError):
            phase.makespan(4, efficiency=1.5)

    def test_efficiency_slows_scaling(self):
        phase = ParallelPhase(name="x", policy="greedy", task_costs=np.ones(256))
        assert phase.makespan(16, efficiency=0.5) > phase.makespan(16, efficiency=1.0)

    def test_profile_speedup_mixture(self):
        profile = SimulatedMulticore()
        profile.add_phase("local_density", "greedy", np.ones(100))
        profile.add_phase("dependency", "sequential", [100.0])
        # Total serial time 200; with many threads the parallel half vanishes,
        # so the speedup saturates at ~2x (Amdahl).
        assert profile.speedup(1) == pytest.approx(1.0)
        assert 1.5 < profile.speedup(100) <= 2.0 + 1e-9

    def test_profile_phase_lookup(self):
        profile = SimulatedMulticore()
        profile.add_phase("a", "greedy", [1.0])
        assert profile.phase("a").name == "a"
        with pytest.raises(KeyError):
            profile.phase("missing")

    def test_speedup_curve(self):
        profile = SimulatedMulticore()
        profile.add_phase("a", "greedy", np.ones(64))
        curve = simulate_speedup_curve(profile, [1, 2, 4])
        assert curve[1] >= curve[2] >= curve[4]

    def test_total_serial_time(self):
        profile = SimulatedMulticore()
        profile.add_phase("a", "greedy", [1.0, 2.0], serial_overhead=0.5)
        assert profile.total_serial_time() == pytest.approx(3.5)
