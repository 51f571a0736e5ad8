"""Unit tests for repro.parallel.executor."""

import os

import numpy as np
import pytest

from repro.parallel.executor import ParallelExecutor, resolve_n_jobs, split_indices


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


class TestSplitIndices:
    def test_concatenation_restores_range(self):
        chunks = split_indices(103, 7)
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(103))

    def test_chunks_are_contiguous(self):
        for chunk in split_indices(50, 6):
            np.testing.assert_array_equal(
                chunk, np.arange(chunk[0], chunk[0] + chunk.size)
            )

    def test_chunk_count_is_requested_count(self):
        assert len(split_indices(100, 8)) == 8

    def test_sizes_differ_by_at_most_one(self):
        sizes = [chunk.size for chunk in split_indices(101, 8)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 101

    def test_more_chunks_than_items_drops_empty(self):
        chunks = split_indices(3, 10)
        assert len(chunks) == 3
        assert all(chunk.size == 1 for chunk in chunks)

    def test_single_chunk_is_whole_range(self):
        (chunk,) = split_indices(9, 1)
        np.testing.assert_array_equal(chunk, np.arange(9))

    def test_empty_range_has_no_chunks(self):
        assert split_indices(0, 4) == []

    def test_index_dtype(self):
        assert all(chunk.dtype == np.intp for chunk in split_indices(20, 3))

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            split_indices(-1, 2)

    @pytest.mark.parametrize("n_chunks", [0, -3])
    def test_invalid_chunk_count_rejected(self, n_chunks):
        with pytest.raises(ValueError):
            split_indices(10, n_chunks)


class TestMapIndexChunks:
    @staticmethod
    def _record(executor, n_items, chunks_per_worker=4):
        seen = []

        def func(chunk):
            seen.append(chunk.copy())
            return chunk

        results = executor.map_index_chunks(func, n_items, chunks_per_worker)
        return seen, results

    def test_single_worker_uses_one_chunk(self):
        seen, _ = self._record(ParallelExecutor(1), 40)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], np.arange(40))

    def test_chunk_count_is_workers_times_chunks_per_worker(self):
        seen, _ = self._record(ParallelExecutor(3, backend="thread"), 100, 2)
        assert len(seen) == 6

    def test_results_come_back_in_index_order(self):
        _, results = self._record(ParallelExecutor(4, backend="thread"), 97)
        np.testing.assert_array_equal(np.concatenate(results), np.arange(97))

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_chunking_is_the_same_on_every_backend(self, backend):
        executor = ParallelExecutor(2, backend=backend)
        try:
            _, results = self._record(executor, 45, 3)
        finally:
            executor.close()
        expected = split_indices(45, 6)
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    def test_zero_items_returns_nothing(self):
        assert ParallelExecutor(2, backend="thread").map_index_chunks(len, 0) == []

    def test_invalid_chunks_per_worker_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(2, backend="thread").map_index_chunks(len, 10, 0)

    def test_errors_propagate_from_workers(self):
        def fail_on_last(chunk):
            if chunk[-1] == 19:
                raise RuntimeError("chunk failed")
            return chunk

        with pytest.raises(RuntimeError, match="chunk failed"):
            ParallelExecutor(2, backend="thread").map_index_chunks(fail_on_last, 20)


class TestExecutorLifecycle:
    def test_explicit_backend_and_n_jobs(self):
        executor = ParallelExecutor(3, backend="serial")
        assert executor.backend == "serial"
        assert executor.n_jobs == 3

    def test_backend_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_BACKEND", "serial")
        assert ParallelExecutor(2).backend == "serial"

    def test_submit_runs_off_the_calling_thread(self):
        import threading

        caller = threading.get_ident()
        with ParallelExecutor(2, backend="serial") as executor:
            worker = executor.submit(threading.get_ident).result()
            assert executor._thread_pool is not None
        assert worker != caller
        assert executor._thread_pool is None

    def test_context_manager_shuts_down_process_pool(self):
        with ParallelExecutor(2, backend="process") as executor:
            executor._ensure_pool()
            assert executor._pool is not None
        assert executor._pool is None
