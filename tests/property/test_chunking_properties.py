"""Property tests for contiguous index chunking and worker-count invariance.

Every parallel phase runs in the contiguous index chunks of
:func:`repro.parallel.executor.split_indices`.  These tests pin down that the
chunks partition the index range in order and evenly, that chunked execution
returns the serial answer on any worker count, and that the dual engine's
work counters (``work_``) do not depend on the worker count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.parallel.executor import ParallelExecutor, split_indices

item_counts = st.integers(min_value=0, max_value=500)
chunk_counts = st.integers(min_value=1, max_value=64)


@settings(max_examples=100, deadline=None)
@given(n_items=item_counts, n_chunks=chunk_counts)
def test_split_indices_is_an_ordered_partition(n_items, n_chunks):
    chunks = split_indices(n_items, n_chunks)
    combined = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
    np.testing.assert_array_equal(combined, np.arange(n_items))
    assert all(chunk.size > 0 for chunk in chunks)


@settings(max_examples=100, deadline=None)
@given(n_items=item_counts, n_chunks=chunk_counts)
def test_split_indices_is_balanced(n_items, n_chunks):
    chunks = split_indices(n_items, n_chunks)
    assert len(chunks) == min(n_items, n_chunks)
    if chunks:
        sizes = [chunk.size for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=300),
    n_jobs=st.integers(min_value=1, max_value=4),
    chunks_per_worker=st.integers(min_value=1, max_value=5),
)
def test_chunked_map_matches_serial(values, n_jobs, chunks_per_worker):
    data = np.asarray(values, dtype=np.int64)
    executor = ParallelExecutor(n_jobs, backend="thread")
    parts = executor.map_index_chunks(
        lambda chunk: data[chunk] * 3 + 1, data.size, chunks_per_worker
    )
    combined = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    np.testing.assert_array_equal(combined, data * 3 + 1)


@pytest.mark.parametrize("cls", [ExDPC, ApproxDPC, SApproxDPC])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_points=st.integers(min_value=40, max_value=250),
    n_jobs=st.integers(min_value=2, max_value=4),
)
def test_dual_engine_work_independent_of_worker_count(cls, seed, n_points, n_jobs):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=10.0, size=(n_points, 2))
    kwargs = dict(d_cut=3.0, n_clusters=2, seed=0, engine="dual", backend="thread")
    serial = cls(n_jobs=1, **kwargs).fit(points)
    parallel = cls(n_jobs=n_jobs, **kwargs).fit(points)
    assert serial.work_ == parallel.work_
    np.testing.assert_array_equal(serial.labels_, parallel.labels_)
