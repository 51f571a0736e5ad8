"""Property tests: the level-synchronous kd-tree build and the shard planners.

The build splits every node at the rank ``count // 2`` coordinate of its
widest-spread dimension and sends median ties left by ascending point
index.  Where no tie straddles a median the tree equals the recursive
reference builder's (``tests/conftest.py``) array for array, leaf sets
included; on duplicate-heavy lattices every left child holds the ``count //
2`` smallest points by (coordinate, index).  The per-node min/max reduction
equals brute-force slice extrema, and the in-memory and streaming shard
planners -- which share the tie rule -- return the same plan.  Every test
runs in float64 and float32 storage.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.kdtree import KDTree, _node_reduce
from repro.shard import plan_shards, plan_shards_streaming
from tests.conftest import (
    assert_left_children_take_smallest,
    assert_matches_reference_build,
)

MAX_EXAMPLES = 40
DTYPES = ["float64", "float32"]

seeds = st.integers(0, 2**32 - 1)


def _distinct(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) * 0.75 + 10.0 for _ in range(d)], axis=1)


def _lattice(n: int, d: int, levels: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, levels, size=(n, d)) * 2.5


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=MAX_EXAMPLES)
@given(
    n=st.integers(1, 400),
    d=st.integers(1, 4),
    leaf_size=st.integers(1, 24),
    seed=seeds,
)
def test_distinct_coordinates_match_reference_build(dtype, n, d, leaf_size, seed):
    tree = KDTree(_distinct(n, d, seed), leaf_size=leaf_size, dtype=dtype)
    tree.arrays.validate(tree.points, leaf_size)
    assert_matches_reference_build(tree.arrays, tree.points, leaf_size)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=MAX_EXAMPLES)
@given(
    n=st.integers(1, 400),
    d=st.integers(1, 4),
    levels=st.integers(1, 6),
    leaf_size=st.integers(1, 12),
    seed=seeds,
)
def test_lattice_build_is_valid_and_ties_go_by_index(dtype, n, d, levels, leaf_size, seed):
    tree = KDTree(_lattice(n, d, levels, seed), leaf_size=leaf_size, dtype=dtype)
    tree.arrays.validate(tree.points, leaf_size)
    assert_left_children_take_smallest(tree.arrays, tree.points)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=MAX_EXAMPLES)
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 4),
    levels=st.integers(1, 8),
    leaf_size=st.integers(1, 12),
    seed=seeds,
)
def test_node_reduction_matches_slice_extrema(dtype, n, d, levels, leaf_size, seed):
    tree = KDTree(_lattice(n, d, levels, seed), leaf_size=leaf_size, dtype=dtype)
    start, stop = tree.arrays.start, tree.arrays.stop
    for values in (tree.points_ordered, tree.points_ordered[:, 0].copy()):
        for ufunc, brute in ((np.minimum, np.min), (np.maximum, np.max)):
            want = np.stack([brute(values[a:b], axis=0) for a, b in zip(start, stop)])
            np.testing.assert_array_equal(_node_reduce(ufunc, values, start, stop), want)


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=MAX_EXAMPLES)
@given(
    n=st.integers(8, 400),
    d=st.integers(1, 3),
    levels=st.integers(1, 5),
    n_shards=st.sampled_from([1, 2, 4, 8]),
    sample_size=st.integers(1, 64),
    chunk_rows=st.integers(1, 97),
    seed=seeds,
)
def test_plan_shards_equals_streaming_plan_on_ties(
    dtype, n, d, levels, n_shards, sample_size, chunk_rows, seed
):
    points = _lattice(n, d, levels, seed).astype(dtype)
    in_memory = plan_shards(points, n_shards)
    streamed = plan_shards_streaming(
        points, n_shards, sample_size=sample_size, chunk_rows=chunk_rows
    )
    np.testing.assert_array_equal(streamed.axes, in_memory.axes)
    np.testing.assert_array_equal(streamed.values, in_memory.values)
    assert len(streamed.members) == len(in_memory.members) == n_shards
    for got, want in zip(streamed.members, in_memory.members):
        np.testing.assert_array_equal(got, want)
