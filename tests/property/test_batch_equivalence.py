"""Property tests: the vectorised batch query engine equals the scalar one.

The batch kd-tree methods (``range_count_batch`` / ``range_search_batch`` /
``knn_batch`` / ``nearest_neighbor_batch``) and the partitioned dependency
searcher's ``query_batch`` are the hot path of every DPC algorithm, so these
tests pin down *bit-for-bit* equivalence with the scalar queries -- same
indices, same float distances -- over random point sets, radii and leaf
sizes, including the awkward cases: duplicate points, ``k > n``, strict vs
non-strict radii, per-query radii, and empty query batches.

The only intended difference is ordering: ``range_search_batch`` reports each
query's hits in ascending index order while the scalar method reports
traversal order, so range results are compared as sorted arrays.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependency_join import PartitionedDependencySearcher
from repro.index.kdtree import KDTree

MAX_EXAMPLES = 60


@st.composite
def point_sets(draw, min_points: int = 1, max_points: int = 40):
    """A random float64 point matrix, sometimes drawn from a coarse lattice.

    The lattice branch makes exact duplicates and exact distance ties common,
    which is where order-dependent tie-breaking bugs hide.
    """
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(min_points, max_points))
    if draw(st.booleans()):
        coordinate = st.integers(0, 3).map(float)
    else:
        coordinate = st.floats(
            min_value=-100.0, max_value=100.0, allow_nan=False, width=32
        )
    rows = draw(
        st.lists(
            st.lists(coordinate, min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(rows, dtype=np.float64)


@st.composite
def tree_and_queries(draw, min_points: int = 1):
    points = draw(point_sets(min_points=min_points))
    n, dim = points.shape
    leaf_size = draw(st.integers(1, 16))
    tree = KDTree(points, leaf_size=leaf_size)
    n_queries = draw(st.integers(0, 12))
    use_indexed = draw(st.booleans())
    if use_indexed and n_queries > 0:
        positions = draw(
            st.lists(st.integers(0, n - 1), min_size=n_queries, max_size=n_queries)
        )
        queries = points[np.asarray(positions, dtype=np.intp)]
    else:
        rows = draw(
            st.lists(
                st.lists(
                    st.floats(
                        min_value=-120.0,
                        max_value=120.0,
                        allow_nan=False,
                        width=32,
                    ),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=n_queries,
                max_size=n_queries,
            )
        )
        queries = np.asarray(rows, dtype=np.float64).reshape(n_queries, dim)
    return tree, queries


radii = st.floats(min_value=0.01, max_value=150.0, allow_nan=False)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=tree_and_queries(), radius=radii, strict=st.booleans())
def test_range_count_batch_equals_scalar(data, radius, strict):
    tree, queries = data
    batch = tree.range_count_batch(queries, radius, strict=strict)
    scalar = np.asarray(
        [tree.range_count(query, radius, strict=strict) for query in queries],
        dtype=np.intp,
    )
    np.testing.assert_array_equal(batch, scalar.reshape(batch.shape))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=tree_and_queries(), radius=radii, strict=st.booleans())
def test_range_search_batch_equals_scalar(data, radius, strict):
    tree, queries = data
    batch = tree.range_search_batch(queries, radius, strict=strict)
    assert len(batch) == queries.shape[0]
    for row, query in zip(batch, queries):
        scalar = np.sort(tree.range_search(query, radius, strict=strict))
        np.testing.assert_array_equal(row, scalar)
        # Batch results are documented to be sorted ascending.
        assert np.all(np.diff(row) > 0) or row.size <= 1


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=tree_and_queries(), radius=radii, strict=st.booleans(), seed=st.integers(0, 2**16))
def test_range_batch_per_query_radii(data, radius, strict, seed):
    """An array of per-query radii equals scalar calls with each radius."""
    tree, queries = data
    rng = np.random.default_rng(seed)
    per_query = radius * rng.uniform(0.5, 2.0, size=queries.shape[0])
    counts = tree.range_count_batch(queries, per_query, strict=strict)
    searches = tree.range_search_batch(queries, per_query, strict=strict)
    for position, query in enumerate(queries):
        assert counts[position] == tree.range_count(
            query, float(per_query[position]), strict=strict
        )
        np.testing.assert_array_equal(
            searches[position],
            np.sort(tree.range_search(query, float(per_query[position]), strict=strict)),
        )


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=tree_and_queries(), k_extra=st.integers(-2, 5), exclude_self=st.booleans())
def test_knn_batch_equals_scalar(data, k_extra, exclude_self):
    """knn_batch rows equal scalar knn, including k > n and duplicate ties."""
    tree, queries = data
    k = max(1, tree.size + k_extra)
    exclude = None
    if exclude_self and queries.shape[0]:
        exclude = np.zeros(queries.shape[0], dtype=np.intp)
    batch_idx, batch_dist = tree.knn_batch(queries, k, exclude=exclude)
    assert batch_idx.shape == (queries.shape[0], k)
    for position, query in enumerate(queries):
        scalar_idx, scalar_dist = tree.knn(
            query, k, exclude=None if exclude is None else int(exclude[position])
        )
        found = scalar_idx.size
        np.testing.assert_array_equal(batch_idx[position, :found], scalar_idx)
        np.testing.assert_array_equal(batch_dist[position, :found], scalar_dist)
        # Padding contract: unused slots hold -1 / inf.
        assert np.all(batch_idx[position, found:] == -1)
        assert np.all(np.isinf(batch_dist[position, found:]))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=tree_and_queries(), seed=st.integers(0, 2**16))
def test_nearest_neighbor_batch_equals_scalar(data, seed):
    tree, queries = data
    rng = np.random.default_rng(seed)
    mask = rng.random(tree.size) < 0.6
    exclude = (
        rng.integers(0, tree.size, size=queries.shape[0]).astype(np.intp)
        if queries.shape[0]
        else None
    )
    batch_idx, batch_dist = tree.nearest_neighbor_batch(
        queries, exclude=exclude, mask=mask
    )
    for position, query in enumerate(queries):
        scalar_idx, scalar_dist = tree.nearest_neighbor(
            query, exclude=int(exclude[position]), mask=mask
        )
        assert batch_idx[position] == scalar_idx
        if np.isinf(scalar_dist):
            assert np.isinf(batch_dist[position])
        else:
            assert batch_dist[position] == scalar_dist


@settings(max_examples=40, deadline=None)
@given(data=tree_and_queries(min_points=2), seed=st.integers(0, 2**16), partitions=st.integers(1, 6))
def test_partitioned_searcher_query_batch_equals_scalar(data, seed, partitions):
    """The §4.3 exact-dependency fallback: query_batch == query per index."""
    tree, _ = data
    points = tree.points
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    # Distinct densities (the estimators tie-break before querying).
    rho = rng.permutation(n).astype(np.float64)
    searcher = PartitionedDependencySearcher(points, rho, n_partitions=partitions)
    indices = np.arange(n, dtype=np.intp)
    batch_idx, batch_dist = searcher.query_batch(indices)
    for index in indices:
        scalar_idx, scalar_dist = searcher.query(int(index))
        assert batch_idx[index] == scalar_idx
        if np.isinf(scalar_dist):
            assert np.isinf(batch_dist[index])
        else:
            assert batch_dist[index] == scalar_dist


def test_empty_query_batch():
    """Empty batches are valid inputs and return empty results."""
    tree = KDTree(np.zeros((5, 2)))
    empty = np.empty((0, 2))
    assert tree.range_count_batch(empty, 1.0).shape == (0,)
    assert tree.range_search_batch(empty, 1.0) == []
    idx, dist = tree.knn_batch(empty, 3)
    assert idx.shape == (0, 3) and dist.shape == (0, 3)
    idx, dist = tree.nearest_neighbor_batch(empty)
    assert idx.shape == (0,) and dist.shape == (0,)


def test_knn_batch_k_larger_than_tree():
    """k > n pads with -1 / inf after every real neighbour."""
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tree = KDTree(points, leaf_size=2)
    idx, dist = tree.knn_batch(points[:2], 10)
    for row in range(2):
        assert np.count_nonzero(idx[row] >= 0) == 3
        assert np.all(idx[row, 3:] == -1)
        assert np.all(np.isinf(dist[row, 3:]))


def test_duplicate_points_tie_break_by_smallest_index():
    """Exact ties resolve to the smallest index in both engines."""
    points = np.array([[1.0, 1.0]] * 6 + [[5.0, 5.0]] * 3)
    tree = KDTree(points, leaf_size=2)
    queries = np.array([[1.0, 1.0], [5.0, 5.0], [3.0, 3.0]])
    batch_idx, _ = tree.nearest_neighbor_batch(queries)
    for position, query in enumerate(queries):
        scalar_idx, _ = tree.nearest_neighbor(query)
        assert batch_idx[position] == scalar_idx
    assert batch_idx[0] == 0  # smallest of the six duplicates
    knn_idx, knn_dist = tree.knn_batch(queries, 4)
    for position, query in enumerate(queries):
        scalar_idx, scalar_dist = tree.knn(query, 4)
        np.testing.assert_array_equal(knn_idx[position], scalar_idx)
        np.testing.assert_array_equal(knn_dist[position], scalar_dist)
