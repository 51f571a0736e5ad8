"""Unit tests for the flattened kd-tree representation (KDTreeArrays)."""

import numpy as np
import pytest

from repro.index.kdtree import KDTree, KDTreeArrays, _node_reduce
from tests.conftest import (
    assert_left_children_take_smallest,
    assert_matches_reference_build,
)

DTYPES = ["float64", "float32"]


def _random_points(n, d, seed=0):
    return np.random.default_rng(seed).uniform(-100.0, 100.0, size=(n, d))


def _distinct_points(n, d, seed=0):
    """Coordinates distinct along every axis (exact in float32 too)."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n) * 1.25 - 300.0 for _ in range(d)], axis=1)


def _lattice_points(n, d, levels, seed=0):
    """Duplicate-heavy integer lattice: every median is tied."""
    return np.random.default_rng(seed).integers(0, levels, size=(n, d)).astype(float)


def _swap_root_subtrees(arrays: KDTreeArrays) -> KDTreeArrays:
    """Renumber the root's right subtree before its left one.

    The links still describe the same tree, so every geometric invariant
    holds; only the preorder numbering is broken.
    """
    n_nodes, right = arrays.node_count, int(arrays.right[0])
    order = np.r_[0, np.arange(right, n_nodes), np.arange(1, right)]
    new_id = np.empty(n_nodes, dtype=np.intp)
    new_id[order] = np.arange(n_nodes)

    def relink(links):
        links = links[order].copy()
        links[links >= 0] = new_id[links[links >= 0]]
        return links

    return KDTreeArrays(
        split_dim=arrays.split_dim[order],
        split_val=arrays.split_val[order],
        left=relink(arrays.left),
        right=relink(arrays.right),
        start=arrays.start[order],
        stop=arrays.stop[order],
        indices=arrays.indices,
        bbox_min=arrays.bbox_min[order],
        bbox_max=arrays.bbox_max[order],
    )


class TestConstructionInvariants:
    @pytest.mark.parametrize("n,d,leaf_size", [(1, 1, 1), (7, 2, 2), (200, 3, 4), (500, 2, 32)])
    def test_validate_passes_on_built_trees(self, n, d, leaf_size):
        points = _random_points(n, d, seed=n)
        tree = KDTree(points, leaf_size=leaf_size)
        tree.arrays.validate(tree.points, leaf_size)

    def test_validate_passes_on_duplicate_heavy_data(self):
        # Zero-spread subsets become oversized leaves instead of recursing.
        points = np.array([[1.0, 2.0]] * 50 + [[3.0, 4.0]] * 50)
        tree = KDTree(points, leaf_size=4)
        tree.arrays.validate(tree.points, 4)

    def test_root_covers_everything_and_indices_permute(self):
        tree = KDTree(_random_points(123, 2), leaf_size=8)
        arrays = tree.arrays
        assert int(arrays.start[0]) == 0 and int(arrays.stop[0]) == 123
        np.testing.assert_array_equal(np.sort(arrays.indices), np.arange(123))

    def test_children_partition_parent_ranges(self):
        tree = KDTree(_random_points(300, 2), leaf_size=8)
        arrays = tree.arrays
        internal = np.flatnonzero(arrays.left >= 0)
        for node in internal:
            left, right = int(arrays.left[node]), int(arrays.right[node])
            assert arrays.start[left] == arrays.start[node]
            assert arrays.stop[left] == arrays.start[right]
            assert arrays.stop[right] == arrays.stop[node]

    def test_split_value_separates_children(self):
        points = _random_points(256, 2, seed=5)
        tree = KDTree(points, leaf_size=4)
        arrays = tree.arrays
        for node in np.flatnonzero(arrays.left >= 0):
            axis = int(arrays.split_dim[node])
            value = float(arrays.split_val[node])
            left, right = int(arrays.left[node]), int(arrays.right[node])
            left_coords = points[
                arrays.indices[arrays.start[left] : arrays.stop[left]], axis
            ]
            right_coords = points[
                arrays.indices[arrays.start[right] : arrays.stop[right]], axis
            ]
            assert left_coords.max() <= value <= right_coords.min()

    def test_node_count_bound(self):
        tree = KDTree(_random_points(500, 2), leaf_size=1)
        assert tree.node_count <= 2 * 500 - 1

    def test_validate_rejects_corruption(self):
        tree = KDTree(_random_points(64, 2), leaf_size=4)
        arrays = tree.arrays
        broken = KDTreeArrays(
            split_dim=arrays.split_dim,
            split_val=arrays.split_val,
            left=arrays.left,
            right=arrays.right,
            start=arrays.start,
            stop=arrays.stop,
            indices=arrays.indices[::-1].copy(),
            bbox_min=arrays.bbox_min,
            bbox_max=arrays.bbox_max,
        )
        broken.indices[0] = broken.indices[1]  # no longer a permutation
        with pytest.raises(ValueError):
            broken.validate(tree.points, 4)
        swapped = _swap_root_subtrees(arrays)
        assert int(swapped.left[0]) != 1
        with pytest.raises(ValueError, match="preorder"):
            swapped.validate(tree.points, 4)


class TestLevelBuild:
    """The level-synchronous build against the recursive reference builder."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "n,d,leaf_size",
        [(1, 1, 1), (2, 2, 1), (37, 1, 4), (300, 2, 8), (1000, 3, 32), (513, 5, 16)],
    )
    def test_matches_reference_on_distinct_coordinates(self, n, d, leaf_size, dtype):
        tree = KDTree(_distinct_points(n, d, seed=n + d), leaf_size=leaf_size, dtype=dtype)
        tree.arrays.validate(tree.points, leaf_size)
        assert_matches_reference_build(tree.arrays, tree.points, leaf_size)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("levels,d", [(1, 2), (2, 2), (3, 3), (5, 2), (7, 4)])
    def test_lattice_ties_go_by_point_index(self, levels, d, dtype):
        tree = KDTree(_lattice_points(400, d, levels, seed=levels), leaf_size=4, dtype=dtype)
        tree.arrays.validate(tree.points, 4)
        assert_left_children_take_smallest(tree.arrays, tree.points)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_node_reduction_matches_slice_extrema(self, dtype):
        points = np.vstack([_random_points(300, 3, seed=4), _lattice_points(200, 3, 3)])
        tree = KDTree(points, leaf_size=8, dtype=dtype)
        start, stop = tree.arrays.start, tree.arrays.stop
        values_1d = np.random.default_rng(5).integers(0, 9, tree.size).astype(dtype)
        for values in (tree.points_ordered, values_1d):
            for ufunc, brute in ((np.minimum, np.min), (np.maximum, np.max)):
                got = _node_reduce(ufunc, values, start, stop)
                want = np.stack([brute(values[a:b], axis=0) for a, b in zip(start, stop)])
                assert got.dtype == values.dtype
                np.testing.assert_array_equal(got, want)
        # Float64 pruning boxes enclose the float64 source coordinates.
        source = tree.source_points[tree.arrays.indices]
        box_min, box_max = tree._pruning_bbox
        np.testing.assert_array_equal(
            box_min, [source[a:b].min(axis=0) for a, b in zip(start, stop)]
        )
        np.testing.assert_array_equal(
            box_max, [source[a:b].max(axis=0) for a, b in zip(start, stop)]
        )


class TestFromArrays:
    def test_from_arrays_answers_identical_queries(self):
        points = _random_points(200, 2, seed=9)
        tree = KDTree(points, leaf_size=8)
        view = KDTree.from_arrays(
            points, tree.arrays, leaf_size=tree.leaf_size, validate=True
        )
        queries = _random_points(20, 2, seed=10)
        np.testing.assert_array_equal(
            tree.range_count_batch(queries, 25.0),
            view.range_count_batch(queries, 25.0),
        )
        idx_a, dist_a = tree.nearest_neighbor_batch(queries)
        idx_b, dist_b = view.nearest_neighbor_batch(queries)
        np.testing.assert_array_equal(idx_a, idx_b)
        np.testing.assert_array_equal(dist_a, dist_b)
        assert view.node_count == tree.node_count
        assert view.memory_bytes() == tree.memory_bytes()

    def test_from_arrays_does_not_copy(self):
        points = np.ascontiguousarray(_random_points(50, 2))
        tree = KDTree(points, leaf_size=8)
        view = KDTree.from_arrays(tree.points, tree.arrays)
        assert view.points is tree.points
        assert view.arrays is tree.arrays

    def test_mapping_roundtrip(self):
        tree = KDTree(_random_points(80, 3), leaf_size=8)
        mapping = tree.arrays.to_mapping(prefix="tree.")
        rebuilt = KDTreeArrays.from_mapping(mapping, prefix="tree.")
        for name in (
            "split_dim", "split_val", "left", "right", "start", "stop",
            "indices", "bbox_min", "bbox_max",
        ):
            np.testing.assert_array_equal(
                getattr(rebuilt, name), getattr(tree.arrays, name)
            )

    def test_nbytes_matches_memory_bytes(self):
        tree = KDTree(_random_points(64, 2), leaf_size=8)
        assert tree.arrays.nbytes == tree.memory_bytes()
