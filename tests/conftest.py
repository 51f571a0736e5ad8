"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data import generate_blobs, generate_syn
from repro.index.kdtree import KDTreeArrays

# Hypothesis profiles: "dev" (default) explores freely; "ci" is pinned for
# determinism (fixed example budget, derandomized) so CI runs are reproducible
# across Python versions.  Select with HYPOTHESIS_PROFILE=ci.
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci", deadline=None, max_examples=60, derandomize=True, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def reference_local_density(points: np.ndarray, d_cut: float) -> np.ndarray:
    """Brute-force local density (Definition 1): ``|{j : dist(i, j) < d_cut}|``."""
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    return (dists < d_cut).sum(axis=1).astype(np.float64)


def reference_dependencies(
    points: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force dependent point / distance (Definitions 2 and 3)."""
    n = points.shape[0]
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    dependent = np.full(n, -1, dtype=np.intp)
    delta = np.full(n, np.inf, dtype=np.float64)
    for i in range(n):
        denser = np.flatnonzero(rho > rho[i])
        if denser.size == 0:
            continue
        j = denser[np.argmin(dists[i, denser])]
        dependent[i] = j
        delta[i] = dists[i, j]
    return dependent, delta


def reference_build_tree_arrays(points: np.ndarray, leaf_size: int) -> KDTreeArrays:
    """Recursive kd-tree bulk load: the per-node builder the level build replaced.

    Preorder allocation, widest-spread split dimension, the rank
    ``count // 2`` coordinate as split value placed by ``argpartition``
    (whose placement of tied medians is unspecified), zero-spread subsets
    kept as oversized leaves, and bounding boxes by a bottom-up sweep.
    """
    n = points.shape[0]
    capacity = max(1, 2 * n)
    split_dim = np.full(capacity, -1, dtype=np.intp)
    split_val = np.zeros(capacity, dtype=points.dtype)
    left = np.full(capacity, -1, dtype=np.intp)
    right = np.full(capacity, -1, dtype=np.intp)
    start = np.zeros(capacity, dtype=np.intp)
    stop = np.zeros(capacity, dtype=np.intp)
    indices = np.arange(n, dtype=np.intp)
    n_nodes = 0

    def build(lo: int, hi: int) -> int:
        nonlocal n_nodes
        node = n_nodes
        n_nodes += 1
        start[node], stop[node] = lo, hi
        if hi - lo <= leaf_size:
            return node
        subset = indices[lo:hi]
        coords = points[subset]
        spreads = coords.max(axis=0) - coords.min(axis=0)
        dim = int(np.argmax(spreads))
        if spreads[dim] == 0.0:
            return node
        mid = (hi - lo) // 2
        indices[lo:hi] = subset[np.argpartition(coords[:, dim], mid)]
        split_dim[node] = dim
        split_val[node] = points[indices[lo + mid], dim]
        left[node] = build(lo, lo + mid)
        right[node] = build(lo + mid, hi)
        return node

    build(0, n)
    bbox_min = np.empty((n_nodes, points.shape[1]), dtype=points.dtype)
    bbox_max = np.empty((n_nodes, points.shape[1]), dtype=points.dtype)
    for node in range(n_nodes - 1, -1, -1):
        if left[node] == -1:
            coords = points[indices[start[node] : stop[node]]]
            bbox_min[node] = coords.min(axis=0)
            bbox_max[node] = coords.max(axis=0)
        else:
            bbox_min[node] = np.minimum(bbox_min[left[node]], bbox_min[right[node]])
            bbox_max[node] = np.maximum(bbox_max[left[node]], bbox_max[right[node]])
    return KDTreeArrays(
        split_dim=split_dim[:n_nodes].copy(),
        split_val=split_val[:n_nodes].copy(),
        left=left[:n_nodes].copy(),
        right=right[:n_nodes].copy(),
        start=start[:n_nodes].copy(),
        stop=stop[:n_nodes].copy(),
        indices=indices,
        bbox_min=bbox_min,
        bbox_max=bbox_max,
    )


def leaf_point_sets(arrays: KDTreeArrays) -> list[np.ndarray]:
    """Each leaf's point indices, sorted, in node-id order."""
    return [
        np.sort(arrays.indices[arrays.start[leaf] : arrays.stop[leaf]])
        for leaf in np.flatnonzero(arrays.left < 0)
    ]


def assert_matches_reference_build(arrays: KDTreeArrays, points, leaf_size: int) -> None:
    """Every node array equals the recursive builder's; leaves hold the same points."""
    oracle = reference_build_tree_arrays(points, leaf_size)
    for name in (
        "split_dim", "split_val", "left", "right", "start", "stop",
        "bbox_min", "bbox_max",
    ):
        got, want = getattr(arrays, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    for got, want in zip(leaf_point_sets(arrays), leaf_point_sets(oracle)):
        np.testing.assert_array_equal(got, want)


def assert_left_children_take_smallest(arrays: KDTreeArrays, points) -> None:
    """Each left child holds its parent's ``count // 2`` smallest points by
    (coordinate along the split dimension, point index)."""
    for node in np.flatnonzero(arrays.left >= 0):
        members = arrays.indices[arrays.start[node] : arrays.stop[node]]
        by_key = members[np.lexsort((members, points[members, arrays.split_dim[node]]))]
        child = arrays.left[node]
        np.testing.assert_array_equal(
            np.sort(arrays.indices[arrays.start[child] : arrays.stop[child]]),
            np.sort(by_key[: members.size // 2]),
        )


@pytest.fixture(scope="session")
def small_blobs():
    """Three well-separated Gaussian blobs (400 points, 2-D)."""
    centers = np.array([[20_000.0, 20_000.0], [80_000.0, 20_000.0], [50_000.0, 80_000.0]])
    points, labels = generate_blobs(400, centers, spread=3_000.0, seed=3)
    return points, labels


@pytest.fixture(scope="session")
def tiny_syn():
    """A 600-point Syn-style dataset for fast end-to-end tests."""
    points, labels = generate_syn(n_points=600, n_peaks=5, seed=11)
    return points, labels


@pytest.fixture(scope="session")
def random_points_2d():
    """300 uniform random points in ``[0, 1000]^2``."""
    rng = np.random.default_rng(42)
    return rng.uniform(0.0, 1000.0, size=(300, 2))


@pytest.fixture(scope="session")
def random_points_4d():
    """250 uniform random points in ``[0, 1000]^4``."""
    rng = np.random.default_rng(43)
    return rng.uniform(0.0, 1000.0, size=(250, 4))
