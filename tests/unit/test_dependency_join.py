"""Unit tests for the unified nearest-denser join layer and its index support."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApproxDPC, ExDPC
from repro.core.dependency_join import PartitionedDependencySearcher
from repro.core.framework import effective_engine, resolve_engine
from repro.core.predict import nearest_denser_bruteforce
from repro.data import generate_real_like, generate_syn
from repro.index import kdtree as kdtree_module
from repro.index.kdtree import (
    DUAL_FRONTIER_AUTO,
    DUAL_FRONTIER_ENV,
    adaptive_dual_frontier,
    KDTree,
    KDTreeArrays,
    resolve_dual_frontier,
)
from repro.io import load_model, save_model
from repro.kernels import pair_distances_sq


@pytest.fixture()
def cloud():
    rng = np.random.default_rng(7)
    points = rng.uniform(0.0, 100.0, size=(300, 2))
    rho = rng.permutation(300).astype(np.float64)
    return points, rho


class TestNodeFrontier:
    def test_partitions_the_tree(self, cloud):
        points, _ = cloud
        tree = KDTree(points, leaf_size=8)
        nodes = tree.node_frontier(16)
        positions = tree.node_positions(nodes)
        assert np.array_equal(np.sort(positions), np.arange(points.shape[0]))

    def test_root_only_when_target_is_one(self, cloud):
        points, _ = cloud
        tree = KDTree(points, leaf_size=8)
        assert tree.node_frontier(1).tolist() == [0]

    def test_deterministic(self, cloud):
        points, _ = cloud
        a = KDTree(points, leaf_size=8).node_frontier(16)
        b = KDTree(points, leaf_size=8).node_frontier(16)
        assert np.array_equal(a, b)


class TestDensityBounds:
    def test_attach_stores_per_node_maxima(self, cloud):
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        node_max = tree.attach_density_bounds(rho)
        arrays = tree.arrays
        assert arrays.rho_max is not None
        assert np.array_equal(arrays.rho_max, node_max)
        # Spot-check the invariant: every node's maximum dominates its slice.
        for node in range(arrays.node_count):
            members = arrays.indices[arrays.start[node] : arrays.stop[node]]
            assert node_max[node] == rho[members].max()

    def test_mapping_round_trip_with_and_without_rho_max(self, cloud):
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        mapping = tree.arrays.to_mapping(prefix="t.")
        assert "t.rho_max" not in mapping
        rebuilt = KDTreeArrays.from_mapping(mapping, prefix="t.")
        assert rebuilt.rho_max is None
        tree.attach_density_bounds(rho)
        mapping = tree.arrays.to_mapping(prefix="t.")
        assert "t.rho_max" in mapping
        rebuilt = KDTreeArrays.from_mapping(mapping, prefix="t.")
        assert np.array_equal(rebuilt.rho_max, tree.arrays.rho_max)
        rebuilt.validate(tree.points, tree.leaf_size)

    def test_validate_rejects_wrong_length(self, cloud):
        points, rho = cloud
        tree = KDTree(points, leaf_size=8)
        tree.attach_density_bounds(rho)
        from dataclasses import replace

        broken = replace(tree.arrays, rho_max=np.zeros(3))
        with pytest.raises(ValueError, match="rho_max"):
            broken.validate(tree.points, tree.leaf_size)


class TestResolveDualFrontier:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(DUAL_FRONTIER_ENV, raising=False)
        assert resolve_dual_frontier(None) == DUAL_FRONTIER_AUTO

    def test_env_auto_and_bad_values(self, monkeypatch):
        monkeypatch.setenv(DUAL_FRONTIER_ENV, "auto")
        assert resolve_dual_frontier(None) == DUAL_FRONTIER_AUTO
        monkeypatch.setenv(DUAL_FRONTIER_ENV, "banana")
        with pytest.raises(ValueError, match="REPRO_DUAL_FRONTIER"):
            resolve_dual_frontier(None)
        monkeypatch.setenv(DUAL_FRONTIER_ENV, "-3")
        with pytest.raises(ValueError):
            resolve_dual_frontier(None)

    def test_adaptive_heuristic(self):
        # Deterministic, scale-aware, clamped to [64, 4096].
        assert adaptive_dual_frontier(10, 32) == 64
        assert adaptive_dual_frontier(100_000, 32) > 64
        assert adaptive_dual_frontier(10**9, 1) == 4096
        # Pure function of (n, leaf_size): replays are identical.
        assert adaptive_dual_frontier(5_000, 8) == adaptive_dual_frontier(5_000, 8)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(DUAL_FRONTIER_ENV, "17")
        assert resolve_dual_frontier(None) == 17
        # Explicit values win over the environment.
        assert resolve_dual_frontier(5) == 5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_dual_frontier(0)

    def test_recorded_in_params_and_snapshot(self, tmp_path, monkeypatch, cloud):
        points, _ = cloud
        monkeypatch.setenv(DUAL_FRONTIER_ENV, "23")
        model = ExDPC(d_cut=10.0, n_clusters=3, engine="dual")
        assert model.get_params()["dual_frontier"] == 23
        # The value is resolved at construction: later env changes are inert.
        monkeypatch.setenv(DUAL_FRONTIER_ENV, "99")
        result = model.fit(points)
        assert result.params_["dual_frontier"] == 23
        path = save_model(model, tmp_path / "m.npz")
        monkeypatch.delenv(DUAL_FRONTIER_ENV)
        restored = load_model(path)
        assert restored.dual_frontier == 23

    def test_frontier_size_does_not_change_result(self, cloud):
        points, _ = cloud
        base = ExDPC(d_cut=10.0, n_clusters=3, engine="dual", dual_frontier=1).fit(points)
        other = ExDPC(d_cut=10.0, n_clusters=3, engine="dual", dual_frontier=200).fit(
            points
        )
        np.testing.assert_array_equal(base.labels_, other.labels_)
        np.testing.assert_array_equal(base.dependent_, other.dependent_)
        np.testing.assert_array_equal(base.delta_, other.delta_)


class TestAutoEngine:
    def test_resolve_engine_accepts_auto(self):
        assert resolve_engine("auto") == "auto"
        with pytest.raises(ValueError):
            resolve_engine("warp")

    def test_effective_engine_by_dimension(self):
        assert effective_engine("auto", 1) == "dual"
        assert effective_engine("auto", 2) == "dual"
        # Dual wins the fit at every measured dimension (d <= 12); above
        # it, batch until measured.
        assert effective_engine("auto", 3) == "dual"
        assert effective_engine("auto", 5) == "dual"
        assert effective_engine("auto", 12) == "dual"
        assert effective_engine("auto", 13) == "batch"
        assert effective_engine("scalar", 2) == "scalar"

    def test_auto_fit_matches_concrete_engines(self, cloud):
        points, _ = cloud
        auto = ExDPC(d_cut=10.0, n_clusters=3, engine="auto")
        with pytest.raises(RuntimeError):
            auto.engine_  # unresolved before fit
        result = auto.fit(points)
        assert auto.engine_ == "dual"  # d=2
        dual = ExDPC(d_cut=10.0, n_clusters=3, engine="dual").fit(points)
        np.testing.assert_array_equal(result.labels_, dual.labels_)
        rng = np.random.default_rng(0)
        wide = rng.uniform(0.0, 50.0, size=(80, 4))
        auto4 = ApproxDPC(d_cut=15.0, n_clusters=2, engine="auto")
        auto4.fit(wide)
        assert auto4.engine_ == "dual"  # d=4 now inside the dual window
        wider = rng.uniform(0.0, 50.0, size=(80, 13))
        auto13 = ApproxDPC(d_cut=60.0, n_clusters=2, engine="auto")
        auto13.fit(wider)
        assert auto13.engine_ == "batch"  # d=13 beyond the measured sweep

    def test_auto_round_trips_through_snapshots(self, tmp_path, cloud):
        points, _ = cloud
        model = ExDPC(d_cut=10.0, n_clusters=3, engine="auto")
        model.fit(points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        assert restored.engine == "auto"
        assert restored.engine_ == "dual"
        np.testing.assert_array_equal(restored.predict(points), model.predict(points))


class TestSnapshotDensityBounds:
    def test_rho_max_persists_and_primes_the_join(self, tmp_path, cloud):
        points, _ = cloud
        model = ExDPC(d_cut=10.0, n_clusters=3, engine="dual")
        model.fit(points)
        restored = load_model(save_model(model, tmp_path / "m.npz"))
        arrays = restored._tree.arrays
        assert arrays.rho_max is not None
        # The adopted bounds serve the dual join without recomputation and
        # reproduce the fitted model's predictions exactly.
        np.testing.assert_array_equal(
            restored.predict(points), model.predict(points)
        )


class TestFloat32RadiusBoundary:
    def test_engines_agree_within_one_ulp_of_the_radius(self):
        """Regression: a float32 tree must apply one radius rounding rule on
        every engine.  The scalar methods compare float32 distances against
        a Python-float squared radius (a float32 comparison under NumPy's
        scalar promotion); the batch engine historically kept a float64
        bound array and disagreed when a pair sat within one ulp of d_cut.
        """
        points = np.array([[0.0], [0.5]])
        d_cut = 0.5000000000000001  # one float64 ulp above the pair distance
        tree = KDTree(points, leaf_size=32, dtype="float32")
        scalar = [tree.range_count(p, d_cut) for p in points]
        batch = tree.range_count_batch(points, d_cut)
        dual = tree.range_count_dual(d_cut)
        np.testing.assert_array_equal(scalar, batch)
        np.testing.assert_array_equal(scalar, dual)
        search_scalar = [tree.range_search(p, d_cut) for p in points]
        search_batch = tree.range_search_batch(points, d_cut)
        for expected, got in zip(search_scalar, search_batch):
            np.testing.assert_array_equal(np.sort(expected), got)


class TestPartitionedSearcherContract:
    def test_lexicographic_tie_break_on_duplicates(self):
        points = np.zeros((6, 2))
        rho = np.asarray([2.0, 5.0, 1.0, 4.0, 6.0, 3.0])
        searcher = PartitionedDependencySearcher(points, rho, n_partitions=3)
        expected, expected_d = nearest_denser_bruteforce(
            points, rho, points, rho, attach_fallback=False, return_distance=True
        )
        got, got_d = searcher.query_batch(np.arange(6))
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got_d, expected_d)
        for index in range(6):
            neighbor, distance = searcher.query(index)
            assert neighbor == expected[index]
            assert distance == expected_d[index]


class TestPerQueryPruning:
    """The dual join prunes each query on its own best distance.

    The counter gates pin the work the per-query filter saves on the
    default leaf size; before it, one sparse-region query per leaf made the
    whole leaf scan its neighbourhood (1,479,973 and 7,325,262 dependency
    distance calcs on these two fits).
    """

    def test_syn_dependency_work(self):
        points = generate_syn(n_points=5000, n_peaks=13, seed=0)[0]
        model = ExDPC(d_cut=2000, rho_min=5, n_clusters=10, engine="dual")
        assert model.fit(points).work_["dependency_distance_calcs"] <= 500_000

    def test_household_dependency_work(self):
        points = generate_real_like("household", n_points=5000, seed=0)[0]
        model = ExDPC(d_cut=3000, rho_min=5, n_clusters=10, engine="dual")
        assert model.fit(points).work_["dependency_distance_calcs"] <= 1_500_000


@st.composite
def _join_cases(draw):
    """Data and query clouds, sometimes on a small lattice (duplicate
    coordinates and exact distance ties), with tie-heavy densities."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coordinate = st.integers(0, 3).map(float)
    else:
        coordinate = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)

    def cloud(n):
        rows = st.lists(st.lists(coordinate, min_size=dim, max_size=dim), min_size=n, max_size=n)
        return np.asarray(draw(rows), dtype=np.float64).reshape(n, dim)

    n_data = draw(st.integers(1, 60))
    n_query = draw(st.integers(1, 60))
    density = st.integers(0, 5).map(float)
    rho = np.asarray(draw(st.lists(density, min_size=n_data, max_size=n_data)))
    rho_q = np.asarray(draw(st.lists(density, min_size=n_query, max_size=n_query)))
    return cloud(n_data), rho, cloud(n_query), rho_q


def _chunked_join(data_tree, query_tree, rho, rho_q, units, size, **seeds):
    """Join the query frontier ``units`` in slices of ``size``; returns the
    merged answers and the distance calcs the slices spent."""
    idx = np.full(query_tree.size, -1, dtype=np.intp)
    dist = np.full(query_tree.size, np.inf)
    before = data_tree.counter.get("distance_calcs")
    for lo in range(0, units.size, size):
        part = units[lo : lo + size]
        got_idx, got_dist = data_tree.nn_dual_vs(query_tree, rho, rho_q, q_nodes=part, **seeds)
        covered = query_tree.node_positions(part)
        idx[covered] = got_idx[covered]
        dist[covered] = got_dist[covered]
    return idx, dist, data_tree.counter.get("distance_calcs") - before


@settings(max_examples=40, deadline=None)
@given(case=_join_cases(), dtype=st.sampled_from(["float64", "float32"]), self_join=st.booleans(),
       seeded=st.booleans(), seed=st.integers(0, 2**16))
def test_nn_dual_vs_matches_bruteforce_under_any_chunking(case, dtype, self_join, seeded, seed):
    data, rho, queries, rho_q = case
    if self_join:
        queries, rho_q = data, rho
    expected, expected_d = nearest_denser_bruteforce(
        data, rho, queries, rho_q, attach_fallback=False, return_distance=True
    )
    seeds = {}
    if seeded:
        # Valid external seeds: some genuinely denser point per query (not
        # necessarily the nearest), at its canonical squared distance.
        rng = np.random.default_rng(seed)
        seed_idx = np.full(queries.shape[0], -1, dtype=np.intp)
        seed_sq = np.full(queries.shape[0], np.inf)
        for q in range(queries.shape[0]):
            denser = np.flatnonzero(rho > rho_q[q])
            if denser.size and rng.random() < 0.7:
                j = int(rng.choice(denser))
                seed_idx[q] = j
                seed_sq[q] = pair_distances_sq(queries[q : q + 1], data[j : j + 1])[0, 0]
        seeds = dict(seed_idx=seed_idx, seed_sq=seed_sq)
    previous = kdtree_module._DUAL_BLOCK
    kdtree_module._DUAL_BLOCK = 2  # small terminal blocks: many pairs, many wavefronts
    try:
        data_tree = KDTree(data, leaf_size=2, dtype=dtype)
        query_tree = data_tree if self_join else KDTree(queries, leaf_size=2, dtype=dtype)
        runs = [
            _chunked_join(data_tree, query_tree, rho, rho_q, units, size, **seeds)
            for units in (np.asarray([0]), query_tree.node_frontier(8))
            for size in (1, 3, 8)
        ]
    finally:
        kdtree_module._DUAL_BLOCK = previous
    for idx, dist, calcs in runs:
        np.testing.assert_array_equal(idx, expected)
        np.testing.assert_array_equal(dist, expected_d)
        assert calcs == runs[0][2]
