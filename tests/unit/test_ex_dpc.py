"""Unit tests for Ex-DPC: exactness of densities and dependencies."""

import numpy as np
import pytest

from repro.core.ex_dpc import ExDPC
from repro.metrics import adjusted_rand_index
from tests.conftest import reference_dependencies, reference_local_density


class TestExactness:
    def test_local_density_matches_bruteforce(self, random_points_2d):
        points = random_points_2d
        d_cut = 60.0
        result = ExDPC(d_cut=d_cut, n_clusters=2).fit(points)
        expected = reference_local_density(points, d_cut)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_local_density_matches_bruteforce_4d(self, random_points_4d):
        points = random_points_4d
        d_cut = 250.0
        result = ExDPC(d_cut=d_cut, n_clusters=2).fit(points)
        expected = reference_local_density(points, d_cut)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_dependencies_match_bruteforce(self, random_points_2d):
        points = random_points_2d
        result = ExDPC(d_cut=60.0, n_clusters=2).fit(points)
        expected_dep, expected_delta = reference_dependencies(points, result.rho_)
        densest = int(np.argmax(result.rho_))
        # The densest point has no dependent point.
        assert result.delta_[densest] == np.inf
        others = np.arange(points.shape[0]) != densest
        np.testing.assert_allclose(result.delta_[others], expected_delta[others])
        # The dependent point itself may differ only on exact ties; compare the
        # distances instead of the indices.  Cluster centers carry dependent
        # index -1 (their dependent point is themselves), so exclude them.
        comparable = others.copy()
        comparable[result.centers_] = False
        dep_dists = np.sqrt(((points - points[result.dependent_]) ** 2).sum(axis=1))
        np.testing.assert_allclose(dep_dists[comparable], expected_delta[comparable])

    def test_dependent_point_always_denser(self, random_points_2d):
        points = random_points_2d
        result = ExDPC(d_cut=60.0, n_clusters=2).fit(points)
        for i in range(points.shape[0]):
            dep = result.dependent_[i]
            if dep >= 0:
                assert result.rho_[dep] > result.rho_[i]


class TestClusteringQuality:
    def test_recovers_separated_blobs(self, small_blobs):
        points, truth = small_blobs
        result = ExDPC(d_cut=5_000.0, rho_min=3, n_clusters=3).fit(points)
        assert result.n_clusters_ == 3
        mask = result.labels_ >= 0
        assert adjusted_rand_index(truth[mask], result.labels_[mask]) > 0.95

    def test_threshold_mode_selects_same_centers_as_topk(self, small_blobs):
        points, _ = small_blobs
        by_k = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0).fit(points)
        graph = by_k.decision_graph()
        _, delta_min = graph.suggest_thresholds(3)
        by_threshold = ExDPC(d_cut=5_000.0, delta_min=delta_min, seed=0).fit(points)
        assert set(by_threshold.centers_.tolist()) == set(by_k.centers_.tolist())

    def test_noise_threshold_marks_sparse_points(self, tiny_syn):
        points, _ = tiny_syn
        result = ExDPC(d_cut=4_000.0, rho_min=3, n_clusters=5).fit(points)
        # Noise points must all have raw density below the threshold.
        assert (result.rho_raw_[result.noise_mask_] < 3).all()
        assert (result.rho_raw_[~result.noise_mask_] >= 3).all()


class TestWorkAndProfile:
    def test_density_work_is_subquadratic(self):
        rng = np.random.default_rng(0)
        small = rng.uniform(0.0, 1000.0, size=(500, 2))
        large = rng.uniform(0.0, 1000.0, size=(2000, 2))
        d_cut = 20.0
        work_small = ExDPC(d_cut=d_cut, n_clusters=2).fit(small).work_[
            "density_distance_calcs"
        ]
        work_large = ExDPC(d_cut=d_cut, n_clusters=2).fit(large).work_[
            "density_distance_calcs"
        ]
        # Quadratic growth would be 16x; the kd-tree should stay well below.
        assert work_large / work_small < 10.0

    def test_scalar_engine_work_independent_of_worker_count(self, small_blobs):
        """The scalar engine's incremental-tree dependency phase (§3) is
        sequential, so its counters cannot depend on the worker count."""
        points, _ = small_blobs
        serial = ExDPC(d_cut=5_000.0, n_clusters=3, engine="scalar", n_jobs=1).fit(points)
        threaded = ExDPC(
            d_cut=5_000.0, n_clusters=3, engine="scalar", n_jobs=4, backend="thread"
        ).fit(points)
        assert serial.work_ == threaded.work_
        np.testing.assert_array_equal(serial.dependent_, threaded.dependent_)

    def test_batch_engine_results_independent_of_worker_count(self, small_blobs):
        """The batch engine's chunk boundaries follow the worker count, which
        may move its counters but never its results."""
        points, _ = small_blobs
        fits = [
            ExDPC(
                d_cut=5_000.0, n_clusters=3, engine="batch", n_jobs=n_jobs, backend="thread"
            ).fit(points)
            for n_jobs in (1, 2, 4)
        ]
        for fit in fits[1:]:
            np.testing.assert_array_equal(fit.labels_, fits[0].labels_)
            np.testing.assert_array_equal(fit.dependent_, fits[0].dependent_)
            np.testing.assert_array_equal(fit.delta_, fits[0].delta_)

    def test_exact_dependency_mask_all_true(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, n_clusters=3).fit(points)
        assert result.exact_dependency_mask_.all()

    @pytest.mark.parametrize("leaf_size", [8, 64])
    def test_leaf_size_does_not_change_result(self, small_blobs, leaf_size):
        points, _ = small_blobs
        base = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0).fit(points)
        other = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, leaf_size=leaf_size).fit(points)
        np.testing.assert_array_equal(base.labels_, other.labels_)
