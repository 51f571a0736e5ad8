"""Unit tests for Approx-DPC (§4): exact densities, cell-level dependencies."""

import numpy as np
import pytest

from repro.core.approx_dpc import ApproxDPC
from repro.core.ex_dpc import ExDPC
from repro.metrics import adjusted_rand_index, center_agreement, rand_index
from tests.conftest import reference_local_density


class TestDensityExactness:
    def test_local_density_matches_bruteforce(self, random_points_2d):
        points = random_points_2d
        d_cut = 60.0
        result = ApproxDPC(d_cut=d_cut, n_clusters=2).fit(points)
        expected = reference_local_density(points, d_cut)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_local_density_matches_bruteforce_4d(self, random_points_4d):
        points = random_points_4d
        d_cut = 250.0
        result = ApproxDPC(d_cut=d_cut, n_clusters=2).fit(points)
        expected = reference_local_density(points, d_cut)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_density_matches_ex_dpc(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, n_clusters=5, seed=0).fit(points)
        approx = ApproxDPC(d_cut=4_000.0, n_clusters=5, seed=0).fit(points)
        np.testing.assert_array_equal(ex.rho_raw_, approx.rho_raw_)


class TestDependencyApproximation:
    def test_approximate_delta_is_exactly_d_cut(self, tiny_syn):
        points, _ = tiny_syn
        d_cut = 4_000.0
        result = ApproxDPC(d_cut=d_cut, n_clusters=5).fit(points)
        approx_mask = ~result.exact_dependency_mask_
        non_center = np.ones(points.shape[0], dtype=bool)
        non_center[result.centers_] = False
        deltas = result.delta_[approx_mask & non_center]
        np.testing.assert_allclose(deltas, d_cut)

    def test_exact_fallback_delta_exceeds_d_cut_or_is_nearest(self, tiny_syn):
        points, _ = tiny_syn
        d_cut = 4_000.0
        result = ApproxDPC(d_cut=d_cut, n_clusters=5).fit(points)
        exact = result.exact_dependency_mask_
        # Every exactly-computed finite delta must equal the true nearest
        # denser-point distance.
        dists = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
        for i in np.flatnonzero(exact):
            denser = np.flatnonzero(result.rho_ > result.rho_[i])
            if denser.size == 0:
                assert result.delta_[i] == np.inf
            else:
                assert result.delta_[i] == pytest.approx(dists[i, denser].min())

    def test_dependent_point_is_denser(self, tiny_syn):
        points, _ = tiny_syn
        result = ApproxDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        non_center = np.ones(points.shape[0], dtype=bool)
        non_center[result.centers_] = False
        for i in np.flatnonzero(non_center):
            dep = result.dependent_[i]
            if dep >= 0:
                assert result.rho_[dep] > result.rho_[i]


class TestCenterGuarantee:
    def test_same_centers_as_ex_dpc_with_thresholds(self, tiny_syn):
        """Theorem 4: identical centers under the same rho_min / delta_min."""
        points, _ = tiny_syn
        d_cut = 4_000.0
        ex = ExDPC(d_cut=d_cut, rho_min=3, n_clusters=5, seed=0).fit(points)
        _, delta_min = ex.decision_graph().suggest_thresholds(5, rho_min=3)
        assert delta_min > d_cut

        ex_threshold = ExDPC(d_cut=d_cut, rho_min=3, delta_min=delta_min, seed=0).fit(points)
        approx_threshold = ApproxDPC(
            d_cut=d_cut, rho_min=3, delta_min=delta_min, seed=0
        ).fit(points)
        assert center_agreement(ex_threshold.centers_, approx_threshold.centers_) == 1.0

    def test_high_rand_index_vs_ex_dpc(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        approx = ApproxDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        assert rand_index(ex.labels_, approx.labels_) > 0.9

    def test_recovers_separated_blobs(self, small_blobs):
        points, truth = small_blobs
        result = ApproxDPC(d_cut=5_000.0, rho_min=3, n_clusters=3).fit(points)
        mask = result.labels_ >= 0
        assert adjusted_rand_index(truth[mask], result.labels_[mask]) > 0.95


class TestEfficiencyBookkeeping:
    def test_less_density_work_than_ex_dpc(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        approx = ApproxDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        # The joint range search issues one tree query per cell instead of one
        # per point, so the kd-tree traversal work drops; total density work
        # (including the shared-result scans) must not explode either.
        assert (
            approx.work_["dependency_distance_calcs"]
            < ex.work_["dependency_distance_calcs"]
        )

    def test_explicit_partition_count(self, tiny_syn):
        points, _ = tiny_syn
        default = ApproxDPC(d_cut=4_000.0, n_clusters=5, seed=0).fit(points)
        fixed = ApproxDPC(d_cut=4_000.0, n_clusters=5, seed=0, n_partitions=4).fit(points)
        np.testing.assert_array_equal(default.labels_, fixed.labels_)

    def test_memory_larger_than_ex_dpc(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        approx = ApproxDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        # Approx-DPC adds the grid on top of the kd-tree (Table 7 ordering).
        assert approx.memory_bytes_ > ex.memory_bytes_
