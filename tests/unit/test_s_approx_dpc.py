"""Unit tests for S-Approx-DPC (§5): sampled grid, cell clustering, epsilon."""

import numpy as np
import pytest

from repro.core.ex_dpc import ExDPC
from repro.core.s_approx_dpc import SApproxDPC
from repro.metrics import adjusted_rand_index, rand_index
from tests.conftest import reference_local_density


class TestDensities:
    def test_picked_point_densities_are_exact(self, tiny_syn):
        points, _ = tiny_syn
        d_cut = 4_000.0
        model = SApproxDPC(d_cut=d_cut, epsilon=0.5, n_clusters=5)
        result = model.fit(points)
        expected = reference_local_density(points, d_cut)
        picked = model._grid.picked_points()
        np.testing.assert_array_equal(
            result.rho_raw_[picked], expected[picked].astype(np.int64)
        )

    def test_non_picked_points_inherit_cell_density(self, tiny_syn):
        points, _ = tiny_syn
        model = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5)
        result = model.fit(points)
        for cell in model._grid.cells():
            np.testing.assert_array_equal(
                result.rho_raw_[cell.point_indices],
                result.rho_raw_[cell.picked],
            )


class TestDependencies:
    def test_non_picked_points_depend_on_their_picked_point(self, tiny_syn):
        points, _ = tiny_syn
        model = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5)
        result = model.fit(points)
        centers = set(result.centers_.tolist())
        for cell in model._grid.cells():
            for index in cell.point_indices:
                index = int(index)
                if index == cell.picked or index in centers:
                    continue
                assert result.dependent_[index] == cell.picked

    def test_picked_dependent_is_denser_picked_point(self, tiny_syn):
        points, _ = tiny_syn
        model = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5)
        result = model.fit(points)
        picked = set(int(i) for i in model._grid.picked_points())
        centers = set(result.centers_.tolist())
        for index in picked:
            if index in centers:
                continue
            dep = int(result.dependent_[index])
            if dep >= 0:
                assert dep in picked
                assert result.rho_[dep] > result.rho_[index]


class TestEpsilonBehaviour:
    def test_smaller_epsilon_means_more_cells(self, tiny_syn):
        points, _ = tiny_syn
        fine = SApproxDPC(d_cut=4_000.0, epsilon=0.2, n_clusters=5)
        coarse = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5)
        fine.fit(points)
        coarse.fit(points)
        assert fine._grid.num_cells > coarse._grid.num_cells

    def test_smaller_epsilon_means_more_density_work(self, tiny_syn):
        points, _ = tiny_syn
        fine = SApproxDPC(d_cut=4_000.0, epsilon=0.2, n_clusters=5).fit(points)
        coarse = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5).fit(points)
        assert (
            fine.work_["density_distance_calcs"]
            > coarse.work_["density_distance_calcs"]
        )

    def test_small_epsilon_accuracy_at_least_as_good(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        fine = SApproxDPC(
            d_cut=4_000.0, epsilon=0.2, rho_min=3, n_clusters=5, seed=0
        ).fit(points)
        assert rand_index(ex.labels_, fine.labels_) > 0.85

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SApproxDPC(d_cut=1.0, epsilon=0.0, n_clusters=2)


class TestQualityAndBookkeeping:
    def test_recovers_separated_blobs(self, small_blobs):
        points, truth = small_blobs
        result = SApproxDPC(d_cut=5_000.0, epsilon=0.5, rho_min=3, n_clusters=3).fit(points)
        mask = result.labels_ >= 0
        assert adjusted_rand_index(truth[mask], result.labels_[mask]) > 0.9

    def test_less_density_work_than_ex_dpc(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        s_approx = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5).fit(points)
        assert (
            s_approx.work_["density_distance_calcs"]
            < ex.work_["density_distance_calcs"]
        )
        assert (
            s_approx.work_["dependency_distance_calcs"]
            < ex.work_["dependency_distance_calcs"]
        )

    def test_fallback_path_gives_same_quality(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, n_clusters=5, seed=0).fit(points)
        # Force the partition-based fallback by making the quadratic pass
        # "too expensive".
        forced = SApproxDPC(
            d_cut=4_000.0,
            epsilon=1.0,
            n_clusters=5,
            seed=0,
            fallback_factor=1e-9,
        ).fit(points)
        default = SApproxDPC(d_cut=4_000.0, epsilon=1.0, n_clusters=5, seed=0).fit(points)
        assert rand_index(ex.labels_, forced.labels_) > 0.8
        assert rand_index(default.labels_, forced.labels_) > 0.9
