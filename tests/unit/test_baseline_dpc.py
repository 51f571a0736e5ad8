"""Unit tests for the DPC baselines: Scan, R-tree + Scan, LSH-DDP, CFSFDP-A."""

import numpy as np
import pytest

from repro.baselines.cfsfdp_a import CFSFDPA
from repro.baselines.lsh_ddp import LSHDDP
from repro.baselines.rtree_scan import RTreeScanDPC
from repro.baselines.scan import ScanDPC
from repro.core.ex_dpc import ExDPC
from repro.metrics import rand_index
from tests.conftest import reference_dependencies, reference_local_density


class TestScan:
    def test_density_matches_bruteforce(self, random_points_2d):
        points = random_points_2d
        result = ScanDPC(d_cut=60.0, n_clusters=2).fit(points)
        expected = reference_local_density(points, 60.0)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_dependencies_match_bruteforce(self, random_points_2d):
        points = random_points_2d
        result = ScanDPC(d_cut=60.0, n_clusters=2).fit(points)
        _, expected_delta = reference_dependencies(points, result.rho_)
        densest = int(np.argmax(result.rho_))
        others = np.arange(points.shape[0]) != densest
        np.testing.assert_allclose(result.delta_[others], expected_delta[others])

    def test_quadratic_work(self, random_points_2d):
        points = random_points_2d
        n = points.shape[0]
        result = ScanDPC(d_cut=60.0, n_clusters=2).fit(points)
        assert result.work_["density_distance_calcs"] == pytest.approx(n * n)
        assert result.work_["dependency_distance_calcs"] == pytest.approx(
            n * (n - 1) / 2, rel=0.01
        )

    def test_matches_ex_dpc_labels(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        scan = ScanDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        assert rand_index(ex.labels_, scan.labels_) == 1.0

    def test_chunk_size_does_not_change_result(self, tiny_syn):
        points, _ = tiny_syn
        a = ScanDPC(d_cut=4_000.0, n_clusters=5, seed=0, chunk_size=64).fit(points)
        b = ScanDPC(d_cut=4_000.0, n_clusters=5, seed=0, chunk_size=4096).fit(points)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ScanDPC(d_cut=1.0, n_clusters=2, chunk_size=0)


class TestRTreeScan:
    def test_density_matches_bruteforce(self, random_points_2d):
        points = random_points_2d
        result = RTreeScanDPC(d_cut=60.0, n_clusters=2).fit(points)
        expected = reference_local_density(points, 60.0)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_matches_scan_labels(self, tiny_syn):
        points, _ = tiny_syn
        scan = ScanDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        rtree = RTreeScanDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        assert rand_index(scan.labels_, rtree.labels_) == 1.0

    def test_density_work_below_scan(self, tiny_syn):
        points, _ = tiny_syn
        scan = ScanDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        rtree = RTreeScanDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        assert (
            rtree.work_["density_distance_calcs"]
            < scan.work_["density_distance_calcs"]
        )
        # Dependency phase is identical (Scan's), hence identical work.
        assert rtree.work_["dependency_distance_calcs"] == pytest.approx(
            scan.work_["dependency_distance_calcs"]
        )


class TestCFSFDPA:
    def test_density_matches_bruteforce(self, random_points_2d):
        """The pivot/triangle-inequality filter must be lossless."""
        points = random_points_2d
        result = CFSFDPA(d_cut=60.0, n_clusters=2).fit(points)
        expected = reference_local_density(points, 60.0)
        np.testing.assert_array_equal(result.rho_raw_, expected.astype(np.int64))

    def test_matches_scan_labels(self, tiny_syn):
        points, _ = tiny_syn
        scan = ScanDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        cfsfdp = CFSFDPA(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        assert rand_index(scan.labels_, cfsfdp.labels_) == 1.0

    def test_density_work_below_plain_scan(self, tiny_syn):
        points, _ = tiny_syn
        scan = ScanDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        cfsfdp = CFSFDPA(d_cut=4_000.0, n_clusters=5).fit(points)
        assert (
            cfsfdp.work_["density_distance_calcs"]
            < scan.work_["density_distance_calcs"]
        )

    def test_explicit_pivot_count(self, tiny_syn):
        points, _ = tiny_syn
        result = CFSFDPA(d_cut=4_000.0, n_clusters=5, n_pivots=4).fit(points)
        assert result.n_clusters_ == 5

    def test_memory_dominates_other_algorithms(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, n_clusters=5).fit(points)
        cfsfdp = CFSFDPA(d_cut=4_000.0, n_clusters=5).fit(points)
        # CFSFDP-A caches point-to-pivot distances; Table 7 shows it as the
        # most memory-hungry algorithm.
        assert cfsfdp.memory_bytes_ > ex.memory_bytes_


class TestLSHDDP:
    def test_runs_and_produces_requested_clusters(self, tiny_syn):
        points, _ = tiny_syn
        result = LSHDDP(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        assert result.n_clusters_ == 5

    def test_density_never_exceeds_true_density(self, random_points_2d):
        points = random_points_2d
        result = LSHDDP(d_cut=60.0, n_clusters=2, seed=0).fit(points)
        expected = reference_local_density(points, 60.0)
        assert (result.rho_raw_ <= expected.astype(np.int64)).all()

    def test_reasonable_agreement_with_ex_dpc(self, tiny_syn):
        points, _ = tiny_syn
        ex = ExDPC(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        lsh = LSHDDP(d_cut=4_000.0, rho_min=3, n_clusters=5, seed=0).fit(points)
        assert rand_index(ex.labels_, lsh.labels_) > 0.75

    def test_deterministic_for_seed(self, tiny_syn):
        points, _ = tiny_syn
        a = LSHDDP(d_cut=4_000.0, n_clusters=5, seed=3).fit(points)
        b = LSHDDP(d_cut=4_000.0, n_clusters=5, seed=3).fit(points)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_more_tables_increase_density_estimate(self, tiny_syn):
        points, _ = tiny_syn
        few = LSHDDP(d_cut=4_000.0, n_clusters=5, seed=0, n_tables=1).fit(points)
        many = LSHDDP(d_cut=4_000.0, n_clusters=5, seed=0, n_tables=6).fit(points)
        assert many.rho_raw_.sum() >= few.rho_raw_.sum()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LSHDDP(d_cut=1.0, n_clusters=2, n_tables=0)
        with pytest.raises(ValueError):
            LSHDDP(d_cut=1.0, n_clusters=2, bucket_width_factor=0.0)
