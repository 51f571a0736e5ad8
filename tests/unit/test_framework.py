"""Unit tests for the shared estimator lifecycle (repro.core.framework)."""

import numpy as np
import pytest

from repro.baselines import CFSFDPA, LSHDDP, RTreeScanDPC
from repro.core import ApproxDPC, SApproxDPC
from repro.core.ex_dpc import ExDPC
from repro.baselines.scan import ScanDPC
from repro.shard import ShardedDPC

ESTIMATORS = [
    pytest.param(ExDPC, id="ex-dpc"),
    pytest.param(ApproxDPC, id="approx-dpc"),
    pytest.param(SApproxDPC, id="s-approx-dpc"),
    pytest.param(ScanDPC, id="scan"),
    pytest.param(RTreeScanDPC, id="rtree-scan"),
    pytest.param(LSHDDP, id="lsh-ddp"),
    pytest.param(CFSFDPA, id="cfsfdp-a"),
    pytest.param(ShardedDPC, id="sharded"),
]
ENGINE_AWARE = (ExDPC, ApproxDPC, SApproxDPC, ShardedDPC)


class TestParameterValidation:
    def test_requires_center_selection_mode(self):
        with pytest.raises(ValueError, match="delta_min"):
            ExDPC(d_cut=1.0)

    def test_delta_min_and_n_clusters_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ExDPC(d_cut=1.0, delta_min=5.0, n_clusters=3)

    def test_delta_min_must_exceed_d_cut(self):
        with pytest.raises(ValueError, match="must exceed d_cut"):
            ExDPC(d_cut=10.0, delta_min=5.0)

    def test_invalid_d_cut(self):
        with pytest.raises(ValueError):
            ExDPC(d_cut=-1.0, n_clusters=2)

    def test_invalid_rho_min(self):
        with pytest.raises(ValueError):
            ExDPC(d_cut=1.0, n_clusters=2, rho_min=-3)

    def test_invalid_n_clusters(self):
        with pytest.raises(ValueError):
            ExDPC(d_cut=1.0, n_clusters=0)

    def test_invalid_n_jobs(self):
        with pytest.raises(ValueError):
            ExDPC(d_cut=1.0, n_clusters=2, n_jobs=-2)

    def test_get_params_and_repr(self):
        model = ExDPC(d_cut=2.0, n_clusters=3, rho_min=5)
        params = model.get_params()
        assert params["d_cut"] == 2.0
        assert params["n_clusters"] == 3
        assert params["algorithm"] == "Ex-DPC"
        assert "ExDPC" in repr(model)
        assert "d_cut=2.0" in repr(model)


class TestFitContract:
    def test_result_fields_are_consistent(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, rho_min=3, n_clusters=3).fit(points)
        n = points.shape[0]
        assert result.labels_.shape == (n,)
        assert result.rho_.shape == (n,)
        assert result.rho_raw_.shape == (n,)
        assert result.delta_.shape == (n,)
        assert result.dependent_.shape == (n,)
        assert result.noise_mask_.shape == (n,)
        assert result.exact_dependency_mask_.shape == (n,)
        assert result.n_clusters_ == 3
        assert result.centers_.shape == (3,)
        assert result.n_points == n

    def test_timings_and_work_recorded(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, n_clusters=3).fit(points)
        for key in ("index_build", "local_density", "dependency", "assignment", "total"):
            assert key in result.timings_
            assert result.timings_[key] >= 0.0
        for key in (
            "density_distance_calcs",
            "dependency_distance_calcs",
            "total_distance_calcs",
        ):
            assert key in result.work_
            assert result.work_[key] > 0.0
        assert result.memory_bytes_ > 0

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            ExDPC(d_cut=1.0, n_clusters=1).fit([[0.0, 0.0]])

    def test_fit_predict_matches_fit(self, small_blobs):
        points, _ = small_blobs
        model = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0)
        labels = model.fit_predict(points)
        np.testing.assert_array_equal(labels, model.result_.labels_)

    def test_deterministic_with_seed(self, small_blobs):
        points, _ = small_blobs
        a = ExDPC(d_cut=5_000.0, n_clusters=3, seed=7).fit(points)
        b = ExDPC(d_cut=5_000.0, n_clusters=3, seed=7).fit(points)
        np.testing.assert_array_equal(a.labels_, b.labels_)

    def test_centers_have_no_dependent_point(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, n_clusters=3).fit(points)
        assert (result.dependent_[result.centers_] == -1).all()

    def test_threaded_execution_matches_serial(self, small_blobs):
        points, _ = small_blobs
        serial = ScanDPC(d_cut=5_000.0, n_clusters=3, seed=0, n_jobs=1).fit(points)
        threaded = ScanDPC(d_cut=5_000.0, n_clusters=3, seed=0, n_jobs=4).fit(points)
        np.testing.assert_array_equal(serial.labels_, threaded.labels_)


class TestParallelAccounting:
    """Every fit accounts for its parallel execution with ``timings_`` and
    ``work_`` alone, and keeps no per-task cost arrays on its result."""

    PHASES = ("index_build", "local_density", "dependency", "assignment")

    @pytest.mark.parametrize("cls", ESTIMATORS)
    def test_work_counters_add_up(self, cls, small_blobs):
        points, _ = small_blobs
        work = cls(d_cut=5_000.0, n_clusters=3, seed=0).fit(points).work_
        assert set(work) == {
            "density_distance_calcs",
            "dependency_distance_calcs",
            "total_distance_calcs",
        }
        assert work["density_distance_calcs"] > 0
        assert work["total_distance_calcs"] == (
            work["density_distance_calcs"] + work["dependency_distance_calcs"]
        )

    @pytest.mark.parametrize("cls", ESTIMATORS)
    def test_timings_cover_every_phase(self, cls, small_blobs):
        points, _ = small_blobs
        result = cls(d_cut=5_000.0, n_clusters=3, seed=0).fit(points)
        assert set(result.timings_) == set(self.PHASES) | {"total"}
        assert all(seconds >= 0.0 for seconds in result.timings_.values())
        phase_sum = sum(result.timings_[phase] for phase in self.PHASES)
        assert result.timings_["total"] >= phase_sum

    @pytest.mark.parametrize("cls", ESTIMATORS)
    def test_result_arrays_are_per_point_outputs_only(self, cls, small_blobs):
        points, _ = small_blobs
        result = cls(d_cut=5_000.0, n_clusters=3, seed=0).fit(points)
        arrays = {
            name for name, value in vars(result).items() if isinstance(value, np.ndarray)
        }
        assert arrays == {
            "labels_",
            "rho_",
            "rho_raw_",
            "delta_",
            "dependent_",
            "dependent_raw_",
            "centers_",
            "noise_mask_",
            "exact_dependency_mask_",
        }

    @pytest.mark.parametrize("cls", ESTIMATORS)
    def test_work_independent_of_worker_count(self, cls, small_blobs):
        # The baselines have one engine; the engine-aware estimators are
        # pinned to the dual engine, whose decomposition depends on the data
        # alone (the batch engine's chunk boundaries follow the worker count).
        points, _ = small_blobs
        extra = {"engine": "dual"} if cls in ENGINE_AWARE else {}
        fits = [
            cls(d_cut=5_000.0, n_clusters=3, seed=0, n_jobs=n_jobs, **extra).fit(points)
            for n_jobs in (1, 2, 3)
        ]
        for fit in fits[1:]:
            assert fit.work_ == fits[0].work_
            np.testing.assert_array_equal(fit.labels_, fits[0].labels_)


class TestResultHelpers:
    def test_cluster_sizes_and_members(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, n_clusters=3).fit(points)
        sizes = result.cluster_sizes()
        assert sum(sizes.values()) == points.shape[0] - result.n_noise
        for label, size in sizes.items():
            assert result.cluster_members(label).shape[0] == size

    def test_summary_mentions_algorithm(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, n_clusters=3).fit(points)
        assert "Ex-DPC" in result.summary()
        assert "clusters" in result.summary()

    def test_decision_graph_from_result(self, small_blobs):
        points, _ = small_blobs
        result = ExDPC(d_cut=5_000.0, n_clusters=3).fit(points)
        graph = result.decision_graph()
        assert graph.n_points == points.shape[0]
        suggested = graph.suggest_centers(3)
        assert set(suggested.tolist()) == set(result.centers_.tolist())
