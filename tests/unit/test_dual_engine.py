"""Unit tests: dual-tree engine plumbing, float32 storage, and snapshots.

The bit-for-bit equivalence of the dual engine is property-tested in
``tests/property/test_dual_equivalence.py``; these tests cover the
surrounding machinery -- parameter validation, the cache-aware point layout,
float32 storage through ``KDTreeArrays`` / ``from_arrays`` / model
snapshots, the dual-vs-tree predict join, and the streaming integration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.core.framework import DEFAULT_ENGINE_ENV, ENGINES, resolve_engine
from repro.data import generate_blobs, generate_real_like, generate_syn
from repro.index.kdtree import KDTree, check_storage_dtype
from repro.io import load_model, save_model
from repro.shard import ShardedDPC
from repro.stream import StreamingDPC


def _blobs(n=120, seed=3):
    centers = np.array([[20_000.0, 20_000.0], [80_000.0, 20_000.0], [50_000.0, 80_000.0]])
    points, _ = generate_blobs(n, centers, spread=3_000.0, seed=seed)
    return points


def _random_points(n, d, seed=0):
    return np.random.default_rng(seed).uniform(-100.0, 100.0, size=(n, d))


class TestEngineValidation:
    def test_resolve_engine_accepts_all_engines(self):
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            resolve_engine("gpu")
        with pytest.raises(ValueError, match="engine must be one of"):
            ExDPC(d_cut=1.0, n_clusters=2, engine="vectorized")

    def test_default_engine_env(self, monkeypatch):
        monkeypatch.setenv(DEFAULT_ENGINE_ENV, "dual")
        assert ExDPC(d_cut=1.0, n_clusters=2).engine == "dual"
        monkeypatch.delenv(DEFAULT_ENGINE_ENV)
        assert ExDPC(d_cut=1.0, n_clusters=2).engine == "auto"
        # Explicit argument wins over the environment.
        monkeypatch.setenv(DEFAULT_ENGINE_ENV, "dual")
        assert ExDPC(d_cut=1.0, n_clusters=2, engine="scalar").engine == "scalar"

    def test_estimators_report_engine_and_dtype(self):
        for cls, extra in (
            (ExDPC, {}),
            (ApproxDPC, {}),
            (SApproxDPC, {"epsilon": 0.8}),
        ):
            params = cls(
                d_cut=1.0, n_clusters=2, engine="dual", dtype="float32", **extra
            ).get_params()
            assert params["engine"] == "dual"
            assert params["dtype"] == "float32"

    def test_storage_dtype_validation(self):
        assert check_storage_dtype("float32") == np.dtype(np.float32)
        assert check_storage_dtype(np.float64) == np.dtype(np.float64)
        with pytest.raises(ValueError, match="dtype must be one of"):
            check_storage_dtype("float16")
        with pytest.raises(ValueError, match="dtype must be one of"):
            ExDPC(d_cut=1.0, n_clusters=2, dtype="int32")


class TestAutoEngine:
    """``engine="auto"`` (the default): dual fit up to AUTO_DUAL_MAX_DIM
    dimensions, batch above, and ``predict`` on the batch engine."""

    def test_fit_engine_resolves_by_dimension(self):
        low = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, engine="auto")
        low.fit(_blobs())
        assert low.engine_ == "dual"
        high = ExDPC(d_cut=60.0, n_clusters=2, seed=0, engine="auto")
        high.fit(_random_points(150, 13))
        assert high.engine_ == "batch"

    @pytest.mark.parametrize(
        "engine,expected",
        [("auto", "batch"), ("batch", "batch"), ("dual", "dual"), ("scalar", "scalar")],
    )
    def test_predict_engine(self, engine, expected):
        model = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, engine=engine)
        model.fit(_blobs())
        assert model.predict_engine_ == expected

    @pytest.mark.parametrize(
        "cls,extra",
        [(ExDPC, {}), (SApproxDPC, {"epsilon": 0.8}), (ShardedDPC, {"n_shards": 2})],
    )
    def test_auto_predict_runs_no_dual_join(self, monkeypatch, cls, extra):
        model = cls(d_cut=5_000.0, n_clusters=3, seed=0, engine="auto", **extra)
        model.fit(_blobs())
        assert model.engine_ == "dual"

        def refuse(*args, **kwargs):
            raise AssertionError("auto predict must stay on the batch engine")

        monkeypatch.setattr(KDTree, "range_count_dual_vs", refuse)
        monkeypatch.setattr(KDTree, "nn_dual_vs", refuse)
        queries = _random_points(40, 2, seed=9) * 500.0 + 50_000.0
        assert model.predict(queries).shape == (40,)

    @pytest.mark.parametrize(
        "cls,extra",
        [
            (ExDPC, {}),
            (ApproxDPC, {}),
            (SApproxDPC, {"epsilon": 0.8}),
            (ShardedDPC, {"n_shards": 2}),
        ],
    )
    def test_predict_labels_equal_across_engines(self, cls, extra):
        points = _blobs()
        queries = _random_points(40, 2, seed=9) * 500.0 + 50_000.0
        labels = {}
        for engine in ("auto", "batch", "dual"):
            model = cls(d_cut=5_000.0, n_clusters=3, seed=0, engine=engine, **extra)
            model.fit(points)
            labels[engine] = model.predict(queries)
        np.testing.assert_array_equal(labels["auto"], labels["batch"])
        np.testing.assert_array_equal(labels["auto"], labels["dual"])

    @pytest.mark.parametrize("dim,fit_engine", [(2, "dual"), (13, "batch")])
    def test_snapshot_keeps_both_resolutions(self, tmp_path, dim, fit_engine):
        points = _random_points(150, dim)
        model = ExDPC(d_cut=60.0, n_clusters=2, seed=0, engine="auto")
        model.fit(points)
        restored = load_model(save_model(model, tmp_path / "model.npz"))
        assert restored.engine == "auto"
        assert restored.engine_ == fit_engine
        assert restored.predict_engine_ == "batch"
        queries = _random_points(30, dim, seed=4)
        np.testing.assert_array_equal(
            restored.predict(queries), model.predict(queries)
        )


class TestDefaultEngineCounters:
    """Counter gates of the library default: no wall-clock, so they hold on
    any host."""

    def test_default_fit_matches_batch_with_less_work(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_ENGINE_ENV, raising=False)
        points, _ = generate_syn(n_points=3_000, seed=0)
        params = dict(d_cut=2_000.0, rho_min=5, n_clusters=13, seed=0)
        default = ExDPC(**params).fit(points)
        batch = ExDPC(**params, engine="batch").fit(points)
        for name in ("rho_", "delta_", "dependent_", "labels_"):
            np.testing.assert_array_equal(
                getattr(default, name), getattr(batch, name), err_msg=name
            )
        assert (
            default.work_["total_distance_calcs"]
            < batch.work_["total_distance_calcs"]
        )

    def test_default_fit_work_is_backend_invariant(self, monkeypatch):
        monkeypatch.delenv(DEFAULT_ENGINE_ENV, raising=False)
        points, _ = generate_real_like("household", n_points=2_000)
        assert points.shape[1] == 4
        params = dict(d_cut=3_000.0, rho_min=5, n_clusters=15, seed=0)
        serial = ExDPC(**params, n_jobs=1, backend="serial").fit(points)
        process = ExDPC(**params, n_jobs=2, backend="process").fit(points)
        assert serial.work_ == process.work_
        np.testing.assert_array_equal(serial.labels_, process.labels_)


class TestCacheAwareLayout:
    def test_points_ordered_matches_permutation(self):
        points = _random_points(200, 2)
        tree = KDTree(points, leaf_size=8)
        np.testing.assert_array_equal(
            tree.points_ordered, tree.points[tree.arrays.indices]
        )
        assert tree.points_ordered.flags["C_CONTIGUOUS"]

    def test_memory_bytes_counts_materialised_layout(self):
        tree = KDTree(_random_points(100, 2), leaf_size=8)
        before = tree.memory_bytes()
        ordered = tree.points_ordered
        assert tree.memory_bytes() == before + ordered.nbytes

    def test_bbox_arrays_cover_points(self):
        points = _random_points(300, 3, seed=5)
        arrays = KDTree(points, leaf_size=4).arrays
        np.testing.assert_array_equal(arrays.bbox_min[0], points.min(axis=0))
        np.testing.assert_array_equal(arrays.bbox_max[0], points.max(axis=0))


class TestFloat32Storage:
    def test_storage_and_arrays_dtype(self):
        points = _random_points(64, 2)
        tree = KDTree(points, leaf_size=8, dtype="float32")
        assert tree.dtype_name == "float32"
        assert tree.points.dtype == np.float32
        assert tree.arrays.split_val.dtype == np.float32
        assert tree.arrays.bbox_min.dtype == np.float32
        np.testing.assert_array_equal(tree.source_points, points)
        assert tree.source_points.dtype == np.float64

    def test_float32_halves_point_storage(self):
        points = _random_points(256, 4)
        t64 = KDTree(points, leaf_size=8)
        t32 = KDTree(points, leaf_size=8, dtype="float32")
        assert t32.points.nbytes * 2 == t64.points.nbytes

    def test_from_arrays_infers_dtype_from_split_values(self):
        points = _random_points(128, 2)
        tree = KDTree(points, leaf_size=8, dtype="float32")
        view = KDTree.from_arrays(points, tree.arrays, leaf_size=8, validate=True)
        assert view.dtype_name == "float32"
        np.testing.assert_array_equal(
            view.range_count_batch(points, 25.0),
            tree.range_count_batch(points, 25.0),
        )
        np.testing.assert_array_equal(
            view.range_count_dual(25.0), tree.range_count_dual(25.0)
        )

    def test_dual_partner_requires_matching_dtype(self):
        points = _random_points(32, 2)
        t32 = KDTree(points, leaf_size=8, dtype="float32")
        t64 = KDTree(points, leaf_size=8)
        with pytest.raises(ValueError, match="same dtype"):
            t64.range_count_dual_vs(t32, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            t64.range_count_dual_vs(KDTree(_random_points(8, 3)), 1.0)


class TestDualPredict:
    def test_predict_train_points_recover_labels(self):
        points = _blobs()
        model = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, engine="dual")
        model.fit(points)
        np.testing.assert_array_equal(model.predict(points), model.result_.labels_)

    @pytest.mark.parametrize(
        "cls,extra",
        [(ExDPC, {}), (ApproxDPC, {}), (SApproxDPC, {"epsilon": 0.8})],
    )
    def test_predict_matches_batch_engine(self, cls, extra):
        points = _blobs()
        queries = _random_points(40, 2, seed=9) * 500.0 + 50_000.0
        batch = cls(d_cut=5_000.0, n_clusters=3, seed=0, engine="batch", **extra)
        dual = cls(d_cut=5_000.0, n_clusters=3, seed=0, engine="dual", **extra)
        batch.fit(points)
        dual.fit(points)
        np.testing.assert_array_equal(batch.predict(queries), dual.predict(queries))

    def test_dual_vs_join_counts_match_batch(self):
        points = _blobs()
        queries = _random_points(50, 2, seed=4) * 400.0 + 50_000.0
        tree = KDTree(points, leaf_size=16)
        query_tree = KDTree(queries, leaf_size=8)
        np.testing.assert_array_equal(
            tree.range_count_dual_vs(query_tree, 5_000.0),
            tree.range_count_batch(queries, 5_000.0),
        )


class TestSnapshotsAndStreaming:
    def test_float32_dual_model_roundtrips(self, tmp_path):
        points = _blobs()
        model = ExDPC(
            d_cut=5_000.0, n_clusters=3, seed=0, engine="dual", dtype="float32"
        )
        model.fit(points)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path)
        assert restored.engine == "dual"
        assert restored.dtype == "float32"
        assert restored._tree.dtype_name == "float32"
        queries = _random_points(30, 2, seed=2) * 500.0 + 50_000.0
        np.testing.assert_array_equal(
            restored.predict(queries), model.predict(queries)
        )

    def test_mmap_snapshot_supports_dual_predict(self, tmp_path):
        points = _blobs()
        model = ExDPC(d_cut=5_000.0, n_clusters=3, seed=0, engine="dual")
        model.fit(points)
        path = save_model(model, tmp_path / "model.npz")
        restored = load_model(path, mmap=True)
        np.testing.assert_array_equal(
            restored.predict(points), model.result_.labels_
        )

    def test_streaming_dual_engine_matches_refits(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 100.0, size=(60, 2))
        stream = StreamingDPC(
            d_cut=15.0,
            delta_min=25.0,
            seed=0,
            engine="dual",
            refit_equivalence=True,  # raises on any divergence from a cold fit
        )
        stream.fit(points[:40])
        stream.update(points[40:50])
        stream.update(points[50:])
        cold = ExDPC(
            d_cut=15.0, delta_min=25.0, seed=0, engine="dual"
        ).fit(stream.window_)
        np.testing.assert_array_equal(stream.labels_, cold.labels_)

    def test_streaming_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            StreamingDPC(d_cut=1.0, n_clusters=2, engine="quantum")
