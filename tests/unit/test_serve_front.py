"""Unit tests for the multi-replica serving front."""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import ExDPC
from repro.serve import PredictClient, ReplicaFront
from repro.stream.snapshot import save_model


@pytest.fixture(scope="module")
def fitted(small_blobs):
    points, _ = small_blobs
    model = ExDPC(2_000.0, rho_min=2, n_clusters=3, seed=0)
    model.fit(points)
    return model, points


@pytest.fixture(scope="module")
def snapshot(fitted, tmp_path_factory):
    model, _ = fitted
    path = tmp_path_factory.mktemp("front") / "model.npz"
    save_model(model, path)
    return path


def run_front(snapshot_path, coroutine, *, replicas=2, **front_kwargs):
    """Run ``coroutine(front, client)`` against a started replica front."""

    async def main():
        front = ReplicaFront(
            [("m", snapshot_path)], replicas=replicas, **front_kwargs
        )
        host, port = await front.start()
        client = await PredictClient.connect(host, port)
        try:
            return await coroutine(front, client)
        finally:
            await client.close()
            await front.close()

    return asyncio.run(main())


class TestReplicaFront:
    def test_predicts_match_direct_predict(self, fitted, snapshot):
        model, points = fitted
        rng = np.random.default_rng(7)
        queries = points[rng.integers(0, points.shape[0], size=64)]
        batches = [queries[i * 8 : (i + 1) * 8] for i in range(8)]
        expected = model.predict(queries)

        async def burst(front, client):
            results = await asyncio.gather(
                *(client.predict("m", batch) for batch in batches)
            )
            return np.concatenate(results)

        labels = run_front(snapshot, burst)
        np.testing.assert_array_equal(labels, expected)

    def test_round_robin_spreads_requests(self, fitted, snapshot):
        _, points = fitted

        async def spread(front, client):
            # Sequential requests alternate replicas; per-replica stats
            # prove both actually served work.
            for row in points[:6]:
                await client.predict("m", row[None, :])
            counts = []
            for link in front._links:
                response = await link.roundtrip({"op": "stats"})
                models = response["stats"]["models"]
                counts.append(models.get("m", {}).get("requests", 0))
            return counts

        counts = run_front(snapshot, spread)
        assert len(counts) == 2
        assert counts == [3, 3]

    def test_health_aggregates_replicas(self, snapshot):
        async def probe(front, client):
            # The front answers health itself (no round-robin) and the warm
            # start-up probe already loaded the snapshot everywhere.
            return await client.request({"op": "health"})

        report = run_front(snapshot, probe)
        assert report["healthy"] is True
        assert len(report["replicas"]) == 2
        ports = [replica["port"] for replica in report["replicas"]]
        assert len(set(ports)) == 2
        for replica in report["replicas"]:
            assert replica["healthy"] is True
            assert replica["loaded"] == ["m"]  # warmed at start()
        pids = {replica["pid"] for replica in report["replicas"]}
        assert len(pids) == 2  # genuinely separate processes
        assert report["front_pid"] not in pids

    def test_replica_ports_and_address(self, snapshot):
        async def inspect(front, client):
            return front.address, front.replica_ports

        (host, port), ports = run_front(snapshot, inspect)
        assert host == "127.0.0.1" and port > 0
        assert len(ports) == 2 and port not in ports

    def test_forwarded_errors_keep_connection_alive(self, snapshot):
        async def bad(front, client):
            with pytest.raises(RuntimeError, match="not registered"):
                await client.predict("ghost", [[0.0, 0.0]])
            return await client.request({"op": "ping"})

        assert run_front(snapshot, bad)["pong"] is True

    def test_single_replica_front(self, fitted, snapshot):
        model, points = fitted

        async def once(front, client):
            return await client.predict("m", points[:5])

        labels = run_front(snapshot, once, replicas=1)
        np.testing.assert_array_equal(labels, model.predict(points[:5]))

    def test_invalid_construction(self, snapshot):
        with pytest.raises(ValueError, match="replicas"):
            ReplicaFront([("m", snapshot)], replicas=0)
        with pytest.raises(ValueError, match="model spec"):
            ReplicaFront([])

    def test_concurrent_ids_multiplex_correctly(self, fitted, snapshot):
        # Interleaved requests from one connection must come back matched to
        # their own ids even though the front rewrites ids upstream.
        model, points = fitted
        expected = model.predict(points[:20])

        async def interleave(front, client):
            results = await asyncio.gather(
                *(client.predict("m", points[i : i + 1]) for i in range(20))
            )
            return np.concatenate(results)

        labels = run_front(snapshot, interleave)
        np.testing.assert_array_equal(labels, expected)

    def test_replicas_predict_on_the_process_backend(self, fitted, tmp_path):
        # A replica must be able to start the worker pool of a model that
        # predicts on the process backend.
        _, points = fitted
        model = ExDPC(2_000.0, rho_min=2, n_clusters=3, seed=0, n_jobs=2, backend="process")
        model.fit(points)
        path = tmp_path / "process-model.npz"
        save_model(model, path)
        queries = points[:40]

        async def once(front, client):
            return await client.predict("m", queries)

        labels = run_front(path, once, replicas=1)
        np.testing.assert_array_equal(labels, model.predict(queries))

    def test_unclosed_front_does_not_hang_exit(self, snapshot):
        # Replicas are non-daemonic (so they may start worker pools); a front
        # that is never closed must still let the interpreter exit and take
        # its replicas down with it.
        script = textwrap.dedent(
            f"""
            import asyncio, json
            from repro.serve import PredictClient, ReplicaFront

            async def main():
                front = ReplicaFront([("m", {str(snapshot)!r})], replicas=1)
                host, port = await front.start()
                client = await PredictClient.connect(host, port)
                await client.predict("m", [[0.0, 0.0]])
                await client.close()
                print(json.dumps([p.pid for p in front._processes]), flush=True)

            asyncio.run(main())
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src, env.get("PYTHONPATH")) if path
        )
        finished = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert finished.returncode == 0, finished.stderr
        pids = json.loads(finished.stdout.strip().splitlines()[-1])
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
