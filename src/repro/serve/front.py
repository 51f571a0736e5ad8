"""Multi-replica serving front: N predict-server processes, one endpoint.

:class:`ReplicaFront` forks ``replicas`` worker processes, each running a
full :class:`~repro.serve.server.PredictServer` over its *own*
:class:`~repro.serve.registry.ModelRegistry` on a private port, and exposes
one TCP endpoint speaking the same NDJSON protocol.  Each incoming request
line is forwarded to a replica chosen round-robin (ids are rewritten on the
upstream leg and restored on the way back, so many clients can multiplex
through the front concurrently).

Why processes: a single asyncio predict server is ultimately serialised by
the GIL for the Python slices of the predict path.  Replicas are full
processes, so kernel passes for different requests genuinely overlap.  The
replicas do not duplicate model memory either -- every registry loads
snapshots with ``mmap=True``, so all replicas map the *same* snapshot files
and the OS page cache backs them with one physical copy.

Lifecycle: replicas are ordinary (non-daemonic) processes, so a replica
whose model runs on the process backend can start its own worker pools.
:meth:`ReplicaFront.close` terminates and joins them; a front that is never
closed stops its replicas from an ``atexit`` hook, so interpreter exit does
not hang on them.  A replica turns ``SIGTERM`` into an orderly exit that lets
an in-flight predict finish and shut its worker pool down.

Warm-up and health: after spawning, the front probes every replica with
``{"op": "health", "model": <first model>}`` -- a warm probe that also
faults in the snapshot -- and :meth:`ReplicaFront.start` returns only when
every replica answered (or raises after ``health_timeout``).
:meth:`ReplicaFront.health` re-probes on demand and is what powers
``repro serve --replicas N --health-check``.

Front-level ops: ``{"op": "health"}`` at the front aggregates per-replica
health (it never round-robins); everything else (predict/stats/models/ping)
is forwarded.  Aggregate throughput is measured by
``benchmarks/bench_serve.py --replicas``.
"""

from __future__ import annotations

import asyncio
import atexit
import json
import multiprocessing
import os
import signal
import sys

from repro.serve.registry import ModelRegistry
from repro.serve.server import _MAX_LINE_BYTES, PredictServer

__all__ = ["ReplicaFront"]


def _replica_main(
    conn,
    model_specs: list[tuple[str, str]],
    host: str,
    window_seconds: float,
    max_batch: int,
    max_pending_batches: int,
    max_models: int,
    mmap: bool,
) -> None:
    """Entry point of one replica process: serve on a free port, report it."""
    # SIGTERM (close() or the front's exit hook) raises SystemExit, so
    # asyncio.run unwinds and waits for the predict threads, whose executors
    # shut their worker pools down instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    registry = ModelRegistry(max_models=max_models, mmap=mmap)
    for name, path in model_specs:
        registry.register(name, path)
    server = PredictServer(
        registry,
        host=host,
        port=0,
        window_seconds=window_seconds,
        max_batch=max_batch,
        max_pending_batches=max_pending_batches,
    )

    async def _serve() -> None:
        _, port = await server.start()
        conn.send(port)
        conn.close()
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass


class _ReplicaLink:
    """One multiplexed upstream connection to a replica.

    Like :class:`~repro.serve.server.PredictClient` but returning *raw*
    response objects: the front must relay upstream errors back to its
    client verbatim instead of raising locally.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "_ReplicaLink":
        reader, writer = await asyncio.open_connection(
            host, port, limit=_MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("replica went away"))
            self._pending.clear()

    async def roundtrip(self, payload: dict) -> dict:
        """Forward one request (id rewritten) and return the raw response."""
        self._next_id += 1
        upstream_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[upstream_id] = future
        self._writer.write(
            (json.dumps({**payload, "id": upstream_id}) + "\n").encode()
        )
        await self._writer.drain()
        return await future

    async def close(self) -> None:
        self._reader_task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class ReplicaFront:
    """Round-robin NDJSON load balancer over forked predict-server replicas.

    Parameters
    ----------
    model_specs:
        ``[(name, path), ...]`` registered in every replica's registry.
    replicas:
        Number of server processes to fork (each serves on its own port).
    host, port:
        The front's bind address; ``port=0`` picks a free port.
    window_seconds, max_batch, max_pending_batches, max_models, mmap:
        Forwarded to every replica's :class:`PredictServer` / registry.
        Keep ``mmap=True`` so replicas share snapshot pages.
    health_timeout:
        Seconds to wait for each replica's port report and warm health
        probe before :meth:`start` fails.
    """

    def __init__(
        self,
        model_specs,
        *,
        replicas: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        window_seconds: float = 0.002,
        max_batch: int = 256,
        max_pending_batches: int = 1,
        max_models: int = 4,
        mmap: bool = True,
        health_timeout: float = 30.0,
    ):
        self.model_specs = [(str(name), str(path)) for name, path in model_specs]
        if not self.model_specs:
            raise ValueError("ReplicaFront needs at least one model spec")
        if int(replicas) < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self.host = host
        self.port = port
        self.window_seconds = float(window_seconds)
        self.max_batch = int(max_batch)
        self.max_pending_batches = int(max_pending_batches)
        self.max_models = int(max_models)
        self.mmap = bool(mmap)
        self.health_timeout = float(health_timeout)
        self._processes: list[multiprocessing.Process] = []
        self._ports: list[int] = []
        self._links: list[_ReplicaLink] = []
        self._server: asyncio.base_events.Server | None = None
        self._rr = 0

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> tuple[str, int]:
        """Fork replicas, wait for warm health, bind the front; ``(host, port)``."""
        loop = asyncio.get_running_loop()
        context = multiprocessing.get_context()
        atexit.register(self._stop_replicas)
        for _ in range(self.replicas):
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_replica_main,
                args=(
                    child_conn,
                    self.model_specs,
                    self.host,
                    self.window_seconds,
                    self.max_batch,
                    self.max_pending_batches,
                    self.max_models,
                    self.mmap,
                ),
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            # The port report arrives as soon as the replica's socket binds.
            port = await loop.run_in_executor(
                None, self._recv_port, parent_conn, process
            )
            self._ports.append(port)
        for port in self._ports:
            self._links.append(await _ReplicaLink.connect(self.host, port))
        # Warm every replica: load the first registered model so the first
        # real request never pays the snapshot fault-in.
        warm_model = self.model_specs[0][0]
        probes = [
            link.roundtrip({"op": "health", "model": warm_model})
            for link in self._links
        ]
        responses = await asyncio.wait_for(
            asyncio.gather(*probes), timeout=self.health_timeout
        )
        sick = [r for r in responses if not r.get("healthy")]
        if sick:
            raise RuntimeError(f"replica warm-up failed: {sick}")
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_MAX_LINE_BYTES
        )
        return self.address

    def _recv_port(self, parent_conn, process) -> int:
        if not parent_conn.poll(self.health_timeout):
            raise RuntimeError(
                f"replica pid={process.pid} did not report a port within "
                f"{self.health_timeout}s"
            )
        return int(parent_conn.recv())

    @property
    def address(self) -> tuple[str, int]:
        """The front's bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("front is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def replica_ports(self) -> list[int]:
        """The per-replica server ports (valid after :meth:`start`)."""
        return list(self._ports)

    async def serve_forever(self) -> None:
        """Run until cancelled (``start`` must have been called)."""
        if self._server is None:
            raise RuntimeError("front is not started")
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Close the front, the upstream links, and the replica processes."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in self._links:
            await link.close()
        self._links.clear()
        atexit.unregister(self._stop_replicas)
        self._stop_replicas()

    def _stop_replicas(self) -> None:
        """Terminate and reap every replica; kill one that outlives the grace."""
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        self._processes.clear()
        self._ports.clear()

    # ------------------------------------------------------------------ serving

    async def health(self, model: str | None = None) -> dict:
        """Probe every replica; ``model`` makes the probes warm ones."""
        payload: dict = {"op": "health"}
        if model is not None:
            payload["model"] = model
        responses = await asyncio.gather(
            *(link.roundtrip(dict(payload)) for link in self._links),
            return_exceptions=True,
        )
        reports = []
        for port, response in zip(self._ports, responses):
            if isinstance(response, BaseException):
                reports.append(
                    {"port": port, "healthy": False, "error": str(response)}
                )
            else:
                response.pop("id", None)
                reports.append({"port": port, **response})
        return {
            "healthy": all(report.get("healthy") for report in reports),
            "front_pid": os.getpid(),
            "replicas": reports,
        }

    def _next_link(self) -> _ReplicaLink:
        link = self._links[self._rr % len(self._links)]
        self._rr += 1
        return link

    async def _answer(self, writer: asyncio.StreamWriter, request: dict) -> None:
        request_id = request.get("id")
        try:
            if request.get("op") == "health":
                response = {"id": request_id, **(await self.health(request.get("model")))}
            else:
                upstream = await self._next_link().roundtrip(
                    {key: value for key, value in request.items() if key != "id"}
                )
                upstream["id"] = request_id
                response = upstream
        except Exception as error:  # noqa: BLE001 - wire errors to the client
            response = {"id": request_id, "error": f"{type(error).__name__}: {error}"}
        try:
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    await self._answer(
                        writer, {"id": None, "op": "error", "_bad": str(error)}
                    )
                    continue
                # One task per request line: concurrent requests from one
                # client fan out across replicas (round-robin per request,
                # not per connection).
                task = asyncio.create_task(self._answer(writer, request))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass
