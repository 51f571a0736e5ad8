"""serve-mixed: open-loop predict traffic against ``repro.cli serve``.

One generator (this process) drives one TCP connection to a server running
in its own process.  The model is fitted on a Syn sample drawn like the fit
workloads' inputs (:func:`fit_workloads.make_input`).  Requests carry 8
points each: 4 jittered copies of fitted points and 4 uniform over the Syn
domain.  Every request line is encoded before timing starts.

Each run sets up ``SERVERS`` server processes in turn.  Against each, the
timed phase is a fixed ladder of open-loop rates -- latency is timed from
each request's *due* time, so a stall also charges the requests queued
behind it -- followed by a closed-loop phase with ``CLOSED_K`` requests
outstanding.  A ladder step has a growing backlog when its last reply
arrives more than ``LATENCY_LIMIT_MS`` after the end of its schedule.

Every label is checked against the in-process model's own ``predict``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import OUT, calibrate, host_scale, log, median, rss_peak_mb
from tracing import Tracer, layer_metrics, percentile

HERE = Path(__file__).resolve().parent
MODEL = "syn"
N_TRAIN = 2_000
D_CUT = 6_300.0
POINTS_PER_REQUEST = 8
JITTER = 300.0
DOMAIN = (0.0, 1e5)
#: Server processes per run.  Each is set up from scratch (``setup_s`` is
#: the median) and serves an equal share of the timed phase; latencies and
#: throughput are medians over them, because a server process keeps its
#: speed for its lifetime and differs from the next by more than requests
#: within one process differ.
SERVERS = 3

#: Open-loop ladder (requests/s) and the share of one server's seconds each
#: step gets.  The lowest rate leaves the server mostly idle and gets the
#: longest step, so its pooled p99 has more than ten samples beyond it.
LADDER = ((100, 0.5), (400, 0.12), (800, 0.12), (1200, 0.08))
#: The rate reported as ``.high``: the highest ladder rate the seed code
#: sustained without backlog on the 2-CPU reference machine.
HIGH_RATE = 800
#: Closed loop: ``CLOSED_K`` requests outstanding, measured in
#: ``CLOSED_WINDOWS`` count-bounded windows per server (sized from an
#: expected rate to fill ``CLOSED_SHARE`` of the server's seconds);
#: ``serve_rps_closed`` is the median window.
CLOSED_K = 64
CLOSED_WINDOWS = 2
CLOSED_SHARE = 0.12
CLOSED_EXPECTED_RPS = 1100
WARMUP_REQUESTS = 300
#: p99 limit a ladder step must meet to count towards ``serve_max_rps``;
#: a step whose last reply lands later than this after its schedule ends
#: has a growing backlog.
LATENCY_LIMIT_MS = 200.0
#: Generator lateness (p99) above which a run's latencies are flagged.
LAG_LIMIT_MS = 5.0
REPLY_TIMEOUT_S = 30.0


# --------------------------------------------------------------------- inputs


def make_requests(points: np.ndarray, n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 1])
    half = POINTS_PER_REQUEST // 2
    near = points[rng.integers(0, len(points), (n, half))] + rng.normal(0.0, JITTER, (n, half, 2))
    far = rng.uniform(*DOMAIN, (n, POINTS_PER_REQUEST - half, 2))
    return list(np.concatenate([near, far], axis=1))


def encode(requests: list[np.ndarray]) -> list[bytes]:
    return [
        (json.dumps({"id": i, "op": "predict", "model": MODEL, "points": pts.tolist()}) + "\n").encode()
        for i, pts in enumerate(requests)
    ]


# --------------------------------------------------------------------- server


class Server:
    """A ``repro.cli serve`` process started through :mod:`serve_launcher`."""

    def __init__(self, model_path: Path, trace_out: Path | None = None):
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["--", "serve", "--model", f"{MODEL}={model_path}", "--port", "0"]
        self._log = open(OUT / "server.log", "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, cwd=OUT, start_new_session=True
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} (see {OUT / 'server.log'})")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGINT (the CLI's clean stop), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """One client connection with a receiver thread recording reply times."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.replies: dict[int, tuple[float, dict]] = {}
        self.sent: dict[int, float] = {}
        self._cond = threading.Condition()
        self._missing: set[int] = set()
        #: Called on the receiver thread after each reply (closed loop).
        self.on_reply = None
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        buf = b""
        while True:
            try:
                data = self.sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                with self._cond:
                    self._cond.notify_all()
                return
            buf += data
            *lines, buf = buf.split(b"\n")
            now = time.perf_counter()
            for line in lines:
                reply = json.loads(line)
                with self._cond:
                    self.replies[reply["id"]] = (now, reply)
                    self._missing.discard(reply["id"])
                    if not self._missing:
                        self._cond.notify_all()
                if self.on_reply is not None:
                    self.on_reply()

    def send(self, request_id: int, line: bytes) -> None:
        self.sent[request_id] = time.perf_counter()
        self.sock.sendall(line)

    def wait_for(self, ids, timeout: float) -> bool:
        """Block until every id in ``ids`` has a reply (False on timeout).

        The receiver removes ids from the missing set as replies land and
        wakes the waiter only when the set empties.
        """
        deadline = time.perf_counter() + timeout
        with self._cond:
            self._missing = {i for i in ids if i not in self.replies}
            while self._missing:
                left = deadline - time.perf_counter()
                if left <= 0:
                    return False
                self._cond.wait(left)
        return True

    def call(self, request: dict) -> dict:
        """One synchronous control request (``health``, ``stats``)."""
        request_id = -1 - len(self.sent)
        self.send(request_id, (json.dumps({**request, "id": request_id}) + "\n").encode())
        if not self.wait_for([request_id], REPLY_TIMEOUT_S):
            raise RuntimeError(f"no reply to {request}")
        return self.replies[request_id][1]

    def close(self) -> None:
        # shutdown() wakes the receiver's blocked recv(); close() alone
        # would not.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the server already closed its end
        self.sock.close()
        self._thread.join(timeout=5)


# ------------------------------------------------------------------- phases


def open_loop(conn: Connection, lines: list[bytes], ids: range, rate: float) -> dict:
    """Send ``ids`` at ``rate`` on a fixed schedule; latency from due time."""
    start = time.perf_counter() + 0.01
    due = {i: start + k / rate for k, i in enumerate(ids)}
    lag = []
    for i in ids:
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        conn.send(i, lines[i])
        lag.append(conn.sent[i] - due[i])
    conn.wait_for(ids, REPLY_TIMEOUT_S)
    done = [i for i in ids if i in conn.replies]
    latency = [(conn.replies[i][0] - due[i]) * 1e3 for i in done]
    schedule_end = start + len(ids) / rate
    last = max((conn.replies[i][0] for i in done), default=float("inf"))
    return {
        "rate": rate,
        "requests": len(ids),
        "p50_ms": percentile(latency, 50),
        "tail_after_schedule_ms": (last - schedule_end) * 1e3,
        "latency_ms": latency,
        "lag_ms": [seconds * 1e3 for seconds in lag],
    }


def closed_loop(conn: Connection, lines: list[bytes], ids: range, k: int) -> dict:
    """Keep ``k`` requests outstanding until ``ids`` are all answered."""
    queue = iter(ids)
    lock = threading.Lock()

    def send_next():
        with lock:
            i = next(queue, None)
            if i is not None:
                conn.send(i, lines[i])

    start = time.perf_counter()
    conn.on_reply = send_next
    for _ in range(k):
        send_next()
    conn.wait_for(ids, REPLY_TIMEOUT_S + len(ids) / 100)
    conn.on_reply = None
    elapsed = max(conn.replies[i][0] for i in ids if i in conn.replies) - start
    return {"requests": len(ids), "rps": len(ids) / elapsed}


# ------------------------------------------------------------------- driver


def _setup(seed: int, n_requests: int, n_train: int, trace_out: Path | None = None):
    """Input generation, fit, ``save_model`` and server start to first
    healthy reply; returns everything the timed phase needs."""
    import repro.stream.snapshot as snapshot
    from repro.core.ex_dpc import ExDPC

    from fit_workloads import make_input

    t0 = time.perf_counter()
    points = make_input("syn", n_train, seed)
    requests = make_requests(points, n_requests, seed)
    lines = encode(requests)
    model = ExDPC(d_cut=D_CUT, rho_min=5, n_clusters=13)
    model.fit(points)
    path = OUT / f"serve-model-{seed}.npz"
    snapshot.save_model(model, path)
    server = Server(path, trace_out)
    try:
        conn = Connection(server.port)
        health = conn.call({"op": "health", "model": MODEL})
        if not health.get("healthy"):
            conn.close()
            raise RuntimeError(f"server unhealthy: {health}")
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - t0, model, requests, lines, server, conn


def _plan(seconds: float, smoke: bool) -> tuple[list[tuple[int, int]], int, int]:
    """Ladder steps ``(rate, requests)``, the closed-window request count and
    the requests one session sends in all."""
    floor = 20 if smoke else 100
    steps = [(rate, max(floor, int(rate * share * seconds))) for rate, share in LADDER]
    window = max(floor, int(CLOSED_SHARE * seconds * CLOSED_EXPECTED_RPS / CLOSED_WINDOWS))
    return steps, window, WARMUP_REQUESTS + sum(n for _, n in steps) + CLOSED_WINDOWS * window


def _session(conn: Connection, lines: list[bytes], steps, window: int) -> dict:
    """Warm-up, then the timed ladder and closed-loop windows."""
    first = WARMUP_REQUESTS
    closed_loop(conn, lines, range(first), CLOSED_K)
    before = conn.call({"op": "stats"})["stats"]
    t_start = time.perf_counter()
    ladder = []
    for rate, n in steps:
        ladder.append(open_loop(conn, lines, range(first, first + n), rate))
        first += n
    closed = []
    for _ in range(CLOSED_WINDOWS):
        closed.append(closed_loop(conn, lines, range(first, first + window), CLOSED_K))
        first += window
    after = conn.call({"op": "stats"})["stats"]
    return {"ladder": ladder, "closed": closed, "before": before, "after": after,
            "t_start": t_start, "timed_ids": range(WARMUP_REQUESTS, first)}


def _serve_session(seed: int, n_train: int, plan, trace_out: Path | None = None,
                   tracer: Tracer | None = None) -> dict:
    """Set a server up, run one session against it, stop it and check every
    reply.  ``tracer`` (benchmark side) is installed during setup only."""
    steps, window, n_requests = plan
    if tracer is not None:
        from repro.kernels import get_kernel

        tracer.install(get_kernel(None))
    try:
        setup_s, model, requests, lines, server, conn = _setup(seed, n_requests, n_train, trace_out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        session = _session(conn, lines, steps, window)
        session["peak_mb"] = rss_peak_mb(server.proc.pid)
    finally:
        conn.close()
        server.stop()
    session.update(setup_s=setup_s, conn=conn, engine=model.engine_,
                   failed=_check(conn, model, requests, n_requests), attempted=n_requests)
    return session


def _check(conn: Connection, model, requests: list[np.ndarray], n_sent: int) -> int:
    """Failed requests: no reply, an error reply, or labels that differ from
    the model's own ``predict``.  ``predict`` is row-independent (the
    coalescer relies on it), so one stacked call gives every reference."""
    reference = model.predict(np.concatenate(requests[:n_sent]))
    reference = reference.reshape(n_sent, POINTS_PER_REQUEST)
    failed = 0
    for i in range(n_sent):
        reply = conn.replies.get(i, (0.0, {}))[1]
        labels = reply.get("labels")
        if labels is None or not np.array_equal(np.asarray(labels, dtype=np.int64), reference[i]):
            failed += 1
            if failed <= 5:
                log(f"MISMATCH serve-mixed request {i}: {reply or 'no reply'} vs {reference[i].tolist()}")
    return failed


def _summary(sessions: list[dict]) -> dict:
    """Ladder and closed-loop figures over the sessions: per-step p50 is the
    median of the sessions' p50s, p99 is taken over the pooled samples."""
    steps = []
    for k, (rate, _) in enumerate(LADDER):
        runs = [session["ladder"][k] for session in sessions]
        pooled = [ms for run in runs for ms in run["latency_ms"]]
        steps.append({
            "rate": rate,
            "samples": len(pooled),
            "p50_ms": median([run["p50_ms"] for run in runs]),
            "p99_ms": percentile(pooled, 99),
            "gen_lag_ms_p99": percentile([ms for run in runs for ms in run["lag_ms"]], 99),
            "tail_after_schedule_ms": max(run["tail_after_schedule_ms"] for run in runs),
        })
    low = steps[0]
    high = next(step for step in steps if step["rate"] == HIGH_RATE)
    sustained = [
        step["rate"] for step in steps
        if step["p99_ms"] <= LATENCY_LIMIT_MS and step["tail_after_schedule_ms"] <= LATENCY_LIMIT_MS
    ]
    lag = max(step["gen_lag_ms_p99"] for step in steps)
    windows = [window["rps"] for session in sessions for window in session["closed"]]
    return {
        "serve_p50_ms.low": low["p50_ms"],
        "serve_p99_ms.low": low["p99_ms"],
        "serve_p50_ms.high": high["p50_ms"],
        "serve_p99_ms.high": high["p99_ms"],
        "serve_max_rps": float(max(sustained, default=0)),
        "serve_rps_closed": median(windows),
        "gen_lag_ms_p99": lag,
        "gen_lag_exceeded": lag > LAG_LIMIT_MS,
        "ladder": steps,
        "closed_windows_rps": windows,
    }


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    n_train = 300 if smoke else N_TRAIN
    n_servers = 1 if trace else SERVERS
    # The traced run spends half its seconds untraced and half traced.
    plan = _plan(seconds / (2 if trace else n_servers), smoke)
    calibrations, sessions = [], []
    for _ in range(n_servers):
        calibrations.append(calibrate())
        sessions.append(_serve_session(seed, n_train, plan))
    calibrations.append(calibrate())
    scale = host_scale(calibrations)
    summary = _summary(sessions)
    if summary["gen_lag_exceeded"]:
        log(f"WARNING generator ran late: p99 lag {summary['gen_lag_ms_p99']:.2f} ms > {LAG_LIMIT_MS} ms")
    metrics = {
        "setup_s": median([s["setup_s"] for s in sessions]) * scale,
        "latency_p50_ms": summary["serve_p50_ms.low"] * scale,
        "peak_rss_mb": median([s["peak_mb"] for s in sessions]),
    }
    if trace:
        traced = _traced_session(seed, n_train, plan)
        metrics.update(traced["metrics"])
        # Compared on the low-rate p50: closed-loop throughput swings too
        # much between server processes to resolve the tracing cost.
        metrics["trace_overhead_frac"] = (
            _summary([traced])["serve_p50_ms.low"] / summary["serve_p50_ms.low"] - 1.0
        )
        sessions.append(traced)
    return {
        "metrics": metrics,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "detail": {**summary, "n_train": n_train, "engine": sessions[0]["engine"],
                   "servers": n_servers, "requests_per_server": plan[2],
                   "calibrations_s": calibrations, "host_scale": scale,
                   "setup_times_s": [s["setup_s"] for s in sessions]},
    }


def _traced_session(seed: int, n_train: int, plan) -> dict:
    """One session against a traced server; its ``metrics`` hold the serve
    and server-side layer metrics."""
    spans_path = OUT / f"serve-spans-{seed}.jsonl"
    tracer = Tracer()
    session = _serve_session(seed, n_train, plan, spans_path, tracer)
    with open(spans_path) as handle:
        rows = [json.loads(line) for line in handle]
    spans = [[r["name"], r["start"], r["end"], r["parent"], r["owner"], r] for r in rows]
    # perf_counter is CLOCK_MONOTONIC, so server and generator times compare.
    timed = [span for span in spans if span[1] >= session["t_start"]]
    metrics = layer_metrics(timed, 1)
    metrics["snapshot.load_s"] = sum(s[2] - s[1] for s in spans if s[0] == "snapshot.load")
    metrics["snapshot.save_s"] = sum(s[2] - s[1] for s in tracer.spans if s[0] == "snapshot.save")

    predict_s = {s[5]["labels_id"]: s[2] - s[1] for s in timed if s[0] == "core.predict"}
    ids = set(session["timed_ids"])
    in_coalescer = {s[4]: (s[2] - s[1], predict_s.get(s[5]["labels_id"], 0.0))
                    for s in timed if s[0] == "serve.coalesce" and s[4] in ids}
    conn = session["conn"]
    wait_ms = [(c - p) * 1e3 for c, p in in_coalescer.values()]
    overhead_ms = [
        (conn.replies[i][0] - conn.sent[i] - c) * 1e3
        for i, (c, _) in in_coalescer.items() if i in conn.replies
    ]
    before, after = session["before"], session["after"]
    coalesce = {key: after["models"][MODEL][key] - before["models"][MODEL][key]
                for key in ("requests", "batches", "backpressure_waits")}
    metrics.update({
        "serve.coalesce.batches": coalesce["batches"],
        "serve.coalesce.requests_per_batch": coalesce["requests"] / max(1, coalesce["batches"]),
        "serve.coalesce.backpressure_waits": coalesce["backpressure_waits"],
        "serve.registry.hits": after["registry"]["hits"] - before["registry"]["hits"],
        "serve.registry.load_s": after["registry"]["load_seconds"],
        "serve.coalesce.wait_ms_p50": percentile(wait_ms, 50),
        "serve.coalesce.wait_ms_p99": percentile(wait_ms, 99),
        "serve.server.overhead_ms_p50": percentile(overhead_ms, 50),
    })
    session["metrics"] = metrics
    return session
