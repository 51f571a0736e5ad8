"""Shared helpers: provenance, memory readings, reference checks, results."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
FIT_ARRAYS = ("rho_", "delta_", "dependent_", "labels_")


#: Median time of one :func:`_calibration_round` on the reference host (a
#: 2-CPU Intel Xeon VM with numpy 2.4, during a quiet period).
CALIBRATION_REF_S = 0.0165


def median(values) -> float:
    return float(statistics.median(values))


def _calibration_round(q: np.ndarray, d: np.ndarray, keys: list[str]) -> None:
    for _ in range(4):
        dist = np.subtract(q[:, None, 0], d[None, :, 0])
        np.square(dist, out=dist)
        plane = np.subtract(q[:, None, 1], d[None, :, 1])
        np.square(plane, out=plane)
        dist += plane
        np.count_nonzero(dist < 0.01, axis=1)
    table: dict[str, int] = {}
    for key in keys:
        table[key] = table.get(key, 0) + len(key)


def calibrate(rounds: int = 15) -> float:
    """Median seconds of a fixed blocked-numpy plus pure-Python round.

    The round shares no code with the program, so it moves only with the
    host: on a shared VM the same fit has taken anywhere from 3.1 s to 6.6 s
    within one hour, with its CPU time moving as much as its wall time.
    Time metrics are reported at reference-host speed, i.e. scaled by
    ``CALIBRATION_REF_S / median(calibrations taken through the run)``.
    """
    rng = np.random.default_rng(0)
    q, d = rng.random((512, 2)), rng.random((2048, 2))
    keys = [str(i) for i in range(2000)]
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        _calibration_round(q, d, keys)
        times.append(time.perf_counter() - start)
    return median(times)


def host_scale(calibrations: list[float]) -> float:
    """Factor converting this run's measured times to reference-host times."""
    return CALIBRATION_REF_S / median(calibrations)


def _git_rev() -> str:
    """HEAD's commit from ``.git`` (read directly; no git process is started)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    """SHA-256 over ``src/`` (paths and contents): identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(**extra) -> dict:
    """Where and on what a result was measured."""
    from repro.kernels import effective_kernel

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_tier": effective_kernel(None),
        **extra,
    }


def rss_peak_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process), MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def children_peak_mb() -> float:
    """Largest peak resident set among this process's reaped children, MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def fit_digest(result) -> dict[str, str]:
    """SHA-256 of each checked fit array (dtype, shape and bytes).

    Timed fits keep only these digests, so the memory a run holds does not
    grow with the number of fits it makes.
    """
    digests = {}
    for name in FIT_ARRAYS:
        array = np.ascontiguousarray(getattr(result, name))
        digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.data)
        digests[name] = digest.hexdigest()
    return digests


def fit_mismatches(digests: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Names of the fit arrays whose digests differ from the reference's."""
    return [name for name in FIT_ARRAYS if digests[name] != reference[name]]


def repeat_flags(series: dict[str, list]) -> dict[str, dict]:
    """For each counter, its per-unit values and whether they repeated exactly."""
    return {
        name: {"values": values, "exact": len(set(values)) <= 1}
        for name, values in series.items()
    }


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux only).

    A process-backend fit starts multiprocessing's resource tracker, and the
    serve workload's server may start helpers of its own; if one of them
    outlives its parent it becomes this process's child, so
    :func:`reap_descendants` can wait for it.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        log(f"perfbench: prctl(PR_SET_CHILD_SUBREAPER) failed: errno {ctypes.get_errno()}")


def _child_pids() -> list[int]:
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_descendants(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The resource tracker is told to stop first (it exits once its pipe
    closes); then every child is waited for, and children still running
    after ``grace_s`` are killed.  With :func:`become_subreaper` in effect,
    no child left means no descendant left.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if not killed and time.monotonic() > deadline:
            for child in _child_pids():
                log(f"perfbench: killing child {child}, still running at exit")
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
