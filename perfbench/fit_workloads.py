"""The fit workloads: timed Ex-DPC fits checked against an exact reference.

Untraced run: set the inputs up several times (``setup_s`` is the median),
fit once to warm up, then fit repeatedly for the run's seconds.  Each fit's
``rho_``, ``delta_``, ``dependent_`` and ``labels_`` are compared bit for bit
with a reference fit made after the timed phase (``engine="dual"``, serial),
so the reference's memory stays out of ``peak_rss_mb``.

Traced run: half the seconds untraced, half with :class:`tracing.Tracer`
installed; the per-layer metrics come from the traced fits and
``trace_overhead_frac`` compares the two medians.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    calibrate,
    children_peak_mb,
    fit_digest,
    fit_mismatches,
    host_scale,
    log,
    median,
    repeat_flags,
    rss_peak_mb,
)
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 9

#: name -> (input generator, estimator parameters).  ``n_points`` is scaled
#: down by smoke mode only.
FIT_WORKLOADS = {
    "fit-syn2d": {
        "data": ("syn", 50_000),
        "params": dict(d_cut=2000, rho_min=5, n_clusters=13),
    },
    "fit-hd4-proc": {
        "data": ("household", 30_000),
        "params": dict(d_cut=3000, rho_min=5, n_clusters=15, n_jobs=2, backend="process"),
    },
}


#: Every run samples its input from one fixed layout: a pool of
#: ``POOL_FACTOR`` times the workload's size is generated from
#: ``LAYOUT_SEED`` and the run's seed draws the points from it without
#: replacement.  A seed then changes the points, not the cluster layout that
#: sets what a fit costs (across generator seeds the dependency-phase work
#: of fit-syn2d ranges over +-17%).
LAYOUT_SEED = 0
POOL_FACTOR = 4


def make_input(kind: str, n_points: int, seed: int) -> np.ndarray:
    if kind == "syn":
        from repro.data.synthetic import generate_syn

        pool = generate_syn(n_points=POOL_FACTOR * n_points, n_peaks=13, seed=LAYOUT_SEED)[0]
    else:
        from repro.data.real_like import generate_real_like

        pool = generate_real_like(kind, n_points=POOL_FACTOR * n_points, seed=LAYOUT_SEED)[0]
    rng = np.random.default_rng(seed)
    return pool[rng.choice(len(pool), n_points, replace=False)]


def _timed_fits(model, points, seconds: float, min_fits: int, tracer=None, first_id=0,
                after_each=None):
    """Fit until ``seconds`` have passed (at least ``min_fits`` times);
    ``after_each`` runs between fits, outside the timed region."""
    fits = []
    start = time.perf_counter()
    while len(fits) < min_fits or time.perf_counter() - start < seconds:
        fit_id = f"fit-{first_id + len(fits)}"
        if tracer is None:
            t0 = time.perf_counter()
            result = model.fit(points)
            wall = time.perf_counter() - t0
            span_index = None
        else:
            with tracer.span("fit", owner=fit_id) as span_index:
                t0 = time.perf_counter()
                result = model.fit(points)
                wall = time.perf_counter() - t0
        fits.append({"id": fit_id, "wall": wall, "span": span_index, "digest": fit_digest(result),
                     "work": result.work_, "timings": result.timings_})
        if after_each is not None:
            after_each()
    return fits


def _phase_split(spans: list, fit: dict) -> dict[str, float]:
    """Table 6 split of one traced fit from the spans directly under it."""
    index = fit["span"]
    children = [span for span in spans if span[3] == index]

    def total(name):
        return sum(span[2] - span[1] for span in children if span[0] == name)

    builds = [span for span in children if span[0] == "index.build"]
    deps = [span for span in children if span[0] == "core.dependency"]
    build_end = max(span[2] for span in builds)
    return {
        "build": total("index.build"),
        "density": min(span[1] for span in deps) - build_end,
        "dependency": total("core.dependency"),
        "assignment": total("core.assignment"),
        "wall": spans[index][2] - spans[index][1],
    }


def run_fit(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from repro.core.ex_dpc import ExDPC
    from repro.kernels import get_kernel

    spec = FIT_WORKLOADS[name]
    kind, n_points = spec["data"]
    if smoke:
        n_points = 2_000
    params = dict(spec["params"])

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        points = make_input(kind, n_points, seed)
        setup_times.append(time.perf_counter() - t0)
    log(f"{name}: n={points.shape[0]} d={points.shape[1]} params={params}")

    calibrations = [calibrate()]

    def calibrate_more():
        calibrations.append(calibrate())

    model = ExDPC(**params)
    warm = model.fit(points)
    min_fits = 1 if smoke else 3
    metrics: dict[str, float] = {}
    if not trace:
        fits = _timed_fits(model, points, seconds, min_fits, after_each=calibrate_more)
    else:
        min_fits = 1 if smoke else 2
        fits = _timed_fits(model, points, seconds / 2, min_fits, after_each=calibrate_more)
        tracer = Tracer().install(get_kernel(model.kernel))
        try:
            traced = _timed_fits(model, points, seconds / 2, min_fits, tracer, len(fits))
        finally:
            tracer.uninstall()
        metrics.update(_fit_layers(tracer, traced))
        if params.get("backend") == "process":
            log(f"{name}: the trace is driver-side only; kernel and tree-query calls "
                "ran in worker processes and are not in it")
        metrics["trace_overhead_frac"] = (
            median([f["wall"] for f in traced]) / median([f["wall"] for f in fits]) - 1.0
        )
        fits += traced
    peak_mb = rss_peak_mb() + children_peak_mb()

    reference = ExDPC(**{**params, "engine": "dual", "n_jobs": 1, "backend": "serial"}).fit(points)
    failed = count_failed(name, [(fit["id"], fit["digest"]) for fit in fits], fit_digest(reference))
    counters = repeat_flags({
        key: [warm.work_[key]] + [fit["work"][key] for fit in fits] for key in warm.work_
    })
    untraced = [fit["wall"] for fit in fits if fit["span"] is None]
    fit_s = median(untraced)
    scale = host_scale(calibrations)
    metrics.update({
        "setup_s": median(setup_times) * scale,
        "latency_p50_ms": fit_s * 1e3 * scale,
        "peak_rss_mb": peak_mb,
    })
    if trace:
        last = fits[-1]["work"]
        metrics["index.distance_calcs.density"] = last["density_distance_calcs"]
        metrics["index.distance_calcs.dependency"] = last["dependency_distance_calcs"]
        metrics["counters.nonrepeating"] = sum(not c["exact"] for c in counters.values())
        metrics["counters.backend_mismatch"] = _backend_mismatch(params, points, warm.work_)
    return {
        "metrics": metrics,
        "attempted": len(fits),
        "failed": failed,
        "detail": {
            "fit_s": fit_s,
            "fit_points_per_s": points.shape[0] / fit_s,
            "fit_walls_s": untraced,
            "calibrations_s": calibrations,
            "host_scale": scale,
            "counters": counters,
            "engine": model.engine_,
            "n_points": int(points.shape[0]),
            "dim": int(points.shape[1]),
            "setup_times_s": setup_times,
        },
    }


def count_failed(name: str, digests: list, reference: dict[str, str]) -> int:
    """Fits whose output digests differ from the reference's; each one is
    printed."""
    failed = 0
    for fit_id, digest in digests:
        bad = fit_mismatches(digest, reference)
        if bad:
            failed += 1
            log(f"MISMATCH {name} {fit_id}: {', '.join(bad)} differ from the dual reference")
    return failed


def _fit_layers(tracer: Tracer, traced: list) -> dict[str, float]:
    spans = tracer.spans
    metrics = layer_metrics(spans, len(traced))
    splits = [_phase_split(spans, fit) for fit in traced]
    for phase in ("build", "density", "dependency", "assignment"):
        metrics[f"core.fit.{phase}_s"] = median([s[phase] for s in splits])
    # How much of each traced fit the four phases account for, and how far
    # the span-bounded phases sit from the fit's own timings_.
    keys = {"build": "index_build", "density": "local_density",
            "dependency": "dependency", "assignment": "assignment"}
    cover, dev = [], []
    for split, fit in zip(splits, traced):
        phases = sum(split[p] for p in keys)
        cover.append(phases / split["wall"])
        timings = fit["timings"]
        dev.append(sum(abs(split[p] - timings[k]) for p, k in keys.items()) / timings["total"])
    metrics["core.fit.phase_cover_frac"] = median(cover)
    metrics["core.fit.timings_dev_frac"] = median(dev)
    return metrics


def _backend_mismatch(params: dict, points: np.ndarray, work: dict) -> int:
    """Work counters that differ between this configuration and a serial
    ``n_jobs=1`` fit of the same engine (outputs are identical either way)."""
    if params.get("n_jobs", 1) == 1:
        return 0
    from repro.core.ex_dpc import ExDPC

    serial = ExDPC(**{**params, "n_jobs": 1, "backend": "serial"}).fit(points).work_
    differ = [key for key in work if work[key] != serial[key]]
    for key in differ:
        log(f"counter {key}: {work[key]:.0f} at n_jobs={params['n_jobs']} "
            f"backend={params.get('backend')} vs {serial[key]:.0f} serial at n_jobs=1")
    return len(differ)
