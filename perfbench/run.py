"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-syn2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints the per-layer metrics.
Every metric is printed by name and unit, then the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The full record -- provenance, every counter with its repeat flag, the
ladder -- is written to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``.

``--smoke`` runs every workload at a tiny size, asserts that each metric is
emitted with its unit, and checks that corrupting one label of a fit makes
the reference check count a failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    # Measure the checkout's own sources, never an installed copy.
    sys.exit(f"perfbench: no program to measure at {SRC / 'repro'}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT,
    ROOT,
    become_subreaper,
    fit_digest,
    log,
    provenance,
    reap_descendants,
)

WORKLOADS = ("fit-syn2d", "fit-hd4-proc", "serve-mixed")

#: Per-layer metric prefixes a workload does not exercise; they read 0 there.
NOT_EXERCISED = {
    "fit-syn2d": ("serve.",),
    "fit-hd4-proc": ("serve.",),
    "serve-mixed": ("core.fit.", "index.distance_calcs.", "counters."),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if name == "serve-mixed":
        from serve_workload import run_serve

        return run_serve(seed, seconds, trace, smoke)
    from fit_workloads import run_fit

    return run_fit(name, seed, seconds, trace, smoke)


def select_metrics(name: str, raw: dict, wanted: list[dict]) -> dict:
    """The metrics the spec names, with their units; absent ones must be
    unexercised layers (reported as 0)."""
    out = {}
    for metric in wanted:
        key = metric["name"]
        if key in raw:
            value = float(raw[key])
        elif key.startswith(NOT_EXERCISED[name]):
            value = 0.0
        else:
            raise KeyError(f"{name} produced no value for metric {key!r}")
        out[key] = {"value": value, "unit": metric["unit"]}
    return out


def report(name: str, metrics: dict, detail: dict, failed: int, attempted: int) -> None:
    print(f"== {name}")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} fraction ({failed}/{attempted})")
    for key in ("fit_s", "fit_points_per_s", "serve_p50_ms.low", "serve_p99_ms.low",
                "serve_p50_ms.high", "serve_p99_ms.high", "serve_max_rps",
                "serve_rps_closed", "gen_lag_ms_p99"):
        if key in detail:
            unit = {"fit_s": "s", "fit_points_per_s": "points/s", "serve_max_rps": "req/s",
                    "serve_rps_closed": "req/s"}.get(key, "ms")
            print(f"  {key:40s} {detail[key]:.6g} {unit}")


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so the children are reaped then too.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    become_subreaper()
    try:
        return _main(argv)
    finally:
        reap_descendants()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")

    trace = bool(args.trace)
    started = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = select_metrics(args.workload, result["metrics"], wanted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "provenance": provenance(engine=result["detail"].get("engine")),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "detail": result["detail"],
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float))
    report(args.workload, metrics, result["detail"], result["failed"], result["attempted"])
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def smoke(spec: dict) -> int:
    """Tiny sizes: every metric emitted with its unit, and a corrupted label
    counted by the reference check."""
    for name in WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run_workload(name, 0, 1.0, trace, smoke=True)
            metrics = select_metrics(name, result["metrics"], wanted)
            assert set(metrics) == {m["name"] for m in wanted}
            assert all(m["unit"] for m in metrics.values())
            assert result["failed"] == 0, f"{name}: {result['failed']} failed"
            log(f"smoke {name} trace={int(trace)}: {len(metrics)} metrics ok")

    import dataclasses

    from fit_workloads import count_failed, make_input
    from repro.core.ex_dpc import ExDPC

    points = make_input("syn", 2_000, 0)
    fitted = ExDPC(d_cut=2000, rho_min=5, n_clusters=13).fit(points)
    reference = ExDPC(d_cut=2000, rho_min=5, n_clusters=13, engine="dual").fit(points)
    labels = fitted.labels_.copy()
    labels[0] += 1
    corrupted = dataclasses.replace(fitted, labels_=labels)
    digests = [("fit-0", fit_digest(fitted)), ("fit-1-corrupted", fit_digest(corrupted))]
    failed = count_failed("smoke", digests, fit_digest(reference))
    assert failed == 1 and failed / len(digests) > 0, failed
    log("smoke: the corrupted copy raised failed_frac to 1/2")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
