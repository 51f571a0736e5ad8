"""In-memory span tracer that wraps the library's public layer entry points.

Tracing lives in the benchmark, not in ``src/``: :meth:`Tracer.install`
replaces a fixed set of public functions and methods of ``repro`` with thin
wrappers that record one span per call, and :meth:`Tracer.uninstall` puts
the originals back.  A span is ``(name, start, end, parent, owner, attrs)``:
``parent`` is the index of the enclosing recorded span on the same thread
(``-1`` at top level), ``owner`` the fit or request id active when the span
opened, and ``attrs`` the counts measured at that boundary (kernel pairs,
radius hits, chunk counts, shared-memory bytes).

Only calls made in the process that installed the tracer are recorded:
worker processes forked by the process backend inherit the wrappers but
call straight through, so on that backend the trace holds the driver-side
split only.  A wrapper that is re-entered within its own layer (a kernel
calling another kernel, a tree query delegating to another tree query)
calls straight through too, so every layer's totals count outermost calls.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "layer_metrics", "percentile"]

#: Fit or request id stamped on every span opened while it is set.
OWNER = contextvars.ContextVar("perfbench_owner", default=None)

RANGE_QUERIES = ("range_count_batch", "range_count_dual_pairs", "range_count_dual_vs")
NN_QUERIES = ("knn_batch", "nn_dual_vs", "range_nn_dual")


def percentile(values, q: float) -> float:
    """``q``-th percentile of ``values`` (0.0 for an empty sequence)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _kernel_shape(q_block: np.ndarray, d_block: np.ndarray) -> tuple[int, int]:
    """Pairs evaluated by one blocked kernel call and the bytes it touches.

    Pairs are ``g * q * j`` from the padded block shapes (padding included);
    bytes are the two input blocks plus the ``(g, q, j)`` distance matrix
    the kernel materialises, i.e. computed, not measured, traffic.
    """
    pairs = int(np.prod(q_block.shape[:-1], dtype=np.int64)) * int(d_block.shape[-2])
    return pairs, int(q_block.nbytes + d_block.nbytes + pairs * q_block.itemsize)


class Tracer:
    """Collects spans from wrapped library calls; see the module docstring."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._local = threading.local()
        # Spans are opened from the event loop and from executor threads;
        # the lock keeps each span's index equal to its list position.
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _active(self) -> set[str]:
        active = getattr(self._local, "active", None)
        if active is None:
            active = self._local.active = set()
        return active

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, OWNER.get(), {}])
        stack.append(index)
        return index

    def _close(self, index: int, attrs: dict | None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if attrs:
            span[5].update(attrs)
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, owner=None):
        """Record one span around the block (used by the benchmark itself);
        yields the span's index."""
        token = OWNER.set(owner)
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index, None)
            OWNER.reset(token)

    # ------------------------------------------------------------- wrapping

    def _wrapper(self, func, name: str, layer: str, measure):
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                # A coroutine's span lives on the event-loop thread; nesting
                # across awaits is not tracked, so it opens at top level.
                start = time.perf_counter()
                owner = OWNER.get()
                result = await func(*args, **kwargs)
                span = [name, start, time.perf_counter(), -1, owner,
                        measure(args, kwargs, result) if measure else {}]
                with tracer._lock:
                    tracer.spans.append(span)
                return result

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            active = tracer._active()
            if layer in active or os.getpid() != tracer.pid:
                return func(*args, **kwargs)
            active.add(layer)
            index = tracer._open(name)
            attrs = None
            try:
                result = func(*args, **kwargs)
                attrs = measure(args, kwargs, result) if measure else None
                return result
            finally:
                tracer._close(index, attrs)
                active.discard(layer)

        return wrapper

    def wrap_method(self, cls, attr: str, name: str, layer: str, measure=None) -> None:
        """Wrap ``cls.attr`` (plain, class or async method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, layer, measure))
        else:
            new = self._wrapper(raw, name, layer, measure)
        setattr(cls, attr, new)
        self._restore.append((cls, attr, raw))

    def wrap_function(self, module, attr: str, name: str, layer: str, measure=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that re-exports it.

        Callers that imported the function by name hold their own global
        binding; rebinding each of them is what routes those calls through
        the wrapper too.
        """
        func = getattr(module, attr)
        wrapper = self._wrapper(func, name, layer, measure)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, func))

    def install(self, kernel_tier) -> "Tracer":
        """Wrap every traced layer; ``kernel_tier`` is the effective tier module."""
        import repro.core.assignment as assignment
        import repro.core.dependency_join as dependency_join
        import repro.stream.snapshot as snapshot
        from repro.core.framework import DensityPeaksBase
        from repro.index.kdtree import KDTree
        from repro.parallel.executor import ParallelExecutor
        from repro.parallel.shm import SharedArrayBundle
        from repro.serve.coalesce import RequestCoalescer
        from repro.serve.server import PredictServer

        tracer = self

        def radius_kernel(args, kwargs, result):
            pairs, nbytes = _kernel_shape(args[0], args[1])
            hits = int(result[0].sum())
            return {"pairs": pairs, "bytes": nbytes, "hits": hits, "radius_pairs": pairs}

        def plain_kernel(args, kwargs, result):
            pairs, nbytes = _kernel_shape(args[0], args[1])
            attrs = {"pairs": pairs, "bytes": nbytes}
            # Inside a range query the radius is known, so the hit share of
            # the distance matrix can be counted where the kernel ran.
            radius_sq = getattr(tracer._local, "radius_sq", None)
            if radius_sq is not None and result.ndim >= 2:
                with np.errstate(invalid="ignore"):
                    attrs["hits"] = int(np.count_nonzero(result < radius_sq))
                attrs["radius_pairs"] = pairs
            return attrs

        for attr, measure in (
            ("count_blocks", radius_kernel),
            ("nn_blocks", plain_kernel),
            ("pair_distances_sq", plain_kernel),
        ):
            self.wrap_function(kernel_tier, attr, f"kernels.{attr}", "kernels", measure)

        self.wrap_method(KDTree, "__init__", "index.build", "index.build")
        for attr in RANGE_QUERIES:
            self._wrap_range_query(KDTree, attr)
        for attr in NN_QUERIES:
            self.wrap_method(KDTree, attr, f"index.{attr}", "index.query")

        self.wrap_function(dependency_join, "nearest_denser_join", "core.dependency", "core.dependency")
        self.wrap_function(assignment, "assign_clusters", "core.assignment", "core.assignment")
        self.wrap_function(dependency_join, "attach_targets", "core.attach", "core.attach")
        # The coalescer hands each request a slice of its batch's label
        # array; keeping the batch arrays alive keeps their ids unique, so a
        # request span can name the predict span that served it.
        recent = self._recent_labels = []

        def predict_measure(args, kwargs, result):
            recent.append(result)
            del recent[:-1024]
            return {"points": int(len(result)), "labels_id": id(result)}

        self.wrap_method(DensityPeaksBase, "predict", "core.predict", "core.predict", predict_measure)

        self.wrap_method(ParallelExecutor, "__init__", "parallel.executor", "parallel.executor")
        self.wrap_method(
            ParallelExecutor, "map_index_chunks", "parallel.map", "parallel.map",
            lambda args, kwargs, result: {"chunks": len(result)},
        )
        self.wrap_method(
            SharedArrayBundle, "create", "parallel.shm", "parallel.shm",
            lambda args, kwargs, result: {"bytes": int(result.nbytes)},
        )

        self.wrap_function(snapshot, "save_model", "snapshot.save", "snapshot.save")
        self.wrap_function(snapshot, "load_model", "snapshot.load", "snapshot.load")

        self.wrap_method(
            RequestCoalescer, "predict", "serve.coalesce", "serve.coalesce",
            lambda args, kwargs, result: {"labels_id": id(result.base)},
        )
        self._wrap_dispatch(PredictServer)
        return self

    def _wrap_range_query(self, cls, attr: str) -> None:
        """Range queries also publish their squared radius to nested kernels."""
        tracer = self
        self.wrap_method(cls, attr, f"index.{attr}", "index.query")
        spanned = cls.__dict__[attr]

        @functools.wraps(spanned)
        def with_radius(tree, *args, **kwargs):
            radius = args[1] if len(args) > 1 else kwargs.get("radius")
            if radius is not None and np.ndim(radius) == 0:
                tracer._local.radius_sq = np.asarray(float(radius) ** 2, dtype=tree.dtype_name)
            try:
                return spanned(tree, *args, **kwargs)
            finally:
                tracer._local.radius_sq = None

        setattr(cls, attr, with_radius)
        self._restore.append((cls, attr, spanned))

    def _wrap_dispatch(self, server_cls) -> None:
        """Stamp each served request's id on the spans it opens."""
        raw = server_cls.__dict__["_dispatch"]

        @functools.wraps(raw)
        async def dispatch(server, request):
            token = OWNER.set(request.get("id"))
            try:
                return await raw(server, request)
            finally:
                OWNER.reset(token)

        server_cls._dispatch = dispatch
        self._restore.append((server_cls, "_dispatch", raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, owner, attrs in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "owner": owner, **attrs}
                ) + "\n")


def _sum(spans, key: str) -> float:
    return float(sum(span[5].get(key, 0) for span in spans))


def _dur(spans) -> float:
    return float(sum(span[2] - span[1] for span in spans))


def layer_metrics(spans: list, n_units: int) -> dict[str, float]:
    """Per-layer totals from ``spans``, divided by ``n_units`` (fits or phases).

    Covers the kernels, index, parallel and predict layers; the fit-phase
    split and the serve layer need workload context and are derived by the
    workload modules.
    """
    def named(*names):
        return [span for span in spans if span[0] in names]

    kernels = [span for span in spans if span[0].startswith("kernels.")]
    ranges = named(*(f"index.{attr}" for attr in RANGE_QUERIES))
    nns = named(*(f"index.{attr}" for attr in NN_QUERIES))
    predicts = named("core.predict")
    radius_pairs = _sum(kernels, "radius_pairs")
    per = 1.0 / max(1, n_units)
    return {
        "kernels.calls": len(kernels) * per,
        "kernels.s": _dur(kernels) * per,
        "kernels.pairs": _sum(kernels, "pairs") * per,
        "kernels.hit_frac": _sum(kernels, "hits") / radius_pairs if radius_pairs else 0.0,
        "kernels.bytes_computed": _sum(kernels, "bytes") * per,
        "index.build_s": _dur(named("index.build")) * per,
        "index.range_query_calls": len(ranges) * per,
        "index.range_query_s": _dur(ranges) * per,
        "index.nn_query_calls": len(nns) * per,
        "index.nn_query_s": _dur(nns) * per,
        "core.predict.calls": len(predicts) * per,
        "core.predict.s": _dur(predicts) * per,
        "core.predict.points_per_call": _sum(predicts, "points") / len(predicts) if predicts else 0.0,
        "core.predict.attach_s": _dur(named("core.attach")) * per,
        "parallel.executors": len(named("parallel.executor")) * per,
        "parallel.map_calls": len(named("parallel.map")) * per,
        "parallel.chunks": _sum(named("parallel.map"), "chunks") * per,
        "parallel.map_s": _dur(named("parallel.map")) * per,
        "parallel.shm_bytes": _sum(named("parallel.shm"), "bytes") * per,
        "snapshot.save_s": _dur(named("snapshot.save")) * per,
        "snapshot.load_s": _dur(named("snapshot.load")) * per,
    }
