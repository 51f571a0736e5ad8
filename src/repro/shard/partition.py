"""Shard plans: kd-style top-level partitions with exact halo geometry.

A :class:`ShardPlan` partitions a point set into ``n_shards`` (a power of
two) disjoint shards by running the kd-tree build's own level step
(:func:`repro.index.kdtree._split_segments`: widest-spread dimension, plane
at the rank ``size // 2`` coordinate, exact ties at the plane by ascending
point index) for ``log2(n_shards)`` levels.  The resulting planes are the
top levels a single kd-tree over the full set would build, so the sharded
fit decomposes along the same geometry the in-memory index uses.  The
streaming planner applies the same tie rule, so both planners return the
same plan.

Exact halo geometry
-------------------
Any two distinct shards ``A`` and ``B`` are separated by exactly one plane:
the axis-aligned split at their lowest common ancestor in the plan's binary
tree.  If ``A`` lies under the left child every point ``a`` of ``A``
satisfies ``a[axis] <= value`` and every point ``b`` of ``B`` satisfies
``b[axis] >= value``, hence

    dist(a, b) >= |a[axis] - b[axis]| >= (value - a[axis]) + (b[axis] - value)

so only points within ``d_cut`` of the separating plane can contribute
strict (``dist < d_cut``) density to the other side.  The *halo slab* of a
shard with respect to a partner is therefore the set of its points within
``d_cut`` (plus a small float-safety slack, see :func:`halo_slack`) of the
separating plane, measured on the storage-dtype coordinates the distance
kernels actually consume.  Slab membership is only a candidate filter --
credits are always counted with the exact canonical kernels -- so the slack
can only add work, never change a count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.kdtree import _presorted_orders, _segment_boxes, _split_segments
from repro.utils.validation import check_points, check_positive_int

__all__ = [
    "ShardPlan",
    "halo_slack",
    "plan_shards",
    "plan_shards_streaming",
    "separating_plane",
]


def _check_n_shards(n_shards: int, n_points: int) -> int:
    n_shards = check_positive_int(n_shards, "n_shards")
    if n_shards & (n_shards - 1):
        raise ValueError(
            f"n_shards must be a power of two (the plan splits a binary "
            f"tree level per factor of two), got {n_shards}"
        )
    if n_shards > n_points:
        raise ValueError(
            f"n_shards ({n_shards}) must not exceed the number of points "
            f"({n_points}); every shard must be non-empty"
        )
    return n_shards


@dataclass(frozen=True)
class ShardPlan:
    """The result of :func:`plan_shards` (immutable).

    ``axes`` / ``values`` hold the ``n_shards - 1`` internal split planes in
    binary-heap order (node ``i`` has children ``2i + 1`` and ``2i + 2``;
    shard ``k`` is the leaf reached by reading ``k``'s bits most-significant
    first, ``0`` = left).  ``members[k]`` lists shard ``k``'s global point
    indices sorted ascending, so a kd-tree over ``points[members[k]]``
    breaks exact distance ties by the same order the global tree would.
    """

    n_shards: int
    depth: int
    axes: np.ndarray
    values: np.ndarray
    members: tuple[np.ndarray, ...]

    @property
    def shard_sizes(self) -> np.ndarray:
        """Number of points in each shard."""
        return np.asarray([m.size for m in self.members], dtype=np.intp)

    def assignments(self, n_points: int) -> np.ndarray:
        """Per-point shard id (inverse of :attr:`members`)."""
        out = np.empty(n_points, dtype=np.intp)
        for shard, idx in enumerate(self.members):
            out[idx] = shard
        return out


def plan_shards(points, n_shards: int) -> ShardPlan:
    """Partition ``points`` into ``n_shards`` shards along kd split planes.

    Runs the kd-tree build's level step for ``log2(n_shards)`` levels and
    splits every segment (no leaf or zero-spread stop): widest-spread
    dimension, plane at the rank ``size // 2`` coordinate, and the left
    side takes the ``size // 2`` smallest points by (coordinate, point
    index) -- exact ties at a plane go by ascending index, the rule
    :func:`plan_shards_streaming` applies too, so both planners return the
    same plan.  Deterministic in ``(points, n_shards)``; ``n_shards=1``
    yields the trivial single-shard plan.
    """
    points = check_points(points, min_points=1, name="points")
    n = points.shape[0]
    n_shards = _check_n_shards(n_shards, n)
    depth = n_shards.bit_length() - 1

    axes = np.full(max(n_shards - 1, 1), -1, dtype=np.intp)[: n_shards - 1]
    values = np.zeros(n_shards - 1, dtype=np.float64)
    orders = _presorted_orders(points)
    lo = np.zeros(1, dtype=np.intp)
    hi = np.full(1, n, dtype=np.intp)
    for level in range(depth):
        box_min, box_max = _segment_boxes(points, orders, lo, hi)
        dims = np.argmax(box_max - box_min, axis=1)
        cut, level_values = _split_segments(points, orders, lo, hi, dims)
        heap = (1 << level) - 1 + np.arange(lo.size)
        axes[heap] = dims
        values[heap] = level_values
        lo = np.stack([lo, cut], axis=1).ravel()
        hi = np.stack([cut, hi], axis=1).ravel()
    return ShardPlan(
        n_shards=n_shards,
        depth=depth,
        axes=axes,
        values=values,
        # Ascending order: the shard-local index order (the kd-tree
        # tie-break order) coincides with the global one.
        members=tuple(np.sort(orders[0, a:b]) for a, b in zip(lo, hi)),
    )


def _iter_row_chunks(source, chunk_rows: int):
    """Yield ``(start, float64 chunk)`` slices of a 2-D row-major source.

    Slicing a float64 memmap is a zero-copy view, so one pass touches each
    page once and holds at most ``chunk_rows`` rows of private memory.
    """
    n = source.shape[0]
    for start in range(0, n, chunk_rows):
        yield start, np.asarray(source[start : start + chunk_rows], dtype=np.float64)


def plan_shards_streaming(
    source,
    n_shards: int,
    *,
    sample_size: int = 4096,
    chunk_rows: int = 65536,
) -> ShardPlan:
    """Out-of-core :func:`plan_shards`: split planes from a sample + refine.

    Operates on ``source`` (typically a memmapped ``.npy``) strictly chunk by
    chunk, never materialising the full matrix.  Per level it runs three
    streaming passes over the rows of each node being split:

    1. **sample** -- exact per-node min/max (for the widest-spread axis, same
       rule as :func:`plan_shards`) plus a deterministic strided row sample;
    2. **refine** -- the sample brackets the median inside a quantile window
       ``[lo, hi]``; one pass counts values below ``lo`` and collects the
       in-window values, from which the *exact* rank-``mid`` order statistic
       (the split value :func:`plan_shards` takes) is selected.  If the
       window misses (adversarial duplicates), the pass falls back to
       collecting the node's full column -- still one column, never the
       matrix;
    3. **assign** -- routes rows to the two children.  Values strictly below
       the plane go left, strictly above go right, and exact ties are split
       by ascending global index until the left child holds exactly
       ``mid = size // 2`` rows.

    The resulting plan is *plane-consistent* -- every member of a left
    (right) shard lies on the ``<=`` (``>=``) side of each separating plane
    -- and, since ties go by ascending index in both planners, equal to
    :func:`plan_shards`' plan: the same axes, values and members.  (The fit
    would not need that: the halo-exchange and cross-shard merge contracts
    make the clustering bit-identical to the single-tree fit for any
    plane-consistent balanced partition.)

    Peak private memory is ``O(chunk_rows * d + n)`` (the per-row node
    assignment plus window buffers), independent of ``n * d``.
    """
    n, dim = int(source.shape[0]), int(source.shape[1])
    n_shards = _check_n_shards(n_shards, n)
    depth = n_shards.bit_length() - 1
    sample_size = check_positive_int(sample_size, "sample_size")
    chunk_rows = check_positive_int(chunk_rows, "chunk_rows")

    axes = np.full(max(n_shards - 1, 1), -1, dtype=np.intp)[: n_shards - 1]
    values = np.zeros(n_shards - 1, dtype=np.float64)
    # assign[i] is row i's node index within the current level (level-local,
    # 0..2^level - 1); after `depth` levels it is the final shard id.
    assign = np.zeros(n, dtype=np.intp)
    sizes = [n]

    for level in range(depth):
        n_nodes = 1 << level
        mids = [size // 2 for size in sizes]

        # Pass 1: exact per-node min/max + deterministic strided samples.
        mins = np.full((n_nodes, dim), np.inf)
        maxs = np.full((n_nodes, dim), -np.inf)
        strides = [
            max(1, (size + sample_size - 1) // sample_size) for size in sizes
        ]
        seen = [0] * n_nodes
        samples: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
        for start, chunk in _iter_row_chunks(source, chunk_rows):
            node_of = assign[start : start + chunk.shape[0]]
            for node in range(n_nodes):
                rows = chunk[node_of == node]
                if rows.shape[0] == 0:
                    continue
                np.minimum(mins[node], rows.min(axis=0), out=mins[node])
                np.maximum(maxs[node], rows.max(axis=0), out=maxs[node])
                stride = strides[node]
                offset = (-seen[node]) % stride
                samples[node].append(rows[offset::stride])
                seen[node] += rows.shape[0]

        dims = [int(np.argmax(maxs[node] - mins[node])) for node in range(n_nodes)]

        # Pass 2: exact rank-mid order statistic via the sample window.
        windows: list[tuple[float, float] | None] = [None] * n_nodes
        for node in range(n_nodes):
            if strides[node] == 1:
                continue  # the sample IS the full column: exact already
            col = np.sort(np.concatenate(samples[node])[:, dims[node]])
            fraction = mids[node] / sizes[node]
            width = max(0.02, 6.0 / np.sqrt(col.size))
            lo = col[int(np.floor(max(0.0, fraction - width) * (col.size - 1)))]
            hi = col[int(np.ceil(min(1.0, fraction + width) * (col.size - 1)))]
            windows[node] = (float(lo), float(hi))

        plane = np.empty(n_nodes, dtype=np.float64)
        tie_quota = [0] * n_nodes
        pending = list(range(n_nodes))
        while pending:
            below = [0] * n_nodes
            collected: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
            for start, chunk in _iter_row_chunks(source, chunk_rows):
                node_of = assign[start : start + chunk.shape[0]]
                for node in pending:
                    col = chunk[node_of == node][:, dims[node]]
                    if col.shape[0] == 0:
                        continue
                    if windows[node] is None:
                        collected[node].append(col)
                        continue
                    lo, hi = windows[node]
                    below[node] += int(np.count_nonzero(col < lo))
                    collected[node].append(col[(col >= lo) & (col <= hi)])
            missed = []
            for node in pending:
                window_values = (
                    np.concatenate(collected[node])
                    if collected[node]
                    else np.zeros(0)
                )
                rank = mids[node] - below[node]
                if not 0 <= rank < window_values.size:
                    windows[node] = None  # window missed: full-column retry
                    missed.append(node)
                    continue
                value = float(np.partition(window_values, rank)[rank])
                plane[node] = value
                strictly_below = below[node] + int(
                    np.count_nonzero(window_values < value)
                )
                tie_quota[node] = mids[node] - strictly_below
            pending = missed

        # Pass 3: route rows to children (ties split by ascending index).
        new_assign = np.empty(n, dtype=np.intp)
        ties_taken = [0] * n_nodes
        for start, chunk in _iter_row_chunks(source, chunk_rows):
            node_of = assign[start : start + chunk.shape[0]]
            out = new_assign[start : start + chunk.shape[0]]
            for node in range(n_nodes):
                mask = node_of == node
                if not mask.any():
                    continue
                col = chunk[mask][:, dims[node]]
                side = np.where(col < plane[node], 0, 1)
                ties = np.flatnonzero(col == plane[node])
                if ties.size:
                    take = max(0, min(ties.size, tie_quota[node] - ties_taken[node]))
                    side[ties[:take]] = 0
                    side[ties[take:]] = 1
                    ties_taken[node] += take
                out[mask] = 2 * node + side
        for node in range(n_nodes):
            heap = (1 << level) - 1 + node
            axes[heap] = dims[node]
            values[heap] = plane[node]
        assign = new_assign
        sizes = [
            item
            for size, mid in zip(sizes, mids)
            for item in (mid, size - mid)
        ]

    members = tuple(
        np.flatnonzero(assign == shard).astype(np.intp)
        for shard in range(n_shards)
    )
    for shard, shard_members in enumerate(members):
        if shard_members.size == 0:
            raise ValueError(
                f"streaming plan produced an empty shard ({shard}); "
                "reduce n_shards"
            )
    return ShardPlan(
        n_shards=n_shards,
        depth=depth,
        axes=axes,
        values=values,
        members=members,
    )


def separating_plane(plan: ShardPlan, shard_a: int, shard_b: int) -> tuple[int, float, bool]:
    """The unique plane separating two distinct shards.

    Returns ``(axis, value, a_on_left)``: every point of ``shard_a`` lies on
    the ``<= value`` side along ``axis`` when ``a_on_left`` is true (and on
    the ``>= value`` side otherwise), with ``shard_b`` on the opposite side.
    """
    if shard_a == shard_b:
        raise ValueError("shards must be distinct")
    differing = shard_a ^ shard_b
    bits = differing.bit_length()
    level = plan.depth - bits  # 0-based level of the lowest common ancestor
    prefix = shard_a >> bits
    node = (1 << level) - 1 + prefix
    a_on_left = ((shard_a >> (bits - 1)) & 1) == 0
    return int(plan.axes[node]), float(plan.values[node]), a_on_left


def halo_slack(d_cut: float, dtype) -> float:
    """Float-safety slack added to the halo slab width.

    A pair straddling the separating plane is counted by the storage-dtype
    kernels when its computed squared distance falls below the
    storage-rounded ``d_cut**2``.  The computed value can under-round the
    true squared distance by a few relative ulps (one per subtraction,
    square and accumulation step), so excluding a point from the slab is
    only sound when its plane distance exceeds ``d_cut`` by that margin.
    ``16 * eps`` relative is an order of magnitude more than the worst case
    at the paper's dimensionalities; the slack only admits a handful of
    extra candidates, which the exact counting kernel then rejects.
    """
    return 16.0 * float(np.finfo(np.dtype(dtype)).eps) * float(d_cut)


def slab_indices(
    coords_axis: np.ndarray,
    value: float,
    on_left: bool,
    d_cut: float,
    dtype,
) -> np.ndarray:
    """Positions (into ``coords_axis``) of the points inside a halo slab.

    ``coords_axis`` must hold the *storage-dtype* coordinates along the
    separating axis (cast to float64 for exact comparison) and ``value`` is
    cast to the same storage dtype: storage rounding is monotone, so the
    cast plane still exactly separates the two sides.
    """
    dtype = np.dtype(dtype)
    value_stored = float(np.asarray(value, dtype=dtype))
    bound = float(d_cut) + halo_slack(d_cut, dtype)
    gap = (value_stored - coords_axis) if on_left else (coords_axis - value_stored)
    return np.flatnonzero(gap < bound)
