"""R-tree + Scan: densities via an R-tree, dependencies via Scan (§6 of the paper).

The paper evaluates this hybrid baseline to show that an off-the-shelf spatial
index alleviates the local-density cost but leaves the quadratic
dependent-point computation untouched, which is why the variant behaves like
Scan overall (its curve is omitted after Figure 7 for that reason).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.scan import ScanDPC
from repro.index.rtree import RTree

__all__ = ["RTreeScanDPC"]


class RTreeScanDPC(ScanDPC):
    """DPC with R-tree range counts for densities and Scan dependencies.

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    rho_min, delta_min, n_clusters, n_jobs, seed, chunk_size:
        See :class:`repro.baselines.scan.ScanDPC`.
    leaf_capacity, fanout:
        STR bulk-loading parameters of the R-tree.
    """

    algorithm_name = "R-tree + Scan"

    def __init__(
        self,
        d_cut: float,
        *,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        n_jobs: int = 1,
        backend: str | None = None,
        seed: int | None = 0,
        chunk_size: int = 1024,
        leaf_capacity: int = 64,
        fanout: int = 16,
    ):
        super().__init__(
            d_cut,
            rho_min=rho_min,
            delta_min=delta_min,
            n_clusters=n_clusters,
            n_jobs=n_jobs,
            backend=backend,
            seed=seed,
            chunk_size=chunk_size,
        )
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self._rtree: RTree | None = None

    def _build_index(self, points: np.ndarray) -> None:
        self._rtree = RTree(
            points,
            leaf_capacity=self.leaf_capacity,
            fanout=self.fanout,
            counter=self._counter,
        )

    def _index_memory_bytes(self) -> int:
        return self._rtree.memory_bytes() if self._rtree is not None else 0

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        rtree = self._rtree
        n = points.shape[0]

        def density_of(index: int) -> int:
            return rtree.range_count(points[index], self.d_cut, strict=True)

        counts = self._executor.map(density_of, list(range(n)))
        return np.asarray(counts, dtype=np.float64)
