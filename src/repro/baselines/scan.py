"""Scan: the straightforward quadratic DPC algorithm (§2.2 of the paper).

Local densities are computed by scanning the whole point set for every point;
dependent points are computed by sorting the points in descending density
order and, for every point, scanning only the points that precede it in that
order (the early-termination trick of §2.2: the scan can stop once points with
lower density are reached -- here the sort makes that implicit).

Both phases are ``O(n^2)``.  The implementation streams over row blocks so the
memory footprint stays ``O(chunk_size * n)`` instead of ``O(n^2)``, and both
phases are embarrassingly parallel (each point / block is independent), which
is how the paper parallelises Scan for the thread-scaling experiment.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import DensityPeaksBase
from repro.utils.distance import pairwise_sq_distances

__all__ = ["ScanDPC"]


class ScanDPC(DensityPeaksBase):
    """The ``O(n^2)`` baseline DPC algorithm.

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    rho_min, delta_min, n_clusters, n_jobs, seed:
        See :class:`repro.core.framework.DensityPeaksBase`.
    chunk_size:
        Number of rows processed per block in the density phase.
    """

    algorithm_name = "Scan"

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
    ):
        super().__init__(
            d_cut,
            rho_min=rho_min,
            delta_min=delta_min,
            n_clusters=n_clusters,
            n_jobs=n_jobs,
            backend=backend,
            seed=seed,
        )
        self.chunk_size = int(chunk_size)
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")

    # ------------------------------------------------------------------ index

    def _build_index(self, points: np.ndarray) -> None:
        # Scan uses no index.
        return None

    # ---------------------------------------------------------------- density

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        n = points.shape[0]
        d_cut_sq = self.d_cut * self.d_cut
        rho = np.zeros(n, dtype=np.float64)

        chunks = [
            (start, min(start + self.chunk_size, n))
            for start in range(0, n, self.chunk_size)
        ]

        def process_chunk(bounds: tuple[int, int]) -> None:
            start, stop = bounds
            block_sq = pairwise_sq_distances(points[start:stop], points)
            rho[start:stop] = (block_sq < d_cut_sq).sum(axis=1)
            self._counter.add("distance_calcs", float(stop - start) * float(n))

        self._executor.map(process_chunk, chunks)
        return rho

    # ------------------------------------------------------------ dependencies

    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = points.shape[0]
        order = np.argsort(rho, kind="stable")[::-1]
        ordered_points = points[order]

        dependent = np.full(n, -1, dtype=np.intp)
        delta = np.full(n, np.inf, dtype=np.float64)

        # For the point at sorted position i, every denser point sits at a
        # position < i, so the scan is a prefix minimum over the sorted order.
        positions = [
            (start, min(start + self.chunk_size, n))
            for start in range(1, n, self.chunk_size)
        ]

        def process_block(bounds: tuple[int, int]) -> None:
            start, stop = bounds
            block_sq = pairwise_sq_distances(ordered_points[start:stop], ordered_points)
            self._counter.add(
                "distance_calcs", float(sum(range(start, stop)))
            )
            for offset, position in enumerate(range(start, stop)):
                prefix = block_sq[offset, :position]
                nearest = int(np.argmin(prefix))
                original = int(order[position])
                dependent[original] = int(order[nearest])
                delta[original] = float(np.sqrt(prefix[nearest]))

        self._executor.map(process_block, positions)

        exact_mask = np.ones(n, dtype=bool)
        return dependent, delta, exact_mask
