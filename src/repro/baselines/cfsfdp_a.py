"""CFSFDP-A: the pivot-based exact DPC baseline (Bai et al., 2017).

CFSFDP-A is the state-of-the-art *exact* competitor evaluated in the paper.
Its local-density phase avoids some distance computations with pivots and the
triangle inequality:

1. a k-means clustering selects ``k`` pivot points (the centroids);
2. every point is attached to its nearest pivot, and each pivot group stores
   its radius (the distance from the pivot to its farthest member);
3. for a query point ``p`` the whole group of pivot ``v`` can be skipped when
   ``dist(p, v) - radius(v) >= d_cut`` (no member can be within ``d_cut``),
   and counted wholesale when ``dist(p, v) + radius(v) < d_cut``; only the
   remaining groups are scanned point by point.

As the paper notes (§2.3 and Table 1), the filtering power is limited because
k-means pivots are sensitive to noise, so the density phase remains
``Omega(n^2)`` in the worst case and its dependent-point computation is slower
than Scan's; following the paper's experimental setup, this implementation
reuses Scan's dependent-point procedure.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import KMeans
from repro.baselines.scan import ScanDPC
from repro.utils.distance import point_to_points, point_to_points_sq

__all__ = ["CFSFDPA"]


class CFSFDPA(ScanDPC):
    """Pivot/triangle-inequality exact DPC (CFSFDP-A).

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    n_pivots:
        Number of k-means pivots.  ``None`` (default) uses
        ``max(8, round(sqrt(n)))``, the usual pivot budget for
        triangle-inequality filtering; the cached point-to-pivot distances are
        what make CFSFDP-A the most memory-hungry algorithm in Table 7.
    rho_min, delta_min, n_clusters, n_jobs, seed, chunk_size:
        See :class:`repro.baselines.scan.ScanDPC`.
    """

    algorithm_name = "CFSFDP-A"

    def __init__(
        self,
        d_cut: float,
        *,
        n_pivots: int | None = None,
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
            chunk_size=chunk_size,
        )
        self.n_pivots = n_pivots
        self._pivots: np.ndarray | None = None
        self._pivot_members: list[np.ndarray] = []
        self._pivot_radii: np.ndarray | None = None

    def get_params(self):
        params = super().get_params()
        params["n_pivots"] = self.n_pivots
        return params

    # ------------------------------------------------------------------ index

    def _build_index(self, points: np.ndarray) -> None:
        n = points.shape[0]
        n_pivots = self.n_pivots
        if n_pivots is None:
            n_pivots = max(8, int(round(np.sqrt(n))))
        n_pivots = min(n_pivots, n)

        kmeans = KMeans(n_clusters=n_pivots, max_iter=20, seed=self.seed)
        labels = kmeans.fit_predict(points)
        self._pivots = kmeans.centroids_

        members: list[np.ndarray] = []
        radii = np.zeros(n_pivots, dtype=np.float64)
        for pivot in range(n_pivots):
            group = np.flatnonzero(labels == pivot)
            members.append(group)
            if group.size:
                radii[pivot] = float(
                    np.sqrt(point_to_points_sq(self._pivots[pivot], points[group]).max())
                )
        self._pivot_members = members
        self._pivot_radii = radii

    def _index_memory_bytes(self) -> int:
        if self._pivots is None:
            return 0
        total = self._pivots.nbytes + self._pivot_radii.nbytes
        total += sum(group.nbytes for group in self._pivot_members)
        # CFSFDP-A caches the point-to-pivot distance matrix during filtering,
        # which dominates its memory usage (Table 7 of the paper).
        total += 8 * self._pivots.shape[0] * sum(
            group.size for group in self._pivot_members
        )
        return int(total)

    # ---------------------------------------------------------------- density

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        n = points.shape[0]
        d_cut = self.d_cut
        d_cut_sq = d_cut * d_cut
        pivots = self._pivots
        members = self._pivot_members
        radii = self._pivot_radii

        rho = np.zeros(n, dtype=np.float64)

        def density_of(index: int) -> None:
            query = points[index]
            pivot_dists = point_to_points(query, pivots)
            count = 0
            examined = 0
            for pivot, group in enumerate(members):
                if group.size == 0:
                    continue
                if pivot_dists[pivot] - radii[pivot] >= d_cut:
                    # The whole group is provably outside the ball.
                    continue
                if pivot_dists[pivot] + radii[pivot] < d_cut:
                    # The whole group is provably inside the ball.
                    count += int(group.size)
                    continue
                d_sq = point_to_points_sq(query, points[group])
                count += int(np.count_nonzero(d_sq < d_cut_sq))
                examined += int(group.size)
            rho[index] = count
            self._counter.add("distance_calcs", float(examined + pivots.shape[0]))

        self._executor.map(density_of, list(range(n)))
        return rho
