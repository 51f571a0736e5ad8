"""LSH-DDP: the LSH-based approximate DPC baseline (Zhang et al., TKDE 2016).

LSH-DDP was designed for MapReduce but, as the paper notes, works unchanged in
a multicore setting.  It partitions the point set into buckets with ``M``
independent compound p-stable LSH functions so that nearby points tend to
share buckets, then

* estimates the **local density** of ``p`` by counting, over the union of
  ``p``'s buckets across the ``M`` tables, the points within ``d_cut``;
* estimates the **dependent point** of ``p`` as the nearest denser point in
  that same union;
* falls back to an exact scan of the whole point set for points whose bucket
  neighbourhood contains no denser point (the original paper's
  "re-examination" pass for results that do not look accurate).

The paper's critique is that LSH-DDP distributes buckets to workers without
a cost model, so skewed bucket sizes translate directly into idle threads.
This implementation maps its per-point density and dependency tasks over the
:class:`repro.parallel.executor.ParallelExecutor` (worker threads for
``n_jobs > 1``); its measured thread scaling is part of
``benchmarks/bench_fig9_threads.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.framework import DensityPeaksBase
from repro.lsh.pstable import LSHTable, PStableHash
from repro.utils.distance import point_to_points_sq
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["LSHDDP"]


class LSHDDP(DensityPeaksBase):
    """Approximate DPC over p-stable LSH bucket partitions.

    Parameters
    ----------
    d_cut:
        Cutoff distance of Definition 1.
    n_tables:
        Number ``M`` of independent compound hash tables.
    n_functions:
        Number ``k`` of concatenated hash functions per table.
    bucket_width_factor:
        The quantisation width of every hash is
        ``bucket_width_factor * d_cut`` (the original paper ties the bucket
        width to the cutoff distance so that points within ``d_cut`` usually
        collide).
    rho_min, delta_min, n_clusters, n_jobs, seed:
        See :class:`repro.core.framework.DensityPeaksBase`.
    """

    algorithm_name = "LSH-DDP"

    def __init__(
        self,
        d_cut: float,
        *,
        n_tables: int = 4,
        n_functions: int = 4,
        bucket_width_factor: float = 4.0,
        rho_min: float | None = None,
        delta_min: float | None = None,
        n_clusters: int | None = None,
        n_jobs: int = 1,
        backend: str | None = None,
        seed: int | None = 0,
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
        self.n_tables = check_positive_int(n_tables, "n_tables")
        self.n_functions = check_positive_int(n_functions, "n_functions")
        self.bucket_width_factor = check_positive(
            bucket_width_factor, "bucket_width_factor"
        )
        self._tables: list[LSHTable] = []

    # ------------------------------------------------------------------ index

    def _build_index(self, points: np.ndarray) -> None:
        width = self.bucket_width_factor * self.d_cut
        base_seed = 0 if self.seed is None else int(self.seed)
        self._tables = [
            LSHTable(
                points,
                PStableHash(
                    dim=points.shape[1],
                    width=width,
                    n_functions=self.n_functions,
                    seed=base_seed + table,
                ),
            )
            for table in range(self.n_tables)
        ]

    def _index_memory_bytes(self) -> int:
        return int(sum(table.memory_bytes() for table in self._tables))

    def _neighborhood(self, index: int) -> np.ndarray:
        """Union of the buckets containing ``index`` across all tables."""
        parts = [table.bucket_of_point(index) for table in self._tables]
        return np.unique(np.concatenate(parts))

    # ---------------------------------------------------------------- density

    def _compute_local_density(self, points: np.ndarray) -> np.ndarray:
        n = points.shape[0]
        d_cut_sq = self.d_cut * self.d_cut
        rho = np.zeros(n, dtype=np.float64)

        def density_of(index: int) -> None:
            neighborhood = self._neighborhood(index)
            self._counter.add("distance_calcs", float(neighborhood.size))
            d_sq = point_to_points_sq(points[index], points[neighborhood])
            rho[index] = float(np.count_nonzero(d_sq < d_cut_sq))

        self._executor.map(density_of, list(range(n)))
        return rho

    # ------------------------------------------------------------ dependencies

    def _compute_dependencies(
        self, points: np.ndarray, rho: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = points.shape[0]
        dependent = np.full(n, -1, dtype=np.intp)
        delta = np.full(n, np.inf, dtype=np.float64)
        exact_mask = np.zeros(n, dtype=bool)

        densest = int(np.argmax(rho))
        fallback: list[int] = []

        def local_dependency(index: int) -> None:
            if index == densest:
                return
            neighborhood = self._neighborhood(index)
            denser = neighborhood[rho[neighborhood] > rho[index]]
            self._counter.add("distance_calcs", float(denser.size))
            if denser.size == 0:
                fallback.append(index)
                return
            d_sq = point_to_points_sq(points[index], points[denser])
            pos = int(np.argmin(d_sq))
            dependent[index] = int(denser[pos])
            delta[index] = float(np.sqrt(d_sq[pos]))

        self._executor.map(local_dependency, list(range(n)))

        # Re-examination pass: exact scan for points whose buckets held no
        # denser point.
        if fallback:
            def exact_dependency(index: int) -> None:
                denser = np.flatnonzero(rho > rho[index])
                if denser.size == 0:
                    return
                self._counter.add("distance_calcs", float(denser.size))
                d_sq = point_to_points_sq(points[index], points[denser])
                pos = int(np.argmin(d_sq))
                dependent[index] = int(denser[pos])
                delta[index] = float(np.sqrt(d_sq[pos]))
                exact_mask[index] = True

            self._executor.map(exact_dependency, list(fallback))

        return dependent, delta, exact_mask
