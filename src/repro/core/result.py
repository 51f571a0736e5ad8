"""The result object returned by every DPC estimator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["DPCResult", "canonical_rho_raw"]


def canonical_rho_raw(rho_raw: np.ndarray) -> np.ndarray:
    """Normalise raw densities to the dtype convention of ``rho_raw_``.

    Definition 1 densities are integer counts and are stored as ``int64``;
    estimators whose raw densities are genuinely fractional keep ``float64``.
    Shared by ``fit``, snapshot restore and the streaming layer so the three
    paths cannot drift.
    """
    rho_raw = np.asarray(rho_raw)
    if np.allclose(rho_raw, np.round(rho_raw)):
        return rho_raw.astype(np.int64)
    return np.asarray(rho_raw, dtype=np.float64)


@dataclass
class DPCResult:
    """Outcome of one Density-Peaks Clustering run.

    Attributes
    ----------
    labels_:
        Cluster label per point; noise points carry ``-1``.  Labels are dense
        integers ``0 .. n_clusters_ - 1`` ordered by decreasing center density.
    rho_:
        Tie-broken local densities (the integer count plus a random value in
        ``(0, 1)``; see §3 of the paper).
    rho_raw_:
        Integer local densities exactly as in Definition 1.
    delta_:
        Dependent distances; the globally densest point carries ``inf``.
    dependent_:
        Index of each point's (approximate) dependent point; ``-1`` for the
        globally densest point and for cluster centers (whose dependent point
        is defined to be themselves).
    centers_:
        Indices of the selected cluster centers, ordered by decreasing density.
    noise_mask_:
        Boolean mask of noise points (``rho_raw_ < rho_min``).
    n_clusters_:
        Number of clusters (``len(centers_)``).
    exact_dependency_mask_:
        Boolean mask of points whose dependent point was computed *exactly*
        (always all-true for exact algorithms; for Approx-DPC this marks the
        "stem" of each cluster tree).
    timings_:
        Measured wall-clock seconds per phase: ``index_build``,
        ``local_density``, ``dependency``, ``assignment`` and ``total``.
        Under ``n_jobs > 1`` these are the real parallel phase times; the
        thread-scaling benchmark reads its speedups from them.
    work_:
        Hardware-independent operation counts per phase
        (``density_distance_calcs``, ``dependency_distance_calcs``,
        ``total_distance_calcs``).  These reproduce the paper's complexity
        comparison (Table 1) independently of interpreter constant factors.
    memory_bytes_:
        Approximate peak footprint of the algorithm's data structures (index,
        grids, auxiliary arrays), mirroring the paper's Table 7.
    params_:
        The estimator parameters used for the run.
    algorithm_:
        Name of the algorithm that produced the result.
    dependent_raw_:
        Like ``dependent_`` but *without* the center masking: a center's entry
        holds its actual nearest denser point (or ``-1`` for the globally
        densest point).  The streaming layer needs the unmasked forest to
        repair dependencies incrementally when a center is demoted later.
    """

    labels_: np.ndarray
    rho_: np.ndarray
    rho_raw_: np.ndarray
    delta_: np.ndarray
    dependent_: np.ndarray
    centers_: np.ndarray
    noise_mask_: np.ndarray
    n_clusters_: int
    exact_dependency_mask_: np.ndarray
    timings_: dict[str, float] = field(default_factory=dict)
    work_: dict[str, float] = field(default_factory=dict)
    memory_bytes_: int = 0
    params_: dict[str, Any] = field(default_factory=dict)
    algorithm_: str = ""
    dependent_raw_: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        """Number of clustered points."""
        return int(self.labels_.shape[0])

    @property
    def n_noise(self) -> int:
        """Number of points classified as noise."""
        return int(np.count_nonzero(self.noise_mask_))

    def cluster_sizes(self) -> dict[int, int]:
        """Return ``{label: size}`` for every cluster (noise excluded)."""
        labels, counts = np.unique(self.labels_[self.labels_ >= 0], return_counts=True)
        return {int(label): int(count) for label, count in zip(labels, counts)}

    def cluster_members(self, label: int) -> np.ndarray:
        """Return the indices of the points assigned to cluster ``label``."""
        return np.flatnonzero(self.labels_ == label)

    def decision_graph(self):
        """Return the :class:`~repro.core.decision_graph.DecisionGraph` of this run."""
        from repro.core.decision_graph import DecisionGraph

        return DecisionGraph(rho=self.rho_raw_, delta=self.delta_)

    def summary(self) -> str:
        """Return a short human-readable summary of the clustering."""
        sizes = self.cluster_sizes()
        lines = [
            f"algorithm        : {self.algorithm_}",
            f"points           : {self.n_points}",
            f"clusters         : {self.n_clusters_}",
            f"noise points     : {self.n_noise}",
            f"total time [s]   : {self.timings_.get('total', float('nan')):.4f}",
            f"density time [s] : {self.timings_.get('local_density', float('nan')):.4f}",
            f"depend. time [s] : {self.timings_.get('dependency', float('nan')):.4f}",
            f"memory [MB]      : {self.memory_bytes_ / 1e6:.2f}",
        ]
        if sizes:
            largest = max(sizes.values())
            smallest = min(sizes.values())
            lines.append(f"cluster sizes    : min={smallest}, max={largest}")
        return "\n".join(lines)
