"""repro -- Fast Density-Peaks Clustering: Multicore-based Parallelization Approach.

A from-scratch Python reproduction of Amagata & Hara (SIGMOD 2021): the exact
algorithm **Ex-DPC**, the approximate algorithms **Approx-DPC** and
**S-Approx-DPC**, every baseline the paper evaluates against (Scan,
R-tree + Scan, LSH-DDP, CFSFDP-A, DBSCAN, OPTICS, k-means), the spatial-index
and LSH substrates they rely on, dataset generators, quality metrics and a
benchmark harness that regenerates every table and figure of the paper's
evaluation.

Quickstart::

    import numpy as np
    from repro import ApproxDPC
    from repro.data import generate_syn

    points, _ = generate_syn(n_points=5_000, seed=0)
    model = ApproxDPC(d_cut=2_500.0, rho_min=10, n_clusters=13)
    result = model.fit(points)
    print(result.summary())

See README.md for the full tour and ``docs/`` for the design of each
subsystem (engines, backends, kernels, sharding, streaming, serving).
"""

from repro.baselines import CFSFDPA, DBSCAN, KMeans, LSHDDP, OPTICS, RTreeScanDPC, ScanDPC
from repro.core import (
    ApproxDPC,
    DecisionGraph,
    DPCResult,
    ExDPC,
    ReclusterIndex,
    SApproxDPC,
)
from repro.index import IncrementalKDTree, KDTree, RTree, SampledGrid, UniformGrid
from repro.metrics import adjusted_rand_index, center_agreement, rand_index

__version__ = "1.0.0"

# Imported after __version__: the snapshot writer records the library version.
from repro.stream import StreamingDPC, load_model, save_model  # noqa: E402

__all__ = [
    # paper contributions
    "ExDPC",
    "ApproxDPC",
    "SApproxDPC",
    # shared framework objects
    "DPCResult",
    "DecisionGraph",
    "ReclusterIndex",
    # baselines
    "ScanDPC",
    "RTreeScanDPC",
    "LSHDDP",
    "CFSFDPA",
    "DBSCAN",
    "OPTICS",
    "KMeans",
    # substrates
    "KDTree",
    "IncrementalKDTree",
    "RTree",
    "UniformGrid",
    "SampledGrid",
    # streaming / serving
    "StreamingDPC",
    "save_model",
    "load_model",
    # metrics
    "rand_index",
    "adjusted_rand_index",
    "center_agreement",
    "__version__",
]
