"""Synthetic stand-ins for the paper's real datasets.

The evaluation section uses four real datasets that cannot be shipped with
this repository (and whose full cardinality would be impractical for a
pure-Python reproduction anyway):

=========  ==========  ====  ==============================
dataset    points      dim   domain per dimension
=========  ==========  ====  ==============================
Airline    5,810,462    3    ``[0, 1e6]``
Household  2,049,280    4    ``[0, 1e5]``
PAMAP2     3,850,505    4    ``[0, 1e5]``
Sensor       928,991    8    ``[0, 1e5]``
=========  ==========  ====  ==============================

What the runtime and accuracy experiments actually depend on is the *shape* of
each dataset: dimensionality, domain, a skewed multi-modal density (many dense
regions of very different size plus a diffuse background), and a default
``d_cut`` small enough that ``rho_avg << n``.  :func:`generate_real_like`
produces exactly that: a mixture of Gaussian clusters whose sizes follow a
power law (skewed densities), plus a uniform background component, in the
original dimensionality and domain, at a configurable scaled-down cardinality.
The per-dataset specs also carry the paper's default ``d_cut`` rescaled to the
stand-in so experiments keep comparable ``rho_avg / n`` ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

__all__ = ["RealDatasetSpec", "REAL_DATASET_SPECS", "generate_real_like"]


@dataclass(frozen=True)
class RealDatasetSpec:
    """Shape parameters of one real-dataset stand-in.

    Attributes
    ----------
    name:
        Dataset name as used in the paper.
    dim:
        Dimensionality.
    domain:
        ``(low, high)`` bounds of every dimension.
    paper_cardinality:
        Number of points in the original dataset (for documentation).
    default_points:
        Default cardinality of the stand-in.
    n_modes:
        Number of dense regions in the mixture.
    default_d_cut:
        Default cutoff distance for the stand-in, chosen so that the average
        local density stays well below the cardinality (the paper's
        ``rho_avg << n`` assumption).
    background_fraction:
        Fraction of points drawn uniformly from the domain (diffuse noise).
    """

    name: str
    dim: int
    domain: tuple[float, float]
    paper_cardinality: int
    default_points: int
    n_modes: int
    default_d_cut: float
    background_fraction: float


#: Stand-in specifications for the four real datasets.  The paper's default
#: d_cut values (1000 for Airline/Household/PAMAP2, 5000 for Sensor) are kept
#: relative to the domain; cardinalities are scaled down for pure Python.
REAL_DATASET_SPECS: dict[str, RealDatasetSpec] = {
    "airline": RealDatasetSpec(
        name="Airline",
        dim=3,
        domain=(0.0, 1e6),
        paper_cardinality=5_810_462,
        default_points=24_000,
        n_modes=40,
        default_d_cut=20_000.0,
        background_fraction=0.06,
    ),
    "household": RealDatasetSpec(
        name="Household",
        dim=4,
        domain=(0.0, 1e5),
        paper_cardinality=2_049_280,
        default_points=20_000,
        n_modes=30,
        default_d_cut=3_000.0,
        background_fraction=0.05,
    ),
    "pamap2": RealDatasetSpec(
        name="PAMAP2",
        dim=4,
        domain=(0.0, 1e5),
        paper_cardinality=3_850_505,
        default_points=22_000,
        n_modes=35,
        default_d_cut=3_000.0,
        background_fraction=0.08,
    ),
    "sensor": RealDatasetSpec(
        name="Sensor",
        dim=8,
        domain=(0.0, 1e5),
        paper_cardinality=928_991,
        default_points=12_000,
        n_modes=25,
        default_d_cut=15_000.0,
        background_fraction=0.05,
    ),
}


def generate_real_like(
    name: str,
    n_points: int | None = None,
    seed: int | None = 0,
) -> tuple[np.ndarray, RealDatasetSpec]:
    """Generate the stand-in for one of the paper's real datasets.

    Parameters
    ----------
    name:
        One of ``"airline"``, ``"household"``, ``"pamap2"``, ``"sensor"``
        (case-insensitive).
    n_points:
        Cardinality of the stand-in; the spec's default when omitted.
    seed:
        Random seed or generator.

    Returns
    -------
    tuple
        ``(points, spec)``.
    """
    key = name.lower()
    if key not in REAL_DATASET_SPECS:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(REAL_DATASET_SPECS)}"
        )
    spec = REAL_DATASET_SPECS[key]
    n_points = (
        spec.default_points if n_points is None else check_positive_int(n_points, "n_points")
    )
    rng = ensure_rng(seed)
    low, high = spec.domain
    span = high - low

    n_background = int(round(spec.background_fraction * n_points))
    n_clustered = n_points - n_background

    # Dense-region sizes follow a power law so densities are heavily skewed,
    # like the sensor/trajectory data the paper uses.
    raw_sizes = rng.pareto(1.5, size=spec.n_modes) + 1.0
    weights = raw_sizes / raw_sizes.sum()

    margin = 0.05 * span
    centers = rng.uniform(low + margin, high - margin, size=(spec.n_modes, spec.dim))
    # Region spreads vary by two orders of magnitude across modes.
    spreads = span * rng.uniform(0.004, 0.06, size=spec.n_modes)

    assignments = rng.choice(spec.n_modes, size=n_clustered, p=weights)
    offsets = rng.normal(size=(n_clustered, spec.dim))
    clustered = centers[assignments] + offsets * spreads[assignments][:, None]

    background = rng.uniform(low, high, size=(n_background, spec.dim))
    points = np.concatenate([clustered, background])
    np.clip(points, low, high, out=points)
    return points[rng.permutation(points.shape[0])], spec
