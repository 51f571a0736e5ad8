"""Dataset generators used by the examples, tests and benchmarks.

The paper evaluates on five synthetic datasets (Syn and the S1--S4 Gaussian
benchmark sets) and four real datasets (Airline, Household, PAMAP2, Sensor).
The real datasets cannot be redistributed here, so this package provides

* :func:`repro.data.synthetic.generate_syn` -- the random-walk ``Syn``
  generator (13 density peaks in ``[0, 1e5]^2``),
* :func:`repro.data.synthetic.add_noise` -- uniform noise injection used by
  the Table 2 robustness experiment,
* :func:`repro.data.gaussian.generate_s_set` -- 15-Gaussian-cluster sets with
  a controllable overlap degree, standing in for S1--S4,
* :mod:`repro.data.real_like` -- distribution-matched synthetic stand-ins for
  the four real datasets (same dimensionality and domain, skewed multi-modal
  densities, scaled-down cardinality).
"""

from repro.data.gaussian import generate_s_set
from repro.data.real_like import (
    REAL_DATASET_SPECS,
    RealDatasetSpec,
    generate_real_like,
)
from repro.data.synthetic import add_noise, generate_blobs, generate_syn

__all__ = [
    "generate_syn",
    "generate_blobs",
    "add_noise",
    "generate_s_set",
    "generate_real_like",
    "RealDatasetSpec",
    "REAL_DATASET_SPECS",
]
