"""Shared fixtures for the benchmark suite.

Each fixture loads one of the paper's workloads at a reduced sampling rate so
that ``pytest benchmarks/ --benchmark-only`` completes in a few minutes of
pure-Python time.  The standalone ``python -m`` entry point of each bench
module regenerates the corresponding full table or figure.
"""

from __future__ import annotations

import pytest

from repro.bench import load_workload

#: Sampling rate applied to every pytest-benchmark fixture (the standalone
#: mains use the full benchmark cardinality).
BENCH_SAMPLING = 0.5


@pytest.fixture(scope="session")
def syn_workload():
    """The Syn workload (random walk, 13 peaks) at benchmark scale."""
    return load_workload("syn", sampling_rate=BENCH_SAMPLING)


@pytest.fixture(scope="session")
def s2_workload():
    """The S2-style workload (15 Gaussians, moderate overlap)."""
    return load_workload("s2", sampling_rate=BENCH_SAMPLING)


@pytest.fixture(scope="session")
def airline_workload():
    """The Airline-like stand-in (3-D, skewed densities)."""
    return load_workload("airline", sampling_rate=BENCH_SAMPLING)


@pytest.fixture(scope="session")
def household_workload():
    """The Household-like stand-in (4-D)."""
    return load_workload("household", sampling_rate=BENCH_SAMPLING)
