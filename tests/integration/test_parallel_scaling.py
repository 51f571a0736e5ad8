"""Integration tests: real multi-threaded fits reproduce serial fits."""

import pytest

from repro.core import ApproxDPC, ExDPC, SApproxDPC
from repro.data import generate_syn

D_CUT = 3_000.0
K = 8


@pytest.fixture(scope="module")
def syn_points():
    points, _ = generate_syn(n_points=1_500, n_peaks=K, seed=5)
    return points


class TestRealThreadsMatchSerial:
    @pytest.mark.parametrize("algorithm_cls", [ApproxDPC, SApproxDPC, ExDPC])
    def test_threaded_run_reproduces_serial_labels(self, syn_points, algorithm_cls):
        serial = algorithm_cls(d_cut=D_CUT, n_clusters=K, seed=0, n_jobs=1).fit(syn_points)
        threaded = algorithm_cls(d_cut=D_CUT, n_clusters=K, seed=0, n_jobs=4).fit(syn_points)
        assert (serial.labels_ == threaded.labels_).all()
