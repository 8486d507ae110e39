"""Timings of the Ric_L assembly and of its spectrum at the CLI cap.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_ric_l.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  (12, 6) is the middle degree, where ric_l_spectrum solves two
self-dual blocks of half the size.
"""

import numpy as np
import pytest

from curvkind import random_curvature, ric_l_matrix, ric_l_spectrum

CASES = [(11, 5), (12, 5), (12, 6)]


@pytest.fixture(scope="module")
def tensors():
    rng = np.random.default_rng(0)
    return {n: random_curvature(n, rng) for n in (11, 12)}


@pytest.mark.parametrize("n, p", CASES)
def test_ric_l_matrix(benchmark, tensors, n, p):
    benchmark(ric_l_matrix, tensors[n], p)


@pytest.mark.parametrize("n, p", CASES)
def test_ric_l_spectrum(benchmark, tensors, n, p):
    benchmark(ric_l_spectrum, tensors[n], p)
