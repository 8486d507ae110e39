"""Timings of the operators layer: the second-kind matrix and the eigensolve.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_operators.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  second_kind_matrix, two GEMMs over the flattened basis, is
timed on random tensors for n in {5, 8, 10, 12}.  The eigensolve is timed
on the Ric_L of a random n = 12 tensor: at (12, 5) the whole matrix, at
(12, 6) the self-dual block A + B that ric_l_spectrum solves.
"""

import numpy as np
import pytest

from curvkind import Analysis, random_curvature, ric_l_matrix, second_kind_matrix
from curvkind.bochner import _ric_l_blocks


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("n", [5, 8, 10, 12])
def test_second_kind_matrix(benchmark, rng, n):
    benchmark(second_kind_matrix, random_curvature(n, rng))


@pytest.fixture(scope="module")
def irreducible(rng):
    a = Analysis(random_curvature(12, rng))
    return {"12-5": ric_l_matrix(a, 5), "12-6": next(_ric_l_blocks(a, 6))[0]}


@pytest.mark.parametrize("case", ["12-5", "12-6"])
def test_eigensolve(benchmark, irreducible, case):
    benchmark(np.linalg.eigvalsh, irreducible[case])
