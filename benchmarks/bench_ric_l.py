"""Timings of the Ric_L assembly, its symmetry gate and its spectrum at the
CLI cap.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_ric_l.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  (12, 6) is the middle degree, where ric_l_spectrum solves two
self-dual blocks of half the size.  The spectrum is timed on the random
tensor, whose Ric_L is irreducible, and on product_sphere(n), whose Ric_L is
diagonal, so that block_eigvalsh solves nothing.  The assembly reads index
tables cached per (n, p); the cold case clears every cache of the modules it
reads before each round, and times the degrees 1..6 that `analyze --p half`
assembles at n = 12.  Every round reads a fresh Analysis, so each timing
includes the Ricci tensor and the first-kind matrix that the assembly reads.
"""

import numpy as np
import pytest

from curvkind import (
    Analysis,
    bochner,
    product_sphere,
    random_curvature,
    ric_l_matrix,
    ric_l_spectrum,
    tensor_core,
)
from curvkind.operators import require_symmetric

CASES = [(11, 5), (12, 4), (12, 5), (12, 6)]


@pytest.fixture(scope="module")
def tensors():
    rng = np.random.default_rng(0)
    return {n: random_curvature(n, rng) for n in (11, 12)}


def _clear_caches():
    for module in (bochner, tensor_core):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.mark.parametrize("n, p", CASES)
def test_ric_l_matrix(benchmark, tensors, n, p):
    benchmark(lambda: ric_l_matrix(Analysis(tensors[n]), p))


def test_ric_l_matrix_cold_half(benchmark, tensors):
    def half():
        analysis = Analysis(tensors[12])
        for p in range(1, 7):
            ric_l_matrix(analysis, p)

    benchmark.pedantic(half, setup=_clear_caches, rounds=10)


def test_require_symmetric(benchmark, tensors):
    benchmark(require_symmetric, ric_l_matrix(Analysis(tensors[12]), 6))


@pytest.mark.parametrize("kind", ["random", "product_sphere"])
@pytest.mark.parametrize("n, p", CASES)
def test_ric_l_spectrum(benchmark, tensors, kind, n, p):
    R = tensors[n] if kind == "random" else product_sphere(n)
    benchmark(lambda: ric_l_spectrum(Analysis(R), p))
