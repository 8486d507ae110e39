"""Timings of the Ric_L assembly, its spectrum and its smallest eigenvalue
alone at the CLI cap, and of operators.spectrum's symmetry gate on a
matrix of Ric_L's size.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_ric_l.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  (10, 5), (12, 6) and (14, 7) are middle degrees, where
ric_l_spectrum assembles only the rows of the half basis H and solves two
self-dual blocks of half the size (n = 0 mod 4) or one Hermitian matrix of
half the size (n = 2 mod 4).  The spectrum is timed on the random tensor,
whose Ric_L is irreducible, and on product_sphere(n) and a perturbed
constant-curvature tensor, whose Ric and first-kind matrix are diagonal, so
that ric_l_spectrum assembles no matrix at all.  The smallest eigenvalue
of one degree, ric_l_minima(Analysis(R), (p,)), as `analyze --p <p>` reads
it, is timed beside ric_l_spectrum on the same cases: it solves each block
for its smallest eigenvalue alone (LAPACK ?syevr through
_blas.lowest_eigenvalue), and on the diagonal path takes a minimum where
ric_l_spectrum sorts.  ric_l_minima, the call `analyze --p half` makes, is
timed over p = 1..n/2 at n = 11 and 12 on the random tensor and on a random
Kulkarni-Nomizu product: its degrees run on two lanes, the costliest on
one and the rest on the other, each solve on one OpenBLAS thread.
(14, 7) lies above the
CLI's dimension cap, which the library functions do not check.  The
assembly reads one signed principal block of Ric or -2F per (p-k)-tuple,
k = 1, 2, its indices from the wedge tables _through(n, p-k, k), which are
cached and read no curvature; the cold case clears every cache of the
modules it reads before each round, and times the degrees 1..6 that
`analyze --p half` assembles at n = 12.  Every round reads a
fresh Analysis, so each timing includes the validation of R, which
Analysis runs when it is built, and the Ricci tensor and the first-kind
matrix that the assembly reads.  No Ric_L block is gated for symmetry:
the gate timed here is the one operators.spectrum runs on a matrix handed
to it, such as the first- and second-kind matrices.
"""

import numpy as np
import pytest

from curvkind import (
    Analysis,
    bochner,
    constant_curvature,
    kulkarni_nomizu,
    perturb_constant,
    product_sphere,
    random_curvature,
    ric_l_matrix,
    ric_l_minima,
    ric_l_spectrum,
    tensor_core,
)
from curvkind.operators import require_symmetric

CASES = [(11, 5), (12, 4), (12, 5), (12, 6)]
SPECTRUM_CASES = [(10, 5), *CASES, (14, 7)]
MODELS = {
    "product_sphere": product_sphere,
    "perturbed": lambda n: perturb_constant(constant_curvature(n, 1.3), -0.4),
}


@pytest.fixture(scope="module")
def tensors():
    rng = np.random.default_rng(0)
    return {n: random_curvature(n, rng) for n in (10, 11, 12, 14)}


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


def test_spectrum_gate(benchmark, tensors):
    benchmark(require_symmetric, ric_l_matrix(Analysis(tensors[12]), 6))


@pytest.mark.parametrize("kind", ["random", *MODELS])
@pytest.mark.parametrize("n, p", SPECTRUM_CASES)
def test_ric_l_spectrum(benchmark, tensors, kind, n, p):
    R = tensors[n] if kind == "random" else MODELS[kind](n)
    benchmark(lambda: ric_l_spectrum(Analysis(R), p))


@pytest.mark.parametrize("kind", ["random", *MODELS])
@pytest.mark.parametrize("n, p", SPECTRUM_CASES)
def test_ric_l_minimum_of_one_degree(benchmark, tensors, kind, n, p):
    R = tensors[n] if kind == "random" else MODELS[kind](n)
    benchmark(lambda: ric_l_minima(Analysis(R), (p,)))


def _kn_product(n, rng):
    h, k = (rng.standard_normal((n, n)) for _ in range(2))
    return kulkarni_nomizu(h + h.T, k + k.T)


@pytest.mark.parametrize("kind", ["random", "kn_product"])
@pytest.mark.parametrize("n", [11, 12])
def test_ric_l_minima(benchmark, tensors, kind, n):
    R = tensors[n] if kind == "random" else _kn_product(n, np.random.default_rng(n))
    benchmark(lambda: ric_l_minima(Analysis(R), range(1, n // 2 + 1)))
