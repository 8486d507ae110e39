"""Timings of the layers that the other benchmarks leave out: validation,
the first-kind matrix, the form expansion and the certificates.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_layers.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  Every layer is timed on random tensors for n in {5, 8, 10, 12};
form_s02_expansion also runs over the degrees p in {1, 2, n // 2}.
test_validate_curvature_failing times the refusal of a tensor whose one
entry breaks the symmetries, indexed report and error included.  The
test_certify rounds read a fresh Analysis each, so each timing includes the
Ricci tensor, the first-kind matrix and the second-kind spectrum that a
`curvkind certify` call computes; the test_certify_warm rounds read one
Analysis whose spectrum was computed before timing, so they time certify
alone.
"""

import numpy as np
import pytest

from curvkind import (
    Analysis,
    CurvatureSymmetryError,
    CurvatureTensor,
    PForm,
    certify,
    first_kind_matrix,
    form_s02_expansion,
    random_curvature,
    validate_curvature,
)

NS = [5, 8, 10, 12]
FORMS = [(n, p) for n in NS for p in sorted({1, 2, n // 2})]


@pytest.fixture(scope="module")
def tensors():
    rng = np.random.default_rng(0)
    return {n: random_curvature(n, rng) for n in NS}


@pytest.mark.parametrize("n", NS)
def test_validate_curvature(benchmark, tensors, n):
    benchmark(validate_curvature, tensors[n])


def refuse(R):
    with pytest.raises(CurvatureSymmetryError):
        validate_curvature(R)


@pytest.mark.parametrize("n", NS)
def test_validate_curvature_failing(benchmark, tensors, n):
    A = tensors[n].components.copy()
    A[0, 1, 2, 3] += 0.5
    benchmark(refuse, CurvatureTensor(n, A))


@pytest.mark.parametrize("n", NS)
def test_first_kind_matrix(benchmark, tensors, n):
    benchmark(first_kind_matrix, tensors[n])


@pytest.mark.parametrize("n, p", FORMS)
def test_form_s02_expansion(benchmark, n, p):
    w = PForm.random(n, p, np.random.default_rng(100 * n + p))
    benchmark(form_s02_expansion, w)


@pytest.mark.parametrize("n", NS)
def test_certify(benchmark, tensors, n):
    benchmark(lambda: certify(Analysis(tensors[n])))


@pytest.mark.parametrize("n", NS)
def test_certify_warm(benchmark, tensors, n):
    a = Analysis(tensors[n])
    certify(a)  # caches the Ricci summary and the second-kind spectrum
    benchmark(certify, a)
