"""Timings of the p-form paths at the CLI cap: the dense form, the two-point
matrix, the expansion over the canonical S^2_0 basis, the Bochner
decomposition, its dense oracle, and the two oracles of its operator term,
the canonical-basis second_kind_form_term and the Ogiue-Tachibana term.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_forms.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  (12, 6) is the middle degree at the cap.  bochner_decomposition
and form_two_point read the wedge tables, and bochner_decomposition takes its
operator term from them with no basis; form_s02_expansion and
ogiue_tachibana_term read the matrix-unit table X[a, j] = E_aj w;
PForm.to_dense and ric_l_quadratic build the n^p dense form, 24 MB at
(12, 6).  The bochner_decomposition cases
also record, as extra_info, the tracemalloc peak of one warm call.
"""

import math
import tracemalloc

import numpy as np
import pytest

from curvkind import (
    PForm,
    bochner_decomposition,
    form_s02_expansion,
    form_two_point,
    ogiue_tachibana_term,
    random_curvature,
    ric_l_quadratic,
    second_kind_form_term,
)

CASES = [(11, 5), (12, 6)]


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(0)
    out = {}
    for n, p in CASES:
        R = random_curvature(n, rng)
        out[n, p] = R, PForm(n, p, rng.standard_normal(math.comb(n, p)))
    return out


@pytest.mark.parametrize("n, p", CASES)
def test_to_dense(benchmark, inputs, n, p):
    benchmark(inputs[n, p][1].to_dense)


@pytest.mark.parametrize("n, p", CASES)
def test_form_two_point(benchmark, inputs, n, p):
    benchmark(form_two_point, inputs[n, p][1])


@pytest.mark.parametrize("n, p", CASES)
def test_form_s02_expansion(benchmark, inputs, n, p):
    benchmark(form_s02_expansion, inputs[n, p][1])


@pytest.mark.parametrize("n, p", CASES)
def test_bochner_decomposition(benchmark, inputs, n, p):
    R, w = inputs[n, p]
    bochner_decomposition(R, w)
    tracemalloc.start()
    try:
        bochner_decomposition(R, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["peak_traced_mb"] = round(peak / 2**20, 2)
    benchmark(bochner_decomposition, R, w)


@pytest.mark.parametrize("n, p", CASES)
def test_ric_l_quadratic(benchmark, inputs, n, p):
    benchmark(ric_l_quadratic, *inputs[n, p])


@pytest.mark.parametrize("n, p", CASES)
def test_ogiue_tachibana_term(benchmark, inputs, n, p):
    benchmark(ogiue_tachibana_term, *inputs[n, p])


@pytest.mark.parametrize("n, p", CASES)
def test_second_kind_form_term(benchmark, inputs, n, p):
    benchmark(second_kind_form_term, *inputs[n, p])
