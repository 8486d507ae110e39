"""curvkind._blas: the p-form functions run their products on one OpenBLAS
thread and put the thread count back."""

import math
import threading

import numpy as np
import pytest

from curvkind import PForm, bochner, random_curvature
from curvkind._blas import _openblas_threads, one_blas_thread

FORM_FUNCTIONS = (
    "form_s02_expansion",
    "second_kind_form_term",
    "ric_l_quadratic",
    "bochner_decomposition",
    "ogiue_tachibana_term",
)


@pytest.fixture
def count():
    """The OpenBLAS thread count getter, with the count set to 2 for the test."""
    found = _openblas_threads()
    if found is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, put = found
    before = get()
    put(2)
    yield get
    put(before)


def test_wrapped_call_runs_on_one_thread_and_restores(count):
    seen = []

    @one_blas_thread
    def probe(fail=False):
        seen.append(count())
        if fail:
            raise ValueError("inside")
        return "done"

    assert probe() == "done"
    assert count() == 2
    with pytest.raises(ValueError):
        probe(fail=True)
    assert count() == 2
    assert seen == [1, 1]


def test_nested_and_overlapping_calls_restore_once(count):
    seen = []
    entered, release = threading.Event(), threading.Event()

    @one_blas_thread
    def inner():
        seen.append(count())

    @one_blas_thread
    def outer():
        inner()
        seen.append(count())

    @one_blas_thread
    def held():
        entered.set()
        release.wait(10)

    outer()
    assert count() == 2
    worker = threading.Thread(target=held)
    worker.start()
    assert entered.wait(10)
    # a call that ends while another is running leaves one thread in place
    inner()
    assert count() == 1
    release.set()
    worker.join(10)
    assert count() == 2
    assert seen == [1, 1, 1]


def test_form_functions_run_on_one_thread(count, monkeypatch):
    seen = {}
    for name in ("ricci_scalar", "_act_stack_coeffs", "second_kind_matrix"):
        original = getattr(bochner, name)

        def recording(*args, _name=name, _original=original):
            seen.setdefault(_name, set()).add(count())
            return _original(*args)

        monkeypatch.setattr(bochner, name, recording)
    rng = np.random.default_rng(3)
    n, p = 7, 3
    R = random_curvature(n, rng)
    w = PForm(n, p, rng.standard_normal(math.comb(n, p)))
    for name in FORM_FUNCTIONS:
        assert hasattr(getattr(bochner, name), "__wrapped__"), name
        getattr(bochner, name)(*((w,) if name == "form_s02_expansion" else (R, w)))
    assert seen == {"ricci_scalar": {1}, "_act_stack_coeffs": {1}, "second_kind_matrix": {1}}
    assert count() == 2
