"""curvkind._blas: the p-form functions run their products on one OpenBLAS
thread and put the thread count back, and lowest_eigenvalue is the first
eigenvalue of eigvalsh."""

import math
import threading

import numpy as np
import pytest

from curvkind import PForm, bochner, random_curvature
from curvkind import _blas
from curvkind._blas import _openblas_threads, lowest_eigenvalue, one_blas_thread
from curvkind.tensor_core import read_only

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
    for name in ("ricci_scalar", "_matrix_units", "second_kind_matrix"):
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
    assert seen == {"ricci_scalar": {1}, "_matrix_units": {1}, "second_kind_matrix": {1}}
    assert count() == 2


def _hermitian(N, rng, is_complex):
    A = rng.standard_normal((N, N))
    if is_complex:
        A = A + 1j * rng.standard_normal((N, N))
    return A + A.conj().T


@pytest.mark.parametrize("path", ["lapacke", "fallback"])
def test_lowest_eigenvalue_is_the_first_of_eigvalsh(path, monkeypatch):
    # within N eps |M|_2 of eigvalsh at every binary scale, and exactly 2^e
    # times the value at unit scale: the solve sees M divided by its unit
    # scale, which 2^e does not change.  eigvalsh rescales a matrix of norm
    # beyond about 1e146 or under 1e-146 by a factor that is not a power of
    # two, so its reference is taken at unit scale, times 2^e
    if path == "fallback":
        monkeypatch.setattr(_blas, "_syevr", lambda dtype: None)
    elif _blas._syevr(np.dtype(np.float64)) is None:
        pytest.skip("numpy carries no LAPACKE ?syevr")
    rng = np.random.default_rng(21)
    for N in (1, 2, 17, 150):
        for is_complex in (False, True):
            unit = _hermitian(N, rng, is_complex)
            at_unit = lowest_eigenvalue(unit.copy())
            eigs = np.linalg.eigvalsh(unit)
            for e in (-600, 0, 256, 600):
                M = unit * 2.0**e
                got = lowest_eigenvalue(M.copy())
                want = math.ldexp(eigs[0], e)
                if abs(e) <= 256:
                    assert want == np.linalg.eigvalsh(M)[0]
                bound = math.ldexp(N * np.finfo(float).eps * np.abs(eigs).max(), e)
                assert abs(got - want) <= bound, (N, is_complex, e)
                assert got == math.ldexp(at_unit, e), (N, is_complex, e)
                assert type(got) is float


def test_lowest_eigenvalue_refuses_what_it_cannot_overwrite():
    M = np.array([[2.0, 1.0], [1.0, 3.0]])
    kept = read_only(M.copy())
    for bad in (
        kept,
        np.asfortranarray(M),
        np.kron(M, np.ones((1, 2)))[:, ::2],
        M.astype(np.float32),
        M.astype(np.complex64),
        M.astype(int),
        M.tolist(),
        M[:1],
    ):
        with pytest.raises(ValueError):
            lowest_eigenvalue(bad)
    assert np.array_equal(kept, M)
    assert lowest_eigenvalue(M) == pytest.approx((5 - math.sqrt(5)) / 2, rel=1e-15)
