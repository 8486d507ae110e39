"""curvkind._blas: the p-form functions run their products on one OpenBLAS
thread and put the thread count back, and lowest_eigenvalue is the first
eigenvalue of eigvalsh.  analyze, certify and spectrum print the same bits
whatever the cores and the OpenBLAS thread count; analyze's Ric_L classes
run on two lanes (bochner.ric_l_minima), which leave no thread behind."""

import contextlib
import io
import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest

from curvkind import Analysis, PForm, bochner, product_sphere, random_curvature
from curvkind import _blas
from curvkind._blas import _openblas_threads, lowest_eigenvalue, one_blas_thread
from curvkind.cli import main
from curvkind.errors import NotSymmetric
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


def _analyze(argv, command="analyze"):
    """(exit code or raised error, stdout, stderr) of one in-process analyze,
    or of another report command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = main([command, *argv])
        except SystemExit as exc:
            outcome = exc.code
        except Exception as exc:
            outcome = (type(exc), str(exc))
    return outcome, out.getvalue(), err.getvalue()


def _dense_file(tmp_path, n, seed):
    R = random_curvature(n, np.random.default_rng(seed))
    path = tmp_path / f"dense-{n}.json"
    path.write_text(json.dumps({"n": n, "components": R.components.ravel().tolist()}))
    return str(path)


# at this seed, n = 10 and 12 each print two per_p rows whose last bits
# differ between one and two OpenBLAS threads when the whole report follows
# the thread count it is given
DETERMINISM_SEED = 7


@pytest.mark.parametrize("n", [8, 10, 12])
def test_analyze_bits_depend_on_the_input_alone(n, count, tmp_path):
    # n = 8 and 12 solve two Hodge blocks in the middle degree, n = 10 one
    # Hermitian block; every n runs two lanes, whatever the host.  certify
    # and spectrum --operator ric_l, at every degree, run on one OpenBLAS
    # thread too
    _, put = _openblas_threads()
    source = ["--dense", _dense_file(tmp_path, n, DETERMINISM_SEED)]
    printed = set()
    for threads in (1, 2):
        put(threads)
        code, out, _ = _analyze([*source, "--p", "all"])
        assert code == 0
        printed.add(out)
    assert len(printed) == 1
    others = [("certify", source)]
    others += [("spectrum", [*source, "--operator", "ric_l", "--ric-l-p", str(p)])
               for p in range(1, n)]
    for command, argv in others:
        outputs = set()
        for threads in (1, 2):
            put(threads)
            code, out, _ = _analyze(argv, command)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1, argv
    rows = json.loads(printed.pop())["per_p"]
    for p in range(1, n):
        _, out, _ = _analyze([*source, "--p", str(p)])
        assert json.dumps(json.loads(out)["per_p"]) == json.dumps([rows[p - 1]]), p


@pytest.mark.parametrize("n", [10, 11, 12])
def test_ric_l_spectrum_bits_depend_on_the_input_alone(n, count):
    # the library's ric_l_spectrum solves on one OpenBLAS thread, as the
    # CLI does, whatever thread count its caller left OpenBLAS with; at this
    # seed half of these degrees differ in their last bits between one and
    # two threads when the solve follows the caller's count
    _, put = _openblas_threads()
    a = Analysis(random_curvature(n, np.random.default_rng(DETERMINISM_SEED)))
    for p in range(1, n):
        spectra = set()
        for threads in (1, 2):
            put(threads)
            spectra.add(bochner.ric_l_spectrum(a, p).tobytes())
            assert count() == threads
        assert len(spectra) == 1, p


def _failing_solve(monkeypatch, sizes, error, seen=None):
    """Patch the solve to raise error(<size>) on a block of one of sizes."""
    original = bochner.lowest_eigenvalue

    def solve(M):
        if seen is not None:
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
        if len(M) in sizes:
            raise error(f"no solve at size {len(M)}")
        return original(M)

    monkeypatch.setattr(bochner, "lowest_eigenvalue", solve)


# at n = 12 the lanes are [5] on the calling thread and [6, 4, 3, 2, 1]
# beside it; a degree's matrix has C(12, p) rows, and 462 in the middle degree
SIZES = {3: 220, 4: 495, 5: 792}


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, NotSymmetric])
@pytest.mark.parametrize("failing", [(4,), (4, 5), (3, 4)], ids=str)
def test_lanes_fail_as_the_serial_loop(error, failing, count, monkeypatch, tmp_path):
    # the first failing degree reports its error, as one loop over them
    # would: exit 2 and one line, for a CurvkindError and a failed solve
    # alike; every lane is joined and the thread count put back
    source = ["--dense", _dense_file(tmp_path, 12, DETERMINISM_SEED), "--p"]
    _failing_solve(monkeypatch, {SIZES[p] for p in failing}, error)

    def run(p):
        before = threading.active_count()
        outcome = _analyze([*source, str(p)])
        assert threading.active_count() == before
        assert count() == 2
        return outcome

    # the serial loop: one degree per call, one class on one lane, up to the
    # first that fails
    serial = next(outcome for outcome in map(run, range(1, 7)) if outcome[0] != 0)
    lanes = run("half")
    assert serial == lanes
    message = f"no solve at size {SIZES[min(failing)]}"
    assert lanes == (2, "", f"error: {message}\n")


def test_lanes_see_the_callers_errstate_and_leave_no_thread(count, monkeypatch, tmp_path):
    source = ["--dense", _dense_file(tmp_path, 11, DETERMINISM_SEED), "--p", "half"]
    seen = []
    _failing_solve(monkeypatch, set(), np.linalg.LinAlgError, seen)
    before = threading.active_count()
    assert _analyze(source)[0] == 0
    assert threading.active_count() == before
    assert count() == 2
    on_lanes = [state for on_main, state in seen if not on_main]
    assert on_lanes and all(state["over"] == "raise" for state in on_lanes)
    assert np.geterr()["over"] != "raise"


def test_one_matrix_degree_or_a_diagonal_ric_l_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lane was started")

    monkeypatch.setattr(bochner.threading, "Thread", refuse)
    diagonal = Analysis(product_sphere(12))
    assert len(bochner.ric_l_minima(diagonal, range(1, 12))) == 11
    a = Analysis(random_curvature(9, np.random.default_rng(2)))
    assert list(bochner.ric_l_minima(a, (4, 9))) == [4, 9]


def test_more_lanes_than_cores_under_fast_switching(monkeypatch):
    # degrees 1..9 at n = 10 are the classes 1..5, on two lanes whatever
    # the host: the calling thread and one thread beside it.  With the
    # interpreter switching threads every microsecond, no lane loses a
    # class or moves a bit
    a = Analysis(random_curvature(10, np.random.default_rng(5)))
    degrees = range(1, 10)
    # one degree per call is one class, on one lane
    serial = {p: bochner.ric_l_minima(a, [p])[p] for p in degrees}
    started = []
    thread = threading.Thread
    monkeypatch.setattr(bochner.threading, "Thread",
                        lambda *args, **kwargs: started.append(1) or thread(*args, **kwargs))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert bochner.ric_l_minima(a, degrees) == serial
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 5


@pytest.mark.parametrize("n", range(2, 16))
def test_lanes_split_largest_first(n):
    # ric_l_minima puts the class of largest _solve_cost on one lane and
    # the rest on another; that is the best split of any set of classes,
    # since the largest costs at least all the others together, at every
    # n up to 15 (it first fails at n = 16)
    costs = [bochner._solve_cost(n, p) for p in range(1, n // 2 + 1)]
    for size in range(1, len(costs) + 1):
        for subset in itertools.combinations(costs, size):
            assert 2 * max(subset) >= sum(subset), (n, subset)
