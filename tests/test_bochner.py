import math
import tracemalloc

import numpy as np
import pytest

from curvkind import (
    Analysis,
    CurvatureTensor,
    DimensionMismatch,
    POutOfRange,
    PForm,
    bochner,
    act_sym_on_form,
    bochner_decomposition,
    cluster_eigenvalues,
    constant_curvature,
    curvature_symmetry_report,
    form_s02_expansion,
    form_two_point,
    kulkarni_nomizu,
    ogiue_tachibana_term,
    perturb_constant,
    product_sphere,
    random_curvature,
    random_trace_free,
    ric_l_minima,
    ric_l_matrix,
    ric_l_quadratic,
    ric_l_spectrum,
    second_kind_form_term,
    second_kind_matrix,
    spectrum,
    su3_so3,
    validate_curvature,
)
from curvkind.bochner import (
    _hodge_table,
    _matrix_units,
    _ric_l_diagonal,
    _ric_l_rows,
    _symmetric_pairs,
    _through,
    _unit_positions,
    _wedge_table,
)
from curvkind.operators import first_kind_matrix, ricci_scalar
from curvkind.tensor_core import canonical_s02_basis, multi_index_array
from helpers import (
    act_sym_dense,
    bochner_ricci_diagonal_residual,
    form_from_dense,
    form_two_point_dense,
    general_tensor_bochner_check,
    make_einstein,
    make_ricci_flat,
    multi_index_positions,
    ogiue_tachibana_family,
    ogiue_tachibana_long_double,
    ogiue_tachibana_stacked,
    random_rotation,
    random_symmetric,
    ric_l_apply_dense,
    ric_l_by_derivations,
    ric_l_quadratic_dense,
    rotate_curvature,
    s02_expansion_stacked,
    spectral_decomposition,
    to_dense,
)


# --- the action of symmetric tensors on forms -------------------------------


def test_metric_acts_as_p():
    rng = np.random.default_rng(0)
    for n, p in [(4, 1), (4, 2), (5, 3)]:
        w = PForm.random(n, p, rng)
        out = act_sym_on_form(np.eye(n), w)
        assert np.allclose(out.coeffs, p * w.coeffs, atol=1e-14)


def test_diagonal_action_scales_wedges():
    S = np.diag([1.0, -1.0, 0.0, 0.0])
    w = PForm.wedge(4, (0, 1))
    assert np.abs(act_sym_on_form(S, w).coeffs).max() == 0.0
    S2 = np.diag([2.0, 3.0, -1.0, 0.5])
    w2 = PForm.wedge(4, (0, 2))
    out = act_sym_on_form(S2, w2)
    assert np.allclose(out.coeffs, 1.0 * w2.coeffs)  # 2 + (-1)


def test_action_against_slow_reference():
    from curvkind.tensor_core import multi_indices, sort_with_sign

    rng = np.random.default_rng(1)
    for n, p in [(5, 3), (6, 2), (6, 4)]:
        A = rng.standard_normal((n, n))
        w = PForm.random(n, p, rng)
        idxs = multi_indices(n, p)
        pos = multi_index_positions(n, p)
        for S in (A + A.T, A):
            expected = np.zeros(len(idxs))
            for r, I in enumerate(idxs):
                val = 0.0
                for m, im in enumerate(I):
                    for j in range(n):
                        sign, sidx = sort_with_sign(I[:m] + (j,) + I[m + 1 :])
                        if sign:
                            val += S[im, j] * sign * w.coeffs[pos[sidx]]
                expected[r] = val
            assert np.allclose(act_sym_on_form(S, w).coeffs, expected, atol=1e-12)


def test_matrix_units_against_dense_action():
    # X[a, j] = E_aj w, the matrix unit e_a (x) e^j acting slot by slot on the
    # dense form: against one generic, non-symmetric S for every (n, p), and
    # row by row up to n^p = 50000 entries; the n^2 rows cost n^2 dense
    # actions, 49 on 7^7 entries at (7, 7)
    rng = np.random.default_rng(33)
    for n in range(2, 8):
        for p in range(n + 1):
            w = PForm.random(n, p, rng)
            X = _matrix_units(w)
            assert X.shape == (n, n, math.comb(n, p))
            if p == 0:
                assert not X.any()
                continue
            dense = to_dense(w)
            S = rng.standard_normal((n, n))
            want = form_from_dense(act_sym_dense(S, dense)).coeffs
            got = np.einsum("aj,ajc->c", S, X)
            assert np.abs(got - want).max() <= 1e-14 * (1 + np.abs(want).max()), (n, p)
            if n**p > 50_000:
                continue
            for a in range(n):
                for j in range(n):
                    E = np.zeros((n, n))
                    E[a, j] = 1.0
                    want = form_from_dense(act_sym_dense(E, dense)).coeffs
                    assert np.array_equal(X[a, j], want), (n, p, a, j)


def test_sharp_weight_pair():
    for n, p in [(4, 2), (6, 3), (8, 3)]:
        mu = [math.sqrt((n - p) / (n * p))] * p + [-math.sqrt(p / ((n - p) * n))] * (n - p)
        S = np.diag(mu)
        assert abs(np.trace(S)) < 1e-14
        assert np.linalg.norm(S) == pytest.approx(1.0)
        w = PForm.wedge(n, tuple(range(p)))
        val = act_sym_on_form(S, w).norm_sq
        assert abs(val - p * (n - p) / n * w.norm_sq) <= 1e-12 * w.norm_sq


def test_weight_bound_random_draws():
    rng = np.random.default_rng(2)
    for n, p in [(4, 2), (5, 2), (6, 3)]:
        cap = p * (n - p) / n
        for _ in range(100):
            S = random_trace_free(n, rng)
            w = PForm.random(n, p, rng)
            assert act_sym_on_form(S, w).norm_sq <= cap * w.norm_sq * (1 + 1e-10)


# --- the expansion over the canonical basis ---------------------------------


def test_expansion_degenerate_degrees():
    w0 = PForm(5, 0, np.array([2.0]))
    assert form_s02_expansion(w0).total == 0.0
    rng = np.random.default_rng(3)
    wn = PForm.random(5, 5, rng)
    assert form_s02_expansion(wn).total <= 1e-12


def test_expansion_total_weight_example():
    # n=4, p=2, w = e1^e2 has |w|^2 = 2; total = (2*2/4)*(6/2)*2 = 6
    w = PForm.wedge(4, (0, 1))
    exp = form_s02_expansion(w)
    assert exp.total == pytest.approx(6.0, abs=1e-12)


def test_expansion_total_weight_random():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5, 6):
        for p in range(1, n):
            w = PForm.random(n, p, rng)
            exp = form_s02_expansion(w)
            target = p * (n - p) / n * (n + 2) / 2 * w.norm_sq
            assert abs(exp.total - target) <= 1e-10 * (1 + target)
            assert np.all(exp.weights <= p * (n - p) / n * w.norm_sq * (1 + 1e-10))
            assert exp.total == pytest.approx(float(exp.weights.sum()))


def test_expansion_against_stacked_product():
    # the pair and diagonal rows read off the matrix units against the
    # n^2-wide product canonical_s02_basis(n) @ X
    rng = np.random.default_rng(34)
    for n in range(2, 12):
        for p in range(n + 1):
            w = PForm.random(n, p, rng)
            got = form_s02_expansion(w).coefficient_matrix
            want = s02_expansion_stacked(w)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * (1 + np.abs(got).max()), (n, p)


def test_operator_term_two_paths_agree():
    rng = np.random.default_rng(5)
    for n, p in [(4, 2), (5, 2), (5, 3)]:
        R = random_curvature(n, rng)
        w = PForm.random(n, p, rng)
        exp = form_s02_expansion(w)
        canonical = second_kind_form_term(R, w)
        lam, Q = spectral_decomposition(second_kind_matrix(R))
        eigen = float(np.sum(lam * np.diag(Q.T @ exp.gram() @ Q)))
        assert abs(canonical - eigen) <= 1e-10 * (1 + abs(canonical))


# --- the curvature term ------------------------------------------------------


def test_ric_l_quadratic_flat_and_volume():
    rng = np.random.default_rng(6)
    flat = constant_curvature(4, 0.0)
    assert ric_l_quadratic(flat, PForm.random(4, 2, rng)) == 0.0
    # the volume form: the two Weitzenboeck sums are scal and -scal, and
    # ric_l_quadratic keeps ric_l_matrix's exact zero
    for n in (3, 4, 5):
        R = random_curvature(n, rng)
        assert ric_l_quadratic(R, PForm.random(n, n, rng)) == 0.0


def test_ric_l_quadratic_memory_at_the_cap():
    # read off the two Grams of w, about 0.5 MB at (12, 6); the n^p dense
    # form alone is 22.8 MB there
    rng = np.random.default_rng(42)
    R = random_curvature(12, rng)
    w = PForm.random(12, 6, rng)
    ric_l_quadratic(R, w)
    tracemalloc.start()
    try:
        ric_l_quadratic(R, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_ric_l_quadratic_sphere():
    rng = np.random.default_rng(7)
    for n, p in [(4, 1), (5, 2), (6, 3)]:
        R = constant_curvature(n, 1.0)
        w = PForm.random(n, p, rng)
        assert ric_l_quadratic(R, w) == pytest.approx(p * (n - p) * w.norm_sq, rel=1e-12)


def test_ric_l_matrix_small_cases():
    rng = np.random.default_rng(8)
    R = random_curvature(5, rng)
    s_ric = np.einsum("ikjk->ij", R.components)
    assert np.allclose(ric_l_matrix(Analysis(R), 1), s_ric, atol=1e-13)
    assert np.abs(ric_l_matrix(Analysis(constant_curvature(4, 0.0)), 2)).max() == 0.0
    for n, p in [(4, 2), (5, 2), (5, 4)]:
        M = ric_l_matrix(Analysis(constant_curvature(n, 1.0)), p)
        assert np.abs(M - p * (n - p) * np.eye(len(M))).max() < 1e-12


def test_ric_l_matrix_matches_quadratic_form():
    rng = np.random.default_rng(9)
    for n, p in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 5)]:
        R = random_curvature(n, rng)
        M = ric_l_matrix(Analysis(R), p)
        assert np.abs(M - M.T).max() < 1e-13
        fact = math.factorial(p)
        for _ in range(50):
            w = PForm.random(n, p, rng)
            quad = ric_l_quadratic_dense(R, w)
            via_matrix = fact * float(w.coeffs @ (M @ w.coeffs))
            assert abs(quad - via_matrix) <= 1e-10 * (1 + abs(quad))


def test_ric_l_matrix_against_slotwise_oracle():
    rng = np.random.default_rng(10)
    # (10, 5): a middle degree, assembled whole here
    for n, p in [(4, 2), (5, 3), (6, 3), (5, 4), (7, 5), (4, 4), (10, 5)]:
        R = random_curvature(n, rng)
        M = ric_l_matrix(Analysis(R), p)
        if p == n:
            assert not M.any()
        fact = math.factorial(p)
        for _ in range(10):
            w = PForm.random(n, p, rng)
            dense = to_dense(w)
            oracle = float(np.sum(ric_l_apply_dense(R, dense) * dense))
            via_matrix = fact * float(w.coeffs @ (M @ w.coeffs))
            assert abs(oracle - via_matrix) <= 1e-10 * (1 + abs(oracle))


def _wedge_matrices(n, q):
    """Dense e_i ^ (.) from q-forms to (q+1)-forms, stacked over i."""
    row, sign = _wedge_table(n, q)
    out = np.zeros((n, math.comb(n, q + 1), math.comb(n, q)))
    k, i = np.nonzero(sign)
    out[i, row[k, i], k] = sign[k, i]
    return out


def test_wedge_table_signs_and_anticommutation():
    from curvkind.tensor_core import multi_indices, sort_with_sign

    for n, q in [(4, 0), (5, 2), (6, 3), (7, 6)]:
        row, sign = _wedge_table(n, q)
        for k, K in enumerate(multi_indices(n, q)):
            for i in range(n):
                s, I = sort_with_sign((i,) + K)
                assert sign[k, i] == s
                if s:
                    assert row[k, i] == multi_index_positions(n, q + 1)[I]
        up = _wedge_matrices(n, q)
        down = _wedge_matrices(n, q - 1) if q else None
        # e_i e_j = -e_j e_i, from (q-1)-forms (q-forms when q = 0)
        lo, hi = (down, up) if q else (up, _wedge_matrices(n, q + 1))
        eye = np.eye(math.comb(n, q))
        for i in range(n):
            for j in range(n):
                assert not (hi[i] @ lo[j] + hi[j] @ lo[i]).any()
                # e_i i_j + i_j e_i = delta_ij on q-forms, i_j = e_j^T
                anti = up[j].T @ up[i]
                if q:
                    anti += down[i] @ down[j].T
                assert np.array_equal(anti, (i == j) * eye)


def test_cached_tables_are_read_only():
    row, sign = _wedge_table(5, 2)
    assert row.dtype == np.int32 and sign.dtype == np.int8
    # the tables ric_l_matrix(., 3) reads at n = 6
    arrays = [row, sign] + [x for k in (1, 2) for x in _through(6, 3 - k, k)]
    for x in arrays:
        with pytest.raises(ValueError):
            x.flat[0] = 0


def test_form_tables_cached_read_only_and_equal_a_rebuild():
    # the cached index tables of the form ops read no curvature: every call
    # gets the same read-only arrays, equal to an uncached rebuild
    tables = {
        "_through": (_through, [(n, q, k) for n in (4, 7) for q in range(n - 1) for k in (1, 2)]),
        "_unit_positions": (_unit_positions, [(n, p) for n in (4, 7) for p in range(n + 1)]),
        "_symmetric_pairs": (_symmetric_pairs, [(n,) for n in (2, 5, 12)]),
        "multi_index_array": (multi_index_array, [(n, p) for n in (4, 7) for p in range(n + 1)]),
        "canonical_s02_basis": (canonical_s02_basis, [(n,) for n in (2, 5, 12)]),
    }
    for name, (cached, cases) in tables.items():
        for args in cases:
            got = cached(*args)
            assert cached(*args) is got, (name, args)
            rebuilt = cached.__wrapped__(*args)
            if not isinstance(got, tuple):
                got, rebuilt = (got,), (rebuilt,)
            for x, y in zip(got, rebuilt, strict=True):
                assert x.dtype == y.dtype and np.array_equal(x, y), (name, args)
                if x.size:
                    with pytest.raises(ValueError):
                        x.flat[0] = 0


def test_ric_l_matrix_two_oracles():
    rng = np.random.default_rng(17)
    # (11, 5) has 5 * 7 + 10 * 21 = 245 terms per row, so its 462 rows fill
    # one block of 2^16 // 245 = 267 rows and part of a second
    for n in range(2, 12):
        R = random_curvature(n, rng)
        for p in range(1, n + 1):
            M = ric_l_matrix(Analysis(R), p)
            oracle = ric_l_by_derivations(R, p)
            assert np.abs(M - oracle).max() <= 1e-13 * np.abs(M).max()


def test_ric_l_poincare_duality():
    rng = np.random.default_rng(11)
    for n in (4, 5, 6, 7, 8):
        R = Analysis(random_curvature(n, rng))
        for p in range(1, n // 2 + 1):
            a = ric_l_spectrum(R, p)
            b = ric_l_spectrum(R, n - p)
            assert np.abs(a - b).max() <= 1e-9 * (1 + np.abs(a).max())
        # the Hodge star carries M_p onto M_{n-p}: *e_I = sign_I e_{I^c}
        for p in range(1, n):
            M = ric_l_matrix(R, p)
            row, sign = _hodge_table(n, p)
            dual = ric_l_matrix(R, n - p)[np.ix_(row, row)] * np.outer(sign, sign)
            assert np.abs(dual - M).max() <= 1e-12 * (1 + np.abs(M).max())


def test_hodge_table_squares_to_sign():
    from curvkind.tensor_core import multi_indices, sort_with_sign

    for n in range(1, 9):
        for p in range(n + 1):
            row, sign = _hodge_table(n, p)
            dual = multi_indices(n, n - p)
            for I, r, s in zip(multi_indices(n, p), row, sign):
                assert set(I).isdisjoint(dual[r])
                assert sort_with_sign(I + dual[r])[0] == s
            back, back_sign = _hodge_table(n, n - p)
            assert np.array_equal(back[row], np.arange(math.comb(n, p)))
            assert np.all(sign * back_sign[row] == (-1) ** (p * (n - p)))
            if 2 * p == n:
                # ric_l_spectrum's split: the first half of the rows are the
                # p-tuples containing 0, and the star sends them to the
                # reversed second half
                half = math.comb(n, p) // 2
                assert [0 in I for I in multi_indices(n, p)] == [True] * half + [False] * half
                assert np.array_equal(row[:half], np.arange(2 * half - 1, half - 1, -1))


def _reducible_models(n, rng):
    """Tensors whose Ric_L splits into blocks, keyed by a name for failure messages."""
    half = n // 2
    R = np.zeros((n, n, n, n))
    R[:half, :half, :half, :half] = random_curvature(half, rng).components
    R[half:, half:, half:, half:] = random_curvature(n - half, rng).components
    return {
        "product_sphere": product_sphere(n),
        "constant_curvature": constant_curvature(n, 1.0),
        "perturbed": perturb_constant(product_sphere(n), -0.25),
        # diagonal h and k give a diagonal Ric_L
        "kn_product": kulkarni_nomizu(np.diag(rng.uniform(0.5, 2.0, n)),
                                      np.diag(rng.uniform(0.5, 2.0, n))),
        # a direct sum of two random tensors gives blocks larger than 1x1
        "random_sum": CurvatureTensor(n, R),
    }


def test_ric_l_spectrum_middle_degree_split():
    # every degree p = 1..n-1, not only the middle one, on tensors whose M
    # splits into blocks and on a random one: ric_l_spectrum must match a
    # whole-matrix eigvalsh of M and the spectrum of Ric_L assembled
    # independently, as -sum F_ab D_a D_b; n = 6, 10 have ** = -1 in the
    # middle degree and solve the Hermitian A + iB, n = 4, 8, 12 split it
    # into self-dual blocks
    rng = np.random.default_rng(14)
    for n in (4, 5, 6, 8, 10, 12):
        cases = {**_reducible_models(n, rng), "random": random_curvature(n, rng)}
        for name, R in cases.items():
            a = Analysis(R)
            for p in range(1, n):
                whole = np.linalg.eigvalsh(ric_l_matrix(a, p))
                tol = 1e-12 * (1 + np.abs(whole).max())
                split = ric_l_spectrum(a, p)
                for want in (whole, np.linalg.eigvalsh(ric_l_by_derivations(R, p))):
                    assert split.shape == want.shape, (name, n, p)
                    assert np.abs(split - want).max() <= tol, (name, n, p)
                if 2 * p == n and n % 4:
                    # * is a complex structure there: every multiplicity is even
                    assert all(m % 2 == 0 for _, m in cluster_eigenvalues(split, a.summary.scale)), (name, n)


def test_ric_l_lowest_is_the_first_eigenvalue():
    # ric_l_minima of one degree solves each block of ric_l_spectrum for its
    # smallest eigenvalue alone: the spectrum's first within N eps |M|_2, the
    # backward error bound of both solves, and exactly it on the closed-form
    # diagonal, for every degree up to the CLI cap
    rng = np.random.default_rng(19)
    for n in range(3, 13):
        cases = {"random": random_curvature(n, rng), "product_sphere": product_sphere(n)}
        if n >= 4:
            cases.update(_reducible_models(n, rng))
        if n == 5:
            cases["su3_so3"] = su3_so3()
        for name, R in cases.items():
            a = Analysis(R)
            diagonal = not any(np.count_nonzero(X - np.diag(np.diag(X)))
                               for X in (a.first_kind, a.summary.ricci))
            for p in range(1, n):
                eigs = ric_l_spectrum(a, p)
                got = ric_l_minima(a, (p,))[p]
                assert type(got) is float
                if diagonal:
                    assert got == eigs[0], (name, n, p)
                else:
                    bound = len(eigs) * np.finfo(float).eps * np.abs(eigs).max()
                    assert abs(got - eigs[0]) <= bound, (name, n, p)
            # p = n is the exact zero; p outside 1..n is refused
            assert ric_l_minima(a, (n,))[n] == 0.0
            for p in (0, n + 1):
                with pytest.raises(POutOfRange):
                    ric_l_minima(a, (p,))[p]


def test_ric_l_minima_is_ric_l_lowest_of_each_degree():
    # one call over many degrees, on two lanes, reads the same bits as one
    # call per degree; repeated degrees are solved once, p = n is the exact
    # zero, and a degree outside 1..n is refused
    rng = np.random.default_rng(23)
    for n in (6, 9, 11):
        a = Analysis(random_curvature(n, rng))
        degrees = [*range(1, n + 1), 2]
        got = ric_l_minima(a, degrees)
        assert list(got) == list(range(1, n + 1))
        assert got == {p: ric_l_minima(a, (p,))[p] for p in got}
        assert got[n] == 0.0
        with pytest.raises(POutOfRange):
            ric_l_minima(a, [1, 2, n + 1])


def test_ric_l_minima_solves_each_hodge_class_once(monkeypatch):
    # degrees p and n-p share one spectrum: one call over 1..n-1 assembles
    # and solves each class min(p, n-p) once, and reads one value for both
    blocks = bochner._ric_l_blocks
    solved = []
    monkeypatch.setattr(bochner, "_ric_l_blocks",
                        lambda a, p: solved.append(p) or blocks(a, p))
    rng = np.random.default_rng(29)
    for n in (3, 4, 7, 10, 11):
        a = Analysis(random_curvature(n, rng))
        solved.clear()
        got = ric_l_minima(a, range(1, n))
        assert sorted(solved) == list(range(1, n // 2 + 1)), n
        assert list(got) == list(range(1, n))
        for p in range(1, n):
            assert got[p] == got[n - p], (n, p)


def test_ric_l_minima_refuses_a_degree_before_any_solve(monkeypatch):
    # every degree is checked before a block is assembled or a lane started,
    # whatever its place among the degrees
    def refuse(*args, **kwargs):
        raise AssertionError("a block was assembled or a lane started")

    monkeypatch.setattr(bochner, "_ric_l_blocks", refuse)
    monkeypatch.setattr(bochner.threading, "Thread", refuse)
    for n in (5, 8):
        a = Analysis(random_curvature(n, np.random.default_rng(31)))
        for degrees in ([1, n + 1], [2, 1, 0], [n - 1, 2.0]):
            with pytest.raises(POutOfRange):
                ric_l_minima(a, degrees)


def test_ric_l_on_n_forms_is_positive_zero():
    # p = n is Hodge class 0: every entry point reads +0.0, not -0.0, which
    # == 0.0 alone would accept
    rng = np.random.default_rng(37)
    for n in (3, 6, 7):
        h, k = (np.diag(rng.uniform(-2.0, 2.0, n)) for _ in range(2))
        for R in (random_curvature(n, rng), kulkarni_nomizu(h, k), product_sphere(n)):
            a = Analysis(R)
            values = (*ric_l_spectrum(a, n), ric_l_minima(a, [n])[n], *ric_l_matrix(a, n).ravel())
            assert len(values) == 3
            for value in values:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0, n


def _givens(n, angle):
    Q = np.eye(n)
    Q[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return Q


def test_ric_l_spectrum_diagonal_curvature(monkeypatch):
    # with Ric and F diagonal, ric_l_spectrum sums M's diagonal in closed
    # form: it must assemble and solve nothing, and match a full eigvalsh
    def refuse(*args, **kwargs):
        raise AssertionError("the diagonal path assembled or solved a matrix")

    rng = np.random.default_rng(15)
    for n in (4, 5, 6, 8, 12):
        models = {name: Analysis(R) for name, R in _reducible_models(n, rng).items()}
        models["rotated"] = Analysis(rotate_curvature(product_sphere(n), _givens(n, 1e-3)))
        # validation tolerates a one-sided asymmetry that F does not read
        # (F reads R_ijkl for i < j, k < l only) but Ric does: Ric_12 != 0
        components = product_sphere(n).components.copy()
        components[1, 0, 2, 0] = 1e-14
        one_sided = CurvatureTensor(n, components)
        validate_curvature(one_sided)
        models["one_sided"] = Analysis(one_sided)
        for name, a in models.items():
            # at n = 4 the random_sum is a sum of two surfaces: diagonal too
            diagonal = not any(np.count_nonzero(X - np.diag(np.diag(X)))
                               for X in (a.first_kind, a.summary.ricci))
            if name in ("product_sphere", "constant_curvature", "perturbed", "kn_product"):
                assert diagonal, (name, n)
            if name in ("rotated", "one_sided"):
                assert not diagonal, (name, n)
            for p in range(1, n):
                whole = np.linalg.eigvalsh(ric_l_matrix(a, p))
                assembled = []
                with monkeypatch.context() as m:
                    if diagonal:
                        for attr in ("ric_l_matrix", "_ric_l_rows"):
                            m.setattr(bochner, attr, refuse)
                        m.setattr(np.linalg, "eigvalsh", refuse)
                    else:
                        rows = bochner._ric_l_rows
                        m.setattr(bochner, "_ric_l_rows",
                                  lambda *args: assembled.append(args) or rows(*args))
                    got = ric_l_spectrum(a, p)
                assert bool(assembled) != diagonal, (name, n, p)
                assert np.abs(got - whole).max() <= 1e-12 * (1 + np.abs(whole).max()), (name, n, p)
                if name == "constant_curvature":
                    # exactly p(n-p), C(n, p) times
                    assert np.array_equal(got, np.full(math.comb(n, p), float(p * (n - p))))
            # p = n is the exact zero; p outside 1..n is refused
            assert np.array_equal(ric_l_spectrum(a, n), [0.0])
            for p in (0, n + 1):
                with pytest.raises(POutOfRange):
                    ric_l_spectrum(a, p)


def test_ric_l_diagonal_is_the_assembled_diagonal():
    # the closed form adds the terms in the assembly's order, bit for bit
    rng = np.random.default_rng(16)
    for n in (*range(3, 10), 12):
        diagonal = kulkarni_nomizu(np.diag(rng.uniform(-2.0, 2.0, n)),
                                   np.diag(rng.uniform(-2.0, 2.0, n)))
        sphere = product_sphere(n)
        for R in (diagonal, sphere, perturb_constant(sphere, -0.3),
                  perturb_constant(constant_curvature(n, 1.0), -0.3)):
            a = Analysis(R)
            for p in range(1, n):
                assert np.array_equal(_ric_l_diagonal(a, p), ric_l_matrix(a, p).diagonal())


def test_ric_l_half_rows_are_the_first_rows():
    # the rows of H, the p-tuples containing 0: every row of a K containing
    # 0 and the rows of each other K whose G contains 0
    rng = np.random.default_rng(22)
    for n in range(2, 13, 2):
        h, k = (random_symmetric(n, rng) for _ in range(2))
        for R in (random_curvature(n, rng), kulkarni_nomizu(h, k)):
            a = Analysis(R)
            p = n // 2
            half = math.comb(n, p) // 2
            assert np.array_equal(_ric_l_rows(a, p, half), ric_l_matrix(a, p)[:half]), n


def test_ric_l_of_a_rotated_ricci_flat_tensor():
    # Ric_L on 1-forms of a Ricci-flat R is roundoff around 0; in another
    # frame its blocks are as asymmetric as R's validated roundoff allows,
    # and every degree is still solved, with the spectra of R's own frame
    rng = np.random.default_rng(40)
    for n in range(4, 13):
        R = make_ricci_flat(random_curvature(n, rng))
        a, rotated = Analysis(R), Analysis(rotate_curvature(R, random_rotation(n, rng)))
        for p in range(1, n):
            want = ric_l_spectrum(a, p)
            tol = 1e-12 * (a.scale + np.abs(want).max())
            assert np.abs(ric_l_spectrum(rotated, p) - want).max() <= tol, (n, p)
        minima, want = (ric_l_minima(x, range(1, n)) for x in (rotated, a))
        for p in range(1, n):
            assert abs(minima[p] - want[p]) <= 1e-12 * (a.scale + abs(want[p])), (n, p)


def _validated_noisy(R, rng, fraction):
    """R plus random noise scaled so that its worst curvature-symmetry
    residual is `fraction` of validate_curvature's tolerance."""
    noise = rng.standard_normal(R.components.shape)
    worst = max(res for res, _ in curvature_symmetry_report(CurvatureTensor(R.n, noise)).values())
    noisy = R + CurvatureTensor(R.n, noise * (fraction * 1e-12 * np.abs(R.components).max() / worst))
    validate_curvature(noisy)
    return noisy


def test_ric_l_asymmetry_is_bounded_by_validation():
    # R passes validation with pair-symmetry residual d <= 1e-12 max|R|; each
    # entry of Ric is within n d of its transpose and each of F within d, so
    # max|M - M^T| <= (n + 2p) d for Ric_L on p-forms: nothing derived from
    # a validated R needs a symmetry gate of its own
    rng = np.random.default_rng(41)
    for n in (4, 5, 6, 8):
        tensors = [make_ricci_flat(random_curvature(n, rng)) for _ in range(2)]
        tensors.append(rotate_curvature(tensors[0], random_rotation(n, rng)))
        tensors += [_validated_noisy(random_curvature(n, rng), rng, f) for f in (0.3, 0.9)]
        for R in tensors:
            a = Analysis(R)
            for p in range(1, n):
                M = ric_l_matrix(a, p)
                bound = (n + 2 * p) * 1e-12 * np.abs(R.components).max()
                assert np.abs(M - M.T).max() <= bound, (n, p)


# --- the decomposition -------------------------------------------------------


def test_form_terms_refuse_another_dimension():
    # the four (R, w) evaluations share one dimension check
    rng = np.random.default_rng(41)
    R = random_curvature(4, rng)
    forms = (PForm(3, 0, [1.0]), PForm.random(3, 2, rng), PForm.random(5, 2, rng))
    terms = (second_kind_form_term, bochner_decomposition, ogiue_tachibana_term, ric_l_quadratic)
    for w in forms:
        for term in terms:
            with pytest.raises(DimensionMismatch):
                term(R, w)


def test_bochner_flat_everything_zero():
    rng = np.random.default_rng(12)
    rep = bochner_decomposition(constant_curvature(4, 0.0), PForm.random(4, 2, rng))
    assert rep.lhs == rep.term_operator == rep.term_ricci == rep.term_scal == 0.0
    assert rep.residual == 0.0


def test_bochner_sphere_term_values():
    rng = np.random.default_rng(13)
    w = PForm.random(5, 2, rng)
    rep = bochner_decomposition(constant_curvature(5, 1.0), w)
    ns = w.norm_sq
    assert rep.lhs == pytest.approx(9.0 * ns, rel=1e-12)
    assert rep.term_operator == pytest.approx(21 / 5 * ns, rel=1e-12)
    assert rep.term_ricci == pytest.approx(8 / 5 * ns, rel=1e-12)
    assert rep.term_scal == pytest.approx(16 / 5 * ns, rel=1e-12)
    assert rep.residual <= 1e-12
    assert rep.einstein_residual <= 1e-12


def test_bochner_random_sweep():
    rng = np.random.default_rng(14)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for p in range(1, n):
            for _ in range(10):
                rep = bochner_decomposition(random_curvature(n, rng), PForm.random(n, p, rng))
                worst = max(worst, rep.residual)
    assert worst <= 1e-9


def test_bochner_einstein_short_form():
    rng = np.random.default_rng(15)
    for R in (constant_curvature(5, 2.0), su3_so3(), make_einstein(random_curvature(5, rng))):
        for p in (1, 2):
            rep = bochner_decomposition(R, PForm.random(5, p, rng))
            assert rep.einstein_residual is not None
            assert rep.einstein_residual <= 1e-9


def test_residuals_invariant_under_binary_scaling():
    # every residual is relative to s |w|^2 (s |T|^2), s the unit scale of R,
    # so 2^e R and 2^f w read the residuals of R and w bit for bit
    rng = np.random.default_rng(31)
    n = 5
    R = random_curvature(n, rng)
    E = make_einstein(R)
    forms = [PForm.random(n, p, rng) for p in range(1, n)]
    tensors = [rng.standard_normal((n, n)), rng.standard_normal((n, n, n))]

    def residuals(e, f):
        out = []
        for w in forms:
            w = PForm(n, w.p, w.coeffs * 2.0**f)
            out.append(bochner_decomposition(R * 2.0**e, w).residual)
            out.append(bochner_decomposition(E * 2.0**e, w).einstein_residual)
        out += [general_tensor_bochner_check(R * 2.0**e, T * 2.0**f) for T in tensors]
        return out

    base = residuals(0, 0)
    assert 0.0 < max(base) <= 1e-12
    for e in (-400, -40, 40, 400):
        for f in (-20, 20):
            assert residuals(e, f) == base, (e, f)


def test_decomposition_residual_catches_one_percent_at_every_scale(monkeypatch):
    # a 1 % error in the operator term reads as such at any scale of R: the
    # residual is relative to s |w|^2, not to an absolute 1
    rng = np.random.default_rng(32)
    R = random_curvature(6, rng)
    w = PForm.random(6, 2, rng)
    term = bochner._s02_form_term
    monkeypatch.setattr(bochner, "_s02_form_term", lambda *args: 1.01 * term(*args))
    for e in (0, -20, -43):
        assert bochner_decomposition(R * 2.0**e, w).residual >= 1e-3, e


def test_bochner_lhs_against_both_oracles():
    rng = np.random.default_rng(24)
    for n in range(2, 10):
        generic = random_curvature(n, rng)
        for R in (generic, make_einstein(generic)) if n >= 3 else (generic,):
            ricci = ricci_scalar(R).ricci
            F = first_kind_matrix(R)
            for p in range(1, n + 1):
                w = PForm.random(n, p, rng)
                rep = bochner_decomposition(R, w)
                M = ric_l_matrix(Analysis(R), p)
                assembled = 1.5 * math.factorial(p) * float(w.coeffs @ M @ w.coeffs)
                # above the middle degree the two Weitzenboeck sums, each up
                # to `sums`, cancel to a far smaller lhs (about 1e6 against 7
                # at (9, 8)); every evaluation, the oracles too, rounds
                # relative to the sums there
                sums = 1.5 * w.norm_sq * (
                    p * np.linalg.norm(ricci, 2) + p * (p - 1) * np.linalg.norm(F, 2)
                )
                tol = 1e-12 * (1 + (abs(rep.lhs) if 2 * p <= n else sums))
                assert abs(rep.lhs - assembled) <= tol
                # ric_l_quadratic reads the one evaluation lhs is made of
                assert rep.lhs == 1.5 * ric_l_quadratic(R, w), (n, p)
                # the dense oracle holds n^p floats: 3.1 GB at (9, 9)
                if n**p <= 2**23:
                    assert abs(rep.lhs - 1.5 * ric_l_quadratic_dense(R, w)) <= tol
                if p == n:
                    assert rep.lhs == 0.0
                # every curvature tensor on R^2 is Einstein
                if R is generic and n >= 3:
                    assert rep.einstein_residual is None
                else:
                    assert rep.einstein_residual <= 1e-9


def test_bochner_lhs_constant_curvature():
    rng = np.random.default_rng(25)
    for n in range(2, 10):
        for kappa in (1.0, -0.75):
            R = constant_curvature(n, kappa)
            for p in range(1, n + 1):
                w = PForm.random(n, p, rng)
                want = 1.5 * kappa * p * (n - p) * w.norm_sq
                assert abs(bochner_decomposition(R, w).lhs - want) <= 1e-12 * (1 + abs(want))


def test_bochner_ricci_diagonal_form():
    rng = np.random.default_rng(16)
    worst = 0.0
    for n, p in [(4, 2), (5, 2), (5, 3)]:
        for _ in range(5):
            worst = max(
                worst,
                bochner_ricci_diagonal_residual(random_curvature(n, rng), PForm.random(n, p, rng)),
            )
    assert worst <= 1e-10


def test_form_two_point_traces_norm():
    rng = np.random.default_rng(17)
    w = PForm.random(5, 3, rng)
    W = form_two_point(w)
    assert np.trace(W) == pytest.approx(w.norm_sq, rel=1e-12)


def test_form_two_point_matches_dense_oracle():
    rng = np.random.default_rng(26)
    for n in range(2, 9):
        # (8, 8) would need a 134 MB dense form
        for p in range(min(n, 7) + 1):
            w = PForm.random(n, p, rng)
            W, oracle = form_two_point(w), form_two_point_dense(w)
            assert W.shape == (n, n)
            assert np.abs(W - oracle).max() <= 1e-13 * np.abs(oracle).max()


# --- the non-orthogonal family and general tensors --------------------------


def test_ogiue_tachibana_flat_and_sphere():
    rng = np.random.default_rng(18)
    flat = constant_curvature(4, 0.0)
    assert ogiue_tachibana_term(flat, PForm.random(4, 2, rng)) == 0.0
    for n, p in [(4, 2), (5, 3)]:
        w = PForm.random(n, p, rng)
        val = ogiue_tachibana_term(constant_curvature(n, 1.0), w)
        assert val == pytest.approx(form_s02_expansion(w).total, rel=1e-11)


def test_ogiue_tachibana_family_matches_loop_bitwise():
    for n in range(2, 13):
        stack = np.zeros((n * n, n, n))
        eye = np.eye(n)
        for i in range(n):
            for j in range(n):
                S = np.zeros((n, n))
                S[i, j] += 1.0
                S[j, i] += 1.0
                stack[i * n + j] = S - (2.0 / n) * eye[i, j] * eye
        assert ogiue_tachibana_family(n).tobytes() == stack.tobytes()


def test_ogiue_tachibana_against_stacked_family():
    # the Gram over the pairs i <= l against the Gram of all n^2 members
    rng = np.random.default_rng(35)
    for n in range(2, 11):
        for name, R in _operator_term_cases(n, rng).items():
            for p in range(n + 1):
                w = PForm.random(n, p, rng)
                got = ogiue_tachibana_term(R, w)
                want = ogiue_tachibana_stacked(R, w)
                assert abs(got - want) <= 1e-13 * (1 + abs(want)), (name, n, p)


def _operator_term_cases(n, rng):
    generic = random_curvature(n, rng)
    cases = {"random": generic}
    if n >= 3:
        cases["einstein"] = make_einstein(generic)
        cases["product_sphere"] = product_sphere(n)
    if n == 5:
        cases["su3_so3"] = su3_so3()
    return cases


def test_operator_term_basis_free_against_both_oracles():
    # bochner_decomposition reads the operator term off the two Grams of w,
    # with no basis; the canonical-basis matrix and the non-orthogonal family
    # evaluate it independently
    rng = np.random.default_rng(31)
    for n in range(2, 10):
        for name, R in _operator_term_cases(n, rng).items():
            for p in range(n + 1):
                w = PForm.random(n, p, rng)
                got = bochner_decomposition(R, w).term_operator
                for oracle in (second_kind_form_term, ogiue_tachibana_term):
                    want = oracle(R, w)
                    assert abs(got - want) <= 1e-12 * (1 + abs(want)), (name, n, p, oracle)


def test_operator_term_against_long_double():
    # the float64 term against the same contraction in long double, to about
    # 100 units in the last place of float64
    rng = np.random.default_rng(32)
    for _ in range(2):
        R = random_curvature(12, rng)
        w = PForm.random(12, 5, rng)
        ref = ogiue_tachibana_long_double(R, w)
        got = bochner_decomposition(R, w).term_operator
        assert float(abs(got - ref)) <= 100 * np.finfo(float).eps * float(abs(ref))


def test_ogiue_tachibana_matches_expansion_path():
    rng = np.random.default_rng(19)
    for n, p in [(4, 2), (4, 3), (5, 2)]:
        for _ in range(10):
            R = random_curvature(n, rng)
            w = PForm.random(n, p, rng)
            a = ogiue_tachibana_term(R, w)
            b = second_kind_form_term(R, w)
            assert abs(a - b) <= 1e-10 * (1 + abs(b))


def test_general_tensor_check_forms_reduce():
    rng = np.random.default_rng(20)
    for n in (4, 5):
        R = random_curvature(n, rng)
        for p in (2, 3):
            w = to_dense(PForm.random(n, p, rng))
            assert general_tensor_bochner_check(R, w) <= 1e-10


def test_general_tensor_check_flat_and_random():
    rng = np.random.default_rng(21)
    assert general_tensor_bochner_check(constant_curvature(4, 0.0), np.ones((4, 4))) == 0.0
    worst = 0.0
    for n in (3, 4, 5):
        for _ in range(5):
            R = random_curvature(n, rng)
            T = rng.standard_normal((n, n))
            worst = max(worst, general_tensor_bochner_check(R, T + T.T))
            worst = max(worst, general_tensor_bochner_check(R, T))
            worst = max(worst, general_tensor_bochner_check(R, rng.standard_normal((n, n, n))))
    assert worst <= 1e-9


def test_symmetric_extra_term_closed_form():
    # for symmetric (0,2)-tensors the correction equals 4 sum T_ij T_kl R_kijl
    rng = np.random.default_rng(22)
    n = 5
    R = random_curvature(n, rng)
    T = rng.standard_normal((n, n))
    T = T + T.T
    total = 0.0
    for r, s in [(0, 1), (1, 0)]:
        Tm = np.moveaxis(T, (r, s), (0, 1)).reshape(n, n, -1)
        total += float(
            np.einsum("kijl,ijM,klM->", R.components, Tm, Tm)
            + np.einsum("kjil,ijM,klM->", R.components, Tm, Tm)
        )
    closed = 4.0 * float(np.einsum("kijl,ij,kl->", R.components, T, T))
    assert total == pytest.approx(closed, rel=1e-10)


def test_ric_l_apply_dense_agrees_with_contraction_formula():
    rng = np.random.default_rng(23)
    for n, p in [(4, 1), (4, 2), (5, 3)]:
        R = random_curvature(n, rng)
        w = PForm.random(n, p, rng)
        dense = to_dense(w)
        slotwise = float(np.sum(ric_l_apply_dense(R, dense) * dense))
        assert abs(slotwise - ric_l_quadratic_dense(R, w)) <= 1e-10 * (1 + abs(slotwise))


def test_spectrum_of_ric_l_on_su3():
    # Einstein input: curvature term bounded below by the einstein estimate
    su = su3_so3()
    for p in (1, 2):
        eigs = spectrum(ric_l_matrix(Analysis(su), p))
        assert eigs[0] >= -1e-10
