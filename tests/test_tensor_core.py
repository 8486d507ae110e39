import itertools
import math

import numpy as np
import pytest

from curvkind import (
    CurvatureSymmetryError,
    CurvatureTensor,
    PForm,
    ShapeMismatch,
    canonical_s02_basis,
    constant_curvature,
    curvature_symmetry_report,
    kulkarni_nomizu,
    multi_indices,
    random_curvature,
    random_trace_free,
    s02_dimension,
    sort_with_sign,
    trace_free_project,
    validate_curvature,
)
from curvkind.tensor_core import multi_index_array
from curvkind.tolerance import SYMMETRY, peak
from helpers import (
    _signed_permutations,
    form_from_dense,
    random_rotation,
    random_symmetric,
    rotate_curvature,
    rotate_form,
    sym_inner,
    to_dense,
    to_dense_by_permutations,
)


def test_sort_with_sign():
    assert sort_with_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_with_sign((1, 0, 2)) == (-1, (0, 1, 2))
    assert sort_with_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_with_sign((1, 1, 2)) == (0, None)
    # every arrangement of up to four entries, repeats included, against the
    # parities of _signed_permutations
    for p in range(5):
        perms, signs = _signed_permutations(p)
        parity = {tuple(perm): int(sign) for perm, sign in zip(perms.tolist(), signs)}
        for idx in itertools.product((0, 3, 5, 9), repeat=p):
            ordered = tuple(sorted(idx))
            if len(set(idx)) < p:
                assert sort_with_sign(idx) == (0, None), idx
            else:
                ranks = tuple(ordered.index(v) for v in idx)
                assert sort_with_sign(idx) == (parity[ranks], ordered), idx


def test_multi_indices_count():
    for n in range(2, 8):
        for p in range(n + 1):
            assert len(multi_indices(n, p)) == math.comb(n, p)


# --- p-forms ---------------------------------------------------------------


def test_pform_norm_matches_dense_extension():
    rng = np.random.default_rng(0)
    for n, p in [(3, 1), (4, 2), (5, 3), (6, 2), (5, 5)]:
        w = PForm.random(n, p, rng)
        dense = to_dense(w)
        assert dense.shape == (n,) * p
        # dense array is alternating
        if p >= 2:
            assert np.allclose(dense, -np.swapaxes(dense, 0, 1))
        assert abs(float(np.sum(dense**2)) - w.norm_sq) <= 1e-12 * (1 + w.norm_sq)
        back = form_from_dense(dense)
        assert np.allclose(back.coeffs, w.coeffs)


def test_to_dense_matches_permutation_loop_bitwise():
    rng = np.random.default_rng(2)
    # (12, 5) has 792 * 120 entries: two blocks of permutations, one partial
    cases = [(2, 0), (4, 0), (3, 1), (6, 1), (3, 3), (5, 5), (6, 3), (7, 3), (8, 4), (12, 5)]
    for n, p in cases:
        w = PForm.random(n, p, rng)
        sparse = w.coeffs.copy()
        sparse[rng.random(len(sparse)) < 0.4] = 0.0
        sparse[::3] = -0.0
        for coeffs in (w.coeffs, sparse, np.zeros_like(sparse)):
            form = PForm(n, p, coeffs)
            dense, oracle = to_dense(form), to_dense_by_permutations(form)
            assert dense.shape == oracle.shape == (n,) * p
            # bytes, so a -0.0 where the loop leaves +0.0 also fails
            assert dense.tobytes() == oracle.tobytes()


def test_from_dense_gathers_sorted_coefficients_bitwise():
    rng = np.random.default_rng(3)
    for n, p in [(3, 1), (4, 2), (5, 3), (6, 6), (7, 4)]:
        dense = rng.standard_normal((n,) * p)
        coeffs = np.array([dense[idx] for idx in multi_indices(n, p)])
        assert form_from_dense(dense).coeffs.tobytes() == coeffs.tobytes()
    with pytest.raises(ShapeMismatch):
        form_from_dense(np.float64(1.0))


def test_multi_index_array_is_read_only():
    idx = multi_index_array(6, 3)
    assert idx.shape == (20, 3)
    assert [tuple(row) for row in idx.tolist()] == list(multi_indices(6, 3))
    assert multi_index_array(4, 0).shape == (1, 0)
    # each column is a contiguous index array, so i, j = idx.T are too
    assert all(column.flags.c_contiguous for column in idx.T)
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_wedge_sign_and_norm():
    w = PForm.wedge(4, (1, 0))
    assert w.coeffs[multi_indices(4, 2).index((0, 1))] == -1.0
    # |e^0 ^ e^2 ^ e^4|^2 = p! under the full-tensor inner product
    assert PForm.wedge(5, (0, 2, 4)).norm_sq == 6.0


def test_rotate_form_preserves_norm_and_composes():
    rng = np.random.default_rng(1)
    n, p = 5, 2
    w = PForm.random(n, p, rng)
    Q = random_rotation(n, rng)
    wr = rotate_form(w, Q)
    assert abs(wr.norm_sq - w.norm_sq) < 1e-10 * (1 + w.norm_sq)


# --- symmetric tensors and the canonical basis -----------------------------


def test_trace_free_project_examples():
    assert np.allclose(trace_free_project(np.eye(3)), 0.0)
    S = np.diag([1.0, 0.0, 0.0])
    assert np.allclose(trace_free_project(S), np.diag([2 / 3, -1 / 3, -1 / 3]))


def test_trace_free_project_idempotent_orthogonal():
    rng = np.random.default_rng(2)
    for n in (3, 5, 7):
        S = random_symmetric(n, rng)
        P = trace_free_project(S)
        assert np.allclose(trace_free_project(P), P, atol=1e-14)
        norm_sq = float(np.sum(S * S))
        assert abs(sym_inner(S - P, P)) <= 1e-12 * norm_sq


def test_canonical_basis_small_cases():
    basis2 = canonical_s02_basis(2)
    assert len(basis2) == 2
    assert np.allclose(basis2[1], np.diag([-1.0, 1.0]) / math.sqrt(2))
    basis3 = canonical_s02_basis(3)
    gram = np.einsum("aij,bij->ab", basis3, basis3)
    assert np.abs(gram - np.eye(5)).max() < 1e-12
    basis5 = canonical_s02_basis(5)
    assert len(basis5) == 14
    # the two leading diagonal elements are orthogonal
    psi1, psi2 = basis5[10], basis5[11]
    assert abs(sym_inner(psi1, psi2)) < 1e-14


def test_canonical_basis_full_range():
    for n in range(2, 13):
        basis = canonical_s02_basis(n)
        assert len(basis) == s02_dimension(n)
        gram = np.einsum("aij,bij->ab", basis, basis)
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
        assert np.abs(np.trace(basis, axis1=1, axis2=2)).max() < 1e-12


# --- curvature tensors ------------------------------------------------------


def test_sphere_tensor_valid():
    validate_curvature(constant_curvature(3, 1.0))


def test_antisymmetry_violation_reported():
    R = constant_curvature(3, 1.0).components.copy()
    R[1, 0, 0, 1] = 1.0  # should be -1
    with pytest.raises(CurvatureSymmetryError) as err:
        validate_curvature(CurvatureTensor(3, R))
    assert "antisymmetry" in str(err.value)
    assert err.value.report is not None


# entries t on index tuples of {0, 1, 2, 3}, where the constant-curvature
# tensor is 0, each set breaking the named identity with residual t and no
# earlier one (ties go to the earlier name): a lone entry breaks all four;
# one antisymmetric in its first pair spares antisymmetry_first; one
# antisymmetric in both pairs leaves pair symmetry and Bianchi broken; its
# pair-symmetric completion leaves Bianchi alone
BROKEN_BY = {
    "antisymmetry_first": {(0, 1, 2, 3): 1.0},
    "antisymmetry_second": {(0, 1, 2, 3): 1.0, (1, 0, 2, 3): -1.0},
    "pair_symmetry": {(0, 1, 2, 3): 1.0, (1, 0, 2, 3): -1.0, (0, 1, 3, 2): -1.0,
                      (1, 0, 3, 2): 1.0},
    "first_bianchi": {(0, 1, 2, 3): 1.0, (1, 0, 2, 3): -1.0, (0, 1, 3, 2): -1.0,
                      (1, 0, 3, 2): 1.0, (2, 3, 0, 1): 1.0, (3, 2, 0, 1): -1.0,
                      (2, 3, 1, 0): -1.0, (3, 2, 1, 0): 1.0},
}


@pytest.mark.parametrize("kappa", [1.0, -0.7, 3e-200])
@pytest.mark.parametrize("identity", BROKEN_BY)
def test_validation_boundary_is_the_tolerance(identity, kappa):
    # a worst residual exactly at the tolerance passes and the next float
    # above it fails, with curvature_symmetry_report's text and report
    base = constant_curvature(5, kappa).components
    tol = SYMMETRY * peak(base)
    for t in (tol, np.nextafter(tol, np.inf)):
        A = base.copy()
        for idx, sign in BROKEN_BY[identity].items():
            A[idx] = sign * t
        R = CurvatureTensor(5, A)
        report = curvature_symmetry_report(R)
        assert max(report, key=lambda name: report[name][0]) == identity
        assert report[identity][0] == t
        if t == tol:
            assert validate_curvature(R) is None
            continue
        with pytest.raises(CurvatureSymmetryError) as err:
            validate_curvature(R)
        residual, idx = report[identity]
        assert str(err.value) == (
            f"{identity} violated: residual {residual:.3e} at indices "
            f"{tuple(q + 1 for q in idx)} (1-based), tolerance {tol:.3e}"
        )
        assert err.value.report == report


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        CurvatureTensor(3, np.zeros(80))
    for bad in (np.nan, np.inf, -np.inf):
        R = np.zeros(81)
        R[5] = bad
        with pytest.raises(ShapeMismatch):
            CurvatureTensor(3, R)
        with pytest.raises(ShapeMismatch):
            PForm(4, 2, [0.0, 1.0, bad, 0.0, 0.0, 0.0])
    # the degree is an integer 0 <= p <= n, and not a bool
    for p, coeffs in ((5, []), (4, []), (-1, []), (True, [0.0, 1.0, 0.0]), (1.0, [0.0, 1.0, 0.0])):
        with pytest.raises(ShapeMismatch):
            PForm(3, p, coeffs)
    assert PForm(3, np.int64(3), [2.0]).norm_sq == 24.0


def test_kulkarni_nomizu_metric_gives_constant_curvature():
    for n in (3, 4, 6):
        g = np.eye(n)
        kn = kulkarni_nomizu(g, g)
        expected = constant_curvature(n, 2.0)
        assert np.abs(kn.components - expected.components).max() < 1e-15
        validate_curvature(kn)


def test_kulkarni_nomizu_rank_one_sectional_curvatures():
    n = 4
    h = np.zeros((n, n))
    h[0, 0] = 1.0
    kn = kulkarni_nomizu(h, np.eye(n))
    for j in range(1, n):
        assert kn.components[0, j, 0, j] == pytest.approx(1.0)
    for i in range(1, n):
        for j in range(i + 1, n):
            assert kn.components[i, j, i, j] == 0.0


def test_kulkarni_nomizu_random_symmetric_is_valid_curvature():
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        h = random_symmetric(n, rng)
        k = random_symmetric(n, rng)
        R = kulkarni_nomizu(h, k)
        expected = np.zeros((n,) * 4)
        for a, b, c, d in itertools.product(range(n), repeat=4):
            expected[a, b, c, d] = (
                h[a, c] * k[b, d] + h[b, d] * k[a, c] - h[a, d] * k[b, c] - h[b, c] * k[a, d]
            )
        assert np.array_equal(R.components, expected)
        # check the three identities directly from the product formula
        A = R.components
        assert np.abs(A + np.einsum("jikl->ijkl", A)).max() < 1e-12
        assert np.abs(A + np.einsum("ijlk->ijkl", A)).max() < 1e-12
        assert np.abs(A - np.einsum("klij->ijkl", A)).max() < 1e-12
        bianchi = A + np.einsum("jkil->ijkl", A) + np.einsum("kijl->ijkl", A)
        assert np.abs(bianchi).max() < 1e-12
        validate_curvature(R)


def test_random_curvature_is_valid_and_generic():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5, 6):
        R = random_curvature(n, rng)
        validate_curvature(R)
        assert peak(R.components) == pytest.approx(1.0)
    report = curvature_symmetry_report(random_curvature(4, rng))
    assert set(report) == {
        "antisymmetry_first",
        "antisymmetry_second",
        "pair_symmetry",
        "first_bianchi",
    }


def test_rotation_preserves_validity_and_scalars():
    from curvkind import PForm, ric_l_quadratic, ricci_scalar, second_kind_matrix, spectrum

    rng = np.random.default_rng(5)
    n = 4
    R = random_curvature(n, rng)
    Q = random_rotation(n, rng)
    Rr = rotate_curvature(R, Q)
    validate_curvature(Rr)
    assert ricci_scalar(Rr).scalar == pytest.approx(ricci_scalar(R).scalar, abs=1e-10)
    eigs, eigs_r = spectrum(second_kind_matrix(R)), spectrum(second_kind_matrix(Rr))
    assert np.abs(eigs - eigs_r).max() <= 1e-10
    w = PForm.random(n, 2, rng)
    assert ric_l_quadratic(Rr, rotate_form(w, Q)) == pytest.approx(
        ric_l_quadratic(R, w), abs=1e-10
    )


def test_random_trace_free_unit_norm():
    rng = np.random.default_rng(6)
    S = random_trace_free(5, rng)
    assert abs(np.trace(S)) < 1e-12
    assert np.linalg.norm(S) == pytest.approx(1.0)
