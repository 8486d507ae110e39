import itertools

import numpy as np
import pytest

from curvkind import (
    Analysis,
    CurvatureSymmetryError,
    CurvatureTensor,
    NotSymmetric,
    PForm,
    canonical_s02_basis,
    cluster_eigenvalues,
    constant_curvature,
    first_kind_matrix,
    kulkarni_nomizu,
    product_sphere,
    random_curvature,
    random_trace_free,
    ricci_scalar,
    s02_dimension,
    second_kind_matrix,
    spectrum,
    su3_so3,
    validate_curvature,
)
from curvkind.operators import _gram_against, require_symmetric
from curvkind.tolerance import peak
from helpers import (
    canonical_s2_basis,
    gram_against_einsum,
    make_einstein,
    quadratic_form_identity_check,
    random_symmetric,
    rbar_apply,
    rbar_full_matrix,
    spectral_decomposition,
    to_dense,
)


def test_rbar_sphere_formula():
    rng = np.random.default_rng(0)
    for n in (3, 5):
        R = constant_curvature(n, 1.0)
        h = random_symmetric(n, rng)
        assert np.allclose(rbar_apply(R, h), h - np.trace(h) * np.eye(n), atol=1e-13)


def test_rbar_metric_gives_minus_ricci():
    rng = np.random.default_rng(1)
    for n in (3, 4, 5):
        R = random_curvature(n, rng)
        s = ricci_scalar(R)
        assert np.allclose(rbar_apply(R, np.eye(n)), -s.ricci, atol=1e-13)


def test_rbar_flat_zero():
    assert np.allclose(rbar_apply(constant_curvature(4, 0.0), np.eye(4)), 0.0)


def test_rbar_output_symmetric():
    rng = np.random.default_rng(2)
    R = random_curvature(5, rng)
    h = random_symmetric(5, rng)
    out = rbar_apply(R, h)
    assert np.abs(out - out.T).max() < 1e-13


def test_einstein_rbar_preserves_trace_free():
    rng = np.random.default_rng(3)
    for R in (constant_curvature(5, 2.0), su3_so3(), make_einstein(random_curvature(5, rng))):
        assert ricci_scalar(R).einstein_defect <= 1e-12 * (1 + abs(ricci_scalar(R).scalar))
        S = random_trace_free(5, rng)
        assert abs(np.trace(rbar_apply(R, S))) <= 1e-11


def test_second_kind_sphere_identity():
    for n in range(3, 9):
        M = second_kind_matrix(constant_curvature(n, 1.0))
        assert M.shape == (s02_dimension(n),) * 2
        assert np.abs(M - np.eye(len(M))).max() < 1e-12


def test_second_kind_gemm_against_einsum_oracle():
    # the two GEMMs sum each entry in another order than the einsums: they
    # agree to the round-off of sums of n^2 products of R with the basis
    rng = np.random.default_rng(30)
    for n in range(2, 13):
        for R in (random_curvature(n, rng), random_curvature(n, rng) * 1e3):
            tol = 1e-13 * (1 + peak(R.components))
            for basis, got in (
                (canonical_s02_basis(n), second_kind_matrix(R)),
                (canonical_s2_basis(n), _gram_against(R, canonical_s2_basis(n))),
            ):
                assert np.abs(got - gram_against_einsum(R, basis)).max() <= tol, n


def test_second_kind_flat_zero():
    assert np.abs(second_kind_matrix(constant_curvature(4, 0.0))).max() == 0.0


def test_second_kind_product_sphere_spectrum():
    eigs = spectrum(second_kind_matrix(product_sphere(5)))
    expected = np.sort([-3 / 5] + [0.0] * 4 + [1.0] * 9)
    assert np.abs(eigs - expected).max() < 1e-12


def test_second_kind_linearity():
    rng = np.random.default_rng(4)
    n = 4
    R1, R2 = random_curvature(n, rng), random_curvature(n, rng)
    a, b = 0.7, -1.3
    combo = second_kind_matrix(R1 * a + R2 * b)
    split = a * second_kind_matrix(R1) + b * second_kind_matrix(R2)
    assert np.abs(combo - split).max() < 1e-13


def test_trace_identities_random_sweep():
    # the second- and first-kind traces are the registry's "trace identities"
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6):
        for _ in range(25):
            R = random_curvature(n, rng)
            s = ricci_scalar(R)
            assert abs(np.trace(rbar_full_matrix(R)) - s.scalar / 2) <= 1e-10 * (1 + abs(s.scalar))


def test_first_kind_sphere_identity():
    M = first_kind_matrix(constant_curvature(4, 1.0))
    assert np.abs(M - np.eye(6)).max() < 1e-15


def test_first_kind_su3_spectrum():
    eigs = spectrum(first_kind_matrix(su3_so3()))
    expected = np.sort([0.0] * 7 + [2.5] * 3)
    assert np.abs(eigs - expected).max() < 1e-10


def test_first_kind_matrix_equals_the_four_index_gather():
    # one take through the cached sorted-pair positions reads R[i, j, k, l],
    # i < j and k < l, as the 4-index gather does; a transposed layout of
    # the same tensor (R_klij = R_ijkl) reads the same bits
    rng = np.random.default_rng(43)
    for n in range(2, 13):
        R = random_curvature(n, rng)
        i, j = np.triu_indices(n, 1)
        want = R.components[i[:, None], j[:, None], i, j]
        assert np.array_equal(first_kind_matrix(R), want), n
        swapped = CurvatureTensor(n, R.components.transpose(2, 3, 0, 1))
        assert np.array_equal(first_kind_matrix(swapped), want), n


def test_ricci_scalar_models():
    for n in (3, 5, 7):
        s = ricci_scalar(constant_curvature(n, 1.0))
        assert np.allclose(s.ricci, (n - 1) * np.eye(n))
        assert s.scalar == pytest.approx(n * (n - 1))
        assert s.einstein_defect < 1e-13
    s = ricci_scalar(product_sphere(6))
    assert np.allclose(s.ricci, np.diag([0.0] + [4.0] * 5))
    s = ricci_scalar(su3_so3())
    assert np.abs(s.ricci - 3.0 * np.eye(5)).max() < 1e-12
    assert s.einstein_defect <= 1e-10


def test_analysis_reads_each_quantity_once():
    R = su3_so3()
    a = Analysis(R)
    assert a.n == 5
    assert a.summary is a.summary
    assert a.first_kind is a.first_kind and a.second_kind is a.second_kind
    assert np.array_equal(a.first_kind, first_kind_matrix(R))
    assert np.array_equal(a.second_kind, spectrum(second_kind_matrix(R)))
    for x in (a.first_kind, a.second_kind):
        with pytest.raises(ValueError):
            x[0] = 0.0


def test_analysis_validates_its_tensor():
    # R's symmetries are checked once, when an Analysis is built: a tensor
    # that validate_curvature refuses is refused there, with its message
    h = np.zeros((4, 4))
    h[0, 1] = 1.0
    # antisymmetric in each index pair, but h o g is pair-symmetric only
    # for a symmetric h
    asymmetric = kulkarni_nomizu(h, np.eye(4))
    # the volume form of R^4 has every symmetry but the first Bianchi identity
    volume = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        volume[perm] = np.linalg.det(np.eye(4)[list(perm)])
    for R, broken in ((asymmetric, "pair_symmetry"), (CurvatureTensor(4, volume), "first_bianchi")):
        with pytest.raises(CurvatureSymmetryError) as expected:
            validate_curvature(R)
        assert expected.value.report[broken][0] > 0.0
        with pytest.raises(CurvatureSymmetryError) as refused:
            Analysis(R)
        assert str(refused.value) == str(expected.value)
    assert volume[0, 1, 2, 3] == 1.0
    assert all(expected.value.report[name][0] == 0.0 for name in
               ("antisymmetry_first", "antisymmetry_second", "pair_symmetry"))


def test_spectrum_basics():
    assert np.allclose(spectrum(np.eye(5)), np.ones(5))
    assert np.allclose(spectrum(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
    for solve in (spectrum, spectral_decomposition):
        with pytest.raises(NotSymmetric):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a complex matrix is gated as Hermitian: symmetric is not enough
    assert np.allclose(spectrum(np.array([[0.0, 1j], [-1j, 0.0]])), [-1.0, 1.0])
    with pytest.raises(NotSymmetric):
        spectrum(np.array([[0.0, 1j], [1j, 0.0]]))


def test_symmetry_gate_stripes():
    rng = np.random.default_rng(18)
    # an asymmetry anywhere is caught: on either side of the diagonal, near
    # it, in the interior and in the far corners
    N = 160
    base = rng.uniform(-1.0, 1.0, (N, N))
    base = base + base.T
    tol = 1e-12 * 2.5
    spots = [(5, 1), (1, 5), (104, 67), (159, 129), (3, 158)]
    # the largest entry sets the scale, whatever its sign
    for peak in (2.5, -2.5):
        base[0, 0] = peak
        for i, j in spots:
            for factor, caught in ((1.01, True), (0.99, False)):
                M = base.copy()
                M[i, j] += factor * tol
                if caught:
                    with pytest.raises(NotSymmetric):
                        require_symmetric(M)
                else:
                    assert require_symmetric(M) is not None
    assert require_symmetric(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(NotSymmetric):
        require_symmetric(np.zeros((2, 3)))


def test_spectrum_reconstruction_and_determinism():
    rng = np.random.default_rng(6)
    M = random_symmetric(30, rng)
    vals, vecs = spectral_decomposition(M)
    recon = vecs @ np.diag(vals) @ vecs.T
    assert np.linalg.norm(M - recon) <= 1e-10 * np.linalg.norm(M)
    assert np.array_equal(spectrum(M), spectrum(M.copy()))


def test_cluster_eigenvalues():
    clusters = cluster_eigenvalues([1.0, 1.0 + 1e-9, 2.0, 5.0, 5.0], 1.0)
    assert [m for _, m in clusters] == [2, 1, 2]
    assert clusters[0][0] == pytest.approx(1.0, abs=1e-8)


def test_clusters_survive_binary_scaling():
    # the gap tolerance is relative to R's unit scale and the spectral
    # radius, so 2^-30 R keeps the clusters of R, each mean scaled exactly
    factor = 2.0**-30
    for R, count in ((random_curvature(6, np.random.default_rng(41)), 20), (product_sphere(6), 3)):
        unit = cluster_eigenvalues(Analysis(R).second_kind, ricci_scalar(R).scale)
        assert len(unit) == count
        scaled = Analysis(R * factor)
        assert cluster_eigenvalues(scaled.second_kind, scaled.summary.scale) == [
            (value * factor, mult) for value, mult in unit
        ]


def test_basis_family_trace_identities():
    # diagonal values of R-bar on the off-diagonal family are sectional
    # curvatures; summing over the diagonal family against the closed form
    # pins down the normalization of the canonical basis
    rng = np.random.default_rng(17)
    for n in (4, 5, 6):
        R = random_curvature(n, rng)
        s = ricci_scalar(R)
        B = canonical_s02_basis(n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for pos, (i, j) in enumerate(pairs):
            val = float(np.sum(rbar_apply(R, B[pos]) * B[pos]))
            assert val == pytest.approx(R.components[i, j, i, j], abs=1e-12)
        for i in range(n):
            row = sum(
                float(np.sum(rbar_apply(R, B[pos]) * B[pos]))
                for pos, (a, b) in enumerate(pairs)
                if i in (a, b)
            )
            assert row == pytest.approx(s.ricci[i, i], abs=1e-12)
        for p in range(1, n):
            tot = sum(
                float(np.sum(rbar_apply(R, B[len(pairs) + k]) * B[len(pairs) + k]))
                for k in range(p)
            )
            closed = (2.0 / (n - p)) * (
                sum(s.ricci[k, k] for k in range(p))
                - sum(R.components[k, l, k, l] for k in range(p) for l in range(k + 1, p))
            ) - p / ((n - p) * n) * s.scalar
            assert tot == pytest.approx(closed, abs=1e-12)


def test_quadratic_form_identity_flat():
    R = constant_curvature(4, 0.0)
    T = np.ones((4, 4))
    assert quadratic_form_identity_check(R, T) == 0.0


def test_quadratic_form_identity_sphere_simple_tensor():
    R = constant_curvature(3, 1.0)
    T = np.zeros((3, 3))
    T[0, 1] = 1.0  # e^1 (x) e^2
    assert quadratic_form_identity_check(R, T) <= 1e-12


def test_quadratic_form_identity_random():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (3, 4):
        for k in (1, 2, 3):
            for _ in range(5):
                R = random_curvature(n, rng)
                T = rng.standard_normal((n,) * k)
                worst = max(worst, quadratic_form_identity_check(R, T))
    for _ in range(5):
        R = random_curvature(4, rng)
        w = PForm.random(4, 2, rng)
        worst = max(worst, quadratic_form_identity_check(R, to_dense(w)))
    assert worst <= 1e-10
