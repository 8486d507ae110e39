import numpy as np
import pytest

from curvkind import (
    Analysis,
    Certificate,
    InfeasibleWeights,
    KOutOfRange,
    POutOfRange,
    VariantPreconditionFailed,
    certify,
    constant_curvature,
    constants,
    k_partial_sum,
    k_positivity_profile,
    min_weighted_sum,
    perturb_constant,
    product_sphere,
    random_curvature,
    ric_l_lower_bound,
    ric_l_matrix,
    ricci_lower_bound_improved,
    ricci_lower_bound_weak,
    ricci_scalar,
    second_kind_matrix,
    spectrum,
    su3_so3,
    theorem_d_hypothesis,
)
from helpers import make_einstein


def product_sphere_eigs(n):
    return np.sort([-(n - 2) / n] + [0.0] * (n - 1) + [1.0] * ((n - 2) * (n + 1) // 2))


# --- partial sums ------------------------------------------------------------


def test_k_partial_sum_basics():
    ones = np.ones(10)
    for k in (1, 2.5, 7, 10):
        assert k_partial_sum(ones, k) == pytest.approx(k)
    assert k_partial_sum([-1.0, 2.0, 5.0], 1.5) == pytest.approx(0.0)
    with pytest.raises(KOutOfRange):
        k_partial_sum([1.0, 2.0], 2.5)
    with pytest.raises(KOutOfRange):
        k_partial_sum([1.0, 2.0], 0.5)


def test_k_partial_sum_product_sphere():
    eigs = product_sphere_eigs(5)
    assert k_partial_sum(eigs, 6.0) == pytest.approx(0.4)
    assert k_partial_sum(eigs, 5.0) == pytest.approx(-0.6)


def test_positivity_upward_closure():
    rng = np.random.default_rng(0)
    for _ in range(200):
        eigs = np.sort(rng.standard_normal(rng.integers(2, 12)))
        N = len(eigs)
        nonneg = [k_partial_sum(eigs, k) >= 0 for k in range(1, N + 1)]
        for a in range(N - 1):
            if nonneg[a]:
                assert all(nonneg[a:])


def test_weight_principle_dichotomy():
    # k'-nonnegative implies k-positive or 1-nonnegative, for k' < k
    rng = np.random.default_rng(1)
    spectra = [np.sort(rng.standard_normal(rng.integers(3, 12))) for _ in range(300)]
    spectra += [np.array([0.0, 0.0, 1.0]), np.array([-1.0, 1.0, 5.0]), np.zeros(4)]
    for eigs in spectra:
        N = len(eigs)
        for kp in range(1, N):
            if k_partial_sum(eigs, kp) >= 0:
                for k in np.linspace(kp + 0.5, N, 4):
                    assert k_partial_sum(eigs, float(k)) > 0 or eigs[0] >= 0


# --- the bracket minimum -----------------------------------------------------


def test_min_weighted_sum_integer_case():
    eigs = np.array([-2.0, 1.0, 3.0, 4.0])
    assert min_weighted_sum(eigs, 1.0, 2.0) == pytest.approx(-1.0)
    assert min_weighted_sum(eigs, 1.0, 4.0) == pytest.approx(6.0)


def test_min_weighted_sum_constant_spectrum():
    eigs = np.full(6, 2.5)
    assert min_weighted_sum(eigs, 0.7, 3.0) == pytest.approx(7.5)


def test_min_weighted_sum_small_total():
    eigs = np.array([-3.0, 1.0])
    # total below the cap: everything sits on the smallest eigenvalue
    assert min_weighted_sum(eigs, 2.0, 0.5) == pytest.approx(-1.5)


def test_min_weighted_sum_infeasible():
    with pytest.raises(InfeasibleWeights):
        min_weighted_sum([1.0, 2.0], 1.0, 2.5)
    with pytest.raises(InfeasibleWeights):
        min_weighted_sum([1.0, 2.0], -1.0, 2.0)


def test_bracket_equivalence():
    rng = np.random.default_rng(2)
    for _ in range(300):
        N = int(rng.integers(2, 11))
        eigs = np.sort(rng.standard_normal(N))
        omega = float(rng.uniform(0.1, 2.0))
        total = float(rng.uniform(omega, omega * N))
        lhs = min_weighted_sum(eigs, omega, total)
        rhs = omega * k_partial_sum(eigs, total / omega)
        assert abs(lhs - rhs) <= 1e-12


def test_minimum_against_lp_oracle():
    from scipy.optimize import linprog

    rng = np.random.default_rng(3)
    for _ in range(100):
        N = int(rng.integers(2, 11))
        eigs = np.sort(rng.standard_normal(N) * 2)
        omega = float(rng.uniform(0.1, 2.0))
        total = float(rng.uniform(0.0, omega * N * 0.999))
        closed = min_weighted_sum(eigs, omega, total)
        lp = linprog(
            eigs, A_eq=np.ones((1, N)), b_eq=[total], bounds=[(0.0, omega)] * N, method="highs"
        )
        assert lp.status == 0
        assert closed == pytest.approx(lp.fun, abs=1e-10)


def test_monotone_in_highest_weight():
    rng = np.random.default_rng(4)
    for _ in range(100):
        eigs = np.sort(rng.standard_normal(8))
        total = float(rng.uniform(0.5, 4.0))
        small, big = sorted(rng.uniform(total / 8, 3.0, size=2))
        assert min_weighted_sum(eigs, small, total) >= min_weighted_sum(eigs, big, total) - 1e-12


def test_superadditivity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        eigs = np.sort(rng.standard_normal(9))
        o1, o2 = rng.uniform(0.2, 1.5, size=2)
        s1 = float(rng.uniform(0, o1 * 4))
        s2 = float(rng.uniform(0, o2 * 4))
        lhs = min_weighted_sum(eigs, o1, s1) + min_weighted_sum(eigs, o2, s2)
        rhs = min_weighted_sum(eigs, o1 + o2, s1 + s2)
        assert lhs >= rhs - 1e-12


# --- constants ---------------------------------------------------------------


def test_constants_closed_forms():
    for n in range(4, 40):
        c = constants(n, 2)
        expected = (3 * n / 4) * (n**2 - 4) / (n**2 - 1.5 * n - 2)
        assert c.c_p == pytest.approx(expected, rel=1e-14)
    for n in range(8, 40):
        c = constants(n, 4)
        expected = n * (n**2 - 2 * n - 8) / (n**2 - 11 * n / 3 - 8 / 3)
        assert c.c_p == pytest.approx(expected, rel=1e-13)
    for n in range(10, 40):
        c = constants(n, 5)
        expected = (15 * n / 14) * (n**2 - 3 * n - 10) / (n**2 - 33 * n / 7 - 20 / 7)
        assert c.c_p == pytest.approx(expected, rel=1e-13)


def test_constants_p5_exceeds_ricci_threshold():
    for n in range(14, 40):
        assert constants(n, 5).c_p >= 15 * n / 14 - 1e-12
        assert 15 * n / 14 >= n + 1


def test_constants_midpoint_and_monotonicity():
    for n in range(4, 61, 2):
        c = constants(n, n // 2)
        assert c.c_p == pytest.approx(c.n_einstein, rel=1e-14)
    for n in range(4, 61):
        values = [constants(n, p).c_p for p in range(1, n // 2 + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_constants_omega_gap():
    for n in range(4, 30):
        for p in range(1, n // 2 + 1):
            c = constants(n, p)
            assert c.omega_gap == pytest.approx(2 * (n - 2 * p) / (n * (n + 2)), abs=1e-16)


def test_constants_einstein_integer_only_at_8():
    hits = []
    for n in range(3, 1001):
        value = 1.5 * n * (n + 2) / (n + 4)
        if abs(value - round(value)) < 1e-9:
            hits.append(n)
    assert hits == [8]


def test_constants_out_of_range():
    with pytest.raises(POutOfRange):
        constants(6, 4)
    with pytest.raises(POutOfRange):
        constants(6, 0)


# --- Ricci and curvature-term bounds -----------------------------------------


def test_ricci_bounds_on_models():
    n = 6
    sphere_eigs = spectrum(second_kind_matrix(constant_curvature(n, 1.0)))
    assert ricci_lower_bound_weak(sphere_eigs, n, 1) == pytest.approx(n - 1)
    s = ricci_scalar(constant_curvature(n, 1.0))
    assert ricci_lower_bound_improved(sphere_eigs, s.scalar, n, 1) == pytest.approx(n - 1)
    flat_eigs = spectrum(second_kind_matrix(constant_curvature(n, 0.0)))
    for p in (1, 2, 3):
        assert ricci_lower_bound_weak(flat_eigs, n, p) == 0.0
        assert ricci_lower_bound_improved(flat_eigs, 0.0, n, p) == 0.0


def test_ricci_bounds_sound_against_eigenvalue_sums():
    # the minimum of sum_{i<=p} Ric(e_i, e_i) over orthonormal frames is the
    # sum of the p smallest Ricci eigenvalues
    rng = np.random.default_rng(6)
    for n in (4, 5, 6):
        for _ in range(50):
            R = random_curvature(n, rng)
            s = ricci_scalar(R)
            eigs = spectrum(second_kind_matrix(R))
            ric_eigs = np.sort(np.linalg.eigvalsh(s.ricci))
            for p in range(1, n + 1):
                actual = float(ric_eigs[:p].sum())
                assert ricci_lower_bound_weak(eigs, n, p) <= actual + 1e-10
                assert ricci_lower_bound_improved(eigs, s.scalar, n, p) <= actual + 1e-10


def test_ric_l_bound_sphere_einstein_exact():
    for n in (4, 5, 6):
        a = Analysis(constant_curvature(n, 1.0))
        for p in range(1, n // 2 + 1):
            bound = ric_l_lower_bound(a, p, "einstein")
            assert bound == pytest.approx(p * (n - p), rel=1e-12)


def test_ric_l_bound_flat_zero():
    a = Analysis(constant_curvature(5, 0.0))
    for variant in ("weak", "improved", "one_form"):
        assert ric_l_lower_bound(a, 1, variant) == 0.0


def test_ric_l_bound_soundness_random():
    rng = np.random.default_rng(7)
    for n in (4, 5, 6):
        for _ in range(20):
            a = Analysis(random_curvature(n, rng))
            for p in range(1, n // 2 + 1):
                low = float(spectrum(ric_l_matrix(a, p))[0])
                variants = ["weak", "improved"] + (["one_form"] if p == 1 else [])
                for variant in variants:
                    assert ric_l_lower_bound(a, p, variant) <= low + 1e-9


def test_ric_l_bound_soundness_einstein():
    rng = np.random.default_rng(8)
    models = [constant_curvature(5, -0.7), su3_so3(), make_einstein(random_curvature(5, rng))]
    for R in models:
        a = Analysis(R)
        for p in (1, 2):
            low = float(spectrum(ric_l_matrix(a, p))[0])
            assert ric_l_lower_bound(a, p, "einstein") <= low + 1e-9


def test_ric_l_bound_preconditions():
    a = Analysis(product_sphere(5))  # not Einstein
    with pytest.raises(VariantPreconditionFailed):
        ric_l_lower_bound(a, 1, "einstein")
    with pytest.raises(VariantPreconditionFailed):
        ric_l_lower_bound(a, 2, "one_form")
    with pytest.raises(POutOfRange):
        ric_l_lower_bound(a, 3, "weak")


# --- certificates ------------------------------------------------------------


def _by_theorem(certs, tag, p=None):
    return next(c for c in certs if c.theorem == tag and c.p == p)


def test_certify_sphere():
    certs = certify(Analysis(constant_curvature(6, 1.0)))
    assert _by_theorem(certs, "A").holds
    assert _by_theorem(certs, "B(a)").holds
    for p in (1, 2, 3):
        assert _by_theorem(certs, "C(a)", p).holds
    assert all(isinstance(c, Certificate) for c in certs)


def test_certify_product_sphere():
    certs = certify(Analysis(product_sphere(5)))
    a = _by_theorem(certs, "A")
    assert not a.holds
    assert a.sums["partial_sum"] == pytest.approx(-0.6)
    c2 = _by_theorem(certs, "C(a)", 2)
    assert not c2.holds
    assert c2.sums["partial_sum"] == pytest.approx(-0.6 + (315 / 62 - 5) * 1.0)


def test_certify_su3_so3():
    su = su3_so3()
    eigs = spectrum(second_kind_matrix(su))
    assert k_partial_sum(eigs, 9.0) == pytest.approx(0.5, abs=1e-10)
    assert k_partial_sum(eigs, 8.0) == pytest.approx(-1.5, abs=1e-10)
    profile = k_positivity_profile(eigs)
    assert profile == {"positive": 9, "nonnegative": 9}
    certs = certify(Analysis(su))
    b = _by_theorem(certs, "B(a)")
    assert not b.holds
    assert b.sums["order"] == pytest.approx(35 / 6)


def test_certify_verdicts_reproducible_from_sums():
    for R in (constant_curvature(5, 1.0), product_sphere(5), su3_so3()):
        for c in certify(Analysis(R)):
            if "partial_sum" in c.sums and c.theorem in ("A", "A-corollary", "C(c)", "B(c)"):
                assert c.holds == (c.sums["partial_sum"] >= -1e-9)


def test_theorem_d_hypothesis():
    sphere_eigs = spectrum(second_kind_matrix(constant_curvature(5, 1.0)))
    assert theorem_d_hypothesis(sphere_eigs, 5, 0.0)
    flat_eigs = np.zeros(14)
    assert theorem_d_hypothesis(flat_eigs, 5, 0.0)
    ps_eigs = spectrum(second_kind_matrix(product_sphere(5)))
    assert theorem_d_hypothesis(ps_eigs, 5, -1.0)
    assert not theorem_d_hypothesis(ps_eigs, 5, -0.1)
    with pytest.raises(VariantPreconditionFailed):
        theorem_d_hypothesis(ps_eigs, 5, 0.5)


def test_certify_flags_flat():
    certs = certify(Analysis(constant_curvature(4, 0.0)))
    a = _by_theorem(certs, "A")
    assert a.holds and "flat" in a.conclusion


def test_certify_with_kappa_certificate():
    certs = certify(Analysis(product_sphere(5)), kappa=-1.0)
    d = _by_theorem(certs, "D-hypothesis")
    assert d.holds
    assert d.sums["required"] == pytest.approx(-3.5)


def test_perturbed_einstein_still_einstein():
    R = perturb_constant(su3_so3(), -0.25)
    assert ricci_scalar(R).is_einstein()
    tags = {c.theorem for c in certify(Analysis(R))}
    assert {"B(a)", "B(b)", "B(c)"} <= tags
