from dataclasses import is_dataclass
import math
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from curvkind import (
    Analysis,
    Certificate,
    CurvatureSummary,
    InfeasibleWeights,
    KOutOfRange,
    POutOfRange,
    ShapeMismatch,
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
    ric_l_lower_bounds,
    ric_l_matrix,
    ric_l_minima,
    ric_l_spectrum,
    ricci_lower_bounds,
    ricci_scalar,
    second_kind_matrix,
    spectrum,
    su3_so3,
    weights,
)
from curvkind.weights import _bracket, _first_orders, _nonnegative_below
from helpers import (
    complex_projective,
    exists_below_by_scan,
    make_einstein,
    make_ricci_flat,
    min_weighted_sum_by_slices,
    partial_sum_by_slices,
    positivity_profile_by_loop,
    quaternionic_projective,
    random_rotation,
    ric_l_bound_by_variant,
    ricci_bounds_by_brackets,
    rotate_curvature,
    sphere_product,
)


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


@pytest.mark.parametrize("omega, total", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.nan), (math.nan, math.nan),
    (math.inf, math.inf), (1.0, math.inf),
])
def test_min_weighted_sum_refuses_non_finite_weights(omega, total):
    # unchecked, an infinite omega brackets inf * 0 = NaN, and a NaN omega
    # or total reaches int(nan), a bare ValueError
    with pytest.raises(InfeasibleWeights):
        min_weighted_sum([1.0, 2.0], omega, total)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    k_positivity_profile,
    lambda eigs: k_partial_sum(eigs, 1.5),
    lambda eigs: min_weighted_sum(eigs, 1.0, 1.5),
], ids=["k_positivity_profile", "k_partial_sum", "min_weighted_sum"])
def test_weight_calculus_refuses_non_finite_eigenvalues(call, bad):
    with pytest.raises(ShapeMismatch, match="spectrum has a non-finite eigenvalue"):
        call([1.0, bad, 2.0])


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


def test_constants_highest_weight_gap():
    for n in range(4, 30):
        for p in range(1, n // 2 + 1):
            c = constants(n, p)
            gap = c.omega_weak - c.omega_improved
            assert gap == pytest.approx(2 * (n - 2 * p) / (n * (n + 2)), abs=1e-15)


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


def test_degree_is_an_integer_and_not_a_bool():
    # every entry point that takes a degree reads tensor_core.is_degree, as
    # PForm does: a float or a bool is refused, not passed to math.comb
    # a numpy integer gives the values, and the types, of a Python int
    def types(value):
        fields = value if isinstance(value, dict) else vars(value) if is_dataclass(value) else {"": value}
        return {key: type(v) for key, v in fields.items()}

    rng = np.random.default_rng(33)
    for R in (random_curvature(6, rng), product_sphere(6), constant_curvature(6, 1.0)):
        a = Analysis(R)
        entries = (
            lambda p: constants(6, p),
            lambda p: ricci_lower_bounds(a, p),
            lambda p: ric_l_lower_bounds(a, p),
            lambda p: ric_l_matrix(a, p),
            lambda p: ric_l_spectrum(a, p),
            lambda p: ric_l_minima(a, (p,))[p],
        )
        for entry in entries:
            for p in (2.0, 2.5, True):
                with pytest.raises(POutOfRange):
                    entry(p)
            np.testing.assert_equal(entry(np.int64(2)), entry(2))
            assert types(entry(np.int64(2))) == types(entry(2))


# --- Ricci and curvature-term bounds -----------------------------------------


def test_ricci_bounds_on_models():
    n = 6
    sphere = Analysis(constant_curvature(n, 1.0))
    assert ricci_lower_bounds(sphere, 1) == pytest.approx({"improved": n - 1, "weak": n - 1})
    flat = Analysis(constant_curvature(n, 0.0))
    for p in range(1, n + 1):
        assert ricci_lower_bounds(flat, p) == {"improved": 0.0, "weak": 0.0}
    for p in (0, n + 1, 2.0):
        with pytest.raises(POutOfRange):
            ricci_lower_bounds(sphere, p)


def test_ricci_bounds_sound_against_eigenvalue_sums():
    # the minimum of sum_{i<=p} Ric(e_i, e_i) over orthonormal frames is the
    # sum of the p smallest Ricci eigenvalues
    rng = np.random.default_rng(6)
    for n in (4, 5, 6):
        for _ in range(50):
            a = Analysis(random_curvature(n, rng))
            ric_eigs = np.sort(np.linalg.eigvalsh(a.summary.ricci))
            for p in range(1, n + 1):
                actual = float(ric_eigs[:p].sum())
                bounds = ricci_lower_bounds(a, p)
                assert bounds["weak"] <= actual + 1e-10
                assert bounds["improved"] <= actual + 1e-10


def test_ric_l_bound_sphere_einstein_exact():
    for n in (4, 5, 6):
        a = Analysis(constant_curvature(n, 1.0))
        for p in range(1, n // 2 + 1):
            bound = ric_l_lower_bounds(a, p)["einstein"]
            assert bound == pytest.approx(p * (n - p), rel=1e-12)


def test_ric_l_bound_flat_zero():
    a = Analysis(constant_curvature(5, 0.0))
    for variant in ("weak", "improved", "one_form"):
        assert ric_l_lower_bounds(a, 1)[variant] == 0.0


def test_ric_l_bound_soundness_random():
    rng = np.random.default_rng(7)
    for n in (4, 5, 6):
        for _ in range(20):
            a = Analysis(random_curvature(n, rng))
            for p in range(1, n // 2 + 1):
                low = float(spectrum(ric_l_matrix(a, p))[0])
                variants = ["weak", "improved"] + (["one_form"] if p == 1 else [])
                for variant in variants:
                    assert ric_l_lower_bounds(a, p)[variant] <= low + 1e-9


def test_ric_l_bound_soundness_einstein():
    rng = np.random.default_rng(8)
    models = [constant_curvature(5, -0.7), su3_so3(), make_einstein(random_curvature(5, rng))]
    for R in models:
        a = Analysis(R)
        for p in (1, 2):
            low = float(spectrum(ric_l_matrix(a, p))[0])
            assert ric_l_lower_bounds(a, p)["einstein"] <= low + 1e-9


def test_ric_l_bound_preconditions():
    # a variant that does not apply is absent from the table, and a degree
    # above n/2 has no table
    a = Analysis(product_sphere(5))  # not Einstein
    assert list(ric_l_lower_bounds(a, 1)) == ["improved", "one_form", "weak"]
    assert list(ric_l_lower_bounds(a, 2)) == ["improved", "weak"]
    with pytest.raises(POutOfRange):
        ric_l_lower_bounds(a, 3)


def test_ric_l_bounds_table_keys_and_values():
    # the table holds exactly the bounds that apply, each equal bit for bit
    # to its own expression
    rng = np.random.default_rng(15)
    tensors = [constant_curvature(n, 1.0) for n in (3, 6, 8)] + [su3_so3()]
    tensors += [product_sphere(n) for n in (4, 5, 8)]
    for n in range(3, 9):
        R = random_curvature(n, rng)
        tensors += [R, make_einstein(R)]
    einstein_seen = 0
    for R in tensors:
        a = Analysis(R)
        einstein = a.summary.is_einstein()
        einstein_seen += einstein
        for p in range(1, a.n // 2 + 1):
            bounds = ric_l_lower_bounds(a, p)
            want = ["improved", "weak"] + ["one_form"] * (p == 1) + ["einstein"] * einstein
            assert list(bounds) == sorted(want)
            for variant, value in bounds.items():
                assert value == ric_l_bound_by_variant(a, p, variant)
            # a fresh Analysis of R reads the same table
            assert ric_l_lower_bounds(Analysis(R), p) == bounds
    assert einstein_seen == 10


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


def test_b_certificates_fail_at_an_exact_threshold():
    # CP^2 has second-kind spectrum {-2 x3, 4 x6}: its partial sum 4k - 18 is
    # negative for every k < 9/2, the Einstein order and C_2 at n = 4, and 0
    # at 9/2, so neither B(b) nor C(b) at p = 2 holds (CP^2 is not flat and
    # b_2 = 1); the (c) checks at the order itself hold.  S^1 x S^3 has
    # l_1 = -1/2 and a partial sum of exactly 0 at 9/2 as well.
    cp2 = Analysis(complex_projective(2))
    np.testing.assert_allclose(cp2.second_kind, [-2.0] * 3 + [4.0] * 6, atol=1e-13)
    certs = certify(cp2)
    assert constants(4, 2).c_p == constants(4, 1).n_einstein == 4.5
    assert not _by_theorem(certs, "B(b)").holds
    assert not _by_theorem(certs, "C(b)", 2).holds
    assert _by_theorem(certs, "B(c)").holds and _by_theorem(certs, "C(c)", 2).holds
    assert not _by_theorem(certify(Analysis(product_sphere(4))), "C(b)", 2).holds


def _frame_models(n, rng):
    """The models of the frame-invariance test at dimension n."""
    R = random_curvature(n, rng)
    models = {
        "random": R,
        "einstein": make_einstein(R),
        "ricci_flat": make_ricci_flat(random_curvature(n, rng)),
        "product_sphere": product_sphere(n),
        "constant_curvature": constant_curvature(n, 1.0),
        "perturbed": perturb_constant(product_sphere(n), -0.05),
    }
    if n == 5:
        models["su3_so3"] = su3_so3()
    if n % 2 == 0:
        models["complex_projective"] = complex_projective(n // 2)
    return models


def test_verdicts_do_not_depend_on_the_frame():
    # the same tensor in a rotated orthonormal frame has the same
    # certificates and k-profile, and the same Ric_L minima to roundoff
    rng = np.random.default_rng(60)
    for n in range(4, 9):
        for name, R in _frame_models(n, rng).items():
            a, rotated = Analysis(R), Analysis(rotate_curvature(R, random_rotation(n, rng)))
            verdicts = [[(c.theorem, c.p, c.verdict) for c in certify(x, kappa=-0.5)]
                        for x in (a, rotated)]
            assert verdicts[0] == verdicts[1], (name, n)
            assert k_positivity_profile(a.second_kind) == k_positivity_profile(rotated.second_kind)
            minima, want = (ric_l_minima(x, range(1, n)) for x in (rotated, a))
            for p in range(1, n):
                assert abs(minima[p] - want[p]) <= 1e-12 * (a.scale + abs(want[p])), (name, n, p)


def _exact_witness(R, betti, rng, label):
    """The certificates of R in its own frame and in one rotated frame, after
    checking the ground truth of a space whose b_p != 0 at each p of betti
    (1 <= p < n): no certificate that makes b_p vanish holds there, A and
    the ones of no degree included; its harmonic p-forms are parallel, so
    Ric_L has the eigenvalue 0 there, to 1e-12 s; and every Ric_L bound
    stays below the smallest eigenvalue."""
    vanishing = ("B(a)", "B(b)", "C(a)", "C(b)")
    n = R.n
    found = []
    for frame in (R, rotate_curvature(R, random_rotation(n, rng))):
        a = Analysis(frame)
        certs = certify(a)
        assert not _by_theorem(certs, "A").holds, label
        for c in certs:
            if c.theorem in vanishing and (c.p is None or c.p in betti):
                assert not c.holds, (label, c.theorem, c.p)
        minima = ric_l_minima(a, range(1, n))
        for p in range(1, n // 2 + 1):
            for bound in ric_l_lower_bounds(a, p).values():
                assert bound <= minima[p], (label, p)
        for p in betti:
            assert abs(minima[p]) <= 1e-12 * a.scale, (label, p)
        found.append(certs)
    return found


def test_sphere_products_are_exact_witnesses():
    # S^k x S^l has b_k, b_l != 0 (and b_{n-k} = b_l, b_{n-l} = b_k)
    rng = np.random.default_rng(61)
    for k in range(2, 7):
        for l in range(k, 13 - k):
            for certs in _exact_witness(sphere_product(k, l), {k, l}, rng, (k, l)):
                assert any(c.theorem == "B(a)" for c in certs) == (k == l)


def test_complex_projective_spaces_are_exact_witnesses():
    # CP^m has b_p = 1 at every even p, the powers of its Kaehler form; it
    # is Einstein, so the B certificates apply, and none of them may hold
    rng = np.random.default_rng(67)
    for m in range(2, 7):
        certs = _exact_witness(complex_projective(m), set(range(2, 2 * m, 2)), rng, m)
        assert all(any(c.theorem == "B(a)" for c in frame) for frame in certs), m


def test_quaternionic_projective_spaces_are_exact_witnesses():
    # HP^m has b_p = 1 at every p divisible by 4, the powers of its
    # quaternionic Kaehler 4-form; it is Einstein, Ric = 4(m+2) g, with
    # second-kind eigenvalues -8 (2m^2 - m - 1 times) and 4; HP^1 is S^4 of
    # curvature 4
    np.testing.assert_array_equal(
        quaternionic_projective(1).components, constant_curvature(4, 4.0).components
    )
    rng = np.random.default_rng(71)
    for m in (2, 3):
        R = quaternionic_projective(m)
        a, n = Analysis(R), R.n
        low = 2 * m * m - m - 1
        expected = [-8.0] * low + [4.0] * (len(a.second_kind) - low)
        assert np.abs(a.second_kind - expected).max() <= 1e-12 * a.scale, m
        assert np.abs(a.summary.ricci - 4 * (m + 2) * np.eye(n)).max() <= 1e-12 * a.scale, m
        certs = _exact_witness(R, set(range(4, n, 4)), rng, m)
        assert all(any(c.theorem == "B(a)" for c in frame) for frame in certs), m


def test_certify_verdicts_reproducible_from_sums():
    rng = np.random.default_rng(14)
    tensors = [
        constant_curvature(5, 1.0),
        product_sphere(5),
        su3_so3(),
        perturb_constant(su3_so3(), -0.25),
        constant_curvature(4, 0.0),
    ]
    for n in range(3, 9):
        R = random_curvature(n, rng)
        tensors += [R, make_einstein(R)]
    for R in tensors:
        a = Analysis(R)
        eigs = a.second_kind
        radius = float(np.abs(eigs).max(initial=0.0))
        for kappa in (None, 0.0, -0.5, -3.0):
            for c in certify(a, kappa):
                s = c.sums
                if "order" in s:
                    assert s["partial_sum"] == partial_sum_by_slices(eigs, s["order"])
                if c.theorem.endswith("(a)"):
                    want = s["partial_sum"] > 1e-12 * radius
                elif c.theorem.endswith("(b)"):
                    want = exists_below_by_scan(eigs, s["order_upper"], radius)
                elif c.theorem == "D-hypothesis":
                    assert s["required"] == (R.n + 2) / 2 * kappa and s["kappa"] == kappa
                    want = s["partial_sum"] >= s["required"] - 1e-10 * radius
                else:
                    assert c.theorem in ("A", "A-corollary") or c.theorem.endswith("(c)")
                    want = s["partial_sum"] >= -1e-10 * radius
                assert c.holds == want, (c, kappa)


@st.composite
def spectra_and_thresholds(draw):
    """An ascending spectrum of 2..30 values and a threshold in [0.5, N + 2].

    Integer spectra give partial sums that are exactly zero; float spectra
    are scaled by 1e-15..1e15.  The third kind puts N - 1 eigenvalues of
    -0.6e-10, 0 or 0.6e-10 beside a largest one of 1, so that its partial
    sums straddle the tolerance -1e-10 * radius.  The fourth recovers: its
    l_1 of -1.2e-10..-2.4e-10 lies below that tolerance, and N - 2 further
    eigenvalues of 0 or 0.6e-10 may bring later sums back inside it.
    Thresholds are integers, N itself, or any float in the range.
    """
    N = draw(st.integers(2, 30))
    kind = draw(st.sampled_from(("integer", "float", "tolerance", "recovering")))
    if kind == "integer":
        eigs = np.array(draw(st.lists(st.integers(-6, 6), min_size=N, max_size=N)), float)
    elif kind == "float":
        unit = draw(st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N))
        eigs = np.array(unit) * 10.0 ** draw(st.integers(-15, 15))
    elif kind == "tolerance":
        steps = draw(st.lists(st.integers(-1, 1), min_size=N - 1, max_size=N - 1))
        eigs = np.append(0.6e-10 * np.array(steps, float), 1.0)
    else:
        steps = draw(st.lists(st.integers(0, 1), min_size=N - 2, max_size=N - 2))
        low = -0.6e-10 * draw(st.integers(2, 4))
        eigs = np.concatenate(([low], 0.6e-10 * np.array(steps, float), [1.0]))
    threshold = draw(
        st.one_of(st.integers(1, N + 2).map(float), st.just(float(N)), st.floats(0.5, N + 2.0))
    )
    return np.sort(eigs), threshold


# l_1 lies below the floor -1e-10 and the partial sum at k = 2 is back
# inside it, while the sum at every order up to 3 stays negative
RECOVERING = np.array([-1.5e-10, 0.6e-10, 0.6e-10] + [1.0] * 6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spectra_and_thresholds())
@example((RECOVERING, 2.5))
@example((RECOVERING, 3.0))
def test_two_point_scan_and_cumulative_profile_match_full_scans(case):
    # the (b) rule reads the first nonnegative integer order of one
    # cumulative sum and the partial sum at the order; it decides what the
    # exact scan of every order below the order decides
    eigs, threshold = case
    radius = float(np.abs(eigs).max(initial=0.0))
    first = _first_orders(eigs, radius)["nonnegative"]
    below = _nonnegative_below(threshold, len(eigs), first, _bracket(eigs, 1.0, threshold), radius)
    assert below == exists_below_by_scan(eigs, threshold, radius)
    assert k_positivity_profile(eigs) == positivity_profile_by_loop(eigs)


def test_b_certificates_read_the_floor_of_the_k_profile():
    # at n = 4 the order of C(b) at p = 1 is C_1 = 2.7; the partial sum at
    # k = 2 is -0.9e-10, inside the floor, though l_1 = -1.5e-10 is not and
    # the sum at 2.7 is negative, so b_1 vanishes unless flat
    assert constants(4, 1).c_p == 2.7
    profile = k_positivity_profile(RECOVERING)
    assert profile == {"positive": 4, "nonnegative": 2}
    c = _by_theorem(certify(_with_spectrum(RECOVERING, 4, False)), "C(b)", 1)
    assert c.holds == exists_below_by_scan(RECOVERING, 2.7, 1.0)
    assert c.holds and profile["nonnegative"] < c.sums["order_upper"]


def test_theorem_d_hypothesis():
    def d_holds(R, kappa):
        return _by_theorem(certify(Analysis(R), kappa), "D-hypothesis").holds

    assert d_holds(constant_curvature(5, 1.0), 0.0)
    flat = constant_curvature(5, 0.0)
    assert np.array_equal(Analysis(flat).second_kind, np.zeros(14))
    assert d_holds(flat, 0.0)
    assert d_holds(product_sphere(5), -1.0)
    assert not d_holds(product_sphere(5), -0.1)
    with pytest.raises(VariantPreconditionFailed):
        certify(Analysis(product_sphere(5)), 0.5)


def test_certify_checks_kappa_before_any_partial_sum(monkeypatch):
    a = Analysis(product_sphere(5))
    calls = []
    monkeypatch.setattr(weights, "_bracket", lambda *args: calls.append(args))
    with pytest.raises(VariantPreconditionFailed, match="got 0.5"):
        certify(a, 0.5)
    assert calls == []


def _with_spectrum(ascending, n, einstein):
    """An operators.Analysis stand-in carrying a given ascending second-kind
    spectrum, the scalar curvature its trace implies and an Einstein verdict."""
    scalar = 2.0 * n / (n + 2.0) * float(ascending.sum())
    defect = 0.0 if einstein else float("inf")
    summary = CurvatureSummary(np.eye(n) * (scalar / n), scalar, defect, 1.0)
    return SimpleNamespace(n=n, second_kind=ascending, summary=summary)


def _same(call, oracle, *args):
    """call(*args) equals oracle(*args), or both raise the same error."""
    try:
        want = oracle(*args)
    except (KOutOfRange, InfeasibleWeights) as exc:
        with pytest.raises(type(exc)):
            call(*args)
    else:
        assert call(*args) == want, args


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(spectra_and_thresholds(), st.data())
def test_bracket_readers_equal_the_slice_sums(case, data):
    # every reader of weights._bracket gives the slice sums it replaced, and
    # the public entry points raise where they did, on input in any order;
    # the Analysis readers get the largest s02 spectrum (n-1)(n+2)/2 <= N
    eigs, threshold = case
    shuffled = np.array(data.draw(st.permutations(list(eigs))))
    _same(k_partial_sum, partial_sum_by_slices, shuffled, threshold)
    n = max(n for n in range(2, 9) if (n - 1) * (n + 2) // 2 <= len(eigs))
    omegas = [1.0]
    for p in range(1, n // 2 + 1):
        omegas += [constants(n, p).omega_improved, constants(n, p).omega_weak]
    for omega in omegas:
        for total in (threshold, omega * threshold):
            _same(min_weighted_sum, min_weighted_sum_by_slices, shuffled, omega, total)

    head = eigs[: (n - 1) * (n + 2) // 2]
    a = _with_spectrum(head, n, data.draw(st.booleans()))
    unsorted = _with_spectrum(np.array(data.draw(st.permutations(list(head)))), n, False)
    for p in range(1, n + 1):
        want = ricci_bounds_by_brackets(unsorted.second_kind, a.summary.scalar, n, p)
        assert ricci_lower_bounds(a, p) == want
    for p in range(1, n // 2 + 1):
        for variant, value in ric_l_lower_bounds(a, p).items():
            assert value == ric_l_bound_by_variant(unsorted, p, variant)
    shuffled_head, radius = unsorted.second_kind, float(np.abs(head).max(initial=0.0))
    for c in certify(a, kappa=-0.5):
        if "order" in c.sums:
            assert c.sums["partial_sum"] == partial_sum_by_slices(shuffled_head, c.sums["order"])
        if c.theorem.endswith("(b)"):
            assert c.holds == exists_below_by_scan(shuffled_head, c.sums["order_upper"], radius)


def test_certify_and_bounds_read_the_spectrum_unsorted(monkeypatch):
    rng = np.random.default_rng(16)
    R = random_curvature(6, rng)
    analyses = [Analysis(R), Analysis(make_einstein(R)), Analysis(product_sphere(7))]
    for a in analyses:
        assert a.second_kind is not None and a.summary is not None

    def no_sort(*args, **kwargs):
        raise AssertionError("np.sort was called")

    monkeypatch.setattr(np, "sort", no_sort)
    for a in analyses:
        certify(a)
        certify(a, kappa=-1.0)
        for p in range(1, a.n // 2 + 1):
            ric_l_lower_bounds(a, p)
        for p in range(1, a.n + 1):
            ricci_lower_bounds(a, p)


def test_certify_flags_flat():
    certs = certify(Analysis(constant_curvature(4, 0.0)))
    a = _by_theorem(certs, "A")
    assert a.holds and "flat" in a.conclusion


def test_tiny_sphere_is_not_flat():
    # every floor scales with the input, so 1e-13 times the sphere has the
    # sphere's verdicts: flat means R = 0
    certs = certify(Analysis(constant_curvature(5, 1.0) * 1e-13))
    a = _by_theorem(certs, "A")
    assert a.holds and a.conclusion == "either flat or a rational homology sphere"
    assert _by_theorem(certs, "B(a)").holds
    c = [cert for cert in certs if cert.theorem == "C(a)"]
    assert len(c) == 2 and all(cert.holds for cert in c)


def test_tiny_random_tensor_is_not_einstein():
    # the Einstein test reads max(s, |scal|) with s the unit scale of R
    R = random_curvature(6, np.random.default_rng(40))
    tiny = Analysis(R * 1e-13)
    assert not tiny.summary.is_einstein()
    unit, scaled = certify(Analysis(R)), certify(tiny)
    assert len(scaled) == len(unit) == 11
    assert [c.verdict for c in scaled] == [c.verdict for c in unit]


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
