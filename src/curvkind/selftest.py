"""Randomized identity sweeps behind `curvkind selftest`.

Each check prints one ok/FAIL line; run_selftest returns True when every
check passed.  All draws come from a single seeded generator, so a given
(seed, seeds, n_max) triple is fully reproducible.
"""

import numpy as np

from .bochner import (
    act_sym_on_form,
    bochner_decomposition,
    form_s02_expansion,
    ogiue_tachibana_term,
    ric_l_matrix,
    second_kind_form_term,
)
from .model_spaces import (
    constant_curvature,
    perturb_constant,
    product_sphere,
    random_curvature,
    su3_so3,
)
from .operators import first_kind_matrix, ricci_scalar, second_kind_matrix, spectrum
from .tensor_core import PForm, canonical_s02_basis, random_trace_free, validate_curvature
from .weights import k_partial_sum, min_weighted_sum, ric_l_lower_bound


class _Suite:
    def __init__(self):
        self.failures = 0

    def check(self, name, worst, tol):
        ok = worst <= tol
        if not ok:
            self.failures += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: worst {worst:.3e} (tol {tol:.1e})")

    def check_true(self, name, condition):
        if not condition:
            self.failures += 1
        print(f"{'ok  ' if condition else 'FAIL'} {name}")


def run_selftest(seed=20260114, seeds=20, n_max=6):
    rng = np.random.default_rng(seed)
    suite = _Suite()
    n_max = max(3, n_max)
    dims = range(3, n_max + 1)

    worst = 0.0
    for n in range(2, n_max + 1):
        B = canonical_s02_basis(n)
        gram = np.einsum("aij,bij->ab", B, B)
        worst = max(worst, float(np.abs(gram - np.eye(len(B))).max()))
        worst = max(worst, float(np.abs(np.trace(B, axis1=1, axis2=2)).max()))
    suite.check("canonical basis orthonormal and trace-free", worst, 1e-12)

    worst = 0.0
    for n in dims:
        for _ in range(seeds):
            R = random_curvature(n, rng)
            validate_curvature(R)
            s = ricci_scalar(R)
            t2 = float(np.trace(second_kind_matrix(R)))
            t1 = float(np.trace(first_kind_matrix(R)))
            denom = 1.0 + abs(s.scalar)
            worst = max(
                worst,
                abs(t2 - (n + 2) / (2 * n) * s.scalar) / denom,
                abs(t1 - s.scalar / 2) / denom,
            )
    suite.check("trace identities on random curvature", worst, 1e-10)

    worst = 0.0
    for n in dims:
        M = second_kind_matrix(constant_curvature(n, 1.0))
        worst = max(worst, float(np.abs(M - np.eye(len(M))).max()))
    suite.check("unit sphere gives the identity operator", worst, 1e-12)

    worst_dec = worst_ot = worst_weight = worst_total = 0.0
    for n in dims:
        for p in range(1, n):
            cap = p * (n - p) / n
            stotal = cap * (n + 2) / 2
            for _ in range(max(2, seeds // 4)):
                R = random_curvature(n, rng)
                w = PForm.random(n, p, rng)
                rep = bochner_decomposition(R, w)
                worst_dec = max(worst_dec, rep.residual)
                term = second_kind_form_term(R, w)
                ot = ogiue_tachibana_term(R, w)
                worst_ot = max(worst_ot, abs(ot - term) / (1.0 + abs(term)))
                exp = form_s02_expansion(w)
                worst_total = max(
                    worst_total, abs(exp.total - stotal * w.norm_sq) / (1.0 + exp.total)
                )
                S = random_trace_free(n, rng)
                worst_weight = max(
                    worst_weight, act_sym_on_form(S, w).norm_sq - cap * w.norm_sq
                )
    suite.check("three-term decomposition residual", worst_dec, 1e-9)
    suite.check("non-orthogonal family evaluation agrees", worst_ot, 1e-10)
    suite.check("total weight identity", worst_total, 1e-10)
    suite.check("single weight bound", worst_weight, 1e-10)

    worst = 0.0
    for _ in range(seeds * 5):
        N = int(rng.integers(3, 11))
        eigs = np.sort(rng.standard_normal(N) * 3.0)
        omega = float(rng.uniform(0.2, 3.0))
        total = float(rng.uniform(0.0, omega * N))
        closed = min_weighted_sum(eigs, omega, total)
        if total / omega >= 1.0:
            bracket = omega * k_partial_sum(eigs, total / omega)
            worst = max(worst, abs(closed - bracket))
    suite.check("bracket equivalence (closed form vs partial sum)", worst, 1e-12)

    worst = 0.0
    for n in [n for n in dims if n >= 4]:
        for _ in range(max(2, seeds // 4)):
            R = random_curvature(n, rng)
            eigs = spectrum(second_kind_matrix(R))
            summary = ricci_scalar(R)
            for p in range(1, n // 2 + 1):
                low = float(spectrum(ric_l_matrix(R, p))[0])
                for variant in ("weak", "improved") + (("one_form",) if p == 1 else ()):
                    bound = ric_l_lower_bound(eigs, summary, n, p, variant)
                    worst = max(worst, bound - low)
    suite.check("estimate soundness on random curvature", worst, 1e-9)

    sphere = constant_curvature(5, 1.0)
    esum = ricci_scalar(sphere)
    eigs = spectrum(second_kind_matrix(sphere))
    worst = 0.0
    for p in (1, 2):
        low = float(spectrum(ric_l_matrix(sphere, p))[0])
        bound = ric_l_lower_bound(eigs, esum, 5, p, "einstein")
        worst = max(worst, bound - low, abs(bound - p * (5 - p)))
    suite.check("einstein estimate exact on the sphere", worst, 1e-9)

    ps = product_sphere(5)
    eigs = spectrum(second_kind_matrix(ps))
    expected = np.sort(np.array([-0.6] + [0.0] * 4 + [1.0] * 9))
    ok = float(np.abs(eigs - expected).max()) <= 1e-10
    ok = ok and k_partial_sum(eigs, 6.0) > 0 and k_partial_sum(eigs, 5.0) < 0
    suite.check_true("product sphere spectrum and positivity profile", ok)

    su3 = su3_so3()
    eigs2 = spectrum(second_kind_matrix(su3))
    eigs1 = spectrum(first_kind_matrix(su3))
    expected2 = np.sort(np.array([-1.5] * 5 + [2.0] * 9))
    expected1 = np.sort(np.array([0.0] * 7 + [2.5] * 3))
    summary = ricci_scalar(su3)
    ok = (
        float(np.abs(eigs2 - expected2).max()) <= 1e-10
        and float(np.abs(eigs1 - expected1).max()) <= 1e-10
        and float(np.abs(summary.ricci - 3.0 * np.eye(5)).max()) <= 1e-10
        and k_partial_sum(eigs2, 9.0) > 0
        and k_partial_sum(eigs2, 8.0) < 0
    )
    suite.check_true("SU(3)/SO(3) spectra, Ricci, positivity profile", ok)

    shifted = perturb_constant(ps, -0.04)
    eigs_shift = spectrum(second_kind_matrix(shifted))
    ok = float(np.abs(eigs_shift - (eigs - 0.04)).max()) <= 1e-10
    suite.check_true("constant perturbation shifts the spectrum", ok)

    print(f"selftest: {'all checks passed' if suite.failures == 0 else f'{suite.failures} FAILURES'}")
    return suite.failures == 0
