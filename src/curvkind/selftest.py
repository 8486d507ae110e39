"""The registry of identity checks behind `curvkind selftest` and the
acceptance suite.

Each entry of CHECKS is (name, residuals, tol).  residuals(rng, draws, n_max)
yields one number per case it evaluates, and the entry passes when the
largest is at most tol.  One-sided checks yield signed margins, so their
worst value shows the real slack.  The random sweeps run `draws` cases per
n = 3..n_max (per (n, p) for the form identities, 5 * draws in all for the
single weight bound and the bracket); the model checks are deterministic
and run n = 3..8 whatever n_max is.

run_selftest runs every entry on a single seeded generator, so a given
(seed, seeds, n_max) triple is fully reproducible; tests/test_acceptance.py
runs the same entries at its own sizes.
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
from .operators import Analysis, first_kind_matrix, ricci_scalar, second_kind_matrix, spectrum
from .tensor_core import PForm, canonical_s02_basis, random_trace_free, validate_curvature
from .weights import k_partial_sum, min_weighted_sum, ric_l_lower_bound

MODEL_DIMS = range(3, 9)


def _random_pairs(rng, draws, n_max):
    """draws random (R, w) per (n, p), n = 3..n_max, 0 < p < n."""
    for n in range(3, n_max + 1):
        for p in range(1, n):
            for _ in range(draws):
                yield random_curvature(n, rng), PForm.random(n, p, rng)


def estimate_slacks(a, variants=("weak", "improved")):
    """bound - lambda_min(Ric_L) for the Analysis a, every p <= n/2 and
    variant, with "one_form" added at p = 1; a sound bound gives values <= 0."""
    for p in range(1, a.n // 2 + 1):
        low = float(spectrum(ric_l_matrix(a, p))[0])
        for variant in variants + (("one_form",) if p == 1 else ()):
            yield ric_l_lower_bound(a, p, variant) - low


def _canonical_basis(rng, draws, n_max):
    for n in range(2, 9):
        B = canonical_s02_basis(n)
        yield np.abs(np.einsum("aij,bij->ab", B, B) - np.eye(len(B))).max()
        yield np.abs(np.trace(B, axis1=1, axis2=2)).max()


def _trace_identities(rng, draws, n_max):
    for n in range(3, n_max + 1):
        for _ in range(draws):
            R = random_curvature(n, rng)
            validate_curvature(R)
            s = ricci_scalar(R).scalar
            yield abs(np.trace(second_kind_matrix(R)) - (n + 2) / (2 * n) * s) / (1 + abs(s))
            yield abs(np.trace(first_kind_matrix(R)) - s / 2) / (1 + abs(s))


def _unit_sphere(rng, draws, n_max):
    for n in MODEL_DIMS:
        M = second_kind_matrix(constant_curvature(n, 1.0))
        yield np.abs(M - np.eye(len(M))).max()


def _decomposition(rng, draws, n_max):
    for R, w in _random_pairs(rng, draws, n_max):
        yield bochner_decomposition(R, w).residual


def _ogiue_tachibana(rng, draws, n_max):
    for R, w in _random_pairs(rng, draws, n_max):
        term = second_kind_form_term(R, w)
        yield abs(ogiue_tachibana_term(R, w) - term) / (1.0 + abs(term))


def _total_weight(rng, draws, n_max):
    for n in range(3, n_max + 1):
        for p in range(n + 1):
            for _ in range(draws if 0 < p < n else 5):
                w = PForm.random(n, p, rng)
                target = p * (n - p) / n * (n + 2) / 2 * w.norm_sq
                yield abs(form_s02_expansion(w).total - target) / (1.0 + target)


def _single_weight(rng, draws, n_max):
    # |S w|^2 <= p(n-p)/n |S|^2 |w|^2, with |S| = 1
    for _ in range(5 * draws):
        n = int(rng.integers(3, n_max + 1))
        p = int(rng.integers(1, n))
        w = PForm.random(n, p, rng)
        excess = act_sym_on_form(random_trace_free(n, rng), w).norm_sq - p * (n - p) / n * w.norm_sq
        yield excess / min(1.0, w.norm_sq)


def _bracket(rng, draws, n_max):
    for _ in range(5 * draws):
        N = int(rng.integers(2, 11))
        eigs = np.sort(rng.standard_normal(N) * rng.uniform(1.0, 3.0))
        omega = float(rng.uniform(0.1, 3.0))
        k = float(rng.uniform(1.0, N))
        yield abs(min_weighted_sum(eigs, omega, omega * k) - omega * k_partial_sum(eigs, k))


def _estimate_soundness(rng, draws, n_max):
    for n in range(4, n_max + 1):
        for _ in range(draws):
            yield from estimate_slacks(Analysis(random_curvature(n, rng)))


def _einstein_sphere(rng, draws, n_max):
    for n in MODEL_DIMS:
        sphere = Analysis(constant_curvature(n, 1.0))
        for p in range(1, n // 2 + 1):
            low = float(spectrum(ric_l_matrix(sphere, p))[0])
            bound = ric_l_lower_bound(sphere, p, "einstein")
            yield bound - low
            yield abs(bound - p * (n - p))


def _product_sphere(rng, draws, n_max):
    for n in MODEL_DIMS:
        eigs = spectrum(second_kind_matrix(product_sphere(n)))
        expected = [-(n - 2) / n] + [0.0] * (n - 1) + [1.0] * ((n - 2) * (n + 1) // 2)
        yield np.abs(eigs - np.sort(expected)).max()
        # (n+1)-positive, not n-nonnegative
        yield abs(k_partial_sum(eigs, n + 1.0) - 2 / n)
        yield abs(k_partial_sum(eigs, float(n)) + (n - 2) / n)


def _su3_so3(rng, draws, n_max):
    R = su3_so3()
    second = spectrum(second_kind_matrix(R))
    yield np.abs(second - np.sort([-1.5] * 5 + [2.0] * 9)).max()
    yield np.abs(spectrum(first_kind_matrix(R)) - np.sort([0.0] * 7 + [2.5] * 3)).max()
    yield np.abs(ricci_scalar(R).ricci - 3.0 * np.eye(5)).max()
    # 9-positive, not 8-nonnegative
    yield abs(k_partial_sum(second, 9.0) - 0.5)
    yield abs(k_partial_sum(second, 8.0) + 1.5)


def _constant_shift(rng, draws, n_max):
    for n in MODEL_DIMS:
        base = product_sphere(n)
        eigs = spectrum(second_kind_matrix(base))
        shifted = spectrum(second_kind_matrix(perturb_constant(base, -0.04)))
        yield np.abs(shifted - (eigs - 0.04)).max()


CHECKS = (
    ("canonical basis orthonormal and trace-free", _canonical_basis, 1e-12),
    ("trace identities on random curvature", _trace_identities, 1e-10),
    ("unit sphere gives the identity operator", _unit_sphere, 1e-12),
    ("three-term decomposition residual", _decomposition, 1e-9),
    ("non-orthogonal family evaluation agrees", _ogiue_tachibana, 1e-10),
    ("total weight identity", _total_weight, 1e-10),
    ("single weight bound", _single_weight, 1e-10),
    ("bracket equivalence (closed form vs partial sum)", _bracket, 1e-12),
    ("estimate soundness on random curvature", _estimate_soundness, 1e-9),
    ("einstein estimate exact on the sphere", _einstein_sphere, 1e-9),
    ("product sphere spectrum and positivity profile", _product_sphere, 1e-10),
    ("SU(3)/SO(3) spectra, Ricci, positivity profile", _su3_so3, 1e-10),
    ("constant perturbation shifts the spectrum", _constant_shift, 1e-10),
)


def run_check(check, rng, draws, n_max):
    """Run one CHECKS entry: (passed, its ok/FAIL line).  An entry that
    evaluates no case, or yields a NaN, fails."""
    name, residuals, tol = check
    values = np.fromiter(residuals(rng, draws, n_max), dtype=float)
    if len(values) == 0:
        return False, f"FAIL {name}: no case evaluated (tol {tol:.1e})"
    worst = float(values.max())
    passed = worst <= tol
    return passed, f"{'ok  ' if passed else 'FAIL'} {name}: worst {worst:.3e} (tol {tol:.1e})"


def run_selftest(seed=20260114, seeds=20, n_max=6):
    """Print one line per CHECKS entry; True when every entry passed."""
    rng = np.random.default_rng(seed)
    failures = 0
    for check in CHECKS:
        passed, line = run_check(check, rng, seeds, n_max)
        failures += not passed
        print(line)
    print(f"selftest: {'all checks passed' if failures == 0 else f'{failures} FAILURES'}")
    return failures == 0
