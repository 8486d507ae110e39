"""Acceptance suite.

test_registry runs every entry of curvkind.selftest.CHECKS, the identity
checks that `curvkind selftest` runs too, at this suite's sizes: DRAWS cases
per n = 3..N_MAX in the random sweeps (per (n, p) for the form identities).
The criterion tests cover what the registry does not: the Einstein short
form of the decomposition (3), the profile and certificate of SU(3)/SO(3)
(6), the LP oracle (7), the sharp witness (8), Einstein inputs to the
estimates (10), and criteria 11-14.

Every test prints its measured worst case (run with -s to see them) and
draws its own seeded generator, so the suite is reproducible run to run.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from curvkind import (
    Analysis,
    PForm,
    act_sym_on_form,
    bochner_decomposition,
    certify,
    constant_curvature,
    constants,
    k_partial_sum,
    k_positivity_profile,
    min_weighted_sum,
    perturb_constant,
    product_sphere,
    random_curvature,
    ric_l_matrix,
    ricci_scalar,
    second_kind_matrix,
    spectrum,
    su3_so3,
)
from curvkind.selftest import CHECKS, estimate_slacks, run_check
from helpers import make_einstein

DRAWS = 200
N_MAX = 6
TOLS = {name: tol for name, _, tol in CHECKS}


def report(line):
    print(f"PASS {line}")


@pytest.mark.parametrize(
    "seed, check", enumerate(CHECKS), ids=[residuals.__name__[1:] for _, residuals, _ in CHECKS]
)
def test_registry(seed, check):
    passed, line = run_check(check, np.random.default_rng(100 + seed), DRAWS, N_MAX)
    assert passed, line
    print(line)


def test_criterion_03_bochner_decomposition():
    rng = np.random.default_rng(103)
    worst = 0.0
    for R in (constant_curvature(5, 1.0), constant_curvature(4, -0.6), su3_so3()):
        for p in range(1, R.n):
            rep = bochner_decomposition(R, PForm.random(R.n, p, rng))
            assert rep.einstein_residual is not None
            worst = max(worst, rep.einstein_residual)
    assert worst <= 1e-9
    report(f"criterion 3: Einstein short form of the decomposition (worst {worst:.2e})")


def test_criterion_06_su3_so3():
    R = su3_so3()
    profile = k_positivity_profile(spectrum(second_kind_matrix(R)))
    assert profile == {"positive": 9, "nonnegative": 9}
    certs = certify(Analysis(R))
    assert not next(c for c in certs if c.theorem == "A").holds
    report("criterion 6: SU(3)/SO(3) is 9-positive, not 8-nonnegative; Theorem A does not hold")


def test_criterion_07_weight_calculus_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(500):
        N = int(rng.integers(2, 11))
        eigs = np.sort(rng.standard_normal(N))
        omega = float(rng.uniform(0.1, 2.0))
        total = float(rng.uniform(0.0, omega * N * 0.999))
        lp = linprog(
            eigs, A_eq=np.ones((1, N)), b_eq=[total], bounds=[(0.0, omega)] * N, method="highs"
        )
        assert lp.status == 0
        worst = max(worst, abs(min_weighted_sum(eigs, omega, total) - lp.fun))
    assert worst <= 1e-10
    report(f"criterion 7: bracket minimum matches the LP oracle, 500 instances (worst {worst:.2e})")


def test_criterion_08_sharpness_witness():
    worst = 0.0
    for n, p in [(4, 2), (6, 3), (8, 3)]:
        mu = [math.sqrt((n - p) / (n * p))] * p + [-math.sqrt(p / ((n - p) * n))] * (n - p)
        S = np.diag(mu)
        w = PForm.wedge(n, tuple(range(p)))
        target = p * (n - p) / n * float(np.sum(S * S)) * w.norm_sq
        worst = max(worst, abs(act_sym_on_form(S, w).norm_sq - target) / target)
    assert worst <= 1e-12
    report(f"criterion 8: sharp witness attains the weight bound (worst {worst:.2e})")


def test_criterion_10_estimate_soundness():
    rng = np.random.default_rng(110)
    worst = -np.inf
    for n in range(4, N_MAX + 1):
        for _ in range(DRAWS):
            einstein = Analysis(make_einstein(random_curvature(n, rng)))
            worst = max(worst, *estimate_slacks(einstein, ("weak", "improved", "einstein")))
    assert worst <= TOLS["estimate soundness on random curvature"]
    report(
        "criterion 10: all four curvature-term bounds are sound on Einstein inputs, "
        f"{DRAWS} draws per n in 4..{N_MAX} (worst slack {worst:.2e})"
    )


def test_criterion_11_constants():
    worst = 0.0
    closed = {
        2: lambda n: (3 * n / 4) * (n**2 - 4) / (n**2 - 1.5 * n - 2),
        4: lambda n: n * (n**2 - 2 * n - 8) / (n**2 - 11 * n / 3 - 8 / 3),
        5: lambda n: (15 * n / 14) * (n**2 - 3 * n - 10) / (n**2 - 33 * n / 7 - 20 / 7),
    }
    for p, formula in closed.items():
        for n in range(2 * p, 41):
            worst = max(worst, abs(constants(n, p).c_p - formula(n)) / formula(n))
    assert worst <= 1e-12
    for n in range(4, 61):
        series = [constants(n, p).c_p for p in range(1, n // 2 + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
        if n % 2 == 0:
            c = constants(n, n // 2)
            assert abs(c.c_p - c.n_einstein) <= 1e-12 * c.c_p
    integer_hits = [
        n for n in range(3, 1001) if abs((v := 1.5 * n * (n + 2) / (n + 4)) - round(v)) < 1e-9
    ]
    assert integer_hits == [8]
    for n in range(4, 30):
        for p in range(1, n // 2 + 1):
            c = constants(n, p)
            assert c.omega_gap == 2 * (n - 2 * p) / (n * (n + 2))
            assert abs((c.omega_weak - c.omega_improved) - c.omega_gap) <= 1e-15
    report(
        "criterion 11: closed forms for C_2/C_4/C_5, monotonicity, midpoint value, "
        f"integrality only at n=8, highest-weight gap (worst {worst:.2e})"
    )


def test_criterion_12_negative_ricci_construction():
    n = 14
    base = product_sphere(n)
    base_eigs = spectrum(second_kind_matrix(base))
    found = None
    for j in range(1, 40):
        kappa = -0.001 * j
        shifted = base_eigs + kappa  # second-kind spectrum shifts by kappa
        r11 = (n - 1) * kappa
        if k_partial_sum(shifted, n + 1.0) > 0 and r11 < 0:
            found = kappa
    assert found is not None
    R = perturb_constant(base, found)
    eigs = spectrum(second_kind_matrix(R))
    assert np.abs(eigs - (base_eigs + found)).max() <= 1e-10
    assert k_partial_sum(eigs, n + 1.0) > 0
    s = ricci_scalar(R)
    assert s.ricci[0, 0] < 0
    c5 = constants(n, 5).c_p
    assert c5 >= 15.0
    report(
        f"criterion 12: kappa={found} gives an (n+1)-positive operator with R_11 = "
        f"{s.ricci[0, 0]:.4f} < 0 at n=14; C_5(14) = {c5:.3f} >= 15"
    )


def test_criterion_13_theorem_a_consistency():
    rng = np.random.default_rng(113)
    inputs = [
        constant_curvature(4, 1.0),
        constant_curvature(5, 0.3),
        constant_curvature(5, 0.0),
        perturb_constant(su3_so3(), 1.5),
    ]
    for n in (4, 5):
        for _ in range(10):
            R = random_curvature(n, rng)
            eigs = spectrum(second_kind_matrix(R))
            f0 = k_partial_sum(eigs, (n + 2) / 2)
            for margin in (0.0, 0.05):
                shift = -f0 / ((n + 2) / 2) + margin
                inputs.append(perturb_constant(R, shift))
    checked = 0
    worst = 0.0
    for a in map(Analysis, inputs):
        n, eigs = a.n, a.second_kind
        radius = float(np.abs(eigs).max(initial=0.0))
        if k_partial_sum(eigs, (n + 2) / 2) < -1e-10 * radius:
            continue
        checked += 1
        for p in range(1, n):
            low = float(spectrum(ric_l_matrix(a, p))[0])
            assert low >= -1e-9, (n, p, low)
            worst = min(worst, low)
    assert checked >= len(inputs) - 2
    report(
        f"criterion 13: on {checked} inputs passing the (n+2)/2-nonnegativity check, "
        f"every Ric_L matrix is positive semidefinite (worst min eigenvalue {worst:.2e})"
    )


def test_criterion_14_manifold_conclusions_stay_symbolic():
    # Theorem-level conclusions are text only: the estimate hypothesis
    # certificate carries no computed Betti bound, merely the checked sums.
    certs = certify(Analysis(product_sphere(5)), kappa=-1.0)
    d = next(c for c in certs if c.theorem == "D-hypothesis")
    assert set(d.sums) == {"order", "partial_sum", "required", "kappa"}
    assert "binomial" in d.conclusion
    for c in certs:
        assert isinstance(c.conclusion, str)
    report(
        "criterion 14: manifold-level conclusions are reported as text; "
        "only eigenvalue-sum hypotheses are computed (covered by criteria 7-13)"
    )
