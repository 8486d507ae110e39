"""Weighted eigenvalue-sum calculus and vanishing-theorem certificates.

An operator with ascending eigenvalues l_1 <= ... <= l_N is k-nonnegative
when l_1 + ... + l_floor(k) + (k - floor(k)) l_{floor(k)+1} >= 0.  The
bracket of a highest weight W and total weight S is realized here as the
exact minimum of sum w_i l_i over the polytope {0 <= w_i <= W, sum w_i = S};
it has the closed form (S - m W) l_{m+1} + W sum_{i<=m} l_i with
m = floor(S/W), i.e. W * k_partial_sum(S/W).

The certified lower bounds for the curvature term on p-forms (p <= n/2) are
2/3 of the bracket minimum with

  weak:     W = (n^2 p - n p^2 - 2np + 2n^2 + 4n - 8p) / (n(n+2)), S = 3/2 p(n-p)
  improved: W = (n^2 p - n p^2 - 2np + 2n^2 + 2n - 4p) / (n(n+2)), S = 3/2 p(n-p)
  one_form: W = (2n-1)/(n+2),  S = 3(n-1)/2          (p = 1 only)
  einstein: prefactor p(n-p)/n, W = (n+4)/(n+2), S = 3n/2  (Einstein input)

and C_p = S / W_improved is the positivity threshold below which the p-th
Betti-number certificate applies.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    InfeasibleWeights,
    KOutOfRange,
    POutOfRange,
    VariantPreconditionFailed,
)
from .operators import ricci_scalar, second_kind_matrix, spectrum


def k_partial_sum(eigenvalues, k):
    """l_1 + ... + l_floor(k) + (k - floor(k)) l_{floor(k)+1} for 1 <= k <= N."""
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    N = len(eigs)
    if not 1.0 <= k <= N:
        raise KOutOfRange(f"need 1 <= k <= {N}, got k={k}")
    m = int(math.floor(k))
    if m == N:
        return float(eigs.sum())
    return float(eigs[:m].sum() + (k - m) * eigs[m])


@dataclass(frozen=True)
class WeightBound:
    """Highest weight and total weight of a family of eigenvalue sums."""

    omega: float
    total: float

    def __post_init__(self):
        if self.omega <= 0:
            raise InfeasibleWeights(f"highest weight must be positive, got {self.omega}")
        if self.total < 0:
            raise InfeasibleWeights(f"total weight must be nonnegative, got {self.total}")

    def minimum(self, eigenvalues):
        return min_weighted_sum(eigenvalues, self.omega, self.total)


def min_weighted_sum(eigenvalues, omega, total):
    """Exact minimum of sum w_i l_i over {0 <= w_i <= omega, sum w_i = total}.

    Closed form: put weight omega on the m = floor(total/omega) smallest
    eigenvalues and the remainder on the next one.
    """
    WeightBound(omega, total)  # argument validation
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    N = len(eigs)
    if total > omega * N * (1.0 + 1e-12):
        raise InfeasibleWeights(
            f"total weight {total} exceeds capacity {omega * N} of {N} eigenvalues"
        )
    m = min(int(math.floor(total / omega)), N)
    value = omega * float(eigs[:m].sum())
    if m < N:
        value += (total - m * omega) * float(eigs[m])
    return value


def brute_force_min_weighted_sum(eigenvalues, omega, total):
    """Reference minimizer by greedy exchange over the sorted eigenvalues.

    Independent of the closed form above only in spirit; the genuinely
    independent check in the test suite is a linear-program solve.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    budget = total
    value = 0.0
    for lam in eigs:
        w = min(omega, budget)
        value += w * lam
        budget -= w
        if budget <= 0:
            break
    if budget > 1e-12 * max(1.0, total):
        raise InfeasibleWeights("weights do not fit")
    return value


@dataclass(frozen=True)
class Constants:
    """Per-(n, p) thresholds of the eigenvalue-sum conditions."""

    n: int
    p: int
    c_p: float
    total: float
    omega_improved: float
    omega_weak: float
    n_einstein: float
    threshold_full: float

    @property
    def omega_gap(self):
        """omega_weak - omega_improved = 2(n-2p)/(n(n+2)).

        Computed from the integer numerators so the identity is exact in
        floating point (direct subtraction of the two weights cancels)."""
        return (2 * self.n - 4 * self.p) / (self.n * (self.n + 2))


def constants(n, p):
    """Thresholds for degree p on dimension n (1 <= p <= n/2).

    c_p = 3/2 * n(n+2) p(n-p) / (n^2 p - n p^2 - 2np + 2n^2 + 2n - 4p); the
    Einstein threshold is 3n/2 * (n+2)/(n+4) and the all-degrees threshold
    is (n+2)/2.
    """
    if not (isinstance(p, (int, np.integer)) and 1 <= p and 2 * p <= n):
        raise POutOfRange(f"need integer 1 <= p <= n/2, got p={p}, n={n}")
    n, p = int(n), int(p)
    denom_improved = n**2 * p - n * p**2 - 2 * n * p + 2 * n**2 + 2 * n - 4 * p
    denom_weak = n**2 * p - n * p**2 - 2 * n * p + 2 * n**2 + 4 * n - 8 * p
    total = 1.5 * p * (n - p)
    return Constants(
        n=n,
        p=p,
        c_p=1.5 * n * (n + 2) * p * (n - p) / denom_improved,
        total=total,
        omega_improved=denom_improved / (n * (n + 2)),
        omega_weak=denom_weak / (n * (n + 2)),
        n_einstein=1.5 * n * (n + 2) / (n + 4),
        threshold_full=(n + 2) / 2,
    )


def ricci_lower_bound_weak(eigenvalues, n, p):
    """Certified lower bound on any p-frame Ricci sum sum_{i<=p} Ric_ii.

    p = 1 uses the bracket (1, n-1); p >= 2 uses (2, p(n-1)).
    """
    if p == 1:
        return min_weighted_sum(eigenvalues, 1.0, n - 1.0)
    return min_weighted_sum(eigenvalues, 2.0, p * (n - 1.0))


def ricci_lower_bound_improved(eigenvalues, scal, n, p):
    """Sharper p-frame Ricci bound mixing in the scalar curvature.

    p = 1:  (n-1)/(n+1) * min(1, n)      + scal / (n(n+1))
    p >= 2: (n-p+1)/(n-p+2) * min(2, p(n-1)) + p scal / (n(n-p+2)).
    """
    if p == 1:
        return (n - 1.0) / (n + 1.0) * min_weighted_sum(eigenvalues, 1.0, float(n)) + scal / (
            n * (n + 1.0)
        )
    return (n - p + 1.0) / (n - p + 2.0) * min_weighted_sum(
        eigenvalues, 2.0, p * (n - 1.0)
    ) + p * scal / (n * (n - p + 2.0))


RIC_L_VARIANTS = ("weak", "improved", "one_form", "einstein")


def ric_l_lower_bound(eigenvalues, summary, n, p, variant):
    """Certified L with g(Ric_L w, w) >= L |w|^2 for every p-form, p <= n/2."""
    if not 1 <= p <= n / 2:
        raise POutOfRange(f"bounds require 1 <= p <= n/2, got p={p}, n={n}")
    if variant == "weak" or variant == "improved":
        c = constants(n, p)
        omega = c.omega_weak if variant == "weak" else c.omega_improved
        return (2.0 / 3.0) * min_weighted_sum(eigenvalues, omega, c.total)
    if variant == "one_form":
        if p != 1:
            raise VariantPreconditionFailed("one_form variant is specific to p = 1")
        return (2.0 / 3.0) * min_weighted_sum(
            eigenvalues, (2.0 * n - 1.0) / (n + 2.0), 1.5 * (n - 1.0)
        )
    if variant == "einstein":
        if not summary.is_einstein():
            raise VariantPreconditionFailed(
                f"einstein variant needs Einstein input, defect {summary.einstein_defect:.3e}"
            )
        return (
            (2.0 / 3.0)
            * (p * (n - p) / n)
            * min_weighted_sum(eigenvalues, (n + 4.0) / (n + 2.0), 1.5 * n)
        )
    raise VariantPreconditionFailed(f"unknown variant {variant!r}; use {RIC_L_VARIANTS}")


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Outcome of one eigenvalue-sum hypothesis check.

    The verdict is reproducible from `sums` alone: every entry is a plain
    number that was compared against the recorded threshold.
    """

    theorem: str
    verdict: str
    conclusion: str
    sums: dict = field(default_factory=dict)
    p: int | None = None

    @property
    def holds(self):
        return self.verdict == "holds"


def _positive(value, radius):
    return value > 1e-12 * (1.0 + radius)


def _nonnegative(value, radius):
    return value >= -1e-10 * radius


def k_positivity_profile(eigenvalues):
    """Smallest integer orders of positivity and nonnegativity.

    Both predicates are monotone in k, so the smallest integer k with
    partial sum > 0 (resp. >= 0) summarizes the profile; None if no k <= N
    qualifies.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    radius = float(np.abs(eigs).max(initial=0.0))
    positive = nonnegative = None
    running = 0.0
    for m, lam in enumerate(eigs, start=1):
        running += lam
        if positive is None and _positive(running, radius):
            positive = m
        if nonnegative is None and _nonnegative(running, radius):
            nonnegative = m
        if positive is not None and nonnegative is not None:
            break
    return {"positive": positive, "nonnegative": nonnegative}


def _exists_below(eigs, threshold, radius):
    """Whether some k' < threshold has a nonnegative partial sum.

    The partial sum is piecewise linear in k, so it suffices to scan the
    integers below the threshold plus a point just under it.
    """
    N = len(eigs)
    grid = [float(k) for k in range(1, min(N, math.ceil(threshold)))]
    just_under = threshold * (1.0 - 1e-12)
    if 1.0 <= just_under <= N:
        grid.append(just_under)
    return any(_nonnegative(k_partial_sum(eigs, k), radius) for k in grid)


def certify(R, kappa=None, einstein_tol=None):
    """Run every hypothesis check on the second-kind spectrum of R.

    Returns a list of Certificates: the full vanishing check A at order
    (n+2)/2, its 3-nonnegativity corollary, the Einstein refinements B(a-c)
    when the input is Einstein, the per-degree checks C(a-c) for every
    p <= n/2, and (when kappa is supplied) the estimate hypothesis D.
    """
    eigs = spectrum(second_kind_matrix(R))
    return certify_spectrum(eigs, ricci_scalar(R), R.n, kappa, einstein_tol)


def certify_spectrum(eigenvalues, summary, n, kappa=None, einstein_tol=None):
    """certify from a second-kind spectrum and the CurvatureSummary of R.

    For callers that already hold both; certify(R) computes them and
    delegates here.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    radius = float(np.abs(eigs).max(initial=0.0))
    flat = radius <= 1e-12
    out = []

    threshold_a = (n + 2) / 2
    sum_a = k_partial_sum(eigs, threshold_a)
    out.append(
        Certificate(
            theorem="A",
            verdict="holds" if _nonnegative(sum_a, radius) else "fails",
            conclusion=(
                "flat (zero curvature); hypothesis holds trivially"
                if flat and _nonnegative(sum_a, radius)
                else "either flat or a rational homology sphere"
            ),
            sums={"order": threshold_a, "partial_sum": sum_a},
        )
    )

    if n >= 4:
        sum_cor = k_partial_sum(eigs, 3.0)
        out.append(
            Certificate(
                theorem="A-corollary",
                verdict="holds" if _nonnegative(sum_cor, radius) else "fails",
                conclusion="either flat or diffeomorphic to a spherical space form",
                sums={"order": 3.0, "partial_sum": sum_cor},
            )
        )

    if summary.is_einstein(einstein_tol):
        N_e = constants(n, 1).n_einstein
        sum_b = k_partial_sum(eigs, N_e)
        out.append(
            Certificate(
                theorem="B(a)",
                verdict="holds" if _positive(sum_b, radius) else "fails",
                conclusion="rational homology sphere",
                sums={"order": N_e, "partial_sum": sum_b},
            )
        )
        out.append(
            Certificate(
                theorem="B(b)",
                verdict="holds" if _exists_below(eigs, N_e, radius) else "fails",
                conclusion="either flat or a rational homology sphere",
                sums={"order_upper": N_e},
            )
        )
        out.append(
            Certificate(
                theorem="B(c)",
                verdict="holds" if _nonnegative(sum_b, radius) else "fails",
                conclusion="all harmonic forms parallel",
                sums={"order": N_e, "partial_sum": sum_b},
            )
        )

    for p in range(1, n // 2 + 1):
        c_p = constants(n, p).c_p
        sum_c = k_partial_sum(eigs, c_p)
        out.append(
            Certificate(
                theorem="C(a)",
                verdict="holds" if _positive(sum_c, radius) else "fails",
                conclusion=f"b_{p} vanishes",
                sums={"order": c_p, "partial_sum": sum_c},
                p=p,
            )
        )
        out.append(
            Certificate(
                theorem="C(b)",
                verdict="holds" if _exists_below(eigs, c_p, radius) else "fails",
                conclusion=f"b_{p} vanishes unless flat",
                sums={"order_upper": c_p},
                p=p,
            )
        )
        out.append(
            Certificate(
                theorem="C(c)",
                verdict="holds" if _nonnegative(sum_c, radius) else "fails",
                conclusion=f"harmonic {p}-forms parallel",
                sums={"order": c_p, "partial_sum": sum_c},
                p=p,
            )
        )

    if kappa is not None:
        holds = theorem_d_hypothesis(eigs, n, kappa)
        sum_d = k_partial_sum(eigs, (n + 2) / 2)
        out.append(
            Certificate(
                theorem="D-hypothesis",
                verdict="holds" if holds else "fails",
                conclusion=(
                    "Betti numbers bounded by binomial(n, p) times an "
                    "unspecified diameter-dependent factor"
                ),
                sums={
                    "order": (n + 2) / 2,
                    "partial_sum": sum_d,
                    "required": (n + 2) / 2 * kappa,
                    "kappa": kappa,
                },
            )
        )
    return out


def theorem_d_hypothesis(eigenvalues, n, kappa):
    """Whether the (n+2)/2 partial sum clears (n+2)/2 * kappa (kappa <= 0).

    Only the hypothesis is evaluated; the estimate's constant is not
    computed (it is never made explicit).
    """
    if kappa > 0:
        raise VariantPreconditionFailed(f"hypothesis is stated for kappa <= 0, got {kappa}")
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    radius = float(np.abs(eigs).max(initial=0.0))
    value = k_partial_sum(eigs, (n + 2) / 2)
    return value >= (n + 2) / 2 * kappa - 1e-10 * radius
