"""Weighted eigenvalue-sum calculus and vanishing-theorem certificates.

An operator with ascending eigenvalues l_1 <= ... <= l_N is k-nonnegative
when l_1 + ... + l_floor(k) + (k - floor(k)) l_{floor(k)+1} >= 0.  The
bracket of a highest weight W and total weight S is realized here as the
exact minimum of sum w_i l_i over the polytope {0 <= w_i <= W, sum w_i = S};
it has the closed form (S - m W) l_{m+1} + W sum_{i<=m} l_i with
m = floor(S/W), i.e. W * k_partial_sum(S/W).  `_bracket` computes it on an
ascending spectrum such as operators.Analysis.second_kind; every bound and
certificate here reads it, and only k_partial_sum, min_weighted_sum and
k_positivity_profile sort and check their input, through _ascending.

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
    ShapeMismatch,
    VariantPreconditionFailed,
)
from .tensor_core import is_degree
from .tolerance import CAPACITY, NONNEGATIVE, POSITIVE, peak


def _bracket(ascending, omega, total):
    """omega * (l_1 + ... + l_m) + (total - m omega) l_{m+1} with
    m = min(floor(total/omega), N): the bracket minimum on eigenvalues that
    are already ascending.  Nothing is sorted or checked; the caller keeps
    omega > 0 and 0 <= total <= omega N."""
    m = min(int(math.floor(total / omega)), len(ascending))
    value = omega * float(ascending[:m].sum())
    if m < len(ascending):
        value += (total - m * omega) * float(ascending[m])
    return value


def _ascending(eigenvalues):
    """The eigenvalues as an ascending float array; a NaN or an infinity
    raises ShapeMismatch, since no partial sum or order is defined on it."""
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    if not np.isfinite(eigs).all():
        raise ShapeMismatch("spectrum has a non-finite eigenvalue")
    return eigs


def k_partial_sum(eigenvalues, k):
    """l_1 + ... + l_floor(k) + (k - floor(k)) l_{floor(k)+1} for 1 <= k <= N."""
    eigs = _ascending(eigenvalues)
    if not 1.0 <= k <= len(eigs):
        raise KOutOfRange(f"need 1 <= k <= {len(eigs)}, got k={k}")
    return float(_bracket(eigs, 1.0, k))


def min_weighted_sum(eigenvalues, omega, total):
    """Exact minimum of sum w_i l_i over {0 <= w_i <= omega, sum w_i = total}.

    Closed form: put weight omega on the m = floor(total/omega) smallest
    eigenvalues and the remainder on the next one.
    """
    if omega <= 0:
        raise InfeasibleWeights(f"highest weight must be positive, got {omega}")
    if total < 0:
        raise InfeasibleWeights(f"total weight must be nonnegative, got {total}")
    # a NaN passes both checks above, and an infinite omega brackets inf * 0
    if not math.isfinite(omega) or math.isnan(total):
        raise InfeasibleWeights(f"weights must be finite, got omega={omega}, total={total}")
    eigs = _ascending(eigenvalues)
    N = len(eigs)
    if total > omega * N * (1.0 + CAPACITY):
        raise InfeasibleWeights(
            f"total weight {total} exceeds capacity {omega * N} of {N} eigenvalues"
        )
    return _bracket(eigs, omega, total)


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


def constants(n, p):
    """Thresholds for degree p on dimension n (1 <= p <= n/2).

    c_p = 3/2 * n(n+2) p(n-p) / (n^2 p - n p^2 - 2np + 2n^2 + 2n - 4p); the
    Einstein threshold is 3n/2 * (n+2)/(n+4).
    """
    if not (is_degree(p) and 1 <= p and 2 * p <= n):
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
    )


def ricci_lower_bounds(analysis, p):
    """Certified lower bounds on any p-frame Ricci sum sum_{i<=p} Ric_ii of an
    operators.Analysis, keyed by variant in sorted order.

    weak:     p = 1: min(1, n-1);  p >= 2: min(2, p(n-1))
    improved: p = 1: (n-1)/(n+1) * min(1, n) + scal / (n(n+1))
              p >= 2: (n-p+1)/(n-p+2) * min(2, p(n-1)) + p scal / (n(n-p+2))

    with min(W, S) the bracket minimum of the second-kind spectrum.  A degree
    outside 1 <= p <= n raises POutOfRange.
    """
    n, eigs, scal = analysis.n, analysis.second_kind, analysis.summary.scalar
    if not (is_degree(p) and 1 <= p <= n):
        raise POutOfRange(f"need integer 1 <= p <= n, got p={p}, n={n}")
    # a numpy integer p would make every bound a numpy float
    p = int(p)
    if p == 1:
        improved = (n - 1.0) / (n + 1.0) * _bracket(eigs, 1.0, float(n)) + scal / (n * (n + 1.0))
        return {"improved": improved, "weak": _bracket(eigs, 1.0, n - 1.0)}
    weak = _bracket(eigs, 2.0, p * (n - 1.0))
    improved = (n - p + 1.0) / (n - p + 2.0) * weak + p * scal / (n * (n - p + 2.0))
    return {"improved": improved, "weak": weak}


def ric_l_lower_bounds(analysis, p):
    """Every certified L with g(Ric_L w, w) >= L |w|^2 for all p-forms that
    applies to an operators.Analysis, keyed by variant in sorted order:
    improved and weak always, one_form at p = 1, einstein on Einstein input.

    Each is a prefactor times the bracket minimum of the second-kind spectrum
    at (W, S).  A degree outside 1 <= p <= n/2 raises POutOfRange (constants).
    """
    c = constants(analysis.n, p)
    n, p = c.n, c.p
    brackets = {
        "improved": (2.0 / 3.0, c.omega_improved, c.total),
        "weak": (2.0 / 3.0, c.omega_weak, c.total),
    }
    if p == 1:
        brackets["one_form"] = (2.0 / 3.0, (2.0 * n - 1.0) / (n + 2.0), 1.5 * (n - 1.0))
    if analysis.summary.is_einstein():
        brackets["einstein"] = ((2.0 / 3.0) * (p * (n - p) / n), (n + 4.0) / (n + 2.0), 1.5 * n)
    return {
        variant: factor * _bracket(analysis.second_kind, omega, total)
        for variant, (factor, omega, total) in sorted(brackets.items())
    }


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
    """value > 1e-12 * radius; the one comparison of every positivity verdict."""
    return value > POSITIVE * radius


def _nonnegative(value, radius, floor=0.0):
    """value >= floor up to 1e-10 * radius; the one comparison of every
    nonnegativity verdict, the estimate hypothesis D's included."""
    return value >= floor - NONNEGATIVE * radius


def _first_orders(ascending, radius):
    """The first integer orders k <= N whose partial sum of the ascending
    eigenvalues is > 1e-12 * radius ('positive') and >= -1e-10 * radius
    ('nonnegative'), each None if no k qualifies: one cumulative sum, read by
    the k-profile and by every (b) certificate."""
    sums = np.cumsum(ascending)
    hits = {"positive": _positive(sums, radius), "nonnegative": _nonnegative(sums, radius)}
    return {key: int(np.argmax(hit)) + 1 if hit.any() else None for key, hit in hits.items()}


def _nonnegative_below(order, N, first_nonnegative, partial_sum, radius):
    """Whether some order k' in [1, min(order, N)) has a nonnegative partial
    sum f(k'), given the first nonnegative integer order and f(order).

    f is linear between consecutive integers, so over that half-open range
    it is largest at an integer or just below the end C = min(order, N),
    where it approaches f(C) = f(order) without reaching it: that limit
    counts only when it is positive.
    """
    end = min(order, N)
    below = first_nonnegative is not None and first_nonnegative < end
    return end > 1 and (below or _positive(partial_sum, radius))


def k_positivity_profile(eigenvalues):
    """Smallest integer orders of positivity and nonnegativity: the smallest
    integer k whose partial sum of the ascending eigenvalues is > 1e-12 *
    radius (resp. >= -1e-10 * radius); None if no k <= N qualifies.  certify's
    (b) checks read the same scan, _first_orders.

    The positive predicate is monotone in k: once a partial sum is positive,
    every later eigenvalue is too.  The nonnegative one is not, under its
    floor: for [-0.6e-10, -0.6e-10, 1] it holds at k = 1, fails at k = 2
    (-1.2e-10) and holds again at k = 3, and the profile reads
    {'positive': 3, 'nonnegative': 1}.
    """
    eigs = _ascending(eigenvalues)
    return _first_orders(eigs, peak(eigs))


def certify(analysis, kappa=None):
    """Run every hypothesis check on the second-kind spectrum of an
    operators.Analysis.

    Returns a list of Certificates: the full vanishing check A at order
    (n+2)/2, its 3-nonnegativity corollary, the Einstein refinements B(a-c)
    when the input is Einstein, the per-degree checks C(a-c) for every
    p <= n/2, and (when kappa is supplied) the estimate hypothesis D, which
    reads A's partial sum.

    Every comparison is relative to the spectral radius of the second-kind
    spectrum, so 2^e R (with 2^e kappa) has the verdicts of R; A concludes
    "flat" only when that radius is 0, i.e. R = 0.
    """
    if kappa is not None and kappa > 0:
        raise VariantPreconditionFailed(f"hypothesis is stated for kappa <= 0, got {kappa}")
    n, eigs = analysis.n, analysis.second_kind
    radius = peak(eigs)
    first_nonnegative = _first_orders(eigs, radius)["nonnegative"]
    out = []

    def check(theorem, holds, conclusion, sums, p=None):
        out.append(Certificate(theorem, "holds" if holds else "fails", conclusion, sums, p))

    def at(order):
        return {"order": order, "partial_sum": _bracket(eigs, 1.0, order)}

    def three(theorem, order, conclusions, p=None):
        """(a) positive at the order, (b) nonnegative below it, (c) nonnegative at it."""
        sums = at(order)
        total = sums["partial_sum"]
        positive, below, nonnegative = conclusions
        check(f"{theorem}(a)", _positive(total, radius), positive, sums, p)
        below_holds = _nonnegative_below(order, len(eigs), first_nonnegative, total, radius)
        check(f"{theorem}(b)", below_holds, below, {"order_upper": order}, p)
        check(f"{theorem}(c)", _nonnegative(total, radius), nonnegative, dict(sums), p)

    sphere = "either flat or a rational homology sphere"
    a = at((n + 2) / 2)
    holds = _nonnegative(a["partial_sum"], radius)
    flat = holds and radius == 0.0
    check("A", holds, "flat (zero curvature); hypothesis holds trivially" if flat else sphere, a)
    if n >= 4:
        sums = at(3.0)
        corollary = "either flat or diffeomorphic to a spherical space form"
        check("A-corollary", _nonnegative(sums["partial_sum"], radius), corollary, sums)
    if analysis.summary.is_einstein():
        b = ("rational homology sphere", sphere, "all harmonic forms parallel")
        three("B", constants(n, 1).n_einstein, b)
    for p in range(1, n // 2 + 1):
        c = (f"b_{p} vanishes", f"b_{p} vanishes unless flat", f"harmonic {p}-forms parallel")
        three("C", constants(n, p).c_p, c, p)
    if kappa is not None:
        required = (n + 2) / 2 * kappa
        check(
            "D-hypothesis",
            _nonnegative(a["partial_sum"], radius, required),
            "Betti numbers bounded by binomial(n, p) times an "
            "unspecified diameter-dependent factor",
            {**a, "required": required, "kappa": kappa},
        )
    return out
