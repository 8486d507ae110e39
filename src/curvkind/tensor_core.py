"""Euclidean scaffolding: multi-indices, p-forms, symmetric 2-tensors and
algebraic curvature tensors.

Everything lives on R^n with the standard inner product and orthonormal
basis e_1, ..., e_n (0-based in code, 1-based in prose).  The inner product
on (0,k)-tensors is the componentwise one, so a p-form stored on strictly
increasing multi-indices has |w|^2 = p! * sum of squared stored coefficients.

Sign convention for curvature: the unit round sphere is
R_{ijkl} = d_{ik} d_{jl} - d_{il} d_{jk}, and Ric_{ij} = sum_k R_{ikjk}.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
import math
import os

import numpy as np

from .errors import CurvatureSymmetryError, DimensionMismatch, ShapeMismatch
from .tolerance import SYMMETRY, peak

DEFAULT_DIMENSION_CAP = 12


def dimension_cap():
    """Soft upper bound on n, overridable via CURVKIND_NMAX."""
    value = os.environ.get("CURVKIND_NMAX", DEFAULT_DIMENSION_CAP)
    try:
        return int(value)
    except ValueError:
        raise ShapeMismatch(f"CURVKIND_NMAX must be an integer, got {value!r}") from None


def check_dimension(n):
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ShapeMismatch(f"dimension must be an integer >= 2, got {n!r}")
    return int(n)


def read_only(x, dtype=None):
    """x as an array of the given dtype (its own by default), made read-only:
    the form every cached table and every shared array takes.  x is not
    copied when it already has that dtype."""
    x = np.asarray(x, dtype=dtype)
    x.flags.writeable = False
    return x


def s02_dimension(n):
    """dim of trace-free symmetric 2-tensors: (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


@lru_cache(maxsize=None)
def multi_indices(n, p):
    """All strictly increasing p-tuples from {0, ..., n-1}, sorted."""
    if p < 0 or p > n:
        raise ShapeMismatch(f"need 0 <= p <= n, got p={p}, n={n}")
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def multi_index_array(n, p):
    """multi_indices(n, p) as a read-only integer array of shape (C(n,p), p),
    stored column by column: each column idx[:, m], and so each row of
    idx.T (for p = 2 the pairs i < j as i, j = idx.T), is a contiguous index
    array."""
    idx = np.array(multi_indices(n, p), dtype=np.intp).reshape(math.comb(n, p), p)
    return read_only(np.asfortranarray(idx))


def sort_with_sign(idx):
    """Sort an index tuple, tracking permutation parity.

    Returns (sign, sorted_tuple); sign is (-1)^(number of inversions), and 0
    when the tuple has a repeated entry (the corresponding alternating
    coefficient vanishes).
    """
    seq = tuple(idx)
    if len(set(seq)) < len(seq):
        return 0, None
    inversions = sum(1 for a, b in combinations(seq, 2) if a > b)
    return 1 - 2 * (inversions % 2), tuple(sorted(seq))


@lru_cache(maxsize=None)
def _signed_permutations(p):
    """The permutations of range(p) with their parities, as read-only int8
    arrays (perms, signs) of shapes (p!, p) and (p!,)."""
    perms = np.array(list(permutations(range(p))), dtype=np.int8).reshape(math.factorial(p), p)
    a, b = np.triu_indices(p, 1)
    # (-1)^(number of inversions), as in sort_with_sign
    signs = 1 - 2 * ((perms[:, a] > perms[:, b]).sum(axis=1) % 2)
    return read_only(perms), read_only(signs, np.int8)


@lru_cache(maxsize=None)
def _dense_positions(n, p):
    """Where PForm.to_dense puts each coefficient: a read-only array of shape
    (C(n,p), p!) whose [k, s] is the flat index in the n^p dense form of the
    k-th sorted p-tuple permuted by the s-th signed permutation.  It has
    C(n,p) p! <= n^p entries, fewer than the dense form it fills."""
    idx = multi_index_array(n, p)
    perms, _ = _signed_permutations(p)
    at = np.zeros((len(idx), len(perms)), dtype=np.intp)
    for m in range(p):
        at = at * n + idx[:, perms[:, m]]
    return read_only(at)


@dataclass(frozen=True)
class PForm:
    """Alternating (0,p)-tensor stored on strictly increasing multi-indices.

    coeffs[k] is the component on multi_indices(n, p)[k]; the full
    antisymmetric extension is implied.  |w|^2 = p! * sum(coeffs**2).
    """

    n: int
    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        n, p = check_dimension(self.n), self.p
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not 0 <= p <= n:
            raise ShapeMismatch(f"p-form degree must be an integer 0 <= p <= {n}, got {p!r}")
        expected = math.comb(n, p)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (expected,):
            raise ShapeMismatch(
                f"p-form on n={self.n}, p={self.p} needs {expected} coefficients,"
                f" got shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ShapeMismatch("p-form has a non-finite coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def norm_sq(self):
        return math.factorial(self.p) * float(np.dot(self.coeffs, self.coeffs))

    def inner(self, other):
        """Tensor inner product <w, h> = p! * sum over sorted indices."""
        if (self.n, self.p) != (other.n, other.p):
            raise DimensionMismatch("forms live on different spaces")
        return math.factorial(self.p) * float(np.dot(self.coeffs, other.coeffs))

    def to_dense(self):
        """Full n^p component array of the antisymmetric extension, one
        scatter through the cached positions _dense_positions(n, p); entries
        with a repeated index or a zero coefficient are +0.0."""
        n, p = self.n, self.p
        at = _dense_positions(n, p)
        _, signs = _signed_permutations(p)
        dense = np.zeros(n**p)
        # adding 0.0 turns the -0.0 of a negated zero into +0.0
        dense[at] = self.coeffs[:, None] * signs + 0.0
        return dense.reshape((n,) * p)

    @classmethod
    def wedge(cls, n, idx):
        """e^{i_1} ^ ... ^ e^{i_p} (coefficient 1 on the sorted tuple idx)."""
        p = len(idx)
        sign, sidx = sort_with_sign(tuple(idx))
        if sign == 0:
            raise ShapeMismatch(f"repeated index in wedge {idx}")
        coeffs = np.zeros(math.comb(n, p))
        coeffs[multi_indices(n, p).index(sidx)] = sign
        return cls(n, p, coeffs)

    @classmethod
    def unit_wedge(cls, n, idx):
        """Unit-norm wedge basis element: wedge(idx) / sqrt(p!)."""
        w = cls.wedge(n, idx)
        return cls(n, w.p, w.coeffs / math.sqrt(math.factorial(w.p)))

    @classmethod
    def random(cls, n, p, rng):
        return cls(n, p, rng.standard_normal(math.comb(n, p)))


# ---------------------------------------------------------------------------
# symmetric 2-tensors


def require_square(S, n=None):
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {S.shape}")
    if n is not None and S.shape[0] != n:
        raise DimensionMismatch(f"expected dimension {n}, got {S.shape[0]}")
    return S


def trace_free_project(S):
    """Orthogonal projection S -> S - (tr S / n) g onto trace-free tensors."""
    S = require_square(S)
    n = S.shape[0]
    return S - (np.trace(S) / n) * np.eye(n)


@lru_cache(maxsize=None)
def canonical_s02_basis(n):
    """Orthonormal basis of trace-free symmetric 2-tensors, shape (N, n, n),
    read-only and cached.

    First the (e^i x e^j + e^j x e^i)/sqrt(2) for i < j, then for
    k = 1, ..., n-1 the diagonal tensors

        (-(n-k) e^k x e^k + sum_{l>k} e^l x e^l) / sqrt((n-k+1)(n-k)).

    Pairwise orthonormal under <A, B> = sum_{ij} A_{ij} B_{ij}, each
    trace-free; N = (n-1)(n+2)/2.
    """
    n = check_dimension(n)
    out = np.zeros((s02_dimension(n), n, n))
    i, j = multi_index_array(n, 2).T
    pair = np.arange(len(i))
    out[pair, i, j] = out[pair, j, i] = 1.0 / math.sqrt(2.0)
    k, l = np.arange(n - 1), np.arange(n)
    m = n - (k + 1)  # number of trailing +1 entries
    norm = np.sqrt((m + 1) * m)
    diag = np.where(l > k[:, None], 1.0 / norm[:, None], 0.0)
    diag[k, k] = -m / norm
    out[len(i) :, l, l] = diag
    return read_only(out)


def random_trace_free(n, rng):
    """Random trace-free symmetric matrix with unit Frobenius norm."""
    A = rng.standard_normal((n, n))
    S = trace_free_project(A + A.T)
    return S / np.linalg.norm(S)


# ---------------------------------------------------------------------------
# algebraic curvature tensors


@dataclass(frozen=True)
class CurvatureTensor:
    """Dense (0,4)-tensor R_{ijkl} with the algebraic curvature symmetries.

    Construction validates nothing; call validate() (or build through the
    model constructors) before trusting an instance.  Invalid input is
    rejected by validate(), never silently symmetrized.
    """

    n: int
    components: np.ndarray

    def __post_init__(self):
        n = check_dimension(self.n)
        R = np.asarray(self.components, dtype=float)
        if R.size != n**4:
            raise ShapeMismatch(
                f"curvature tensor on n={n} needs {n**4} components, got {R.size}"
            )
        if not np.isfinite(R).all():
            raise ShapeMismatch("curvature tensor has a non-finite component")
        object.__setattr__(self, "components", R.reshape((n, n, n, n)))

    def validate(self):
        validate_curvature(self)
        return self

    def __add__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("curvature tensors on different dimensions")
        return CurvatureTensor(self.n, self.components + other.components)

    def __mul__(self, scalar):
        return CurvatureTensor(self.n, self.components * float(scalar))

    __rmul__ = __mul__


def curvature_symmetry_report(R):
    """Worst residual of each curvature identity, with offending indices.

    Returns a dict with keys 'antisymmetry_first', 'antisymmetry_second',
    'pair_symmetry', 'first_bianchi'; each value is (residual, (i,j,k,l)).
    """
    A = R.components
    checks = {
        "antisymmetry_first": A + np.transpose(A, (1, 0, 2, 3)),
        "antisymmetry_second": A + np.transpose(A, (0, 1, 3, 2)),
        "pair_symmetry": A - np.transpose(A, (2, 3, 0, 1)),
        "first_bianchi": A + np.transpose(A, (1, 2, 0, 3)) + np.transpose(A, (2, 0, 1, 3)),
    }
    report = {}
    for name, res in checks.items():
        flat = np.abs(res)
        worst = np.unravel_index(int(np.argmax(flat)), flat.shape)
        report[name] = (float(flat[worst]), tuple(int(q) for q in worst))
    return report


def validate_curvature(R):
    """Raise CurvatureSymmetryError unless R has all curvature symmetries.

    The tolerance is 1e-12 * max|R| (exact-arithmetic constructions stay far
    below it; genuinely broken tensors are rejected, not repaired).
    """
    tol = SYMMETRY * peak(R.components)
    report = curvature_symmetry_report(R)
    worst_name = max(report, key=lambda k: report[k][0])
    worst_res, worst_idx = report[worst_name]
    if worst_res > tol:
        raise CurvatureSymmetryError(
            f"{worst_name} violated: residual {worst_res:.3e} at indices "
            f"{tuple(q + 1 for q in worst_idx)} (1-based), tolerance {tol:.3e}",
            report=report,
        )
    return report


def rotate_curvature(R, Q):
    """Components of R in the rotated orthonormal frame f_i = sum_a Q_{ai} e_a."""
    Q = require_square(Q, n=R.n)
    Rr = np.einsum("abcd,ai,bj,ck,dl->ijkl", R.components, Q, Q, Q, Q, optimize=True)
    return CurvatureTensor(R.n, Rr)


def kulkarni_nomizu(h, k):
    """Kulkarni-Nomizu product of symmetric matrices,

        (h o k)_{ijkl} = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il.

    g o g / 2 is the unit-sphere tensor.
    """
    h = require_square(h)
    k = require_square(k, n=h.shape[0])
    # A[i, j, k, l] = h_ik k_jl; the other three terms are transposes of it
    A = np.einsum("ik,jl->ijkl", h, k)
    R = A + A.transpose(1, 0, 3, 2) - A.transpose(0, 1, 3, 2) - A.transpose(1, 0, 2, 3)
    return CurvatureTensor(h.shape[0], R)
