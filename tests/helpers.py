"""Shared test utilities."""

from itertools import permutations
import math

import numpy as np

from curvkind import (
    act_sym_dense,
    canonical_s02_basis,
    first_kind_matrix,
    kulkarni_nomizu,
    multi_indices,
    ricci_scalar,
    second_kind_matrix,
    sort_with_sign,
    sym_inner,
)
from curvkind.bochner import _slot_table
from curvkind.operators import _gram_against


def make_einstein(R):
    """Remove the trace-free Ricci part so the result is Einstein.

    Subtracting (ric0 o g)/(n-2) shifts Ric by -ric0 and leaves the scalar
    curvature unchanged; needs n >= 3.
    """
    s = ricci_scalar(R)
    ric0 = s.ricci - (s.scalar / R.n) * np.eye(R.n)
    return R + kulkarni_nomizu(ric0, np.eye(R.n)) * (-1.0 / (R.n - 2))


def random_symmetric(n, rng):
    A = rng.standard_normal((n, n))
    return A + A.T


def to_dense_by_permutations(w):
    """The n^p dense form of w, one assignment per signed permutation of
    each sorted tuple with a nonzero coefficient: an oracle for
    PForm.to_dense, which scatters blocks of permutations."""
    dense = np.zeros((w.n,) * w.p)
    for pos, idx in enumerate(multi_indices(w.n, w.p)):
        c = w.coeffs[pos]
        if c == 0.0:
            continue
        for perm in permutations(range(w.p)):
            sign, _ = sort_with_sign(perm)
            dense[tuple(idx[q] for q in perm)] = sign * c
    return dense


def form_two_point_dense(w):
    """W_jk = sum over i_2..i_p of w_{j i_2..} w_{k i_2..}, contracted on the
    dense form: an oracle for form_two_point, which reads the wedge tables."""
    if w.p == 0:
        return np.zeros((w.n, w.n))
    flat = to_dense_by_permutations(w).reshape(w.n, -1)
    return flat @ flat.T


def ric_l_by_derivations(R, p):
    """Ric_L = -sum_ab F_ab D_a D_b over the sorted basis of p-forms.

    F = first_kind_matrix(R) and D_a is the action of the 2-form e_i ^ e_j,
    a = (i < j), through the slot table: p(n-p) nonzeros per row,
    (D_b w)_I = coef * w[col].  An oracle for ric_l_matrix, which sums the
    Weitzenboeck form through (p-1)- and (p-2)-forms instead.
    """
    n = R.n
    F = first_kind_matrix(R)
    count = math.comb(n, p)
    width = p * (n - p)
    if width == 0:
        return np.zeros((count, count))
    target, a, j, source, sign = (np.asarray(x, dtype=np.int64) for x in _slot_table(n, p))
    # row I of every D_b: one entry per pair b = {a in I, j not in I}
    keep = np.argsort(target, kind="stable")
    keep = keep[a[keep] != j[keep]]
    pair = np.zeros((n, n), dtype=np.int64)
    pair[np.triu_indices(n, 1)] = np.arange(len(F))
    pair += pair.T
    b = pair[a[keep], j[keep]].reshape(count, width)
    col = source[keep].reshape(count, width)
    coef = (sign * np.where(a < j, 1.0, -1.0))[keep].reshape(count, width)
    # two steps, I -> mid = col[I, k] -> col[mid, k']
    terms = -coef[:, :, None] * coef[col] * F[b[:, :, None], b[col]]
    target = np.arange(count)[:, None, None] * count + col[col]
    return np.bincount(target.ravel(), terms.ravel(), minlength=count * count).reshape(
        count, count
    )


def multi_index_positions(n, p):
    """Position of each sorted p-tuple in multi_indices(n, p)."""
    return {idx: pos for pos, idx in enumerate(multi_indices(n, p))}


def canonical_s2_basis(n):
    """Orthonormal basis of all symmetric 2-tensors: e^i x e^i, then the
    off-diagonal (e^i x e^j + e^j x e^i)/sqrt(2); shape (n(n+1)/2, n, n)."""
    out = np.zeros((n * (n + 1) // 2, n, n))
    l = np.arange(n)
    out[l, l, l] = 1.0
    for pair, (i, j) in enumerate(multi_indices(n, 2), start=n):
        out[pair, i, j] = out[pair, j, i] = 1.0 / math.sqrt(2.0)
    return out


def rbar_full_matrix(R):
    """Matrix of R-bar over canonical_s2_basis(R.n) (the full S^2 operator)."""
    return _gram_against(R, canonical_s2_basis(R.n))


def quadratic_form_identity_check(R, T):
    """Relative gap between two evaluations of the trace-free quadratic form.

    The expansion T^{S^2_0} = sum_a S_a T (x) S_a does not depend on the
    orthonormal basis of S^2_0; here the left side pairs R-bar against the
    expansion through the *full* S^2 basis (subtracting the metric part,
    T^{S^2_0} = T^{S^2} - (k/n) T (x) g), while the right side uses the
    canonical trace-free basis and the second-kind matrix directly.
    Returns |lhs - rhs| / (1 + |lhs|).
    """
    T = np.asarray(T, dtype=float)
    n = R.n
    k = T.ndim

    full = canonical_s2_basis(n)
    rbar_gram = _gram_against(R, full)
    comps = [act_sym_dense(C, T) - (k / n) * sym_inner(C, np.eye(n)) * T for C in full]
    inner = np.array([[float(np.sum(a * b)) for b in comps] for a in comps])
    lhs = float(np.einsum("ab,ab->", inner, rbar_gram))

    tf = canonical_s02_basis(n)
    acts = [act_sym_dense(B, T) for B in tf]
    gram = np.array([[float(np.sum(a * b)) for b in acts] for a in acts])
    rhs = float(np.einsum("ab,ab->", gram, second_kind_matrix(R)))
    return abs(lhs - rhs) / (1.0 + abs(lhs))
