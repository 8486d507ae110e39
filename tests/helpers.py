"""Shared test utilities."""

from itertools import permutations
import math

import numpy as np

from curvkind import first_kind_matrix, kulkarni_nomizu, multi_indices, ricci_scalar, sort_with_sign
from curvkind.bochner import _slot_table


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
