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
    ric_l_quadratic,
    ricci_scalar,
    rotate_curvature,
    rotate_form,
    second_kind_form_term,
    second_kind_matrix,
    sort_with_sign,
)
from curvkind.bochner import _slot_table
from curvkind.tensor_core import multi_index_array, require_square


def sym_inner(A, B):
    """<A, B> = sum_{ij} A_{ij} B_{ij}."""
    return float(np.sum(np.asarray(A) * np.asarray(B)))


def rbar_apply(R, h):
    """(R-bar h)_{ij} = sum_{kl} R_{iklj} h_{kl} for symmetric h: it sends the
    metric to -Ric and is the identity on trace-free tensors for the unit
    sphere."""
    h = require_square(h, n=R.n)
    return np.einsum("iklj,kl->ij", R.components, h)


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


def bochner_ricci_diagonal_residual(R, w):
    """Residual of the Ricci-diagonal form of the decomposition.

    The frame is rotated to diagonalize Ric; there the Ricci term becomes
    (n-2p)/n * sum_I (sum_{i in I} Ric_ii) w_I^2 over all index tuples.
    """
    summary = ricci_scalar(R)
    _, Q = np.linalg.eigh(summary.ricci)
    Rr = rotate_curvature(R, Q)
    wr = rotate_form(w, Q)
    n, p = R.n, w.p
    if p == 0:
        return 0.0
    rsum = ricci_scalar(Rr)
    ric_diag = np.diag(rsum.ricci)
    ric_sums = ric_diag[multi_index_array(n, p)].sum(axis=1)
    weighted = math.factorial(p) * float(ric_sums @ wr.coeffs**2)
    lhs = 1.5 * ric_l_quadratic(Rr, wr)
    rhs = (
        second_kind_form_term(Rr, wr)
        + ((n - 2 * p) / n) * weighted
        + (p**2 / n**2) * rsum.scalar * wr.norm_sq
    )
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def stack_coeffs(stack, w):
    """Sorted coefficients of S_a w for every S_a in a stack of n x n tensors,
    shape (N, C(n,p)): the stack flattened to N x n^2 rows times the
    n^2 x C(n,p) scatter of w through the slot table, one GEMM over all n^2
    matrix units.  An oracle for the row sums of bochner._matrix_units."""
    n = w.n
    target, a, j, source, sign = _slot_table(n, w.p)
    X = np.zeros((n * n, len(w.coeffs)))
    X[a * n + j, target] = sign * w.coeffs[source]
    return stack.reshape(len(stack), n * n) @ X


def s02_expansion_stacked(w):
    """form_s02_expansion(w).coefficient_matrix as the stacked product
    canonical_s02_basis(n) @ X."""
    return stack_coeffs(canonical_s02_basis(w.n), w)


def ogiue_tachibana_family(n):
    """The n^2 tensors e^i (.) e^j = e^i x e^j + e^j x e^i - (2/n) d_ij g,
    stacked at i * n + j: shape (n^2, n, n)."""
    eye = np.eye(n)
    # [i, j, a, b] = d_ia d_jb + d_ja d_ib - (2/n) d_ij d_ab
    pair = eye[:, None, :, None] * eye[None, :, None, :]
    stack = pair + pair.transpose(1, 0, 2, 3) - (2.0 / n) * eye[:, :, None, None] * eye
    return stack.reshape(n * n, n, n)


def ogiue_tachibana_stacked(R, w):
    """ogiue_tachibana_term over all n^2 members of the family, with every
    action through stack_coeffs: the Gram of the n^2 rows contracted with
    R_{ijkl} as 1/4 sum <(e^i (.) e^l) w, (e^j (.) e^k) w> R_{ijkl}."""
    n = w.n
    coeff = stack_coeffs(ogiue_tachibana_family(n), w)
    gram = (math.factorial(w.p) * (coeff @ coeff.T)).reshape(n, n, n, n)
    return 0.25 * float(np.einsum("ijkl,iljk->", R.components, gram))


def ogiue_tachibana_long_double(R, w):
    """ogiue_tachibana_term evaluated in np.longdouble (64-bit mantissa on
    x86-64): the family e^i (.) e^j, the actions S w through the slot table,
    their Gram and its contraction with R, every product and sum in long
    double.  A reference for the rounding of the float64 evaluations."""
    ld = np.longdouble
    n, p = w.n, w.p
    eye = np.eye(n, dtype=ld)
    pair = eye[:, None, :, None] * eye[None, :, None, :]
    family = pair + pair.transpose(1, 0, 2, 3) - (ld(2) / ld(n)) * eye[:, :, None, None] * eye
    target, a, j, source, sign = _slot_table(n, p)
    X = np.zeros((n * n, len(w.coeffs)), dtype=ld)
    X[a * n + j, target] = sign * w.coeffs.astype(ld)[source]
    coeff = family.reshape(n * n, n * n) @ X
    gram = (ld(math.factorial(p)) * (coeff @ coeff.T)).reshape(n, n, n, n)
    return ld(0.25) * np.einsum("ijkl,iljk->", R.components.astype(ld), gram)


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


def gram_against_einsum(R, basis):
    """Matrix <Rbar(B_a), B_b> over a stacked basis of symmetric tensors, by
    two einsums: an oracle for operators._gram_against, which is two GEMMs
    over the basis flattened to rows."""
    rb = np.einsum("iklj,akl->aij", R.components, basis)
    return np.einsum("aij,bij->ab", rb, basis)


def rbar_full_matrix(R):
    """Matrix of R-bar over canonical_s2_basis(R.n) (the full S^2 operator)."""
    return gram_against_einsum(R, canonical_s2_basis(R.n))


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
    rbar_gram = gram_against_einsum(R, full)
    comps = [act_sym_dense(C, T) - (k / n) * sym_inner(C, np.eye(n)) * T for C in full]
    inner = np.array([[float(np.sum(a * b)) for b in comps] for a in comps])
    lhs = float(np.einsum("ab,ab->", inner, rbar_gram))

    tf = canonical_s02_basis(n)
    acts = [act_sym_dense(B, T) for B in tf]
    gram = np.array([[float(np.sum(a * b)) for b in acts] for a in acts])
    rhs = float(np.einsum("ab,ab->", gram, second_kind_matrix(R)))
    return abs(lhs - rhs) / (1.0 + abs(lhs))
