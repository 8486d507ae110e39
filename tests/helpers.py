"""Shared test utilities."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
import math

import numpy as np

from curvkind import (
    DimensionMismatch,
    InfeasibleWeights,
    KOutOfRange,
    POutOfRange,
    PForm,
    ShapeMismatch,
    canonical_s02_basis,
    constant_curvature,
    constants,
    first_kind_matrix,
    kulkarni_nomizu,
    multi_indices,
    perturb_constant,
    ricci_scalar,
    second_kind_form_term,
    second_kind_matrix,
    sort_with_sign,
)
from curvkind.bochner import _unit_positions
from curvkind.operators import require_symmetric
from curvkind.tensor_core import CurvatureTensor, multi_index_array, read_only, require_square
from curvkind.tolerance import residual


def sym_inner(A, B):
    """<A, B> = sum_{ij} A_{ij} B_{ij}."""
    return float(np.sum(np.asarray(A) * np.asarray(B)))


def rbar_apply(R, h):
    """(R-bar h)_{ij} = sum_{kl} R_{iklj} h_{kl} for symmetric h: it sends the
    metric to -Ric and is the identity on trace-free tensors for the unit
    sphere."""
    h = require_square(h, n=R.n)
    return np.einsum("iklj,kl->ij", R.components, h)


def _kaehler_term(J):
    """J_ik J_jl - J_il J_jk + 2 J_ij J_kl for a complex structure J: it adds
    3 g to the Ricci tensor."""
    return (
        np.einsum("ik,jl->ijkl", J, J)
        - np.einsum("il,jk->ijkl", J, J)
        + 2 * np.einsum("ij,kl->ijkl", J, J)
    )


def complex_projective(m):
    """The Fubini-Study curvature of CP^m on R^{2m}, holomorphic sectional
    curvature 4: the unit sphere's tensor plus the Kaehler term of J, the
    standard complex structure (J e_{2a} = e_{2a+1}).  Ric = 2(m+1) g."""
    n = 2 * m
    J = np.zeros((n, n))
    J[1::2, 0::2] = np.eye(m)
    J -= J.T
    return CurvatureTensor(n, constant_curvature(n).components + _kaehler_term(J))


def quaternionic_projective(m):
    """The curvature of HP^m on H^m = R^{4m}, sectional curvature in [1, 4]:
    the unit sphere's tensor plus the Kaehler terms of I, J and K, the left
    multiplications by i, j and k on each quaternion a + b i + c j + d k.
    Ric = 4(m+2) g, and HP^1 is the sphere S^4 of curvature 4."""
    n = 4 * m
    units = (  # i, j and k acting on the coordinates (a, b, c, d)
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    )
    R = constant_curvature(n).components
    for unit in units:
        R = R + _kaehler_term(np.kron(np.eye(m), np.array(unit, dtype=float)))
    return CurvatureTensor(n, R)


def sphere_product(k, l):
    """S^k x S^l: unit spheres on R^k and R^l, block-diagonal on R^{k+l}.
    Its Betti numbers b_k and b_l (and b_{n-k}, b_{n-l}) are nonzero."""
    R = np.zeros((k + l,) * 4)
    R[:k, :k, :k, :k] = constant_curvature(k).components
    R[k:, k:, k:, k:] = constant_curvature(l).components
    return CurvatureTensor(k + l, R)


def make_einstein(R):
    """Remove the trace-free Ricci part so the result is Einstein.

    Subtracting (ric0 o g)/(n-2) shifts Ric by -ric0 and leaves the scalar
    curvature unchanged; needs n >= 3.
    """
    s = ricci_scalar(R)
    ric0 = s.ricci - (s.scalar / R.n) * np.eye(R.n)
    return R + kulkarni_nomizu(ric0, np.eye(R.n)) * (-1.0 / (R.n - 2))


def make_ricci_flat(R):
    """The Einstein projection of R shifted to scalar curvature 0: Ric is 0
    up to roundoff while R is not (its Weyl part; needs n >= 4)."""
    E = make_einstein(R)
    return perturb_constant(E, -ricci_scalar(E).scalar / (R.n * (R.n - 1)))


def partial_sum_by_slices(eigenvalues, k):
    """l_1 + ... + l_floor(k) + (k - floor(k)) l_{floor(k)+1} of the sorted
    eigenvalues, read off one slice sum, raising KOutOfRange outside
    1 <= k <= N: an oracle for every partial sum of curvkind.weights, which
    read the bracket minimum at highest weight 1."""
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    N = len(eigs)
    if not 1.0 <= k <= N:
        raise KOutOfRange(f"need 1 <= k <= {N}, got k={k}")
    m = int(math.floor(k))
    if m == N:
        return float(eigs.sum())
    return float(eigs[:m].sum() + (k - m) * eigs[m])


def min_weighted_sum_by_slices(eigenvalues, omega, total):
    """omega times the sum of the m = floor(total/omega) smallest eigenvalues
    plus the remainder on the next one, raising InfeasibleWeights outside
    omega > 0, 0 <= total <= omega N (1 + 1e-12): an oracle for
    weights.min_weighted_sum and every bound that reads the bracket minimum."""
    if omega <= 0:
        raise InfeasibleWeights(f"highest weight must be positive, got {omega}")
    if total < 0:
        raise InfeasibleWeights(f"total weight must be nonnegative, got {total}")
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


def ricci_bounds_by_brackets(eigenvalues, scal, n, p):
    """The weak and improved p-frame Ricci bounds, each by its own bracket
    minimum of the eigenvalues (sorted here): the oracle of
    weights.ricci_lower_bounds."""
    if p == 1:
        weak = min_weighted_sum_by_slices(eigenvalues, 1.0, n - 1.0)
        improved = (n - 1.0) / (n + 1.0) * min_weighted_sum_by_slices(
            eigenvalues, 1.0, float(n)
        ) + scal / (n * (n + 1.0))
    else:
        weak = min_weighted_sum_by_slices(eigenvalues, 2.0, p * (n - 1.0))
        improved = (n - p + 1.0) / (n - p + 2.0) * min_weighted_sum_by_slices(
            eigenvalues, 2.0, p * (n - 1.0)
        ) + p * scal / (n * (n - p + 2.0))
    return {"improved": improved, "weak": weak}


def ric_l_bound_by_variant(analysis, p, variant):
    """One Ric_L lower bound by its own expression, with no precondition
    checked: the oracle of weights.ric_l_lower_bounds."""
    n, eigenvalues = analysis.n, analysis.second_kind
    if variant in ("weak", "improved"):
        c = constants(n, p)
        omega = c.omega_weak if variant == "weak" else c.omega_improved
        return (2.0 / 3.0) * min_weighted_sum_by_slices(eigenvalues, omega, c.total)
    if variant == "one_form":
        return (2.0 / 3.0) * min_weighted_sum_by_slices(
            eigenvalues, (2.0 * n - 1.0) / (n + 2.0), 1.5 * (n - 1.0)
        )
    return (
        (2.0 / 3.0)
        * (p * (n - p) / n)
        * min_weighted_sum_by_slices(eigenvalues, (n + 4.0) / (n + 2.0), 1.5 * n)
    )


def exists_below_by_scan(eigs, threshold, radius):
    """Whether some order k' in [1, min(threshold, N)) has a partial sum
    >= -1e-10 * radius, in exact rational arithmetic on the given floats.

    The partial sum is linear between consecutive integers, so over that
    half-open range it is largest at an integer or near the open end C,
    where it approaches its value at C without reaching it: that limit
    counts only when it is positive, > 1e-12 * radius.  An oracle for the
    (b) certificates of weights.certify, which read the first nonnegative
    order of one floating-point cumulative sum and the partial sum at the
    end.
    """
    eigs = [Fraction(x) for x in np.sort(np.asarray(eigs, dtype=float))]
    end = min(Fraction(threshold), len(eigs))

    def partial(k):
        m = math.floor(k)
        return sum(eigs[:m], Fraction(0)) + (k - m) * (eigs[m] if m < len(eigs) else 0)

    floor = -Fraction(1e-10) * Fraction(radius)
    if any(partial(k) >= floor for k in range(1, math.ceil(end))):
        return True
    return end > 1 and partial(end) > Fraction(1e-12) * Fraction(radius)


def positivity_profile_by_loop(eigenvalues):
    """The smallest integer orders whose running sum of the ascending
    eigenvalues is positive and nonnegative, one eigenvalue at a time: an
    oracle for weights.k_positivity_profile, which reads one cumulative sum."""
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    radius = float(np.abs(eigs).max(initial=0.0))
    positive = nonnegative = None
    running = 0.0
    for m, lam in enumerate(eigs, start=1):
        running += lam
        if positive is None and running > 1e-12 * radius:
            positive = m
        if nonnegative is None and running >= -1e-10 * radius:
            nonnegative = m
    return {"positive": positive, "nonnegative": nonnegative}


def random_symmetric(n, rng):
    A = rng.standard_normal((n, n))
    return A + A.T


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
    """Where to_dense puts each coefficient: a read-only array of shape
    (C(n,p), p!) whose [k, s] is the flat index in the n^p dense form of the
    k-th sorted p-tuple permuted by the s-th signed permutation.  It has
    C(n,p) p! <= n^p entries, fewer than the dense form it fills."""
    idx = multi_index_array(n, p)
    perms, _ = _signed_permutations(p)
    at = np.zeros((len(idx), len(perms)), dtype=np.intp)
    for m in range(p):
        at = at * n + idx[:, perms[:, m]]
    return read_only(at)


def to_dense(w):
    """Full n^p component array of the antisymmetric extension of w, one
    scatter through the cached positions _dense_positions(n, p); entries
    with a repeated index or a zero coefficient are +0.0.  The dense form is
    the tests' oracle for the wedge tables the library reads instead."""
    n, p = w.n, w.p
    at = _dense_positions(n, p)
    _, signs = _signed_permutations(p)
    dense = np.zeros(n**p)
    # adding 0.0 turns the -0.0 of a negated zero into +0.0
    dense[at] = w.coeffs[:, None] * signs + 0.0
    return dense.reshape((n,) * p)


def ric_l_quadratic_dense(R, w):
    """The curvature term g(Ric_L w, w), contracted on the dense n^p form
    through the Gram of its slices w_{ij...}, i < j: the oracle for
    ric_l_quadratic, bochner_decomposition and ric_l_matrix, sharing no
    table with them."""
    n, p = R.n, w.p
    if p == 0:
        return 0.0
    summary = ricci_scalar(R)
    dense = to_dense(w)
    if p == 1:
        return float(dense @ summary.ricci @ dense)
    # G[i, j, k, l] = sum over i_3..i_p of w_{ij...} w_{kl...} is alternating
    # in (i, j) and in (k, l), so the slices with i < j give all of it; its
    # partial trace is W[i, k] = sum over i_2..i_p of w_{i...} w_{k...}
    i, j = multi_index_array(n, 2).T
    half = dense.reshape(n, n, -1)[i, j]
    G = np.zeros((n, n, n, n))
    G[i[:, None], j[:, None], i, j] = half @ half.T
    G = G - G.transpose(1, 0, 2, 3)
    G = G - G.transpose(0, 1, 3, 2)
    term1 = float(np.einsum("ij,ikjk->", summary.ricci, G))
    term2 = float(np.einsum("ijkl,ijkl->", R.components, G))
    return p * term1 - 0.5 * p * (p - 1) * term2


def to_dense_by_permutations(w):
    """The n^p dense form of w, one assignment per signed permutation of
    each sorted tuple with a nonzero coefficient: an oracle for to_dense,
    which scatters blocks of permutations."""
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
    a = (i < j), through the unit positions: p(n-p) nonzeros per row,
    (D_b w)_I = coef * w[col].  An oracle for ric_l_matrix, which sums the
    Weitzenboeck form through (p-1)- and (p-2)-forms instead.
    """
    n = R.n
    F = first_kind_matrix(R)
    count = math.comb(n, p)
    width = p * (n - p)
    if width == 0:
        return np.zeros((count, count))
    flat, source, sign = (np.asarray(x, dtype=np.int64) for x in _unit_positions(n, p))
    aj, target = divmod(flat, count)
    a, j = divmod(aj, n)
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


def form_from_dense(dense):
    """The PForm whose antisymmetric extension is the dense n^p array, read
    off its strictly increasing multi-indices (p >= 1)."""
    dense = np.asarray(dense, dtype=float)
    p = dense.ndim
    n = dense.shape[0] if p else 2
    if p and dense.shape != (n,) * p:
        raise ShapeMismatch(f"dense form must be cubical, got {dense.shape}")
    if p == 0:
        raise ShapeMismatch("a dense form needs p >= 1")
    return PForm(n, p, dense[tuple(multi_index_array(n, p).T)])


def rotate_form(w, Q):
    """Coefficients of a p-form in the rotated frame f_i = sum_a Q_{ai} e_a,
    by p contractions of the dense n^p form with Q."""
    Q = require_square(Q, n=w.n)
    if w.p == 0:
        return w
    dense = to_dense(w)
    for _ in range(w.p):
        # contract the leading slot and cycle it to the back
        dense = np.tensordot(Q, dense, axes=([0], [0]))
        dense = np.moveaxis(dense, 0, -1)
    return form_from_dense(dense)


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
    lhs = 1.5 * ric_l_quadratic_dense(Rr, wr)
    rhs = (
        second_kind_form_term(Rr, wr)
        + ((n - 2 * p) / n) * weighted
        + (p**2 / n**2) * rsum.scalar * wr.norm_sq
    )
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def stack_coeffs(stack, w):
    """Sorted coefficients of S_a w for every S_a in a stack of n x n tensors,
    shape (N, C(n,p)): the stack flattened to N x n^2 rows times the
    n^2 x C(n,p) scatter of w through the unit positions, one GEMM over all
    n^2 matrix units.  An oracle for the row sums of bochner._matrix_units."""
    n = w.n
    flat, source, sign = _unit_positions(n, w.p)
    X = np.zeros((n * n, len(w.coeffs)))
    X[divmod(flat, len(w.coeffs))] = sign * w.coeffs[source]
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
    x86-64): the family e^i (.) e^j, the actions S w through the unit
    positions, their Gram and its contraction with R, every product and sum
    in long double.  A reference for the rounding of the float64 evaluations."""
    ld = np.longdouble
    n, p = w.n, w.p
    eye = np.eye(n, dtype=ld)
    pair = eye[:, None, :, None] * eye[None, :, None, :]
    family = pair + pair.transpose(1, 0, 2, 3) - (ld(2) / ld(n)) * eye[:, :, None, None] * eye
    flat, source, sign = _unit_positions(n, p)
    X = np.zeros((n * n, len(w.coeffs)), dtype=ld)
    X[divmod(flat, len(w.coeffs))] = sign * w.coeffs.astype(ld)[source]
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


# --- dense oracles -----------------------------------------------------------
# Slot-wise evaluations on dense (0,p)-tensors and whole eigendecompositions:
# independent of the wedge tables, so they check the library's table paths.


def act_sym_dense(S, T):
    """(S T)_{i_1..i_k} = sum_m sum_j S_{i_m j} T_{i_1..j..i_k} on dense arrays."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    out = np.zeros_like(T)
    for m in range(T.ndim):
        out += np.moveaxis(np.tensordot(T, S, axes=([m], [1])), -1, m)
    return out


def ric_l_apply_dense(R, T):
    """Slot-wise curvature action on a dense (0,p)-tensor:

        (Ric_L T)_{i_1..i_p} = (Ric T)_{i_1..i_p}
            - sum_{m != s} sum_{j,q} R_{i_m j i_s q} T_{.. j@m .. q@s ..}.

    Agrees with ric_l_quadratic_dense under the tensor inner product when T is
    alternating; used as the independent oracle for the assembled matrix.
    """
    T = np.asarray(T, dtype=float)
    p = T.ndim
    out = act_sym_dense(ricci_scalar(R).ricci, T)
    for m in range(p):
        for s in range(p):
            if m == s:
                continue
            tmp = np.tensordot(T, R.components, axes=([m, s], [1, 3]))
            out -= np.moveaxis(tmp, (-2, -1), (m, s))
    return out


def general_tensor_bochner_check(R, T):
    """Residual of the decomposition for a general (0,p)-tensor, p in {2,3},
    as tolerance.residual of the right side against the left at the scale
    s |T|^2, s the unit scale of R.

    Beyond the three p-form terms the right side carries the correction

        sum_{r != s} sum_{ijkl} (R_{kijl} + R_{kjil})
            sum_I T_{..i@r..j@s..} T_{..k@r..l@s..},

    which vanishes identically on alternating tensors.  The Ricci term is
    summed over the slot carrying the contraction; on alternating tensors
    every slot contributes equally, recovering the factor p of the form
    decomposition.
    """
    T = np.asarray(T, dtype=float)
    p = T.ndim
    n = R.n
    if p not in (2, 3):
        raise POutOfRange(f"general check implemented for p in {{2, 3}}, got {p}")
    if T.shape != (n,) * p:
        raise DimensionMismatch(f"tensor shape {T.shape} does not match n={n}")

    summary = ricci_scalar(R)
    norm_sq = float(np.sum(T * T))
    lhs = 1.5 * float(np.sum(ric_l_apply_dense(R, T) * T))

    basis = canonical_s02_basis(n)
    acts = np.stack([act_sym_dense(S, T) for S in basis])
    gram = np.einsum("aX,bX->ab", acts.reshape(len(basis), -1), acts.reshape(len(basis), -1))
    term_op = float(np.einsum("ab,ab->", second_kind_matrix(R), gram))

    term_ricci = 0.0
    for m in range(p):
        flat = np.moveaxis(T, m, 0).reshape(n, -1)
        term_ricci += ((n - 2 * p) / n) * float(
            np.einsum("ij,ij->", summary.ricci, flat @ flat.T)
        )
    term_scal = (p**2 / n**2) * summary.scalar * norm_sq

    extra = 0.0
    for r in range(p):
        for s in range(p):
            if r == s:
                continue
            Tm = np.moveaxis(T, (r, s), (0, 1)).reshape(n, n, -1)
            extra += float(
                np.einsum("kijl,ijM,klM->", R.components, Tm, Tm)
                + np.einsum("kjil,ijM,klM->", R.components, Tm, Tm)
            )
    rhs = term_op + term_ricci + term_scal + extra
    return residual(rhs, lhs, summary.scale * norm_sq)


def spectral_decomposition(M):
    """Eigenvalues and orthonormal eigenvectors (columns), ascending."""
    return np.linalg.eigh(require_symmetric(M))


def random_rotation(n, rng):
    """A random orthogonal n x n matrix, the Q factor of a Gaussian matrix."""
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def rotate_curvature(R, Q):
    """Components of R in the rotated orthonormal frame f_i = sum_a Q_{ai} e_a."""
    Q = require_square(Q, n=R.n)
    Rr = np.einsum("abcd,ai,bj,ck,dl->ijkl", R.components, Q, Q, Q, Q, optimize=True)
    return CurvatureTensor(R.n, Rr)
