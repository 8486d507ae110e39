"""The curvature term of the Weitzenboeck formula on p-forms and its
decomposition through trace-free symmetric tensors.

For a p-form w and symmetric S, the action (S w)(X_1,...,X_p) =
sum_i w(X_1,...,S X_i,...,X_p) is again a p-form.  Expanding w over an
orthonormal basis {S_a} of trace-free symmetric tensors yields the weights
|S_a w|^2, whose total is (p(n-p)/n) * ((n+2)/2) * |w|^2 while each single
weight is at most (p(n-p)/n) * |S|^2 |w|^2.

Every action on p-forms here reads one cached table over the sorted basis,
_wedge_table(n, q): the row and sign of e_i ^ e_K for each q-tuple K.  A
2-tensor acts through (p-1)-forms, as sum S_aj e_a ^ i_j (_unit_positions),
and Ric_L, in the Weitzenboeck form

    Ric_L = sum_{i,j} Ric_ij e_i ^ i_j - 2 sum_{a<b, c<d} R_abcd e_a ^ e_b ^ i_d i_c,

through (p-1)- and (p-2)-forms: p(n-p+1) + C(p,2) C(n-p+2,2) terms per row
of its matrix.  The Hodge star reads _hodge_table(n, p).

ric_l_spectrum assembles only what its solve reads.  When Ric and the
first-kind matrix are diagonal, so is Ric_L, and its diagonal is summed in
closed form with no matrix at all.  In the middle degree 2p = n, Ric_L
commutes with the Hodge star, and only the rows of the half basis H (the
p-tuples containing 0) are assembled: the spectrum is that of A + B and
A - B for n = 0 (mod 4), and that of the Hermitian A + iB, each eigenvalue
taken twice, for n = 2 (mod 4).

bochner_decomposition and form_two_point read w through the same wedges
(_opened); the n^p dense form, with ric_l_quadratic, is their oracle.
bochner_decomposition takes its operator term from the same two Grams,
U^T U and V^T V, against R-bar made symmetric and trace-free in each index
pair (_s02_form_term): no S^2_0 basis and no expansion.  Its oracles
evaluate it independently: second_kind_form_term pairs second_kind_matrix
with the expansion Gram over the canonical basis, and ogiue_tachibana_term
uses the non-orthogonal family e^i (.) e^j.

Every symmetric action is read off one table per form, X[a, j] = E_aj w
with E_aj = e_a ^ i_j the matrix unit on p-forms (_matrix_units, one
scatter through _unit_positions): act_sym_on_form contracts S with it, the
expansion's canonical-basis rows and the Ogiue-Tachibana family are sums of
its rows.  None of the tables (_wedge_table, _through, _unit_positions,
_symmetric_pairs, _ric_l_plan) reads curvature; each is cached and
read-only.

The five evaluations on one p-form (form_s02_expansion,
second_kind_form_term, bochner_decomposition, ogiue_tachibana_term and
ric_l_quadratic) run their products on one OpenBLAS thread
(_blas.one_blas_thread): at n <= 12 a second thread saves little, and its
spinning between calls makes a loop over them as slow as the host is busy.

The quadratic curvature term is

    g(Ric_L w, w) = p sum R_ij w_{i...} w_{j...}
                    - p(p-1)/2 sum R_{ijkl} w_{ij...} w_{kl...}

and it decomposes as

    3/2 g(Ric_L w, w) = <second-kind quadratic form on the expansion>
                        + p(n-2p)/n sum R_jk w_{j...} w_{k...}
                        + p^2/n^2 scal |w|^2.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from ._blas import one_blas_thread
from .errors import DimensionMismatch, POutOfRange
from .operators import (
    act_sym_dense,
    first_kind_matrix,
    ricci_scalar,
    second_kind_matrix,
    spectrum,
    _rbar_matrix,
)
from .tensor_core import (
    PForm,
    canonical_s02_basis,
    multi_index_array,
    read_only,
    require_square,
)
from .tolerance import SYMMETRY, peak


@lru_cache(maxsize=None)
def _wedge_table(n, q):
    """Left wedge with e_i from q-forms to (q+1)-forms, 0 <= q < n.

    Returns read-only arrays (row, sign) of shape (C(n,q), n), int32 and
    int8: for the q-tuple K in row k of the sorted basis,

        e_i ^ e_K = sign[k, i] * e_{row[k, i]},

    with row taken in the sorted basis of (q+1)-forms.  When i lies in K the
    wedge vanishes: sign is 0 and row is 0.
    """
    count = math.comb(n, q)
    idx = multi_index_array(n, q)
    member = np.zeros((count, n), dtype=bool)
    member[np.arange(count)[:, None], idx] = True
    # e_i moves past the members of K below it to reach its sorted place
    below = np.cumsum(member, axis=1) - member
    sign = np.where(member, 0, 1 - 2 * (below % 2))
    upper = multi_index_array(n, q + 1)
    upper_bits = (1 << upper).sum(axis=1)
    order = np.argsort(upper_bits)
    wanted = (1 << idx).sum(axis=1)[:, None] | (1 << np.arange(n))
    found = np.minimum(np.searchsorted(upper_bits[order], wanted), len(order) - 1)
    row = np.where(member, 0, order[found])
    return read_only(row, np.int32), read_only(sign, np.int8)


@lru_cache(maxsize=None)
def _through(n, q, k):
    """The k-fold wedges e_G ^ e_K with the q-forms e_K, k in {1, 2}.

    Returns read-only arrays (row, sign, g) of shape (C(n,q), C(n-q,k)): for the
    q-tuple K in row k of the sorted basis, one entry per k-tuple G disjoint
    from K, in sorted order, with e_G ^ e_K = sign * e_row.  g indexes G: it
    is G's element for k = 1, and G's row in the sorted basis of 2-forms
    (the order of first_kind_matrix) for k = 2.
    """
    row, sign = _wedge_table(n, q)
    if k == 2:
        # e_c ^ e_d ^ e_K = e_c ^ (sign[K, d] e_{row[K, d]})
        c, d = multi_index_array(n, 2).T
        up_row, up_sign = _wedge_table(n, q + 1)
        sign = sign[:, d] * up_sign[row[:, d], c]
        row = up_row[row[:, d], c]
    hub, g = np.nonzero(sign)
    width = math.comb(n - q, k)
    return tuple(read_only(x.reshape(-1, width)) for x in (row[hub, g], sign[hub, g], g))


@lru_cache(maxsize=None)
def _ric_l_plan(n, p):
    """The index plan of ric_l_matrix for degree p, 1 <= p < n; it reads no curvature.

    One part per k in {1, 2} with k <= p, the wedges through the
    (p-k)-forms, as read-only arrays (hub, left_sign, left, row, sign, g).
    (row, sign, g) is _through(n, p-k, k), one row per K.  Row I of the
    p-forms is the row of C(p,k) of those entries; hub[I] and left_sign[I]
    give their K and sign, and left[I] their G times C(n,k), the offset of
    G's row in the flattened k-th factor (Ric or -2F).  K, rows and left
    are int32, g is int16 and signs are int8.
    """
    count = math.comb(n, p)
    parts = []
    for k in (1, 2)[:p]:
        row, sign, g = _through(n, p - k, k)
        entry = np.argsort(row, axis=None, kind="stable").reshape(count, -1)
        left = g.ravel()[entry] * math.comb(n, k)
        part = (entry // row.shape[1], sign.ravel()[entry], left, row, sign, g)
        dtypes = (np.int32, np.int8, np.int32, np.int32, np.int8, np.int16)
        parts.append(tuple(read_only(x, dtype) for x, dtype in zip(part, dtypes)))
    return tuple(parts)


@lru_cache(maxsize=None)
def _unit_positions(n, p):
    """How a 2-tensor acts slot by slot on p-forms over the sorted basis.

    S acts as sum_{a,j} S[a, j] e_a ^ i_j, through the (p-1)-forms
    K = I \\ {a}: with e_a ^ e_K = s_a e_I, e_j ^ e_K = s_j e_source and
    sign = s_a * s_j,

        (S w)_I = sum over the entries of I of S[a, j] * sign * w[source].

    Returns read-only arrays (flat, source, sign), one entry per (I, slot m, j)
    for which I[m->j] repeats no index, C(n,p) * p * (n-p+1) in all: flat is
    the position of (a, j, I) in the flattened n x n x C(n,p) table of
    _matrix_units.
    """
    if p == 0:
        return (read_only(np.zeros(0), np.intp),) * 3
    row, sign, g = _through(n, p - 1, 1)
    flat = (g[:, :, None] * n + g[:, None, :]) * math.comb(n, p) + row[:, :, None]
    source = np.broadcast_to(row[:, None, :], flat.shape)
    units = (flat, source, sign[:, :, None] * sign[:, None, :])
    return tuple(read_only(x.ravel()) for x in units)


@lru_cache(maxsize=None)
def _symmetric_pairs(n):
    """The pairs i <= l, first i = l and then i < l in sorted order, as
    read-only arrays (i, l, il, li) of length n(n+1)/2: il and li are the
    flat positions i * n + l and l * n + i in an n x n table."""
    i, l = (np.concatenate([np.arange(n), x]) for x in multi_index_array(n, 2).T)
    return tuple(read_only(x, np.intp) for x in (i, l, i * n + l, l * n + i))


def _matrix_units(w):
    """X[a, j] = E_aj w, the sorted coefficients of e_a ^ i_j w, shape
    (n, n, C(n,p)): S w = sum_{a,j} S[a, j] X[a, j] for every 2-tensor S."""
    n = w.n
    flat, source, sign = _unit_positions(n, w.p)
    values = w.coeffs[source]
    values *= sign
    X = np.zeros(n * n * len(w.coeffs))
    # each (a, j, target) occurs once, so plain assignment loses no term
    X[flat] = values
    return X.reshape(n, n, -1)


def act_sym_on_form(S, w):
    """The p-form S w; diagonal S scales each wedge by the sum of its entries."""
    S = require_square(S, n=w.n)
    coeffs = S.ravel() @ _matrix_units(w).reshape(w.n * w.n, -1)
    return PForm(w.n, w.p, coeffs)


def _opened(w, k):
    """X[K, G] = w_{G K} over sorted (p-k)-tuples K and k-tuples G (the rows
    of first_kind_matrix for k = 2): E_k^T c in ric_l_matrix's notation."""
    row, sign, g = _through(w.n, w.p - k, k)
    X = np.zeros((len(row), math.comb(w.n, k)))
    X[np.arange(len(row))[:, None], g] = sign * w.coeffs[row]
    return X


def form_two_point(w):
    """Matrix W_jk = sum over i_2..i_p of w_{j i_2..} w_{k i_2..} (all indices),
    as (p-1)! U^T U over the sorted tuples, U = _opened(w, 1)."""
    if w.p == 0:
        return np.zeros((w.n, w.n))
    U = _opened(w, 1)
    return math.factorial(w.p - 1) * (U.T @ U)


@dataclass(frozen=True)
class FormS02Expansion:
    """Expansion data of a p-form over canonical_s02_basis(n).

    coefficient_matrix[a] holds the sorted coefficients of S_a w; weights[a]
    is |S_a w|^2, and total is their sum, which equals |w^{S^2_0}|^2.
    """

    form: PForm
    coefficient_matrix: np.ndarray
    weights: np.ndarray
    total: float

    def gram(self):
        """Gram matrix <S_a w, S_b w> of the expansion coefficients."""
        fact = math.factorial(self.form.p)
        return fact * (self.coefficient_matrix @ self.coefficient_matrix.T)


@one_blas_thread
def form_s02_expansion(w):
    """Expand w over the canonical trace-free basis and collect the weights.

    The total satisfies sum_a |S_a w|^2 = (p(n-p)/n)((n+2)/2) |w|^2 and each
    weight is bounded by (p(n-p)/n) |w|^2 for unit-norm basis elements.

    Each S_a w is read off X = _matrix_units(w): (X[i, j] + X[j, i])/sqrt(2)
    for the pair rows i < j, and the (n-1) x n diagonal block of the basis
    times the rows X[l, l] for the rest.
    """
    n = w.n
    basis = canonical_s02_basis(n)
    X = _matrix_units(w).reshape(n * n, -1)
    _, _, il, li = _symmetric_pairs(n)
    pairs = len(basis) - (n - 1)
    coeff = np.empty((len(basis), X.shape[1]))
    coeff[:pairs] = (X[il[n:]] + X[li[n:]]) / math.sqrt(2.0)
    diagonal = np.diagonal(basis[pairs:], axis1=1, axis2=2)
    coeff[pairs:] = diagonal @ X[il[:n]]
    fact = math.factorial(w.p)
    weights = fact * np.einsum("ad,ad->a", coeff, coeff)
    return FormS02Expansion(
        form=w, coefficient_matrix=coeff, weights=weights, total=float(weights.sum())
    )


def _same_dimension(R, w):
    """Refuse a form and a curvature tensor on different dimensions."""
    if R.n != w.n:
        raise DimensionMismatch("form and curvature live on different dimensions")


@one_blas_thread
def second_kind_form_term(R, w):
    """g(second-kind(w^{S^2_0}), w^{S^2_0}) via the canonical-basis matrix."""
    _same_dimension(R, w)
    return float(np.einsum("ab,ab->", second_kind_matrix(R), form_s02_expansion(w).gram()))


@one_blas_thread
def ric_l_quadratic(R, w):
    """The curvature term g(Ric_L w, w), contracted on the dense n^p form
    through the Gram of its slices w_{ij...}, i < j: the oracle for
    bochner_decomposition and ric_l_matrix, sharing no table."""
    n, p = R.n, w.p
    _same_dimension(R, w)
    if p == 0:
        return 0.0
    summary = ricci_scalar(R)
    dense = w.to_dense()
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


def ric_l_matrix(analysis, p):
    """Matrix of Ric_L over the unit-norm sorted wedge basis of p-forms, for
    the tensor of an operators.Analysis.

    In the Weitzenboeck form

      Ric_L = sum_{i,j} Ric_ij e_i ^ i_j
              - 2 sum_{a<b, c<d} R_abcd e_a ^ e_b ^ i_d i_c

    both sums pass through lower degrees: M = E1 Ric E1^T - 2 E2 F E2^T,
    with F = analysis.first_kind and E_k sending e_G (x) e_K, G a k-tuple
    and K a (p-k)-tuple, to e_G ^ e_K (_through).  So row I collects

      Ric[a, j]            at the row of e_j ^ e_K,     K = I \\ {a}, j not in K,
      -2 F[alpha, beta]    at the row of e_beta ^ e_K,  K = I \\ alpha,

    each times the two wedge signs: p(n-p+1) + C(p,2) C(n-p+2,2) terms per
    row, 462 at (12, 6).  They are gathered for a block of rows at a time,
    about 2^16 terms, and summed into the block's rows with one bincount;
    the index plan, _ric_l_plan(n, p), is cached.  Entrywise, with I, J
    increasing p-tuples,

      M[I,I] = sum_{i in I} Ric_ii - 2 sum_{a<b in I} R_{abab}
      M[I,J] = s * (Ric_ab - 2 sum_{c in I cap J} R_{acbc})   (|I^J| = p-1)
      M[I,J] = -2 s * R_{abcd}                                (|I^J| = p-2)

    where s carries the wedge reordering parities, I \\ J = {a} (resp.
    {a,b}) and J \\ I = {b} (resp. {c,d}).  For p = 1 this is the Ricci
    matrix; for the unit sphere it is p(n-p) times the identity; for p = n
    it is 0.
    """
    n = analysis.n
    if not 1 <= p <= n:
        raise POutOfRange(f"need 1 <= p <= n, got p={p}")
    count = math.comb(n, p)
    # at p = n the two sums are scal and -scal: return the exact zero
    if p == n:
        return np.zeros((count, count))
    return _ric_l_rows(analysis, p, count)


def _ric_l_rows(analysis, p, end):
    """The first `end` rows of ric_l_matrix(analysis, p), 1 <= p < n."""
    n = analysis.n
    count = math.comb(n, p)
    M = np.zeros((end, count))
    plan = _ric_l_plan(n, p)
    factors = (analysis.summary.ricci.ravel(), -2.0 * analysis.first_kind.ravel())
    per_row = sum(hub.shape[1] * row.shape[1] for hub, _, _, row, _, _ in plan)
    rows = max(1, 2**16 // per_row)
    for start in range(0, end, rows):
        stop = min(start + rows, end)
        offset = np.arange(stop - start)[:, None, None] * count
        targets, terms = [], []
        for (hub, left_sign, left, row, sign, g), X in zip(plan, factors):
            K = hub[start:stop]
            targets.append((offset + row[K]).ravel())
            pair_sign = left_sign[start:stop, :, None] * sign[K]
            terms.append((pair_sign * X.take(left[start:stop, :, None] + g[K])).ravel())
        M[start:stop] = np.bincount(
            np.concatenate(targets), np.concatenate(terms), minlength=(stop - start) * count
        ).reshape(stop - start, count)
    return M


def _hodge_table(n, p):
    """The Hodge star on the sorted wedge basis of p-forms.

    Returns integer arrays (row, sign), one entry per p-tuple I: row is the
    row of the complement I^c in the sorted basis of (n-p)-forms, and sign
    is the parity of the permutation (I, I^c), so *e_I = sign * e_{I^c}.
    """
    idx = multi_index_array(n, p)
    # I < J lexicographically iff the least element of their symmetric
    # difference lies in I; complements have the same symmetric difference,
    # so complementing reverses the sorted order
    row = np.arange(len(idx))[::-1]
    # (I, I^c) has sum_m (I_m - m) inversions
    sign = 1 - 2 * ((idx.sum(axis=1) - p * (p - 1) // 2) % 2)
    return row, sign


@dataclass(frozen=True)
class BochnerReport:
    """The three-term decomposition of (3/2) g(Ric_L w, w).

    einstein_residual additionally checks the short Einstein form
    lhs = operator term + p(n-p)/n^2 * scal * |w|^2 and is None when the
    input is not Einstein.
    """

    lhs: float
    term_operator: float
    term_ricci: float
    term_scal: float
    residual: float
    einstein_residual: float | None = None


def _s02_form_term(R, W, G, p):
    """The second-kind quadratic form on w^{S^2_0}, from the two Grams of w.

    With E_aj the matrix unit acting on p-forms, the expansion Gram over an
    orthonormal basis B of S^2_0 (flattened to rows) is B Q B^T, where

        Q[(a,j), (b,k)] = <E_aj w, E_bk w>
                        = p d_ab W_jk - p(p-1) sum_M w_{jbM} w_{kaM},

    W = form_two_point(w) = (p-1)! U^T U, and the sum over all (p-2)-tuples M
    is G = (p-2)! V^T V on the sorted pairs (j < b, k < a), antisymmetric in
    each pair.  The second-kind matrix is B Rbar B^T, so the term is
    <P Rbar P, Q>, where P = B^T B makes each index pair symmetric and
    trace-free: no basis and no expansion.
    """
    n = R.n
    eye = np.eye(n)
    # P Rbar P, with Rbar[a, j, b, k] = R_{bajk}
    X = _rbar_matrix(R).reshape(n, n, n, n)
    X = X + X.transpose(1, 0, 2, 3)
    X = 0.25 * (X + X.transpose(0, 1, 3, 2))
    X = X - eye[:, :, None, None] * (np.einsum("aabk->bk", X) / n)
    X = X - (np.einsum("ajbb->aj", X) / n)[:, :, None, None] * eye
    term = p * float(np.vdot(np.einsum("ajak->jk", X), W))
    if p >= 2:
        # pair X[a, j, b, k] with the sum at [j, b, k, a], antisymmetric in
        # (j, b) and in (k, a), then keep the sorted pairs that G holds
        Y = X.transpose(1, 2, 3, 0)
        Y = Y - Y.transpose(1, 0, 2, 3)
        Y = Y - Y.transpose(0, 1, 3, 2)
        i, j = multi_index_array(n, 2).T
        term -= p * (p - 1) * float(np.vdot(Y[i[:, None], j[:, None], i, j], G))
    return term


@one_blas_thread
def bochner_decomposition(R, w):
    """Evaluate both sides of the decomposition and report the residual.

    The left side is ric_l_matrix's Weitzenboeck form on w, with no matrix
    and no dense form: g(Ric_L w, w) = p! (<Ric, U^T U> - 2 <F, V^T V>), with
    U, V = _opened(w, 1), _opened(w, 2) and F = first_kind_matrix(R).  The
    operator term reads the same two Grams (_s02_form_term);
    second_kind_form_term and ogiue_tachibana_term are its oracles.
    """
    n, p = R.n, w.p
    _same_dimension(R, w)
    summary = ricci_scalar(R)
    norm_sq = w.norm_sq
    if p == 0:
        return BochnerReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    W = form_two_point(w)
    ricci_w = float(np.einsum("ij,ij->", summary.ricci, W))
    quadratic = p * ricci_w
    G = None
    if p >= 2:
        V = _opened(w, 2)
        VtV = V.T @ V
        quadratic -= 2 * math.factorial(p) * float(
            np.einsum("ab,ab->", first_kind_matrix(R), VtV)
        )
        G = math.factorial(p - 2) * VtV
    # at p = n the two sums are scal and -scal: keep ric_l_matrix's exact zero;
    # and S w = tr(S) w vanishes for every trace-free S
    lhs = 1.5 * quadratic if p < n else 0.0
    term_op = _s02_form_term(R, W, G, p) if p < n else 0.0
    term_ricci = (p * (n - 2 * p) / n) * ricci_w
    term_scal = (p**2 / n**2) * summary.scalar * norm_sq
    residual = abs(lhs - term_op - term_ricci - term_scal) / (1.0 + abs(lhs))
    einstein_residual = None
    if summary.is_einstein():
        short = term_op + (p * (n - p) / n**2) * summary.scalar * norm_sq
        einstein_residual = abs(lhs - short) / (1.0 + abs(lhs))
    return BochnerReport(lhs, term_op, term_ricci, term_scal, residual, einstein_residual)


@one_blas_thread
def ogiue_tachibana_term(R, w):
    """Quadratic form of the second kind on w^{S^2_0} via the non-orthogonal
    trace-free family e^i (.) e^j = e^i x e^j + e^j x e^i - (2/n) d_ij g:

        1/4 sum_{ijkl} <(e^i (.) e^l) w, (e^j (.) e^k) w> R_{ijkl}.

    As sum_a E_aa = p on p-forms, (e^i (.) e^l) w = E_il w + E_li w -
    (2p/n) d_il w, a sum of rows of X = _matrix_units(w).  The family is
    symmetric in (i, l), so its Gram is taken over the pairs i <= l and R
    is summed over the orderings of each pair.
    """
    n, p = w.n, w.p
    _same_dimension(R, w)
    i, l, il, li = _symmetric_pairs(n)
    X = _matrix_units(w).reshape(n * n, -1)
    family = X[il] + X[li]
    family[:n] -= (2.0 * p / n) * w.coeffs
    gram = math.factorial(p) * (family @ family.T)
    # rsum[(i, l), (j, k)]: R_{ijkl} summed over the orderings of both pairs,
    # one ordering where i = l and two where i < l
    by_pair = R.components.reshape(n, n * n, n)
    rows = by_pair[i, :, l]
    rows[n:] += by_pair[l[n:], :, i[n:]]
    rsum = rows[:, il]
    rsum[:, n:] += rows[:, li[n:]]
    return 0.25 * float(np.vdot(rsum, gram))


def ric_l_apply_dense(R, T):
    """Slot-wise curvature action on a dense (0,p)-tensor:

        (Ric_L T)_{i_1..i_p} = (Ric T)_{i_1..i_p}
            - sum_{m != s} sum_{j,q} R_{i_m j i_s q} T_{.. j@m .. q@s ..}.

    Agrees with ric_l_quadratic under the tensor inner product when T is
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
    """Residual of the decomposition for a general (0,p)-tensor, p in {2,3}.

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
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def _is_diagonal(X):
    """True when the square X has no nonzero entry off its diagonal."""
    return np.count_nonzero(X) == np.count_nonzero(X.diagonal())


def _ric_l_diagonal(analysis, p):
    """The diagonal of ric_l_matrix(analysis, p), 1 <= p < n:

      M[I,I] = sum_{i in I} Ric_ii - 2 sum_{a<b in I} F_{ab,ab}.

    It is read off _ric_l_plan: in part k the term of row I that pairs G with
    itself sits at left + left // C(n,k) of the flattened factor, with sign
    +1.  Adding those terms column by column, k = 1 before k = 2, is the
    order in which _ric_l_rows' bincount adds them to M[I,I], so each entry
    equals the assembled one bit for bit.
    """
    n = analysis.n
    factors = (analysis.summary.ricci.ravel(), -2.0 * analysis.first_kind.ravel())
    diag = np.zeros(math.comb(n, p))
    for k, (_, _, left, _, _, _), X in zip((1, 2), _ric_l_plan(n, p), factors):
        for column in (left + left // math.comb(n, k)).T:
            diag += X[column]
    return diag


def ric_l_spectrum(analysis, p):
    """Ascending eigenvalues of ric_l_matrix(analysis, p).

    Only what the solve reads is assembled:

    * When Ric and F = analysis.first_kind have no nonzero entry off their
      diagonals (a constant-curvature tensor, S^1 x S^{n-1} and their
      perturbations), M is diagonal and its spectrum is _ric_l_diagonal,
      sorted: no matrix, no symmetry gate and no eigensolve.
    * In the middle degree 2p = n, Ric_L commutes with the Hodge star, and
      in the basis of H followed by the signed complements of H,

        M = [[A, B], [** B, A]],   A = M[H, H],   B[I, J] = sign_J * M[I, J^c],

      where H is the first half of the sorted basis, the p-tuples that
      contain 0, and (J^c, sign_J) comes from _hodge_table.  So only the
      rows of H are assembled.  For n = 0 (mod 4), ** = +1, B is symmetric
      and the spectrum is that of A + B and A - B.  For n = 2 (mod 4),
      ** = -1, B is antisymmetric, M is the real form of the Hermitian
      A + iB, and each of its eigenvalues is taken twice.  Each matrix
      solved passes the symmetry gate against 1e-12 * max|M[H, :]|, which
      holds A and B to the same threshold.
    * Every other degree solves the whole matrix.  Degrees p and n-p share
      one spectrum.
    """
    n = analysis.n
    if not 1 <= p < n:
        # p = n is ric_l_matrix's exact zero; other p raise POutOfRange there
        return spectrum(ric_l_matrix(analysis, p))
    if _is_diagonal(analysis.summary.ricci) and _is_diagonal(analysis.first_kind):
        return np.sort(_ric_l_diagonal(analysis, p))
    if 2 * p != n:
        return spectrum(ric_l_matrix(analysis, p))
    half = math.comb(n, p) // 2
    rows = _ric_l_rows(analysis, p, half)
    _, sign = _hodge_table(n, p)
    # complementing reverses the sorted order, so J^c runs backwards
    # through the second half of the columns
    A = rows[:, :half]
    B = rows[:, half:][:, ::-1] * sign[:half]
    tol = SYMMETRY * peak(rows)
    if n % 4:
        return np.repeat(spectrum(A + 1j * B, tol), 2)
    return np.sort(np.concatenate([spectrum(A + B, tol), spectrum(A - B, tol)]))
