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

through (p-1)- and (p-2)-forms: for each (p-k)-tuple K, k = 1 and 2, one
signed principal block of Ric or -2F on the rows e_G ^ e_K, every index
read from _through(n, p-k, k).  The Hodge star reads _hodge_table(n, p).

Ric_L commutes with the Hodge star, so degrees p and n-p share one
spectrum: ric_l_matrix, ric_l_spectrum and ric_l_minima read one degree
rule, _hodge_class, which refuses any p outside 1..n and maps the rest to
the class min(p, n-p).  Class 0 is p = n, where Ric_L is 0, as on the
functions that n-forms are dual to.  Each class is solved once, and only
what its solve reads is assembled (_ric_l_blocks).  When Ric and the
first-kind matrix are diagonal, so is Ric_L, and its diagonal is summed in
closed form with no matrix at all.  In the middle degree 2p = n only the
rows of the half basis H (the p-tuples containing 0) are assembled: the
spectrum is that of A + B and A - B for n = 0 (mod 4), and that of the
Hermitian A + iB, each eigenvalue taken twice, for n = 2 (mod 4).  No
block is gated for symmetry: an operators.Analysis holds a validated R,
and Ric_L on p-forms of it is symmetric to within (n + 2p) times R's
symmetry tolerance, while the solves read one triangle.
ric_l_spectrum and ric_l_minima, which analyze reads, run one solve loop,
_solve_ric_l: each class on one of two lanes, each solve on one OpenBLAS
thread.  They differ only in how a matrix block is solved, whole by
ric_l_spectrum and for its smallest eigenvalue alone by ric_l_minima; one
degree is ric_l_minima(analysis, [p])[p].

bochner_decomposition, ric_l_quadratic and form_two_point read w through
the same wedges (_opened), and the first two read the curvature term off one
evaluation, _curvature_term: no n^p dense form is built here.  The tests
keep the dense form and the slot-wise Ric_L as their oracles.
bochner_decomposition takes its operator term from the same two Grams,
U^T U and V^T V, against R-bar made symmetric and trace-free in each index
pair (_s02_form_term): no S^2_0 basis and no expansion.  Its oracles
evaluate it independently: second_kind_form_term pairs second_kind_matrix
with the expansion Gram over the canonical basis, and ogiue_tachibana_term
uses the non-orthogonal family e^i (.) e^j.

Each evaluation reads w through one table per form, each filled by one
1-D scatter into zeros through cached flat positions (_scatter), so no
index is rebuilt per call.  With E_aj = e_a ^ i_j the matrix unit on
p-forms:

* act_sym_on_form contracts S with X[a, j] = E_aj w (_matrix_units,
  through _unit_positions), since S need not be symmetric;
* form_s02_expansion and ogiue_tachibana_term read the symmetric-pair
  rows E_ll w, then E_il w + E_li w for i < l (_pair_rows, through
  _pair_positions): the expansion's canonical-basis rows and the
  Ogiue-Tachibana family are these rows, scaled or shifted;
* form_two_point, ric_l_quadratic and bochner_decomposition read
  w_{G K} (_opened, through _opened_positions).

The curvature side reads R's sorted 2-form pairs R[i, j, k, l], i < j and
k < l, with one take through operators._sorted_pair_positions: the
first-kind matrix and the pair block of _s02_form_term.  None of the
tables (_wedge_table, _through, _unit_positions, _pair_positions,
_opened_positions, _symmetric_pairs) reads curvature; each is cached and
read-only.

The five evaluations on one p-form (form_s02_expansion,
second_kind_form_term, bochner_decomposition, ogiue_tachibana_term and
ric_l_quadratic) run their products on one OpenBLAS thread
(_blas.one_blas_thread): at n <= 12 a second thread saves little, and its
spinning between calls makes a loop over them as slow as the host is busy.
The four of them that read R take it as given: validate_curvature's O(n^4)
pass would cost about as much as one evaluation at small n, so R must
already be valid, as that of an operators.Analysis is.  On a tensor
without the curvature symmetries they return a number that means nothing.

The quadratic curvature term is

    g(Ric_L w, w) = p sum R_ij w_{i...} w_{j...}
                    - p(p-1)/2 sum R_{ijkl} w_{ij...} w_{kl...}

and it decomposes as

    3/2 g(Ric_L w, w) = <second-kind quadratic form on the expansion>
                        + p(n-2p)/n sum R_jk w_{j...} w_{k...}
                        + p^2/n^2 scal |w|^2.
"""

import contextvars
from dataclasses import dataclass
from functools import lru_cache
import math
import threading

import numpy as np

from ._blas import lowest_eigenvalue, one_blas_thread
from .errors import DimensionMismatch, POutOfRange
from .operators import (
    first_kind_matrix,
    ricci_scalar,
    second_kind_matrix,
    _rbar_matrix,
    _ricci,
    _sorted_pair_positions,
)
from .tensor_core import (
    PForm,
    canonical_s02_basis,
    is_degree,
    multi_index_array,
    read_only,
    require_square,
)
from .tolerance import residual


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


@lru_cache(maxsize=None)
def _pair_positions(n, p):
    """_unit_positions(n, p) with E_aj's row of the n x n table moved to the
    row of the pair {a, j} in _symmetric_pairs(n): flat is the position in the
    flattened n(n+1)/2 x C(n,p) table of _pair_rows.  E_il w and E_li w,
    i != l, reach disjoint p-tuples (those holding i and not l, and the other
    way round), so no position repeats."""
    flat, source, sign = _unit_positions(n, p)
    count = math.comb(n, p)
    _, _, il, li = _symmetric_pairs(n)
    pair_row = np.empty(n * n, np.intp)
    pair_row[il] = pair_row[li] = np.arange(len(il))
    return read_only(pair_row[flat // count] * count + flat % count), source, sign


def _scatter(positions, w, shape):
    """Zeros of the given shape with sign * w.coeffs[source] put at flat, for
    positions = (flat, source, sign) naming each flat position once."""
    flat, source, sign = positions
    values = w.coeffs[source]
    values *= sign
    X = np.zeros(math.prod(shape))
    # each position occurs once, so plain assignment loses no term
    X[flat] = values
    return X.reshape(shape)


def _matrix_units(w):
    """X[a, j] = E_aj w, the sorted coefficients of e_a ^ i_j w, shape
    (n, n, C(n,p)): S w = sum_{a,j} S[a, j] X[a, j] for every 2-tensor S."""
    n = w.n
    return _scatter(_unit_positions(n, w.p), w, (n, n, len(w.coeffs)))


def _pair_rows(w):
    """The rows E_ll w, then E_il w + E_li w for i < l, in the order of
    _symmetric_pairs(n), shape (n(n+1)/2, C(n,p)): row (i, l) of
    _matrix_units(w) summed with row (l, i), whose supports are disjoint."""
    n = w.n
    return _scatter(_pair_positions(n, w.p), w, (n * (n + 1) // 2, len(w.coeffs)))


def act_sym_on_form(S, w):
    """The p-form S w; diagonal S scales each wedge by the sum of its entries."""
    S = require_square(S, n=w.n)
    coeffs = S.ravel() @ _matrix_units(w).reshape(w.n * w.n, -1)
    return PForm(w.n, w.p, coeffs)


@lru_cache(maxsize=None)
def _opened_positions(n, p, k):
    """_through(n, p-k, k) as read-only flat arrays (flat, source, sign): flat
    is the position of (K, G) in the flattened C(n,p-k) x C(n,k) table of
    _opened, and e_G ^ e_K = sign * e_source."""
    row, sign, g = _through(n, p - k, k)
    flat = np.arange(len(row))[:, None] * math.comb(n, k) + g
    return read_only(flat.ravel()), read_only(row.ravel(), np.intp), sign.ravel()


def _opened(w, k):
    """X[K, G] = w_{G K} over sorted (p-k)-tuples K and k-tuples G (the rows
    of first_kind_matrix for k = 2): E_k^T c in ric_l_matrix's notation."""
    n = w.n
    return _scatter(_opened_positions(n, w.p, k), w, (math.comb(n, w.p - k), math.comb(n, k)))


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

    Each S_a w is read off Y = _pair_rows(w): (E_ij w + E_ji w)/sqrt(2) for
    the pair rows i < j, and the (n-1) x n diagonal block of the basis times
    the rows E_ll w for the rest.
    """
    n = w.n
    basis = canonical_s02_basis(n)
    Y = _pair_rows(w)
    pairs = len(basis) - (n - 1)
    coeff = np.empty((len(basis), Y.shape[1]))
    np.divide(Y[n:], math.sqrt(2.0), out=coeff[:pairs])
    diagonal = np.diagonal(basis[pairs:], axis1=1, axis2=2)
    coeff[pairs:] = diagonal @ Y[:n]
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
    """g(second-kind(w^{S^2_0}), w^{S^2_0}) via the canonical-basis matrix.
    R must already be valid (see the module docstring)."""
    _same_dimension(R, w)
    return float(np.einsum("ab,ab->", second_kind_matrix(R), form_s02_expansion(w).gram()))


@one_blas_thread
def ric_l_quadratic(R, w):
    """The curvature term g(Ric_L w, w), read off the two Grams of w
    (_curvature_term): bochner_decomposition's lhs is 3/2 of it, bit for bit.
    R must already be valid (see the module docstring)."""
    _same_dimension(R, w)
    if w.p == 0:
        return 0.0
    return _curvature_term(R, w, _ricci(R))[0]


def _hodge_class(n, p):
    """The one degree rule of Ric_L: its degrees are 1 <= p <= n, and any
    other p raises POutOfRange.  Degree p is solved as its Hodge class
    min(p, n-p), since Ric_L commutes with the Hodge star and degrees p and
    n-p share one spectrum (test_ric_l_poincare_duality).  Class 0 is p = n,
    where Ric_L is 0, as on the functions that n-forms are dual to."""
    if not (is_degree(p) and 1 <= p <= n):
        raise POutOfRange(f"need 1 <= p <= n, got p={p}")
    return min(p, n - p)


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
    row, 462 at (12, 6).  Read the other way round, each (p-k)-tuple K
    carries one signed principal block of the k-th factor, on the rows
    e_G ^ e_K (_ric_l_rows).  Entrywise, with I, J increasing p-tuples,

      M[I,I] = sum_{i in I} Ric_ii - 2 sum_{a<b in I} R_{abab}
      M[I,J] = s * (Ric_ab - 2 sum_{c in I cap J} R_{acbc})   (|I^J| = p-1)
      M[I,J] = -2 s * R_{abcd}                                (|I^J| = p-2)

    where s carries the wedge reordering parities, I \\ J = {a} (resp.
    {a,b}) and J \\ I = {b} (resp. {c,d}).  For p = 1 this is the Ricci
    matrix; for the unit sphere it is p(n-p) times the identity; for p = n,
    Hodge class 0, it is 0.
    """
    # at p = n the two sums are scal and -scal: return the exact zero
    if _hodge_class(analysis.n, p) == 0:
        return np.zeros((1, 1))
    return _ric_l_rows(analysis, p, math.comb(analysis.n, p))


def _ric_l_factors(analysis, p):
    """Yield (k, X, _through(n, p-k, k)) for k = 1 and then k = 2, k <= p,
    with X the k-th factor of ric_l_matrix: Ric, then -2F."""
    factors = (analysis.summary.ricci, -2.0 * analysis.first_kind)
    for k, X in zip((1, 2)[:p], factors):
        yield k, X, _through(analysis.n, p - k, k)


def _ric_l_rows(analysis, p, end):
    """The first `end` rows of ric_l_matrix(analysis, p), 1 <= p < n; `end`
    is C(n,p), or half of it in the middle degree 2p = n.

    For each (p-k)-tuple K, with (r, s, g) its row of _through(n, p-k, k),
    the k-th factor X adds s_a s_b X[g_a, g_b] to M[r_a, r_b].  One chunk
    of K at a time, one take reads [X, -X, X] at u_a + v_b, u = g C(n,k)
    and v = g each moved on by X.size where the sign is -1, and one
    np.add.at adds it at r_a C(n,p) + r_b.  K runs ascending and k = 1
    comes before k = 2, so each entry sums its terms in one fixed order.

    The rows of H (end = C(n,p)/2), the p-tuples containing 0, are all the
    rows of a K containing 0, the first C(n-1, p-k-1) tuples, and the first
    C(n-p+k-1, k-1) rows of every other K, those whose G contains 0.
    """
    n = analysis.n
    count = math.comb(n, p)
    M = np.zeros((end, count))
    for k, X, (row, sign, g) in _ric_l_factors(analysis, p):
        row = row.astype(np.intp)
        flip = np.where(sign < 0, X.size, 0)
        u = g * math.comb(n, k) + flip
        v = g + flip
        signed = np.concatenate([X.ravel(), -X.ravel(), X.ravel()])
        width = row.shape[1]
        if end == count:
            spans = [(0, len(row), width)]
        else:
            with_zero = math.comb(n - 1, p - k - 1) if p > k else 0
            spans = [(0, with_zero, width), (with_zero, len(row), math.comb(n - p + k - 1, k - 1))]
        for first, last, kept in spans:
            step = max(1, 2**16 // (kept * width))
            for start in range(first, last, step):
                K = slice(start, min(start + step, last))
                at = u[K, :kept, None] + v[K, None, :]
                to = row[K, :kept, None] * count + row[K, None, :]
                # np.add.at takes its fast path only on a 1-D index
                np.add.at(M.reshape(-1), to.ravel(), signed.take(at.ravel()))
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

    residual is tolerance.residual of the sum of the three terms against
    lhs, at the scale s |w|^2 (s the unit scale of R), so 2^e R and 2^f w
    read the residual of R and w.  einstein_residual checks the short
    Einstein form lhs = operator term + p(n-p)/n^2 * scal * |w|^2 the same
    way and is None when the input is not Einstein.
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
        term -= p * (p - 1) * float(np.vdot(Y.ravel().take(_sorted_pair_positions(n)), G))
    return term


def _curvature_term(R, w, ricci):
    """g(Ric_L w, w) in ric_l_matrix's Weitzenboeck form, with no matrix and
    no dense form: p! (<Ric, U^T U> - 2 <F, V^T V>), with U, V = _opened(w, 1),
    _opened(w, 2), F = first_kind_matrix(R) and Ric = ricci.

    Returns (g(Ric_L w, w), W, G, <Ric, W>), with the two Grams W =
    form_two_point(w) and G = (p-2)! V^T V (None for p < 2) that
    _s02_form_term reads.
    """
    n, p = R.n, w.p
    W = form_two_point(w)
    ricci_w = float(np.einsum("ij,ij->", ricci, W))
    quadratic = p * ricci_w
    G = None
    if p >= 2:
        V = _opened(w, 2)
        VtV = V.T @ V
        quadratic -= 2 * math.factorial(p) * float(np.einsum("ab,ab->", first_kind_matrix(R), VtV))
        G = math.factorial(p - 2) * VtV
    # at p = n the two sums are scal and -scal: keep ric_l_matrix's exact zero
    return (quadratic if p < n else 0.0), W, G, ricci_w


@one_blas_thread
def bochner_decomposition(R, w):
    """Evaluate both sides of the decomposition and report the residual.

    The left side is 3/2 of the curvature term (_curvature_term, as
    ric_l_quadratic reads it).  The operator term reads the same two Grams
    (_s02_form_term); second_kind_form_term and ogiue_tachibana_term are its
    oracles.  R must already be valid (see the module docstring).
    """
    n, p = R.n, w.p
    _same_dimension(R, w)
    summary = ricci_scalar(R)
    norm_sq = w.norm_sq
    if p == 0:
        return BochnerReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    quadratic, W, G, ricci_w = _curvature_term(R, w, summary.ricci)
    lhs = 1.5 * quadratic
    # S w = tr(S) w vanishes for every trace-free S
    term_op = _s02_form_term(R, W, G, p) if p < n else 0.0
    term_ricci = (p * (n - 2 * p) / n) * ricci_w
    term_scal = (p**2 / n**2) * summary.scalar * norm_sq
    scale = summary.scale * norm_sq
    three_terms = residual(term_op + term_ricci + term_scal, lhs, scale)
    short = term_op + (p * (n - p) / n**2) * summary.scalar * norm_sq
    einstein = residual(short, lhs, scale) if summary.is_einstein() else None
    return BochnerReport(lhs, term_op, term_ricci, term_scal, three_terms, einstein)


@one_blas_thread
def ogiue_tachibana_term(R, w):
    """Quadratic form of the second kind on w^{S^2_0} via the non-orthogonal
    trace-free family e^i (.) e^j = e^i x e^j + e^j x e^i - (2/n) d_ij g:

        1/4 sum_{ijkl} <(e^i (.) e^l) w, (e^j (.) e^k) w> R_{ijkl}.

    As sum_a E_aa = p on p-forms, (e^i (.) e^l) w = E_il w + E_li w -
    (2p/n) d_il w, a row of _pair_rows(w), doubled for i = l.  The family
    is symmetric in (i, l), so its Gram is taken over the pairs i <= l and
    R is summed over the orderings of each pair.  R must already be valid
    (see the module docstring).
    """
    n, p = w.n, w.p
    _same_dimension(R, w)
    i, l, il, li = _symmetric_pairs(n)
    family = _pair_rows(w)
    family[:n] += family[:n]
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


def _diagonal_ric_l(analysis):
    """True when Ric and F = analysis.first_kind have no nonzero entry off
    their diagonals, so that Ric_L is diagonal in every degree."""
    return all(
        np.count_nonzero(X) == np.count_nonzero(X.diagonal())
        for X in (analysis.summary.ricci, analysis.first_kind)
    )


def _ric_l_diagonal(analysis, p):
    """The diagonal of ric_l_matrix(analysis, p), 0 <= p < n (p = 0 gives
    the one 0 of Ric_L on functions):

      M[I,I] = sum_{i in I} Ric_ii - 2 sum_{a<b in I} F_{ab,ab}.

    Each K adds the diagonal of its block, X[g, g] at its rows r, in the
    order of _ric_l_rows (K ascending, k = 1 before k = 2), so each entry
    equals the assembled one bit for bit.
    """
    diag = np.zeros(math.comb(analysis.n, p))
    for _, X, (row, _, g) in _ric_l_factors(analysis, p):
        np.add.at(diag, row.ravel(), X.diagonal()[g.ravel()])
    return diag


def _ric_l_blocks(analysis, p):
    """Yield what the solve of Hodge class p reads, 0 <= p <= n/2 (see
    _hodge_class), as pairs (block, times): the spectrum of
    ric_l_matrix(analysis, p) is that of the blocks together, each
    eigenvalue taken `times` times.  Each matrix yielded is fresh, so a
    caller may solve it in place; the next one is assembled only when the
    caller asks for it.  None is gated for symmetry: the Analysis validated
    R, which bounds each block's asymmetry (see the module docstring).

    * Class 0, and every class when Ric and F = analysis.first_kind have no
      nonzero entry off their diagonals (a constant-curvature tensor,
      S^1 x S^{n-1} and their perturbations), has M diagonal: the block is
      _ric_l_diagonal, a 1-D array of the eigenvalues themselves, with no
      matrix and no eigensolve.
    * In the middle degree 2p = n, Ric_L commutes with the Hodge star, and
      in the basis of H followed by the signed complements of H,

        M = [[A, B], [** B, A]],   A = M[H, H],   B[I, J] = sign_J * M[I, J^c],

      where H is the first half of the sorted basis, the p-tuples that
      contain 0, and (J^c, sign_J) comes from _hodge_table.  So only the
      rows of H are assembled.  For n = 0 (mod 4), ** = +1, B is symmetric
      and the blocks are A + B and A - B.  For n = 2 (mod 4), ** = -1, B is
      antisymmetric, M is the real form of the Hermitian A + iB, the one
      block, and each of its eigenvalues is taken twice.  B is formed in
      place of the columns it is read from, and the rows are dropped before
      the last block is solved, so a caller that drops each block once
      solved keeps at most the rows and one block alive.
    * Every other class yields the whole matrix.
    """
    n = analysis.n
    if p == 0 or _diagonal_ric_l(analysis):
        yield _ric_l_diagonal(analysis, p), 1
    elif 2 * p != n:
        yield ric_l_matrix(analysis, p), 1
    else:
        half = math.comb(n, p) // 2
        rows = _ric_l_rows(analysis, p, half)
        _, sign = _hodge_table(n, p)
        A, B = rows[:, :half], rows[:, half:]
        # complementing reverses the sorted order, so J^c runs backwards
        # through the second half of the columns
        B[:] = B[:, ::-1] * sign[:half]
        if n % 4:
            H = np.empty((half, half), complex)
            H.real = A
            # + 0.0 turns B's -0.0 into +0.0, as A + 1j * B does
            np.add(B, 0.0, out=H.imag)
            del rows, A, B
            yield H, 2
        else:
            yield A + B, 1
            D = A - B
            del rows, A, B
            yield D, 1


def _solve_cost(n, p):
    """Sum of N^3 over the blocks of class p, 0 <= p <= n/2: C(n,p)^3, and
    two blocks of half that size in the middle degree.  For n <= 15, in any
    set of the classes 1 <= p <= n/2 the costliest costs at least all the
    others together (test_lanes_split_largest_first), so on two lanes, that
    class alone and the rest, it alone sets the time."""
    count = math.comb(n, p)
    return 2 * (count // 2) ** 3 if 2 * p == n else count**3


def _run_lane(analysis, lane, solve, found, failed):
    """Solve each class of one lane into found, or its error into failed: the
    ascending eigenvalues of its blocks (_ric_l_blocks), a diagonal sorted
    and a matrix read by solve, each repeated as its block says."""
    for p in lane:
        try:
            parts = []
            for block, times in _ric_l_blocks(analysis, p):
                parts.append(np.repeat(np.sort(block) if block.ndim == 1 else solve(block), times))
                del block  # solved: drop it before the next one is assembled
            found[p] = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
        except Exception as exc:
            failed[p] = exc


@one_blas_thread
def _solve_ric_l(analysis, degrees, solve):
    """{p: the ascending values _run_lane reads off the blocks of degree p}
    for each p of degrees, each matrix block read by solve: the one solve
    loop of ric_l_spectrum (solve = np.linalg.eigvalsh, every eigenvalue)
    and ric_l_minima (solve = _blas.lowest_eigenvalue, the smallest alone).

    Every degree is mapped to its class (_hodge_class) before anything is
    solved, so a degree outside 1..n raises POutOfRange before any block is
    assembled or any thread started.  Each class is solved once, with
    OpenBLAS on one thread, so each value depends only on the input, not on
    the thread count OpenBLAS was given, the cores or the lanes.

    The classes are independent, so when two or more of them solve a matrix
    they run on two lanes, each of which assembles and solves its own: the
    calling thread takes the class of largest _solve_cost, and one thread,
    started and joined within the call in a copy of the caller's context
    (so it sees the caller's np.errstate), takes the rest, largest first.
    Class 0 and a diagonal Ric_L solve no matrix.  The plan reads the input
    alone, not the host: on one core the two lanes take turns.  Every lane
    is joined before the call returns or raises; a degree that fails raises
    its error, that of the first failing degree in the order given, as a
    loop over them would.
    """
    n = analysis.n
    classes = {p: _hodge_class(n, p) for p in degrees}
    lane = sorted(dict.fromkeys(classes.values()), key=lambda p: _solve_cost(n, p), reverse=True)
    lanes = [lane]
    if sum(p > 0 for p in lane) > 1 and not _diagonal_ric_l(analysis):
        lanes = [lane[:1], lane[1:]]
    found, failed = {}, {}
    thread = None
    try:
        if len(lanes) > 1:
            args = (_run_lane, analysis, lanes[1], solve, found, failed)
            thread = threading.Thread(target=contextvars.copy_context().run, args=args)
            thread.start()
        _run_lane(analysis, lanes[0], solve, found, failed)
    finally:
        if thread is not None:
            thread.join()
    for p in classes.values():
        if p in failed:
            raise failed[p]
    return {p: found[q] for p, q in classes.items()}


def ric_l_spectrum(analysis, p):
    """Ascending eigenvalues of ric_l_matrix(analysis, p).

    Degree p is solved as its Hodge class (_hodge_class), and only what the
    solve reads is assembled (_ric_l_blocks): the closed-form diagonal is
    sorted, and every matrix block is solved with np.linalg.eigvalsh, on one
    OpenBLAS thread (_solve_ric_l).
    """
    return _solve_ric_l(analysis, [p], np.linalg.eigvalsh)[p]


def ric_l_minima(analysis, degrees):
    """{p: the smallest eigenvalue of ric_l_matrix(analysis, p)} for each p of
    degrees: ric_l_spectrum's first, within N eps |M|_2 (and exactly on the
    closed-form diagonal).  It runs ric_l_spectrum's loop (_solve_ric_l),
    its classes on two lanes, but solves each matrix block in place for
    that one eigenvalue (_blas.lowest_eigenvalue).
    """
    return {p: float(v[0]) for p, v in _solve_ric_l(analysis, degrees, lowest_eigenvalue).items()}
