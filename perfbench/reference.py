"""Independent reference values for the benchmark's correctness gate.

Nothing here imports curvkind.  Every quantity is recomputed from the raw
tensor components by another route than the library takes, so a change that
breaks the library does not also break the check:

* spectra of the second- and first-kind operators come from the full
  n^2 x n^2 action restricted to an orthonormal basis found by
  diagonalising the subspace projector (not the library's canonical basis);
* Ric_L on p-forms is assembled as -sum_ab F_ab D_a D_b, with D_a the
  derivation of the skew matrix E_ij - E_ji on p-forms and F the first-kind
  matrix, instead of the library's entry formula;
* bounds and certificates follow the closed forms stated in the paper, with
  the library's documented thresholds.
"""

from functools import lru_cache
from itertools import combinations
import math

import numpy as np

# Tolerances of the gate.  Spectra and derived sums must agree to these
# relative accuracies; the identity tolerances are the library selftest's.
RTOL = 1e-9
DECOMPOSITION_TOL = 1e-9
AGREEMENT_TOL = 1e-10
TOTAL_WEIGHT_TOL = 1e-10

# Documented decision thresholds of the certificates (relative to the
# spectral radius r): positive means > 1e-12 (1 + r), nonnegative means
# >= -1e-10 r, Einstein means defect <= 1e-10 max(1, |scal|).
_POS, _NONNEG, _EINSTEIN, _CLUSTER = 1e-12, 1e-10, 1e-10, 1e-7


def _subspace_basis(projector):
    vals, vecs = np.linalg.eigh(projector)
    return vecs[:, vals > 0.5]


@lru_cache(maxsize=None)
def _sym_and_alt_bases(n):
    """Orthonormal bases of trace-free symmetric and of antisymmetric n x n
    matrices, as columns of vec(h) with vec index i*n + j."""
    eye = np.eye(n * n)
    swap = eye.reshape(n, n, n, n).transpose(1, 0, 2, 3).reshape(n * n, n * n)
    g = np.eye(n).reshape(-1)
    sym_tf = (eye + swap) / 2 - np.outer(g, g) / n
    alt = (eye - swap) / 2
    return _subspace_basis(sym_tf), _subspace_basis(alt)


def _restricted_eigs(K, Q):
    M = Q.T @ K @ Q
    return np.linalg.eigvalsh((M + M.T) / 2)


def second_kind_eigs(R):
    """Eigenvalues of h -> sum_kl R_iklj h_kl on trace-free symmetric h."""
    n = R.shape[0]
    K = R.transpose(0, 3, 1, 2).reshape(n * n, n * n)
    return _restricted_eigs(K, _sym_and_alt_bases(n)[0])


def first_kind_eigs(R):
    """Eigenvalues over unit 2-forms.  On a unit antisymmetric matrix the
    full action w -> sum_kl R_ijkl w_kl is twice the first-kind operator."""
    n = R.shape[0]
    K = R.reshape(n * n, n * n)
    return _restricted_eigs(K, _sym_and_alt_bases(n)[1]) / 2


def ricci(R):
    return np.einsum("ikjk->ij", R)


def summary(R):
    ric = ricci(R)
    n = R.shape[0]
    scal = float(np.trace(ric))
    defect = float(np.linalg.norm(ric - (scal / n) * np.eye(n)))
    return {"ricci_eigenvalues": np.linalg.eigvalsh(ric), "scalar": scal,
            "einstein_defect": defect,
            "einstein": defect <= _EINSTEIN * max(1.0, abs(scal))}


@lru_cache(maxsize=None)
def _derivations(n, p):
    """For every pair i < j, the derivation of E_ij - E_ji on p-forms over
    sorted multi-indices, as arrays (rows, cols, signs) of equal length."""
    idx = list(combinations(range(n), p))
    pos = {I: r for r, I in enumerate(idx)}
    rows, cols, signs = [], [], []
    for i, j in combinations(range(n), 2):
        r_, c_, s_ = [], [], []
        for c, I in enumerate(idx):
            if (i in I) == (j in I):
                continue
            # E_ij - E_ji sends e_j to e_i and e_i to -e_j
            old, new, coef = (j, i, 1) if j in I else (i, j, -1)
            rest = [x for x in I if x != old]
            m = I.index(old)
            k = sum(1 for x in rest if x < new)
            J = tuple(sorted(rest + [new]))
            r_.append(pos[J])
            c_.append(c)
            s_.append(coef * (-1) ** abs(m - k))
        rows.append(r_)
        cols.append(c_)
        signs.append(s_)
    return np.array(rows), np.array(cols), np.array(signs, dtype=float), len(idx)


def _first_kind_matrix(R):
    pairs = np.array(list(combinations(range(R.shape[0]), 2)))
    i, j = pairs[:, 0], pairs[:, 1]
    return R[i[:, None], j[:, None], i[None, :], j[None, :]]


def ric_l_matrix(R, p):
    """Ric_L on p-forms in sorted-coefficient coordinates, -sum F_ab D_a D_b."""
    n = R.shape[0]
    rows, cols, signs, dim = _derivations(n, p)
    F = _first_kind_matrix(R)
    flat = (rows * dim + cols).ravel()
    M = np.zeros((dim, dim))
    for a in range(len(rows)):
        weights = (F[a][:, None] * signs).ravel()
        G = np.bincount(flat, weights=weights, minlength=dim * dim).reshape(dim, dim)
        M[rows[a]] -= signs[a][:, None] * G[cols[a]]
    return (M + M.T) / 2


def ric_l_min_eigs(R, degrees):
    """Smallest Ric_L eigenvalue and spectral radius per degree.  Degrees
    above n/2 are read from their Hodge duals n - p, which share the
    spectrum."""
    n = R.shape[0]
    out = {}
    for p in sorted({min(q, n - q) for q in degrees}):
        eigs = np.linalg.eigvalsh(ric_l_matrix(R, p))
        out[p] = (float(eigs[0]), float(np.abs(eigs).max()))
    return {q: out[min(q, n - q)] for q in degrees}


# ---------------------------------------------------------------------------
# eigenvalue-sum calculus and certificates, from the paper's closed forms


def partial_sum(eigs, k):
    m = int(math.floor(k))
    if m >= len(eigs):
        return float(eigs.sum())
    return float(eigs[:m].sum() + (k - m) * eigs[m])


def min_weighted(eigs, omega, total):
    m = min(int(math.floor(total / omega)), len(eigs))
    value = omega * float(eigs[:m].sum())
    if m < len(eigs):
        value += (total - m * omega) * float(eigs[m])
    return value


def c_p(n, p):
    return 1.5 * n * (n + 2) * p * (n - p) / (
        n * n * p - n * p * p - 2 * n * p + 2 * n * n + 2 * n - 4 * p)


def bounds(eigs, einstein, n, p):
    total = 1.5 * p * (n - p)
    out = {
        "weak": (n * n * p - n * p * p - 2 * n * p + 2 * n * n + 4 * n - 8 * p) / (n * (n + 2)),
        "improved": (n * n * p - n * p * p - 2 * n * p + 2 * n * n + 2 * n - 4 * p) / (n * (n + 2)),
    }
    out = {k: (2.0 / 3.0) * min_weighted(eigs, w, total) for k, w in out.items()}
    if p == 1:
        out["one_form"] = (2.0 / 3.0) * min_weighted(eigs, (2.0 * n - 1.0) / (n + 2.0), 1.5 * (n - 1.0))
    if einstein:
        out["einstein"] = (2.0 / 3.0) * (p * (n - p) / n) * min_weighted(
            eigs, (n + 4.0) / (n + 2.0), 1.5 * n)
    return out


def k_profile(eigs):
    radius = float(np.abs(eigs).max(initial=0.0))
    positive = nonnegative = None
    running = 0.0
    for m, lam in enumerate(eigs, start=1):
        running += lam
        if positive is None and running > _POS * (1.0 + radius):
            positive = m
        if nonnegative is None and running >= -_NONNEG * radius:
            nonnegative = m
    return {"positive": positive, "nonnegative": nonnegative}


def cluster_sizes(eigs):
    tol = _CLUSTER * (1.0 + float(np.abs(eigs).max(initial=0.0)))
    cuts = np.flatnonzero(np.diff(eigs) > tol)
    return np.diff(np.concatenate(([0], cuts + 1, [len(eigs)]))).tolist()


def certificates(eigs, einstein, n, kappa):
    """(theorem, p, verdict, sums) per certificate, in the library's order."""
    radius = float(np.abs(eigs).max(initial=0.0))
    N = len(eigs)

    def nonneg(v):
        return v >= -_NONNEG * radius

    def pos(v):
        return v > _POS * (1.0 + radius)

    def exists_below(threshold):
        grid = [float(k) for k in range(1, min(N, math.ceil(threshold)))]
        under = threshold * (1.0 - 1e-12)
        if 1.0 <= under <= N:
            grid.append(under)
        return any(nonneg(partial_sum(eigs, k)) for k in grid)

    def verdict(ok):
        return "holds" if ok else "fails"

    out = []
    a = (n + 2) / 2
    s = partial_sum(eigs, a)
    out.append(("A", None, verdict(nonneg(s)), {"order": a, "partial_sum": s}))
    if n >= 4:
        s = partial_sum(eigs, 3.0)
        out.append(("A-corollary", None, verdict(nonneg(s)), {"order": 3.0, "partial_sum": s}))
    if einstein:
        ne = 1.5 * n * (n + 2) / (n + 4)
        s = partial_sum(eigs, ne)
        out.append(("B(a)", None, verdict(pos(s)), {"order": ne, "partial_sum": s}))
        out.append(("B(b)", None, verdict(exists_below(ne)), {"order_upper": ne}))
        out.append(("B(c)", None, verdict(nonneg(s)), {"order": ne, "partial_sum": s}))
    for p in range(1, n // 2 + 1):
        c = c_p(n, p)
        s = partial_sum(eigs, c)
        out.append(("C(a)", p, verdict(pos(s)), {"order": c, "partial_sum": s}))
        out.append(("C(b)", p, verdict(exists_below(c)), {"order_upper": c}))
        out.append(("C(c)", p, verdict(nonneg(s)), {"order": c, "partial_sum": s}))
    if kappa is not None:
        s = partial_sum(eigs, a)
        out.append(("D-hypothesis", None, verdict(s >= a * kappa - _NONNEG * radius),
                    {"order": a, "partial_sum": s, "required": a * kappa, "kappa": kappa}))
    return out


# ---------------------------------------------------------------------------
# tensor components of the model-spec vocabulary


def _constant(n, kappa):
    eye = np.eye(n)
    return kappa * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))


def _kulkarni_nomizu(h, k):
    return (np.einsum("ik,jl->ijkl", h, k) + np.einsum("jl,ik->ijkl", h, k)
            - np.einsum("il,jk->ijkl", h, k) - np.einsum("jk,il->ijkl", h, k))


def _su3_so3():
    """-tr([X,Y][Z,W]) on an orthonormal basis of traceless symmetric 3x3."""
    e = np.zeros((5, 3, 3))
    e[0] = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    e[1] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)], start=2):
        e[a, i, j] = e[a, j, i] = 1.0 / np.sqrt(2.0)
    br = np.einsum("aij,bjk->abik", e, e) - np.einsum("bij,ajk->abik", e, e)
    return -np.einsum("abij,cdji->abcd", br, br)


def components(spec):
    """The (n, n, n, n) components a well-formed model spec describes."""
    kind = spec["kind"]
    if kind == "constant_curvature":
        return _constant(int(spec["n"]), float(spec.get("kappa", 1.0)))
    if kind == "product_sphere":
        n = int(spec["n"])
        R = np.zeros((n, n, n, n))
        R[1:, 1:, 1:, 1:] = _constant(n - 1, 1.0)
        return R
    if kind == "su3_so3":
        return _su3_so3()
    if kind == "kn_product":
        return _kulkarni_nomizu(np.array(spec["h"], dtype=float), np.array(spec["k"], dtype=float))
    if kind == "perturbed":
        base = components(spec["base"])
        return base + _constant(base.shape[0], float(spec["kappa"]))
    if kind == "dense":
        n = int(spec["n"])
        return np.array(spec["components"], dtype=float).reshape(n, n, n, n)
    raise ValueError(f"no reference for model kind {kind!r}")
