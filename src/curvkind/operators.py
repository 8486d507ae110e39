"""Self-adjoint operators induced by an algebraic curvature tensor.

* rbar_apply: h |-> sum_{kl} R_{iklj} h_{kl} on symmetric 2-tensors; it
  sends the metric to -Ric and equals the identity on trace-free tensors
  for the unit sphere.
* second_kind_matrix: the trace-free restriction, as a symmetric matrix
  over the canonical orthonormal basis of S^2_0 (dimension (n-1)(n+2)/2).
* first_kind_matrix: the operator on 2-forms over the unit-norm wedge
  basis {e_i ^ e_j}_{i<j}, entries R_{ijkl}.
* require_symmetric / spectrum / cluster_eigenvalues: the symmetry gate,
  deterministic symmetric eigensolve and multiplicity grouping.

Trace normalizations (checked in tests): tr over the wedge basis is
scal/2, and the second-kind trace is (n+2)/(2n) * scal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymmetric
from .tensor_core import (
    canonical_s02_basis,
    canonical_s2_basis,
    multi_indices,
    require_square,
    sym_inner,
)


@dataclass(frozen=True)
class CurvatureSummary:
    """Ricci tensor, scalar curvature and the Einstein defect |Ric - (scal/n) g|."""

    ricci: np.ndarray
    scalar: float
    einstein_defect: float

    @property
    def n(self):
        return self.ricci.shape[0]

    def is_einstein(self, tol=None):
        if tol is None:
            tol = 1e-10 * max(1.0, abs(self.scalar))
        return self.einstein_defect <= tol


def rbar_apply(R, h):
    """(R-bar h)_{ij} = sum_{kl} R_{iklj} h_{kl} for symmetric h."""
    h = require_square(h, n=R.n)
    return np.einsum("iklj,kl->ij", R.components, h)


def ricci_scalar(R):
    """Ricci tensor Ric_{ij} = sum_k R_{ikjk}, its trace, and Einstein defect."""
    ric = np.einsum("ikjk->ij", R.components)
    scal = float(np.trace(ric))
    defect = float(np.linalg.norm(ric - (scal / R.n) * np.eye(R.n)))
    return CurvatureSummary(ricci=ric, scalar=scal, einstein_defect=defect)


def _gram_against(R, basis):
    """Matrix <Rbar(B_a), B_b> over a stacked basis of symmetric tensors."""
    rb = np.einsum("iklj,akl->aij", R.components, basis)
    return np.einsum("aij,bij->ab", rb, basis)


def second_kind_matrix(R):
    """Matrix of the second-kind operator over canonical_s02_basis(R.n).

    The trace-free projection is implicit: the Gram is taken against
    trace-free elements only.
    """
    return _gram_against(R, canonical_s02_basis(R.n))


def rbar_full_matrix(R):
    """Matrix of R-bar over canonical_s2_basis(R.n) (the full S^2 operator)."""
    return _gram_against(R, canonical_s2_basis(R.n))


def first_kind_matrix(R):
    """Matrix over the unit wedges {e_i ^ e_j}_{i<j}: entries R_{ijkl}."""
    pairs = np.array(multi_indices(R.n, 2))
    i, j = pairs[:, 0], pairs[:, 1]
    return R.components[i[:, None], j[:, None], i[None, :], j[None, :]]


# rows per stripe of the symmetry gate
_STRIPE = 64


def require_symmetric(M, symmetry_tol=None):
    """M as a float array, after checking that it is square and symmetric.

    Raises NotSymmetric when the asymmetry exceeds 1e-12 * max|entry|.  The
    upper triangle is compared with the lower one stripe of rows at a time,
    so no temporary is as large as M.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    if symmetry_tol is None:
        scale = max(float(M.max(initial=0.0)), -float(M.min(initial=0.0)))
        symmetry_tol = 1e-12 * max(scale, 1e-300)
    for s in range(0, len(M), _STRIPE):
        e = s + _STRIPE
        if float(np.abs(M[s:e, s:] - M[s:, s:e].T).max()) > symmetry_tol:
            raise NotSymmetric("matrix is not symmetric within tolerance")
    return M


def spectrum(M, symmetry_tol=None):
    """Ascending eigenvalues of a symmetric matrix (gated by require_symmetric)."""
    return np.linalg.eigvalsh(require_symmetric(M, symmetry_tol))


def spectral_decomposition(M, symmetry_tol=None):
    """Eigenvalues and orthonormal eigenvectors (columns), ascending."""
    return np.linalg.eigh(require_symmetric(M, symmetry_tol))


def cluster_eigenvalues(values, tol=None):
    """Group sorted eigenvalues into multiplicity clusters.

    Returns a list of (mean value, multiplicity); the default gap tolerance
    is 1e-7 * (1 + spectral radius).
    """
    values = np.sort(np.asarray(values, dtype=float))
    if tol is None:
        tol = 1e-7 * (1.0 + float(np.abs(values).max(initial=0.0)))
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            block = values[start:i]
            clusters.append((float(block.mean()), len(block)))
            start = i
    return clusters


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
    if T.ndim == 0 or T.shape != (n,) * T.ndim:
        raise DimensionMismatch(f"tensor of shape {T.shape} does not live on n={n}")
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


def act_sym_dense(S, T):
    """(S T)_{i_1..i_k} = sum_m sum_j S_{i_m j} T_{i_1..j..i_k} on dense arrays."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    out = np.zeros_like(T)
    for m in range(T.ndim):
        out += np.moveaxis(np.tensordot(T, S, axes=([m], [1])), -1, m)
    return out
