"""Self-adjoint operators induced by an algebraic curvature tensor.

* second_kind_matrix: R-bar h = sum_{kl} R_{iklj} h_{kl} restricted to
  trace-free symmetric 2-tensors, as a symmetric matrix over the canonical
  orthonormal basis of S^2_0 (dimension (n-1)(n+2)/2).  It is two GEMMs,
  (B @ Rbar) @ B.T, with B the basis as rows of n^2 entries and Rbar the
  n^2 x n^2 matrix of R-bar (_rbar_matrix).
* first_kind_matrix: the operator on 2-forms over the unit-norm wedge
  basis {e_i ^ e_j}_{i<j}, entries R_{ijkl}.
* require_symmetric / spectrum / cluster_eigenvalues: the symmetry gate,
  deterministic symmetric (or Hermitian) eigensolve and multiplicity
  grouping.  Their floors follow the scale rule of tolerance.
* Analysis: the three facts about R that the certificates and the Ric_L
  bounds read (summary, first-kind matrix, second-kind spectrum), each
  computed once, when first read.

Trace normalizations (checked in tests): tr over the wedge basis is
scal/2, and the second-kind trace is (n+2)/(2n) * scal.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotSymmetric
from .tensor_core import CurvatureTensor, canonical_s02_basis, multi_index_array, read_only
from .tolerance import CLUSTER, EINSTEIN, SYMMETRY, peak, unit_scale


@dataclass(frozen=True)
class CurvatureSummary:
    """Ricci tensor, scalar curvature, the Einstein defect |Ric - (scal/n) g|
    and the unit scale of R: the power of two s with 1 <= max|R|/s < 2
    (s = 1 for R = 0; tolerance.unit_scale).

    is_einstein compares the defect with 1e-10 * max(s, |scal|), so the
    verdict does not change when R is multiplied by a power of two.  The
    eigenvalue clusters of every spectrum of R also read s.
    """

    ricci: np.ndarray
    scalar: float
    einstein_defect: float
    scale: float

    @property
    def n(self):
        return self.ricci.shape[0]

    def is_einstein(self):
        return self.einstein_defect <= EINSTEIN * max(self.scale, abs(self.scalar))


def ricci_scalar(R):
    """Ricci tensor Ric_{ij} = sum_k R_{ikjk}, its trace, Einstein defect and
    unit scale s (see CurvatureSummary).

    The defect is s * |dev / s| with dev = Ric - (scal/n) g: dividing by a
    power of two is exact, the squares of dev / s cannot overflow, and the
    defect of 2^e R is 2^e times that of R.
    """
    scale = unit_scale(R.components)
    ric = np.einsum("ikjk->ij", R.components)
    scal = float(np.trace(ric))
    deviation = ric - (scal / R.n) * np.eye(R.n)
    defect = scale * float(np.linalg.norm(deviation / scale))
    return CurvatureSummary(ricci=ric, scalar=scal, einstein_defect=defect, scale=scale)


def _rbar_matrix(R):
    """R-bar on all n x n matrices, flattened to n^2 entries: the symmetric
    n^2 x n^2 matrix Rbar[(k,l), (i,j)] = R_{iklj}."""
    n = R.n
    return R.components.transpose(1, 2, 0, 3).reshape(n * n, n * n)


def _gram_against(R, basis):
    """Matrix <Rbar(B_a), B_b> over a stacked basis of symmetric tensors, as
    two GEMMs (B @ Rbar) @ B.T over the basis flattened to rows."""
    B = basis.reshape(len(basis), R.n * R.n)
    return (B @ _rbar_matrix(R)) @ B.T


def second_kind_matrix(R):
    """Matrix of the second-kind operator over canonical_s02_basis(R.n).

    The trace-free projection is implicit: the Gram is taken against
    trace-free elements only.
    """
    return _gram_against(R, canonical_s02_basis(R.n))


def first_kind_matrix(R):
    """Matrix over the unit wedges {e_i ^ e_j}_{i<j}: entries R_{ijkl}."""
    i, j = multi_index_array(R.n, 2).T
    return R.components[i[:, None], j[:, None], i[None, :], j[None, :]]


# rows per stripe of the symmetry gate
_STRIPE = 64


def require_symmetric(M, symmetry_tol=None):
    """M as a float array, after checking that it is square and symmetric.

    A complex M is kept complex and checked to be Hermitian.  Raises
    NotSymmetric when the asymmetry exceeds 1e-12 * max|entry|.  The upper
    triangle is compared with the lower one stripe of rows at a time, so no
    temporary is as large as M.
    """
    M = np.asarray(M)
    if not np.iscomplexobj(M):
        M = M.astype(float, copy=False)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    if symmetry_tol is None:
        symmetry_tol = SYMMETRY * peak(M)
    for s in range(0, len(M), _STRIPE):
        e = s + _STRIPE
        if float(np.abs(M[s:e, s:] - M[s:, s:e].T.conj()).max()) > symmetry_tol:
            raise NotSymmetric("matrix is not symmetric within tolerance")
    return M


def spectrum(M, symmetry_tol=None):
    """Ascending eigenvalues of a symmetric or Hermitian matrix (gated by
    require_symmetric)."""
    return np.linalg.eigvalsh(require_symmetric(M, symmetry_tol))


def spectral_decomposition(M):
    """Eigenvalues and orthonormal eigenvectors (columns), ascending."""
    return np.linalg.eigh(require_symmetric(M))


def cluster_eigenvalues(values, scale):
    """Group sorted eigenvalues into multiplicity clusters.

    Returns a list of (mean value, multiplicity); the gap tolerance is
    1e-7 * (scale + spectral radius).  scale is the unit scale of the input
    the spectrum came from (Analysis.scale for a spectrum of R), so a
    spectrum that is roundoff around 0 while R is not stays one cluster.
    """
    values = np.sort(np.asarray(values, dtype=float))
    tol = CLUSTER * (scale + peak(values))
    cuts = np.flatnonzero(np.diff(values) > tol) + 1
    # an empty input splits into one empty block, which is no cluster
    return [(float(block.mean()), len(block)) for block in np.split(values, cuts) if len(block)]


@dataclass(frozen=True)
class Analysis:
    """One curvature tensor R and what the analysis layer reads about it.

    summary (ricci_scalar), first_kind (first_kind_matrix) and second_kind
    (the ascending spectrum of second_kind_matrix) are each computed at
    most once, when first read.  scale is R's unit scale, summary.scale
    without the Ricci contraction: the clusters of every spectrum of R read
    it.  Every caller gets the same arrays, so they are read-only.
    """

    R: CurvatureTensor

    @property
    def n(self):
        return self.R.n

    @cached_property
    def summary(self):
        return ricci_scalar(self.R)

    @cached_property
    def scale(self):
        return unit_scale(self.R.components)

    @cached_property
    def first_kind(self):
        return read_only(first_kind_matrix(self.R))

    @cached_property
    def second_kind(self):
        return read_only(spectrum(second_kind_matrix(self.R)))


def act_sym_dense(S, T):
    """(S T)_{i_1..i_k} = sum_m sum_j S_{i_m j} T_{i_1..j..i_k} on dense arrays."""
    S = np.asarray(S, dtype=float)
    T = np.asarray(T, dtype=float)
    out = np.zeros_like(T)
    for m in range(T.ndim):
        out += np.moveaxis(np.tensordot(T, S, axes=([m], [1])), -1, m)
    return out
