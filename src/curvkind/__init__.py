"""Curvature operators of the second kind on finite-dimensional model
spaces: exact spectra, the Weitzenboeck curvature term on p-forms, weighted
eigenvalue-sum bounds and vanishing-theorem certificates."""

__version__ = "0.1.0"

from .bochner import (
    BochnerReport,
    act_sym_on_form,
    bochner_decomposition,
    form_s02_expansion,
    form_two_point,
    ogiue_tachibana_term,
    ric_l_matrix,
    ric_l_minima,
    ric_l_quadratic,
    ric_l_spectrum,
    second_kind_form_term,
)
from .errors import (
    CurvatureSymmetryError,
    CurvkindError,
    DimensionMismatch,
    InfeasibleWeights,
    KOutOfRange,
    NotSymmetric,
    POutOfRange,
    ShapeMismatch,
    VariantPreconditionFailed,
)
from .model_spaces import (
    constant_curvature,
    curvature_from_spec,
    perturb_constant,
    product_sphere,
    random_curvature,
    su3_so3,
)
from .operators import (
    Analysis,
    CurvatureSummary,
    cluster_eigenvalues,
    first_kind_matrix,
    ricci_scalar,
    second_kind_matrix,
    spectrum,
)
from .tensor_core import (
    CurvatureTensor,
    PForm,
    canonical_s02_basis,
    curvature_symmetry_report,
    dimension_cap,
    kulkarni_nomizu,
    multi_indices,
    random_trace_free,
    s02_dimension,
    sort_with_sign,
    trace_free_project,
    validate_curvature,
)
from .weights import (
    Certificate,
    Constants,
    certify,
    constants,
    k_partial_sum,
    k_positivity_profile,
    min_weighted_sum,
    ric_l_lower_bounds,
    ricci_lower_bounds,
)
