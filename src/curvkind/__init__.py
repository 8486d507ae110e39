"""Curvature operators of the second kind on finite-dimensional model
spaces: exact spectra, the Weitzenboeck curvature term on p-forms, weighted
eigenvalue-sum bounds and vanishing-theorem certificates."""

__version__ = "0.1.0"

from .bochner import (
    BochnerReport,
    FormS02Expansion,
    act_sym_on_form,
    bochner_decomposition,
    bochner_ricci_diagonal_residual,
    form_s02_expansion,
    form_two_point,
    general_tensor_bochner_check,
    ogiue_tachibana_term,
    ric_l_apply_dense,
    ric_l_matrix,
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
    act_sym_dense,
    cluster_eigenvalues,
    first_kind_matrix,
    rbar_apply,
    ricci_scalar,
    second_kind_matrix,
    spectral_decomposition,
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
    rotate_curvature,
    rotate_form,
    s02_dimension,
    sort_with_sign,
    sym_inner,
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
    ric_l_lower_bound,
    ricci_lower_bound_improved,
    ricci_lower_bound_weak,
    theorem_d_hypothesis,
)
