"""Constrained maximum-likelihood identification of innovation-form models.

The package identifies linear state-space models driven by their innovation
errors, including the integrating-disturbance structure used for offset-free
control, subject to eigenvalue constraints expressed as matrix-inequality
regions.  Semidefinite constraints are converted to smooth nonlinear
programs through a sparse Cholesky-factor substitution, solved by a
self-contained augmented-Lagrangian method.
"""

from .indexsets import (
    IndexSet,
    PatternError,
    complement,
    diagonal,
    direct_sum,
    empty_set,
    full_lower,
    project_lower,
    vecs,
)
from .regions import (
    LmiRegion,
    band,
    char_fn,
    cone,
    contains,
    disk,
    eig_membership,
    half_plane,
    intersect,
    left_half_plane,
    matrix_char_fn,
    membership_margin,
)
from .transform import (
    ConstraintSystem,
    DomainError,
    FactorPoint,
    SingularPivotError,
    ThetaPoint,
    complete_factor,
    completion_is_trivial,
    epsilon_box,
    gbmz_forward,
    gbmz_inverse,
    reconstruct_q,
    transformed_constraints,
)
from .statespace import (
    Dataset,
    EigenReport,
    FilterDivergedError,
    InnovationModel,
    LadmSpec,
    ParameterLayout,
    assemble_ladm,
    eigen_report,
    filter_innovations,
    identification_index,
    likelihood_gradients,
    neg_log_likelihood,
    simulate,
)
from .nlp import (
    FdGradientError,
    GradientMismatchError,
    NlpProblem,
    SolveOptions,
    SolveReport,
    fd_gradient,
    fd_jacobian,
    preflight_gradients,
    solve,
)
from .oracle import (
    BarrierQuery,
    BarrierResult,
    barrier_solve,
    within_sublevel,
)
from .identify import (
    EigConstraintSpec,
    ExtendedProblem,
    FitResult,
    InitializationError,
    ProblemSpec,
    build_nlp,
    epsilon_continuation,
    extend_with_eig_constraints,
    fit,
    varx_init,
)

__version__ = "0.1.0"
