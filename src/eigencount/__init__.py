"""Certified upper bounds on eigenvalue counts of perturbed operators.

The library models L = L0 + K on (C^dim, l1/l2/linf), computes
approximation numbers of the perturbation, bounds a regularized
perturbation determinant on circles, and converts determinant growth
into counts of eigenvalues outside disks. Every bound is checkable
against a brute-force eigenvalue oracle, and the verify module ships
seeded suites doing exactly that.
"""

from .approx import (
    ApproxSequence,
    Certainty,
    approx_numbers,
    koenig_check,
    koenig_constant,
    rank_n_approximant,
    rank_n_factors,
)
from .bounds import (
    BoundReport,
    Prepared,
    count_bound_disk,
    count_bound_disk_simple,
    count_bound_region,
    koenig_count_bound,
    lambert_w,
    moment_bound,
    phi_p,
    phi_p_envelope,
    prepare,
    pseudospectral_epsilon,
    t_star,
)
from .config import DEFAULT, Tolerances
from .determinants import (
    DetSample,
    GammaP,
    GammaProvenance,
    det_bound_rhs,
    det_regularized,
    det_regularized_log,
    gamma_p_upper,
    perturbation_determinant,
    scalar_factor_log,
)
from .errors import (
    AdmissibilityError,
    ContourError,
    EigencountError,
    EigenvalueError,
    MatrixError,
    NormalizationError,
    SingularResolventError,
    SpecFormatError,
)
from .numerics import (
    LowRankSketch,
    NormKind,
    Spectrum,
    as_matrix,
    cluster_radius,
    eigenvalues,
    induced_norm,
    low_rank_sketch,
    numerical_rank,
    resolvent,
    resolvent_norms,
    shifted_solve,
    singular_value_rank,
    singular_values,
)
from .operators import (
    Dense,
    Diagonal,
    OperatorModel,
    RankOne,
    Shift,
    Zero,
    materialize,
    parse_spec,
    serialize_spec,
)
from .oracle import (
    CountCurve,
    JensenVerdict,
    count_curve,
    eigen_count_outside,
    jensen_check,
    lacunary_coefficients,
    low_rank_count_outside,
    moment_from_curve,
    moment_sum,
    shift_example,
    winding_count,
    winding_from_samples,
)
from .verify import (
    CorpusEntry,
    SuiteResult,
    regression_corpus,
    run_suites,
    soundness_sweep,
    sweep_radii,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "NormKind", "Spectrum", "as_matrix", "cluster_radius", "eigenvalues", "singular_values",
    "induced_norm", "numerical_rank", "singular_value_rank", "resolvent",
    "resolvent_norms", "shifted_solve", "LowRankSketch", "low_rank_sketch",
    # operators
    "OperatorModel", "Shift", "Diagonal", "Dense", "Zero", "RankOne",
    "materialize", "parse_spec", "serialize_spec",
    # approx
    "ApproxSequence", "Certainty", "approx_numbers", "rank_n_approximant",
    "rank_n_factors", "koenig_check", "koenig_constant",
    # determinants
    "GammaP", "GammaProvenance", "DetSample", "det_regularized",
    "det_regularized_log", "scalar_factor_log", "gamma_p_upper",
    "perturbation_determinant", "det_bound_rhs",
    # bounds
    "BoundReport", "Prepared", "prepare", "lambert_w", "phi_p", "phi_p_envelope",
    "t_star", "count_bound_disk", "count_bound_disk_simple", "count_bound_region",
    "koenig_count_bound", "moment_bound", "pseudospectral_epsilon",
    # oracle
    "CountCurve", "eigen_count_outside", "low_rank_count_outside", "count_curve", "moment_sum",
    "moment_from_curve", "winding_count", "winding_from_samples",
    "JensenVerdict", "jensen_check", "shift_example", "lacunary_coefficients",
    # verify
    "CorpusEntry", "SuiteResult", "regression_corpus", "soundness_sweep",
    "sweep_radii", "run_suites",
    # config and errors
    "Tolerances", "DEFAULT", "EigencountError", "MatrixError", "EigenvalueError",
    "SingularResolventError", "SpecFormatError", "AdmissibilityError",
    "ContourError", "NormalizationError",
]
