"""Directional moments of standardized cross-sections.

Cross-sectional observations are centered and scaled onto the unit
sphere; this package provides the closed-form mean direction, resultant
length, and covariance of that direction under Gaussian models, the
induced moments and optimizers of forecast projections, seeded Monte
Carlo verification, and an empirical panel pipeline.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    InvalidCovarianceError,
    MalformedInputError,
    ModelError,
    NoUniqueSolutionError,
    UndefinedMeanDirectionError,
)
from .moments import (
    GaussianModel,
    HomoscedasticModel,
    MomentSummary,
    cov_chi_homoscedastic,
    expectation_T,
    md_mrl_homoscedastic,
    projected_cov_canonical,
    two_dim_exact,
    two_dim_normal,
    variance_T,
    variance_T_homoscedastic,
)
from .montecarlo import (
    DensityEstimate,
    DirectionalSample,
    SeededStream,
    estimate_chi_mrl,
    estimate_cov,
    estimate_md_mrl,
    ic_distribution,
    kde,
    md_perturbation_experiment,
    projected_moments_mc,
    sample_chi,
    sample_mvn,
    scatter_matrix,
)
from .optimize import (
    OptimizationResult,
    max_expectation,
    mean_variance_homoscedastic,
    min_variance,
    symmetric_eigen,
)
from .specfun import f_var, g_var, kummer_m, varrho
from .sphere import (
    Representation,
    UnitDirection,
    build_representation,
    center,
    centering_matrix,
    helmert_v,
    standardize,
    standardize_rows,
    support_surface_area,
)

__all__ = [
    "__version__",
    # errors
    "ConvergenceError", "DegenerateInputError", "DimensionError",
    "DomainError", "InvalidCovarianceError", "MalformedInputError",
    "ModelError", "NoUniqueSolutionError", "UndefinedMeanDirectionError",
    # special functions
    "kummer_m", "varrho", "f_var", "g_var",
    # sphere
    "UnitDirection", "Representation", "center", "centering_matrix",
    "standardize", "standardize_rows", "helmert_v", "build_representation",
    "support_surface_area",
    # moments
    "HomoscedasticModel", "GaussianModel", "MomentSummary",
    "two_dim_exact", "two_dim_normal", "md_mrl_homoscedastic",
    "cov_chi_homoscedastic", "projected_cov_canonical", "expectation_T",
    "variance_T", "variance_T_homoscedastic",
    # optimization
    "OptimizationResult", "max_expectation", "symmetric_eigen",
    "min_variance", "mean_variance_homoscedastic",
    # monte carlo
    "SeededStream", "DirectionalSample", "DensityEstimate",
    "sample_mvn", "sample_chi", "estimate_md_mrl", "estimate_cov",
    "scatter_matrix", "estimate_chi_mrl", "projected_moments_mc", "kde",
    "ic_distribution", "md_perturbation_experiment",
]
