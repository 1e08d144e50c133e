"""netacorr: dependence statistics and Monte Carlo harnesses for network data.

What lives where:

- graph: edge-list IO, weight matrices, geodesics, random network generators
- deptest: Moran's I / Geary's c, randomization null moments, permutation test
- simulate: transmission, latent-field, degree-confound, and toy generators
- inference: naive mean CI, OLS, known-covariance GLS, one-component LMM
- experiments: the Monte Carlo studies (coverage, spurious regression,
  degree confounding, GLS correction, correlation distributions)
- cli: the ``netacorr`` command-line entry point
"""

from ._version import __version__
from .deptest import (
    MoranResult,
    NullMoments,
    PermutationConfig,
    gearys_c,
    morans_i,
    normal_test,
    null_moments,
    permutation_test,
)
from .errors import (
    BadCovarianceError,
    DegenerateStatisticError,
    InputError,
    NetacorrError,
    NumericError,
    SingularDesignError,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentReport,
    run_correlation_distribution,
    run_coverage_experiment,
    run_degree_confounding_experiment,
    run_gls_correction_experiment,
    run_spurious_regression_experiment,
    write_report,
)
from .graph import (
    Network,
    adjacency_weights,
    degrees,
    generate_random_network,
    geodesic_distances,
    inverse_geodesic_weights,
    is_connected,
    load_edge_list,
)
from .inference import (
    LmmFit,
    MeanEstimate,
    RegressionFit,
    gls,
    lmm_fit,
    mean_ci_naive,
    ols,
)
from .simulate import (
    ConfoundConfig,
    LatentConfig,
    TransmissionConfig,
    degree_confounded_covariate,
    direct_transmission,
    latent_field,
    latent_variable_outcome,
    monotone_pair,
    standardized_degrees,
    transmission_covariance,
)

__all__ = [
    "__version__",
    "Network", "load_edge_list", "adjacency_weights", "inverse_geodesic_weights",
    "geodesic_distances", "degrees", "is_connected", "generate_random_network",
    "NullMoments", "MoranResult", "PermutationConfig", "morans_i", "gearys_c",
    "null_moments", "permutation_test", "normal_test",
    "TransmissionConfig", "LatentConfig", "ConfoundConfig",
    "transmission_covariance", "direct_transmission", "latent_field",
    "latent_variable_outcome", "degree_confounded_covariate",
    "standardized_degrees", "monotone_pair",
    "MeanEstimate", "RegressionFit", "LmmFit", "mean_ci_naive", "ols", "gls",
    "lmm_fit",
    "ExperimentReport", "EXPERIMENT_NAMES", "run_correlation_distribution",
    "run_coverage_experiment", "run_spurious_regression_experiment",
    "run_degree_confounding_experiment", "run_gls_correction_experiment",
    "write_report",
    "NetacorrError", "InputError", "SingularDesignError", "BadCovarianceError",
    "DegenerateStatisticError", "NumericError",
]
