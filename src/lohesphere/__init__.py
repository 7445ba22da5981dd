"""Aggregation dynamics of unit vectors in C^d and their mean-field diagnostics.

A numpy/scipy laboratory for the centroid-coupled aggregation model on the
complex unit sphere: structure-preserving integration, order-parameter
diagnostics, exact Wasserstein distances between empirical
measures, and seven verification experiments with quantitative pass/fail
bounds.
"""

__version__ = "0.1.0"

from .dynamics import (
    CouplingParams,
    Ensemble,
    TensorEnsemble,
    lhs_rhs,
    lhs_rhs_pairwise,
    lt_rhs,
)
from .geometry import matrix_exp_family
from .integrators import (
    IntegratorConfig,
    IntegrationError,
    Trajectory,
    integrate,
    split_transform,
)
from .observables import (
    ObservableSeries,
    aggregation_defect,
    dj_dt_norm_bound_check,
    functional_F,
    functional_G,
    j_vector,
    lp_distance,
    order_parameter,
    pair_extremes,
    r_squared_rate,
)
from .sampling import sample_admissible
from .transport import (
    EmpiricalMeasure,
    SupportSizeError,
    TransportPlan,
    wasserstein_bruteforce,
    wasserstein_general,
    wasserstein_nested_track,
    wasserstein_uniform,
    wasserstein_uniform_nested,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)

__all__ = [
    "__version__",
    "CouplingParams",
    "Ensemble",
    "TensorEnsemble",
    "lhs_rhs",
    "lhs_rhs_pairwise",
    "lt_rhs",
    "matrix_exp_family",
    "IntegratorConfig",
    "IntegrationError",
    "Trajectory",
    "integrate",
    "split_transform",
    "ObservableSeries",
    "aggregation_defect",
    "dj_dt_norm_bound_check",
    "functional_F",
    "functional_G",
    "j_vector",
    "lp_distance",
    "order_parameter",
    "pair_extremes",
    "r_squared_rate",
    "sample_admissible",
    "EmpiricalMeasure",
    "SupportSizeError",
    "TransportPlan",
    "wasserstein_bruteforce",
    "wasserstein_general",
    "wasserstein_nested_track",
    "wasserstein_uniform",
    "wasserstein_uniform_nested",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
]
