"""Semi-supervised EM for univariate mixture models.

Finite-sample EM with labeled and unlabeled data, deterministic population
operators evaluated by adaptive quadrature, and verifiers for the
contraction coefficients and convergence-rate bounds they satisfy.
"""

from .em import EmConfig, Trajectory, m_step_expfam, m_step_gmm, m_step_sym2, q_value, run_em
from .errors import (
    ConfigError,
    DegenerateDenominator,
    DomainError,
    EmptyComponent,
    MeanOutOfRange,
    NoConvergence,
    NotExpFam,
    NumericOverflow,
    ProbeOutsideRegime,
    ProbeTooCloseToFixedPoint,
    QuadratureFailure,
    SsemError,
    TrajectoryTooShort,
)
from .model import (
    BUILTIN_FAMILIES,
    ExpFamilySpec,
    MixtureParams,
    ModelKind,
    Support,
    component_log_density,
    exponential_spec,
    gaussian_spec,
    invert_alpha_prime,
    marginal_log_density,
    poisson_spec,
    responsibility,
)
from .population import (
    PopulationModel,
    PopulationStep,
    QuadratureScheme,
    c_theta,
    dm0_dtheta_sym2,
    expect,
    pop_m0,
    pop_m_gamma,
    run_population_em,
    theta_star_from_labels,
)
from .analysis import (
    ContractionReport,
    RateBoundReport,
    RescueReport,
    beta_theoretical,
    contraction_ratio,
    demonstrate_rescue,
    empirical_rate,
    gaussian_tail_sandwich,
    rate_bound_item1,
    rate_bound_item2,
    rate_bound_item3,
    verify_theorem1,
    verify_theorem2,
)
from .sampling import Dataset, SampleConfig, load_dataset_csv, sample_dataset, save_dataset_csv

__version__ = "0.1.0"
