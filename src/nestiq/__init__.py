"""Nested integration with randomized quasi-Monte Carlo.

Double-loop estimators for integrals of the form "outer map of an inner
integral", pilot-based near-optimal sample allocation under bias/variance
constraints, and expected-information-gain estimation for Bayesian optimal
experimental design.
"""

from .lds import (
    RandomizationKey,
    SobolParams,
    load_direction_numbers,
    owen_scramble,
    sobol_sequence,
    star_discrepancy_1d,
    star_discrepancy_brute,
)
from .stats import (
    PriorComponent,
    PriorSpec,
    TruncationSetting,
    inv_norm_cdf,
    log_sum_exp,
    norm_cdf,
    replicate_variance,
    truncated_inv_norm_cdf,
    truncation_radius,
)
from .estimators import (
    EstimatorResult,
    NestedProblem,
    dlmc_estimate,
    mc_estimate,
    rdlqmc_estimate,
    rqmc_estimate,
    tensor_quadrature_reference,
)
from .allocation import (
    AllocationPlan,
    FitQualityError,
    InfeasiblePlanError,
    PilotConstants,
    brute_force_allocation,
    confidence_constant,
    fit_pilot_inner,
    fit_pilot_outer,
    solve_allocation,
)
from .models import (
    LinearGaussianModel,
    PKModel,
    SyntheticDiscretizedModel,
    pk_designs,
    pk_prior,
)
from .oed import (
    OEDProblem,
    closed_form_entropy_term,
    eig_conjugate_oracle,
    eig_importance_sampled,
    eig_laplace_only,
    eig_nested,
    eig_quadrature,
)

__version__ = "0.1.0"
