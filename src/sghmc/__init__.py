"""Underdamped Langevin / SGHMC toolkit.

Samplers for the discrete momentum dynamics and their coupled runs,
certified smoothness/dissipativity constants for the built-in objectives,
the full derived-constant chain (contraction rates, moment bounds, risk
bounds), Wasserstein and rho-semimetric estimators, and a seeded experiment
harness. See README.md for usage.
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    ConfigurationError,
    DivergenceError,
    EvaluationError,
    NumericalError,
    SghmcError,
)
from .objectives import (
    Dataset,
    ObjectiveSpec,
    SmoothnessCertificate,
    audit_assumptions,
    double_well,
    empirical_gradient,
    empirical_risk,
    gaussian_mixture,
    make_dataset,
    make_objective,
    quad_growth_sandwich,
    quadratic,
    register_objective,
)
from .gradient_oracle import (
    VarianceCurve,
    estimate_delta,
    variance_scaling_curve,
)
from .samplers import (
    InitialLaw,
    SamplerConfig,
    Trajectory,
    coupled_run,
    gaussian_init,
    point_init,
    run_chain,
)
from .metrics import (
    SampleCloud,
    quad_growth_continuity_check,
    rho_distance_cloud,
    sliced_wasserstein,
    wasserstein_1d,
    wasserstein_exact_small,
)
from . import theory
from .harness import ExperimentConfig, RunManifest, rate_study, run_experiment, validate_config
