"""Censored EM fitting of exponential/Weibull mixtures for zero-inflated
inter-arrival-time data, with bootstrap/BIC model selection and intraday
parameter profiling."""

from .components import (
    CensoringInterval,
    ComponentSpec,
    Kind,
    MixtureModel,
    censored_log_likelihood,
    dof,
    interval_prob,
    log_pdf,
    mixture_pdf,
    pdf,
    sample,
)
from .em_core import (
    EmConfig,
    FitResult,
    MStepVariant,
    Responsibilities,
    e_step,
    fit,
    m_step_direct,
    q_objective,
    update_weights,
)
from .errors import (
    BracketError,
    CensemError,
    DegenerateComponentError,
    DomainError,
    InputFormatError,
    NonConvergenceError,
    ResponsibilityUnderflowError,
)
from .sample_data import (
    BucketSpec,
    CensoredSample,
    TimestampSeries,
    bootstrap_resample,
    bucket_by_time,
    build_sample,
    default_censor_spec,
    diff_and_round,
    generate_synthetic,
    subsample,
)
from .special_fn import (
    d_series,
    euler_gamma,
    gamma_complete,
    gamma_lower,
    gamma_upper,
)

__version__ = "0.1.0"
