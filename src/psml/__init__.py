"""Penalized simulated maximum likelihood for partially observed SDEs."""

from .core import (
    Dataset,
    DomainError,
    NumericalError,
    SdeModel,
    TimeGrid,
    derive_seed,
    load_dataset,
    rng_stream,
    save_dataset,
    simulate_dataset,
)
from .likelihood import (
    PenaltyConfig,
    TransitionFailure,
    log_likelihood,
    penalized_log_likelihood,
)
from .models import (
    CwdDirectModel,
    Lorenz63Model,
    MODEL_NAMES,
    OuModel,
    make_model,
    ou_exact_mle,
    r0_estimate,
)
from .optimize import (
    EstimationError,
    OptimizerConfig,
    PsmlFit,
    maximize_psml,
)
from .samplers import SamplerSpec, propose_transition
from .study import (
    EpisodeSpec,
    MethodSpec,
    STUDY_PRESETS,
    StudyConfig,
    run_study,
)
from .tune import (
    TUNE_PRESETS,
    BootstrapResult,
    TuneConfig,
    TuneResult,
    parametric_bootstrap,
    prediction_error,
    tune_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "CwdDirectModel",
    "Dataset",
    "DomainError",
    "EpisodeSpec",
    "EstimationError",
    "Lorenz63Model",
    "MODEL_NAMES",
    "MethodSpec",
    "NumericalError",
    "OptimizerConfig",
    "OuModel",
    "PenaltyConfig",
    "PsmlFit",
    "STUDY_PRESETS",
    "SamplerSpec",
    "SdeModel",
    "StudyConfig",
    "TUNE_PRESETS",
    "TimeGrid",
    "TransitionFailure",
    "TuneConfig",
    "TuneResult",
    "derive_seed",
    "load_dataset",
    "log_likelihood",
    "make_model",
    "maximize_psml",
    "ou_exact_mle",
    "parametric_bootstrap",
    "penalized_log_likelihood",
    "prediction_error",
    "propose_transition",
    "r0_estimate",
    "rng_stream",
    "run_study",
    "save_dataset",
    "simulate_dataset",
    "tune_lambda",
]
