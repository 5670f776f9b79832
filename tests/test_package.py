"""The package as a whole: its public names and the cost of importing it."""

import os
import subprocess
import sys
from pathlib import Path

import psml

PUBLIC_NAMES = [
    "BootstrapResult", "CwdDirectModel", "Dataset", "DomainError", "EpisodeSpec",
    "EstimationError", "Lorenz63Model", "MODEL_NAMES", "MethodSpec", "NumericalError",
    "OptimizerConfig", "OuModel", "ParticleCloud", "PenaltyConfig", "PsmlFit",
    "STUDY_PRESETS", "SamplerSpec", "SdeModel", "StepFunction", "StudyConfig",
    "TUNE_PRESETS", "TimeGrid", "TransitionFailure", "TuneConfig", "TuneResult",
    "cwd_sigma", "derive_seed", "load_dataset", "log_likelihood",
    "make_model", "matrix_sqrt", "maximize_psml", "nelder_mead", "ou_exact_mle",
    "parametric_bootstrap", "penalized_log_likelihood", "prediction_error",
    "propose_transition", "r0_estimate", "rng_stream", "run_study", "save_dataset",
    "simulate_dataset", "transform", "tune_lambda", "untransform",
]


def test_public_names():
    assert psml.__all__ == PUBLIC_NAMES
    assert all(hasattr(psml, name) for name in psml.__all__)


def test_import_leaves_the_process_pool_unloaded():
    # a bootstrap or study on one worker never needs the pool machinery,
    # so importing psml does not pay for it
    src = str(Path(psml.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, psml; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
