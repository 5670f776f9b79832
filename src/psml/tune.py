"""Penalty-weight selection and parametric-bootstrap intervals.

The penalty weight lambda is chosen by a ladder search on the estimated
prediction error: fit at the current lambda, then walk down one step at
a time (or up, if the walk down cannot move) for as long as each
accepted move improves the error by more than a threshold. Prediction
error is the mean Euclidean distance between observed data and
replicate simulations from the fitted parameters.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    NumericalError,
    derive_seed,
    rng_stream,
    simulate_dataset,
    simulate_paths_batch,
)
from .likelihood import PenaltyConfig, _as_datasets
from .optimize import EstimationError, OptimizerConfig, PsmlFit, maximize_psml

# Sub-seed tags so every consumer of a tune/bootstrap seed gets its own stream.
_TAG_OBJECTIVE = 0
_TAG_PREDICTION = 1
_TAG_BOOT_DATA = 2
_TAG_BOOT_FIT = 3


@dataclass(frozen=True)
class TuneConfig:
    """Ladder settings: start, stop threshold, step sizes, simulation count."""

    eps0: float
    delta_eps: float
    lambda0: float = 0.5
    delta_lambda: float = 0.025
    n_sims: int = 1000
    max_steps: int = 200

    def __post_init__(self):
        if self.eps0 <= 0 or self.delta_eps <= 0:
            raise DomainError("eps0 and delta_eps must be positive")
        if self.lambda0 < 0 or self.delta_lambda <= 0:
            raise DomainError("lambda0 must be >= 0 and delta_lambda > 0")
        if self.n_sims < 1 or self.max_steps < 1:
            raise DomainError("n_sims and max_steps must be positive")


TUNE_PRESETS = {
    "ou": TuneConfig(eps0=0.04, delta_eps=0.001),
    "lorenz63": TuneConfig(eps0=3.5, delta_eps=0.1),
    "cwd-direct": TuneConfig(eps0=5.0, delta_eps=0.5),
}


@dataclass(frozen=True)
class TraceEntry:
    lam: float
    eps: float
    accepted: bool


@dataclass
class TuneResult:
    lam: float
    fit: PsmlFit
    trace: list


def prediction_error(model, theta, datasets, substeps, n_sims, rng) -> float:
    """Mean distance between observations and replicate simulations.

    Simulates n_sims paths from each dataset's initial condition over its
    grid and averages the Euclidean distance over observed coordinates,
    across all observation times, datasets, and replicates.
    """
    datasets = _as_datasets(datasets)
    obs = list(model.observed)
    total = 0.0
    n_total = 0
    for ds in datasets:
        grid = ds.grid(substeps)
        sims = simulate_paths_batch(model, theta, ds.x0, grid, n_sims, rng)
        diffs = sims[:, :, obs] - ds.values[:, None, :]
        total += float(np.linalg.norm(diffs, axis=-1).sum())
        n_total += ds.n
    return total / (n_total * n_sims)


def run_lambda_ladder(
    evaluate: Callable[[float, PsmlFit | None], tuple[PsmlFit, float]],
    config: TuneConfig,
) -> TuneResult:
    """Drive the ladder over lambda given an evaluate(lam, warm_fit) callback.

    The callback fits at one lambda (optionally warm-started) and returns
    (fit, prediction error). The ladder starts at lambda0, stops as soon
    as the error beats eps0, otherwise walks down in delta_lambda steps
    while each move improves the error by more than delta_eps. If the
    walk down does not move lambda (its first probe is rejected, or
    lambda0 is already 0) it walks up instead, under the same rule. Each
    walk takes at most max_steps probes; lambda is clamped at 0.
    """
    lam = config.lambda0
    fit, eps = evaluate(lam, None)
    trace = [TraceEntry(lam, eps, True)]
    for step in (-config.delta_lambda, config.delta_lambda):
        start = lam
        for _ in range(config.max_steps):
            if eps < config.eps0:
                break
            probe = max(lam + step, 0.0)
            if probe == lam:
                break  # already at the clamp
            fit_p, eps_p = evaluate(probe, fit)
            improved = eps - eps_p > config.delta_eps
            trace.append(TraceEntry(probe, eps_p, improved))
            if not improved:
                break
            lam, fit, eps = probe, fit_p, eps_p
        if lam != start or eps < config.eps0:
            break
    return TuneResult(lam, fit, trace)


def tune_lambda(
    model,
    datasets,
    tune_config: TuneConfig,
    penalty: PenaltyConfig,
    theta_init,
    rho_init: float | None = None,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    estimate_rho: bool | None = None,
) -> TuneResult:
    """Select lambda for one dataset collection by the ladder rule.

    Fits share one objective seed (common random numbers across lambda)
    and the prediction-error simulations share another, so error
    comparisons between lambda values are paired. Later fits warm-start
    at the previously accepted estimate.
    """
    obj_seed = derive_seed(seed, _TAG_OBJECTIVE)
    pred_seed = derive_seed(seed, _TAG_PREDICTION)

    def evaluate(lam: float, warm: PsmlFit | None):
        cfg = replace(penalty, lam=lam)
        th0 = warm.theta if warm is not None else theta_init
        r0 = warm.rho if warm is not None and warm.rho is not None else rho_init
        fit = maximize_psml(
            model, datasets, cfg, th0, r0, optimizer, seed=obj_seed, estimate_rho=estimate_rho
        )
        eps = prediction_error(
            model, fit.theta, datasets, penalty.substeps, tune_config.n_sims,
            rng_stream(pred_seed),
        )
        fit.prediction_error = eps
        return fit, eps

    result = run_lambda_ladder(evaluate, tune_config)
    result.fit.tune_trace = result.trace
    return result


# ---------------------------------------------------------------------------
# Parametric bootstrap


@dataclass
class BootstrapResult:
    replicates: np.ndarray  # (n_ok, p) parameter estimates
    rho_replicates: np.ndarray | None
    intervals: np.ndarray  # (p, 2) empirical quantile bands
    alpha: float
    n_failed: int


def _map(fn, payloads, workers: int) -> list:
    """fn over payloads, on a process pool when workers > 1, in payload order."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


def _bootstrap_one(payload):
    """Simulate replicate b's data and estimate on it.

    The estimate hook, when given, replaces the refit. Returns (theta,
    rho), or None when the replicate fails numerically.
    """
    (model, theta, rho, lam, templates, sampler, n_paths, substeps,
     optimizer, seed, b, estimate_rho, data_substeps, estimate) = payload
    try:
        sims = [
            simulate_dataset(
                model, theta, t.x0, t.grid(data_substeps), rng_stream(seed, _TAG_BOOT_DATA, b, j)
            )
            for j, t in enumerate(templates)
        ]
        if estimate is not None:
            th, rh = estimate(sims, b)
            return th, rh
        cfg = PenaltyConfig(lam=lam, n_paths=n_paths, substeps=substeps, sampler=sampler)
        fit = maximize_psml(
            model, sims, cfg, theta, rho, optimizer,
            seed=derive_seed(seed, _TAG_BOOT_FIT, b), estimate_rho=estimate_rho,
        )
        return fit.theta, fit.rho
    except (EstimationError, NumericalError):
        return None


def parametric_bootstrap(
    model,
    theta,
    rho: float | None,
    lam: float,
    templates,
    sampler,
    n_paths: int,
    substeps: int,
    n_replicates: int = 200,
    alpha: float = 0.05,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    estimate_rho: bool | None = None,
    data_substeps: int | None = None,
    workers: int = 1,
    estimate=None,
) -> BootstrapResult:
    """Quantile intervals from refitting simulated replicates of the data.

    Each replicate simulates every template dataset at the fitted theta
    and re-estimates with the tuned lambda held fixed, warm-started at
    the original estimate. Replicates run on a pool of ``workers``
    processes and come back in replicate order. A replicate that raises
    EstimationError or NumericalError counts as failed; more than 10%
    failed replicates aborts. The ``estimate(sims, b)`` hook replaces the
    refit (testing seam); it runs in this process, one replicate after
    another, whatever ``workers`` says.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    if n_replicates < 2:
        raise DomainError("need at least 2 bootstrap replicates")
    templates = _as_datasets(templates)
    data_substeps = substeps if data_substeps is None else data_substeps

    payloads = [
        (model, np.asarray(theta, float), rho, float(lam), templates, sampler,
         n_paths, substeps, optimizer, seed, b, estimate_rho, data_substeps, estimate)
        for b in range(n_replicates)
    ]
    # A hook may close over this process's state, so it never leaves it.
    outcomes = _map(_bootstrap_one, payloads, 1 if estimate is not None else workers)
    done = [out for out in outcomes if out is not None]
    n_failed = n_replicates - len(done)
    if n_failed > 0.1 * n_replicates:
        raise EstimationError(
            f"{n_failed} of {n_replicates} bootstrap replicates failed"
        )
    reps = np.asarray([th for th, _ in done], dtype=float)
    intervals = np.quantile(reps, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0).T
    rho_reps = None
    if any(rh is not None for _, rh in done):
        rho_reps = np.asarray([float(rh) for _, rh in done])
    return BootstrapResult(reps, rho_reps, intervals, alpha, n_failed)
