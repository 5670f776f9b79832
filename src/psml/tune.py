"""Penalty-weight selection and parametric-bootstrap intervals.

The penalty weight lambda is chosen by a ladder search on the estimated
prediction error: fit at the current lambda, then walk down one step at
a time (or up, if the walk down cannot move) for as long as each
accepted move improves the error by more than a threshold. Prediction
error is the mean Euclidean distance between observed data and
replicate simulations from the fitted parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    DomainError,
    NumericalError,
    _euler,
    _simulate_datasets,
    derive_seed,
    rng_stream,
    simulate_dataset,
)
from .likelihood import _DRAW_CACHE_BYTES, PenaltyConfig, _as_datasets, _draw_nbytes
from .optimize import (
    EstimationError,
    OptimizerConfig,
    PsmlFit,
    _maximize_group,
    maximize_psml,
)

# Sub-seed tags so every consumer of a tune/bootstrap seed gets its own stream.
_TAG_OBJECTIVE = 0
_TAG_PREDICTION = 1
_TAG_BOOT_DATA = 2
_TAG_BOOT_FIT = 3

# Most bootstrap refits that one lockstep group holds. A cwd-direct
# evaluation in a group costs each fit 0.61x of a solo one at 2 fits,
# 0.36x at 8 and 0.30x at 16 and at 32 (2-core Xeon, numpy 2.4).
_GROUP_FITS = 32


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
    across all observation times, datasets, and replicates. The paths of
    all datasets read the one stream rng, in dataset order and, within a
    dataset, one (n_sims, k) draw per substep (core._euler).
    """
    datasets = _as_datasets(datasets)
    obs = list(model.observed)
    total = 0.0
    n_total = 0
    for ds in datasets:
        starts = np.broadcast_to(ds.x0, (n_sims, model.dim))
        sims = _euler(model, theta, starts, ds.grid(substeps), rng)
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
        # imported here: the pool machinery adds about 20 ms to `import psml`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


def _bootstrap_one(payload):
    """Simulate the data of a chunk of replicates and estimate on it.

    Each template's data for the whole chunk comes from one Euler loop,
    one path per replicate. Should that loop raise, the replicates are
    simulated again one at a time, in replicate order, so that the
    replicate that fails, and how, is what a solo simulation gives. The
    chunk's refits run in one lockstep group (optimize._maximize_group),
    each bit for bit its own maximize_psml; the estimate hook, when
    given, replaces them and runs one replicate after another. Returns
    per replicate (theta, rho), or None where the replicate failed
    numerically, which never reaches another replicate of the chunk.
    """
    (model, theta, rho, lam, templates, sampler, n_paths, substeps,
     optimizer, seed, chunk, estimate_rho, data_substeps, estimate) = payload
    out = dict.fromkeys(chunk)
    try:
        per_template = [
            _simulate_datasets(model, theta, t.x0, t.grid(data_substeps),
                               [rng_stream(seed, _TAG_BOOT_DATA, b, j) for b in chunk])
            for j, t in enumerate(templates)
        ]
        batch = dict(zip(chunk, map(list, zip(*per_template))))
    except Exception:
        batch = None
    data = {}
    for b in chunk:
        try:
            if batch is not None:
                sims = batch[b]
            else:
                sims = [
                    simulate_dataset(
                        model, theta, t.x0, t.grid(data_substeps), rng_stream(seed, _TAG_BOOT_DATA, b, j)
                    )
                    for j, t in enumerate(templates)
                ]
            if estimate is None:
                data[b] = sims
            else:
                th, rh = estimate(sims, b)
                out[b] = (th, rh)
        except (EstimationError, NumericalError):
            pass
    if data:
        cfg = PenaltyConfig(lam=lam, n_paths=n_paths, substeps=substeps, sampler=sampler)
        fits = _maximize_group(
            model,
            [(sims, theta, rho, derive_seed(seed, _TAG_BOOT_FIT, b)) for b, sims in data.items()],
            cfg, optimizer, estimate_rho,
        )
        for b, fit in zip(data, fits):
            if not isinstance(fit, EstimationError):
                out[b] = (fit.theta, fit.rho)
    return list(out.values())


def _chunks(n_replicates: int, workers: int, group: int) -> list:
    """Near-equal contiguous chunks of the replicate indices: at least one
    per worker, and none above group replicates."""
    count = min(n_replicates, max(workers, math.ceil(n_replicates / group)))
    size, extra = divmod(n_replicates, count)
    bounds = [c * size + min(c, extra) for c in range(count + 1)]
    return [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


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
    the original estimate. Replicates run in contiguous chunks, at least
    one per worker and at most _GROUP_FITS replicates each (fewer when a
    group's draws would overflow the draw cache), on a pool of
    ``workers`` processes; a chunk fits its replicates in lockstep, and
    they come back in replicate order. A replicate that raises
    EstimationError or NumericalError counts as failed; more than 10%
    failed replicates aborts. The ``estimate(sims, b)`` hook replaces the
    refit (testing seam); it runs in this process, one replicate after
    another, whatever ``workers`` says.
    """
    theta = model.validate_theta(theta)
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    if n_replicates < 2:
        raise DomainError("need at least 2 bootstrap replicates")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    templates = _as_datasets(templates)
    data_substeps = substeps if data_substeps is None else data_substeps

    # A hook may close over this process's state, so it never leaves it.
    workers = 1 if estimate is not None else workers
    # A group's _Rows holds its fits' draws from one evaluation to the next,
    # so the draw cache's byte bound caps a group's draw memory.
    per_fit = sum(
        _draw_nbytes(t.n, n_paths, substeps, model.dim, len(model.unobserved)) for t in templates
    )
    group = max(1, min(_GROUP_FITS, _DRAW_CACHE_BYTES // max(per_fit, 1)))
    payloads = [
        (model, theta, rho, float(lam), templates, sampler,
         n_paths, substeps, optimizer, seed, chunk, estimate_rho, data_substeps, estimate)
        for chunk in _chunks(n_replicates, workers, group)
    ]
    outcomes = [out for chunk in _map(_bootstrap_one, payloads, workers) for out in chunk]
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
