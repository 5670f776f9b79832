"""Derivative-free maximization of the penalized objective.

A standard Nelder-Mead simplex (reflection 1, expansion 2, contraction
0.5, shrink 0.5) runs in a transformed space where positive parameters
live on the log scale and unit-interval ones on the logit scale, making
the search unconstrained. The objective is evaluated under common random
numbers, one fixed evaluation seed per fit, so the surface the simplex
sees is deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    FREE,
    POSITIVE,
    UNIT_INTERVAL,
    DomainError,
    SdeModel,
)
from .likelihood import PenaltyConfig, penalized_log_likelihood

# Clip for transformed coordinates; exp of the bound stays finite.
_Z_CLIP = 700.0
_NUDGE = 1e-8
# Largest double below 1; the logistic saturates to 1.0 exactly for
# moderate arguments and unit-interval values must stay interior.
_UNIT_CEIL = math.nextafter(1.0, 0.0)


class EstimationError(RuntimeError):
    """The optimizer could not produce a usable fit."""


@dataclass(frozen=True)
class OptimizerConfig:
    f_tol: float = 1e-6
    max_evals: int = 1500
    simplex_step: float = 0.1

    def __post_init__(self):
        if self.f_tol < 0:
            raise DomainError("f_tol must be >= 0")
        if self.simplex_step <= 0:
            raise DomainError("simplex_step must be positive")


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    value: float
    evals: int
    converged: bool


def transform(values, constraints: Sequence[str]) -> np.ndarray:
    """Map constrained parameter values to the unconstrained search space.

    Values sitting exactly on a boundary are nudged 1e-8 into the
    interior with a warning; values outside their range raise.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(constraints),):
        raise DomainError("values and constraints must align")
    out = np.empty_like(values)
    for i, kind in enumerate(constraints):
        v = values[i]
        if kind == FREE:
            out[i] = v
        elif kind == POSITIVE:
            if v < 0:
                raise DomainError("positive-constrained value is negative")
            if v == 0:
                warnings.warn("value at the boundary 0 nudged into the interior")
                v = _NUDGE
            out[i] = math.log(v)
        elif kind == UNIT_INTERVAL:
            if not 0.0 <= v <= 1.0:
                raise DomainError("unit-interval value outside [0, 1]")
            if v == 0.0 or v == 1.0:
                warnings.warn("value at a unit-interval boundary nudged inside")
                v = _NUDGE if v == 0.0 else 1.0 - _NUDGE
            out[i] = math.log(v / (1.0 - v))
        else:
            raise DomainError(f"unknown constraint kind {kind!r}")
    return out


def untransform(z, constraints: Sequence[str]) -> np.ndarray:
    """Inverse of transform; always lands strictly inside the constraints."""
    z = np.asarray(z, dtype=float)
    if z.shape != (len(constraints),):
        raise DomainError("z and constraints must align")
    out = np.empty_like(z)
    for i, kind in enumerate(constraints):
        v = float(np.clip(z[i], -_Z_CLIP, _Z_CLIP))
        if kind == FREE:
            out[i] = z[i]
        elif kind == POSITIVE:
            out[i] = math.exp(v)
        elif kind == UNIT_INTERVAL:
            out[i] = min(1.0 / (1.0 + math.exp(-v)), _UNIT_CEIL)
        else:
            raise DomainError(f"unknown constraint kind {kind!r}")
    return out


def nelder_mead(objective: Callable, x0, config: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Maximize objective from x0; stops when the simplex function spread
    falls below f_tol or the evaluation budget runs out.

    The first evaluation must be finite; -inf is tolerated afterwards and
    simply repels the simplex.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    if config.max_evals < d + 2:
        raise DomainError("evaluation budget must be at least dim + 2")
    evals = 0

    def g(x):
        nonlocal evals
        evals += 1
        val = objective(x)
        if math.isnan(val):
            return math.inf
        return -float(val)

    simplex = [x0.copy()]
    for i in range(d):
        v = x0.copy()
        v[i] += config.simplex_step
        simplex.append(v)
    values = [g(v) for v in simplex]
    if not math.isfinite(values[0]):
        raise DomainError("objective is not finite at the initial point")

    converged = False
    while True:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[j] for j in order]
        values = [values[j] for j in order]
        spread = values[-1] - values[0]
        if math.isfinite(spread) and spread <= config.f_tol:
            converged = True
            break
        if evals + 1 > config.max_evals:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = g(reflected)
        if f_r < values[0]:
            if evals + 1 > config.max_evals:
                simplex[-1], values[-1] = reflected, f_r
                continue
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = g(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if evals + 1 > config.max_evals:
                break
            if f_r < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = g(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid - 0.5 * (centroid - simplex[-1])
                f_c = g(contracted)
                accept = f_c < values[-1]
            if accept:
                simplex[-1], values[-1] = contracted, f_c
            else:
                if evals + d > config.max_evals:
                    break
                for j in range(1, d + 1):
                    simplex[j] = simplex[0] + 0.5 * (simplex[j] - simplex[0])
                    values[j] = g(simplex[j])

    best = int(np.argmin(values))
    return OptResult(simplex[best], -values[best], evals, converged)


@dataclass
class PsmlFit:
    """Everything a fit produces: the estimate, its objective, diagnostics."""

    theta: np.ndarray
    rho: float | None
    lam: float
    loglik: float
    objective: float
    diagnostics: list
    evals: int
    converged: bool
    prediction_error: float | None = None
    tune_trace: list = field(default_factory=list)


def maximize_psml(
    model: SdeModel,
    datasets,
    config: PenaltyConfig,
    theta_init,
    rho_init: float | None = None,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    estimate_rho: bool | None = None,
) -> PsmlFit:
    """Jointly maximize the penalized objective over theta (and rho).

    rho is appended to the search space as a unit-interval coordinate
    when the family has one and estimate_rho is not disabled; otherwise
    it stays frozen at rho_init. One evaluation seed drives every
    objective call. The evaluation budget must cover the initial simplex,
    dim + 2 evaluations; a smaller one raises DomainError.
    """
    theta_init = model.validate_theta(theta_init)
    cons = model.param_constraints
    p = len(cons)
    has_rho = config.sampler.has_rho
    if estimate_rho is None:
        estimate_rho = has_rho
    if estimate_rho and not has_rho:
        raise DomainError(f"sampler {config.sampler.kind!r} has no rho to estimate")
    if has_rho:
        rho0 = config.sampler.rho if rho_init is None else float(rho_init)
        if rho0 is None:
            raise DomainError("rho_init required for a rho-bearing sampler")
    else:
        rho0 = None

    x0 = theta_init
    if estimate_rho:
        cons = (*cons, UNIT_INTERVAL)
        x0 = np.append(x0, min(max(rho0, 1e-8), 1.0 - 1e-8))

    def split(z):
        x = untransform(z, cons)
        return (x[:p], float(x[p])) if estimate_rho else (x, rho0)

    if optimizer.max_evals < x0.size + 2:
        raise DomainError("evaluation budget must be at least dim + 2")
    # The best point so far and its evaluation, (z, value, result), so
    # that the fit needs no extra run for its diagnostics. Of equal values
    # the first is kept, as the simplex keeps it; should the simplex still
    # end on another point, that point is evaluated again.
    best = None

    def objective(z):
        nonlocal best
        theta, rho = split(z)
        try:
            value, lik = penalized_log_likelihood(
                model, theta, rho, datasets, config, seed, on_failure="neginf"
            )
        except DomainError:
            return -math.inf
        if best is None or value > best[1]:
            best = (z, value, lik)
        return value

    try:
        res = nelder_mead(objective, transform(x0, cons), optimizer)
    except DomainError as exc:
        raise EstimationError(f"objective not usable at the initial point: {exc}") from exc

    theta_hat, rho_hat = split(res.x)
    if np.array_equal(best[0], res.x):
        _, value, lik = best
    else:
        value, lik = penalized_log_likelihood(
            model, theta_hat, rho_hat, datasets, config, seed, on_failure="neginf"
        )
    return PsmlFit(
        theta=theta_hat,
        rho=rho_hat,
        lam=config.lam,
        loglik=lik.loglik,
        objective=float(value),
        diagnostics=lik.diagnostics,
        evals=res.evals,
        converged=res.converged,
    )
