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
    _real,
    _whole,
)
from .likelihood import PenaltyConfig, _likelihoods, _objective, _Problem

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
        object.__setattr__(self, "max_evals", _whole(self.max_evals, "max_evals"))
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
    out = []
    for zi, kind in zip(z.tolist(), constraints):
        v = min(max(zi, -_Z_CLIP), _Z_CLIP)  # np.clip's value, without its overhead
        if kind == FREE:
            out.append(zi)
        elif kind == POSITIVE:
            out.append(math.exp(v))
        elif kind == UNIT_INTERVAL:
            out.append(min(1.0 / (1.0 + math.exp(-v)), _UNIT_CEIL))
        else:
            raise DomainError(f"unknown constraint kind {kind!r}")
    return np.array(out, dtype=float)


def _simplex(x0, config: OptimizerConfig):
    """Ask/tell Nelder-Mead maximization from x0.

    A generator: it yields lists of points to evaluate, the d + 1
    vertices at the start, d at a shrink and otherwise one, receives
    their objective values in the same order, and returns the OptResult.
    It stops when the simplex function spread falls below f_tol or the
    evaluation budget runs out. The first value must be finite; -inf is
    tolerated afterwards and simply repels the simplex.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    if config.max_evals < d + 2:
        raise DomainError("evaluation budget must be at least dim + 2")
    evals = 0

    def ask(points):
        nonlocal evals
        values = yield points
        evals += len(points)
        return [math.inf if math.isnan(v) else -float(v) for v in values]

    simplex = [x0.copy()]
    for i in range(d):
        v = x0.copy()
        v[i] += config.simplex_step
        simplex.append(v)
    values = yield from ask(simplex)
    if not math.isfinite(values[0]):
        raise DomainError("objective is not finite at the initial point")

    converged = False
    while True:
        order = sorted(range(len(values)), key=values.__getitem__)  # stable
        simplex = [simplex[j] for j in order]
        values = [values[j] for j in order]
        spread = values[-1] - values[0]
        if math.isfinite(spread) and spread <= config.f_tol:
            converged = True
            break
        if evals + 1 > config.max_evals:
            break
        centroid = np.add.reduce(simplex[:-1], axis=0) / d  # np.mean's steps
        reflected = centroid + (centroid - simplex[-1])
        [f_r] = yield from ask([reflected])
        if f_r < values[0]:
            if evals + 1 > config.max_evals:
                simplex[-1], values[-1] = reflected, f_r
                continue
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            [f_e] = yield from ask([expanded])
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
                [f_c] = yield from ask([contracted])
                accept = f_c <= f_r
            else:
                contracted = centroid - 0.5 * (centroid - simplex[-1])
                [f_c] = yield from ask([contracted])
                accept = f_c < values[-1]
            if accept:
                simplex[-1], values[-1] = contracted, f_c
            else:
                if evals + d > config.max_evals:
                    break
                simplex[1:] = [simplex[0] + 0.5 * (v - simplex[0]) for v in simplex[1:]]
                values[1:] = yield from ask(simplex[1:])

    best = int(np.argmin(values))
    return OptResult(simplex[best], -values[best], evals, converged)


def nelder_mead(objective: Callable, x0, config: OptimizerConfig = OptimizerConfig()) -> OptResult:
    """Maximize objective from x0 with the simplex of _simplex, evaluating
    its points one at a time, in order."""
    search = _simplex(x0, config)
    points = next(search)
    while True:
        try:
            points = search.send([objective(x) for x in points])
        except StopIteration as done:
            return done.value


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


class _Fit:
    """One fit's side of a _maximize_group search: its start z0 in the
    search space, the map from search points to (theta, rho), its index
    in the group's prepared problem, the best evaluation so far and the
    PsmlFit.

    The best evaluation is kept as (z, value, result), so that the fit
    needs no extra run for its diagnostics. Of equal values the first is
    kept, as the simplex keeps it; should the simplex still end on
    another point, that point is evaluated again. A fixed rho that the
    family refuses is refused once, here: every point of the fit then
    reads as its DomainError (refused), as the first one ends the search,
    and the fit's EstimationError names it as its cause.
    """

    def __init__(self, model, datasets, config, theta_init, rho_init, optimizer, seed,
                 estimate_rho, group: _Problem):
        theta_init = model.validate_theta(theta_init)
        self.index = group.add(datasets, seed)
        cons = model.param_constraints
        has_rho = config.sampler.has_rho
        if estimate_rho is None:
            estimate_rho = has_rho
        if estimate_rho and not has_rho:
            raise DomainError(f"sampler {config.sampler.kind!r} has no rho to estimate")
        rho0 = None
        if has_rho:
            rho0 = config.sampler.rho if rho_init is None else _real(rho_init, "rho_init")
        self.refused = None
        x0 = theta_init
        if estimate_rho:
            cons = (*cons, UNIT_INTERVAL)
            x0 = np.append(x0, min(max(rho0, 1e-8), 1.0 - 1e-8))
        else:
            try:
                config.sampler.with_rho(rho0)
            except DomainError as exc:
                self.refused = exc
        self.group, self.config = group, config
        self.z0, self.cons, self.rho0 = transform(x0, cons), cons, rho0
        self.p, self.estimate_rho = len(model.param_constraints), estimate_rho
        self.best = None

    def split(self, z):
        x = untransform(z, self.cons)
        return (x[: self.p], float(x[self.p])) if self.estimate_rho else (x, self.rho0)

    def tell(self, z, outcome) -> float:
        """The objective value at z, given what evaluating it gave: a
        (value, LikelihoodResult) pair, or the DomainError it raised,
        which reads as -inf."""
        if isinstance(outcome, DomainError):
            return -math.inf
        value, lik = outcome
        if self.best is None or value > self.best[1]:
            self.best = (z, value, lik)
        return value

    def result(self, res: OptResult) -> PsmlFit:
        theta_hat, rho_hat = self.split(res.x)
        if np.array_equal(self.best[0], res.x):
            _, value, lik = self.best
        else:
            [outcome] = _evaluate(self.group, self.config.lam, [(self, res.x)])
            if isinstance(outcome, DomainError):
                raise outcome
            value, lik = outcome
        return PsmlFit(
            theta=theta_hat,
            rho=rho_hat,
            lam=self.config.lam,
            loglik=lik.loglik,
            objective=float(value),
            diagnostics=lik.diagnostics,
            evals=res.evals,
            converged=res.converged,
        )


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
    dim + 2 evaluations; a smaller one raises DomainError. The fit is a
    lockstep group of one (_maximize_group), so the points that the
    simplex asks for together, its start vertices and a shrink, share one
    likelihood run.
    """
    [fit] = _maximize_group(model, [(datasets, theta_init, rho_init, seed)], config, optimizer,
                            estimate_rho)
    if isinstance(fit, EstimationError):
        raise fit
    return fit


def _evaluate(group: _Problem, lam: float, points) -> list:
    """Outcomes, as _Fit.tell takes them, of the points (fit, z) of fits
    of one group, from one lockstep likelihood run, at penalty weight lam."""
    outcomes = [fit.refused for fit, _ in points]
    slots = [j for j, out in enumerate(outcomes) if out is None]
    problems = [(fit.index, *fit.split(z)) for fit, z in (points[j] for j in slots)]
    for j, res in zip(slots, _likelihoods(group, problems, "neginf")):
        outcomes[j] = res if isinstance(res, DomainError) else (_objective(res, lam), res)
    return outcomes


def _maximize_group(model, fits, config: PenaltyConfig,
                    optimizer: OptimizerConfig = OptimizerConfig(),
                    estimate_rho: bool | None = None) -> list:
    """The fits of maximize_psml, (datasets, theta_init, rho_init, seed)
    each, that share the model, the penalty configuration and the
    optimizer, run in lockstep.

    The group prepares its problem once (likelihood._Problem): the model
    and every fit's datasets are checked, and each fit's rows and draws
    built, before the first round, and a round that asks for one point
    per running fit, as every round after the start simplex does save a
    shrink, runs the schedule and kernel inputs of the last such round
    as they are. Each round evaluates every point that the running fits
    ask for in one likelihood run, whose kernel calls hold the
    transitions of all of them. Returns per fit its PsmlFit, or the
    EstimationError that ended it. A fit's result is the same, bit for
    bit, whichever fits share its group, and equals that of a search
    that evaluates its points one at a time.
    """
    group = _Problem(model, config.n_paths, config.substeps, config.sampler.kind)
    fits = [_Fit(model, data, config, theta, rho, optimizer, seed, estimate_rho, group)
            for data, theta, rho, seed in fits]
    out = [None] * len(fits)
    searches = [_simplex(fit.z0, optimizer) for fit in fits]
    asks = {i: next(search) for i, search in enumerate(searches)}
    while asks:
        points = [(i, z) for i, zs in asks.items() for z in zs]
        outcomes = _evaluate(group, config.lam, [(fits[i], z) for i, z in points])
        values = {i: [] for i in asks}
        for (i, z), outcome in zip(points, outcomes):
            values[i].append(fits[i].tell(z, outcome))
        for i, told in values.items():
            try:
                asks[i] = searches[i].send(told)
            except StopIteration as done:
                out[i] = fits[i].result(done.value)
                del asks[i]
            except DomainError as exc:
                cause = exc if fits[i].refused is None else fits[i].refused
                out[i] = EstimationError(f"objective not usable at the initial point: {cause}")
                out[i].__cause__ = cause
                del asks[i]
    return out
