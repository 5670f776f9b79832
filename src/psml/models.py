"""Benchmark models: mean-reverting OU, a stochastic Lorenz system, and a
livestock epidemic observed only through cumulative disease deaths."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .core import (
    _SHAPE_ERRORS,
    FREE,
    POSITIVE,
    Dataset,
    DomainError,
    SdeModel,
    _real,
    _shape_error,
    matrix_sqrt,
)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck


class OuModel(SdeModel):
    """dX = (theta1 - theta2 X) dt + theta3 dW, fully observed scalar state."""

    dim = 1
    state_names = ("x1",)
    observed = (0,)
    param_names = ("theta1", "theta2", "theta3")
    param_constraints = (FREE, POSITIVE, POSITIVE)
    constant_diffusion = True

    def drift(self, x, theta, t):
        return (theta[0] - theta[1] * x[..., 0])[..., None]

    def diffusion(self, x, theta, t):
        return np.asarray(theta[2])[..., None, None]

    def diffusion_outer(self, x, theta, t):
        return np.asarray(theta[2] ** 2)[..., None, None]


def ou_exact_moments(x, theta, dt: float):
    """Mean and variance of the exact OU transition over an interval dt."""
    th1, th2, th3 = float(theta[0]), float(theta[1]), float(theta[2])
    if th2 <= 0 or th3 <= 0:
        raise DomainError("OU exact transition needs theta2 > 0 and theta3 > 0")
    if dt <= 0:
        raise DomainError("interval must be positive")
    decay = np.exp(-th2 * dt)
    mean = th1 / th2 + (np.asarray(x, dtype=float) - th1 / th2) * decay
    var = th3**2 * (1.0 - decay**2) / (2.0 * th2)
    return mean, var


def ou_exact_transition_logpdf(x_next, x, theta, dt: float):
    """Exact OU transition log-density; broadcasts over states."""
    mean, var = ou_exact_moments(x, theta, dt)
    x_next = np.asarray(x_next, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x_next - mean) ** 2 / var)


def ou_exact_loglik(theta, ds: Dataset) -> float:
    """Exact log-likelihood of an OU dataset (transition terms only)."""
    starts = np.concatenate(([ds.x0[0]], ds.values[:-1, 0]))
    dts = np.diff(np.concatenate(([ds.t0], ds.times)))
    terms = [
        float(ou_exact_transition_logpdf(ds.values[i, 0], starts[i], theta, dts[i]))
        for i in range(ds.n)
    ]
    return float(np.sum(terms))


def ou_exact_mle(datasets, theta_init=(0.05, 0.5, 0.05), optimizer=None):
    """Maximize the exact OU likelihood of one dataset, or the summed
    likelihood of a list of independent episodes, with the shared simplex
    optimizer."""
    from .likelihood import _model_datasets
    from .optimize import OptimizerConfig, nelder_mead, transform, untransform

    data = _model_datasets(OuModel(), datasets)
    cons = OuModel.param_constraints
    cfg = optimizer or OptimizerConfig()

    def objective(z):
        theta = untransform(z, cons)
        return math.fsum(ou_exact_loglik(theta, ds) for ds in data)

    res = nelder_mead(objective, transform(np.asarray(theta_init, float), cons), cfg)
    theta_hat = untransform(res.x, cons)
    return theta_hat, res


# ---------------------------------------------------------------------------
# Stochastic Lorenz system


class Lorenz63Model(SdeModel):
    """Lorenz drift with additive isotropic noise, all coordinates observed."""

    dim = 3
    state_names = ("x1", "x2", "x3")
    observed = (0, 1, 2)
    param_names = ("s", "r", "b", "sigma")
    param_constraints = (POSITIVE, POSITIVE, POSITIVE, POSITIVE)
    constant_diffusion = True

    def drift(self, x, theta, t):
        s, r, b = theta[0], theta[1], theta[2]
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        first = s * (x2 - x1)
        out = np.empty(np.shape(first) + (3,))
        out[..., 0] = first
        np.subtract(r * x1 - x2, x1 * x3, out=out[..., 1])
        np.subtract(x1 * x2, b * x3, out=out[..., 2])
        return out

    def diffusion(self, x, theta, t):
        return np.multiply.outer(theta[3], np.eye(3))

    def diffusion_outer(self, x, theta, t):
        return np.multiply.outer(theta[3] ** 2, np.eye(3))


# ---------------------------------------------------------------------------
# Chronic wasting disease epidemic, direct transmission


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant series: value(t) is the value of the last
    breakpoint at or before t, and times before the first breakpoint take
    the first value. The value is shaped like t."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if times.shape != values.shape or times.ndim != 1:
            raise DomainError("breakpoints and values must be 1-d and aligned")
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all() and np.isfinite(values).all()):
            raise DomainError("breakpoints must be finite and strictly increasing, values finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float) -> "StepFunction":
        return cls(np.array([0.0]), np.array([float(value)]))

    def __call__(self, t):
        if self.values.size == 1:
            return np.full(np.shape(t), self.values[0])
        # searchsorted never passes times.size, so only the lower end needs a bound
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.values[np.maximum(idx, 0)]


def cwd_sigma(s_count, i_count, beta, mu, a, m):
    """Event-rate covariance of the epidemic state (S, I, C) per unit time.

    Broadcasts over batched S and I; entries follow the jump moments of
    recruitment, background losses, infection, and disease deaths.
    """
    s_count = np.asarray(s_count, dtype=float)
    i_count = np.asarray(i_count, dtype=float)
    # fmin passes over a NaN, so a negative count beside one still raises
    if (np.fmin(s_count, i_count) < 0).any():
        raise DomainError("S and I must be non-negative (clamp happens upstream)")
    shape = np.broadcast_shapes(s_count.shape, i_count.shape)
    infection = beta * s_count * i_count
    deaths = mu * i_count
    # entries in row-major order along one axis, written in place
    sig = np.zeros(shape + (9,))
    np.add(a, s_count * (beta * i_count + m), out=sig[..., 0])
    np.negative(infection, out=sig[..., 1])
    sig[..., 3] = sig[..., 1]
    np.add(infection, i_count * (mu + m), out=sig[..., 4])
    np.negative(deaths, out=sig[..., 5])
    sig[..., 7] = sig[..., 5]
    sig[..., 8] = deaths
    return sig.reshape(shape + (3, 3))


@dataclass(frozen=True)
class CwdDirectModel(SdeModel):
    """Susceptible/infected herd with recorded cumulative disease deaths.

    Only C, the running death count, is observed. Animal additions over
    time and the background mortality rate m are exogenous. additions is a
    StepFunction, a constant rate or a {"times", "values"} record; neither it
    nor m may be negative, or cwd_sigma's S variance a + S (beta I + m) could be.
    """

    additions: StepFunction = field(default_factory=lambda: StepFunction.constant(10.0))
    natural_mortality: float = 0.15

    dim = 3
    state_names = ("S", "I", "C")
    observed = (2,)
    nonnegative = (0, 1, 2)
    param_names = ("beta", "mu")
    param_constraints = (POSITIVE, POSITIVE)
    constant_diffusion = False

    def __post_init__(self):
        additions = self.additions
        if isinstance(additions, dict):
            try:
                additions = StepFunction([_real(t, "additions times") for t in additions["times"]],
                                         [_real(v, "additions values") for v in additions["values"]])
            except _SHAPE_ERRORS as exc:
                raise _shape_error("additions record", exc) from exc
        elif not isinstance(additions, StepFunction):
            additions = StepFunction.constant(_real(additions, "additions"))
        m = _real(self.natural_mortality, "natural_mortality")
        if not (0 <= m < math.inf and (additions.values >= 0).all()):
            raise DomainError("natural_mortality and additions must be finite and >= 0, got "
                              f"{m!r} and {additions.values.tolist()}")
        object.__setattr__(self, "additions", additions)
        object.__setattr__(self, "natural_mortality", m)

    def drift(self, x, theta, t):
        beta, mu = theta[0], theta[1]
        a = self.additions(t)
        m = self.natural_mortality
        s_count, i_count = x[..., 0], x[..., 1]
        first = a - s_count * (beta * i_count + m)
        out = np.empty(np.shape(first) + (3,))
        out[..., 0] = first
        np.subtract(beta * s_count * i_count, i_count * (mu + m), out=out[..., 1])
        np.multiply(mu, i_count, out=out[..., 2])
        return out

    def diffusion_outer(self, x, theta, t):
        return cwd_sigma(
            x[..., 0], x[..., 1], theta[0], theta[1], self.additions(t), self.natural_mortality
        )

    def diffusion(self, x, theta, t):
        return matrix_sqrt(self.diffusion_outer(x, theta, t))


# ---------------------------------------------------------------------------
# Reproduction number


@dataclass(frozen=True)
class R0Estimate:
    point: float
    lower: float | None = None
    upper: float | None = None


def r0_estimate(beta, mu, m, n0, draws=None, alpha: float = 0.05) -> R0Estimate:
    """Basic reproduction number beta N0 / (mu + m).

    With ``draws`` (replicate rows of (beta, mu)) the interval is the
    empirical quantile band of the transformed replicates.
    """
    if mu + m <= 0:
        raise DomainError("mu + m must be positive")
    if n0 <= 0:
        raise DomainError("herd size must be positive")
    point = float(beta) * n0 / (float(mu) + m)
    if draws is None:
        return R0Estimate(point)
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] < 2:
        raise DomainError("draws must be replicate rows of (beta, mu)")
    transformed = draws[:, 0] * n0 / (draws[:, 1] + m)
    lo, hi = np.quantile(transformed, [alpha / 2.0, 1.0 - alpha / 2.0])
    return R0Estimate(point, float(lo), float(hi))


# ---------------------------------------------------------------------------
# Registry


_MODELS = {"ou": OuModel, "lorenz63": Lorenz63Model, "cwd-direct": CwdDirectModel}
MODEL_NAMES = tuple(_MODELS)


def make_model(name: str, **kwargs) -> SdeModel:
    """The model of a CLI name; its constructor reads and checks the kwargs."""
    model_class = _MODELS.get(name) if isinstance(name, str) else None
    if model_class is None:
        raise DomainError(f"unknown model {name!r}")
    settings = fields(model_class) if is_dataclass(model_class) else ()
    unknown = sorted(set(kwargs) - {f.name for f in settings})
    if unknown:
        raise DomainError(f"unknown model arguments {unknown}")
    return model_class(**kwargs)
