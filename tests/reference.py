"""Reference implementations that the tests check the library against.

Each is a plain, one-at-a-time form of something the library computes
batched: a scalar Gaussian law with its density, the one-substep Euler
transition law, per-path importance weights, the weight coefficient of
variation and the effective sample size, and a fit whose simplex
evaluates its points one at a time. None of them is used by psml itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from psml.core import DomainError, SdeModel, _sym_check, chol_spd, gauss_logpdf
from psml.likelihood import PenaltyConfig, penalized_log_likelihood
from psml.optimize import EstimationError, OptimizerConfig, PsmlFit, _Fit, nelder_mead
from psml.samplers import SubPathBatch


@dataclass(frozen=True)
class GaussianSpec:
    """Mean and covariance of a multivariate normal.

    The covariance must be symmetric to 1e-12 relative tolerance and
    positive semidefinite up to a -1e-10 * trace eigenvalue slack.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DomainError("mean must be (k,) and cov (k, k)")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise DomainError("Gaussian spec has non-finite entries")
        _sym_check(cov)
        w = np.linalg.eigvalsh(cov)
        if w.min() < -1e-10 * max(np.trace(cov), 1e-300):
            raise DomainError("covariance has a significantly negative eigenvalue")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return int(self.mean.size)

    def marginal(self, idx: Sequence[int]) -> "GaussianSpec":
        """Marginal law of the coordinates in idx, in the given order."""
        idx = np.asarray(idx, dtype=int)
        return GaussianSpec(self.mean[idx], self.cov[np.ix_(idx, idx)])

    def conditional(self, idx: Sequence[int], values: Sequence[float]) -> "GaussianSpec":
        """Law of the remaining coordinates given that coords idx equal values.

        Solves through the chol_spd factor of the observed block, so a
        block that its jitter cannot repair raises NumericalError.
        """
        idx = np.asarray(idx, dtype=int)
        rest = np.array([i for i in range(self.dim) if i not in set(idx.tolist())])
        if rest.size == 0:
            raise DomainError("conditioning on every coordinate leaves nothing")
        values = np.asarray(values, dtype=float)
        s_oo = self.cov[np.ix_(idx, idx)]
        s_ro = self.cov[np.ix_(rest, idx)]
        s_rr = self.cov[np.ix_(rest, rest)]
        chol = chol_spd(s_oo)
        sol = np.linalg.solve(chol.T, np.linalg.solve(chol, s_ro.T))  # S_oo^{-1} S_or
        mean = self.mean[rest] + sol.T @ (values - self.mean[idx])
        cov = s_rr - s_ro @ sol
        cov = 0.5 * (cov + cov.T)
        return GaussianSpec(mean, cov)


def mvn_logpdf(x: Sequence[float], spec: GaussianSpec, idx: Sequence[int] | None = None) -> float:
    """Exact multivariate-normal log-density at x.

    With ``idx`` the density is the marginal over those coordinates, and x
    must carry just those entries in the same order.
    """
    if idx is not None:
        spec = spec.marginal(idx)
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise DomainError(f"point has shape {x.shape}, expected ({spec.dim},)")
    chol = chol_spd(spec.cov)
    return float(gauss_logpdf(x - spec.mean, chol))


def euler_transition(model: SdeModel, x, theta, t: float, delta: float) -> GaussianSpec:
    """One-substep Euler transition law N(x + f delta, g g^T delta)."""
    if delta <= 0:
        raise DomainError("substep length must be positive")
    x = np.asarray(x, dtype=float)
    f = np.asarray(model.drift(x, theta, t), dtype=float)
    outer = np.asarray(model.diffusion_outer(x, theta, t), dtype=float)
    return GaussianSpec(x + f * delta, outer * delta)


def importance_weight(paths: SubPathBatch):
    """Per-path weights target/proposal; returns (weights, log_weights).

    Aggregation downstream should use the log form; the plain weights can
    overflow for extreme paths.
    """
    lw = paths.log_target - paths.log_proposal
    with np.errstate(over="ignore"):
        return np.exp(lw), lw


def weight_cv(log_weights: np.ndarray) -> float:
    """Coefficient of variation of the weights, sample sd over mean.

    Computed on max-shifted weights, which leaves the ratio unchanged and
    avoids overflow. Uses the (J - 1) denominator.
    """
    lw = np.asarray(log_weights, dtype=float)
    shift = np.max(lw)
    if not np.isfinite(shift):
        return math.inf
    w = np.exp(lw - shift)
    mean = w.mean()
    if mean <= 0:
        return math.inf
    return float(w.std(ddof=1) / mean)


def effective_sample_size(cvs: Sequence[float], n_paths: int) -> float:
    """Paths discounted by weight variability, J / (1 + mean cv^2)."""
    cvs = np.asarray(cvs, dtype=float)
    if cvs.size == 0:
        raise DomainError("need at least one cv")
    if np.any(cvs < 0):
        raise DomainError("cv values must be non-negative")
    return float(n_paths / (1.0 + np.mean(cvs**2)))


def maximize_one_at_a_time(
    model: SdeModel,
    datasets,
    config: PenaltyConfig,
    theta_init,
    rho_init: float | None = None,
    optimizer: OptimizerConfig = OptimizerConfig(),
    seed: int = 0,
    estimate_rho: bool | None = None,
) -> PsmlFit:
    """maximize_psml with the simplex driven by nelder_mead, each point
    sent to penalized_log_likelihood on its own, in the order asked."""
    fit = _Fit(model, datasets, config, theta_init, rho_init, optimizer, seed, estimate_rho)

    def objective(z):
        theta, rho = fit.split(z)
        try:
            outcome = penalized_log_likelihood(
                model, theta, rho, datasets, config, seed, on_failure="neginf"
            )
        except DomainError as exc:
            outcome = exc
        return fit.tell(z, outcome)

    try:
        res = nelder_mead(objective, fit.z0, optimizer)
    except DomainError as exc:
        raise EstimationError(f"objective not usable at the initial point: {exc}") from exc
    return fit.result(res)
