"""Reference implementations that the tests check the library against.

Each is a plain, one-at-a-time form of something the library computes
batched: a scalar Gaussian law with its density, the one-substep Euler
transition law, one Euler-Maruyama substep and a path of them, per-path
importance weights, the weight coefficient of variation and the
effective sample size, a fit whose simplex evaluates its points one at
a time, and a lockstep likelihood run whose results are taken
transition by transition. The last few are earlier forms of library
code kept as oracles: replicate paths stepped one euler_step per
substep, the Gaussian density through an LU solve with the factor, the
model drifts built by np.stack, the epidemic covariance with one sign
check per count, the step function's lookup by search alone, and the
Cholesky factor, its log-determinant and its inverse through LAPACK for
1x1 blocks too, and the endpoint's closed-form density of one observed
coordinate. None of them is used by psml itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from psml.core import (DomainError, NumericalError, SdeModel, TimeGrid, _check_drift, _sym_check,
                       chol_spd, gauss_logpdf, validate_model)
from psml.likelihood import (_CALL_BYTES, PenaltyConfig, ParticleCloud, TransitionDiag,
                             TransitionFailure, _calls, _dataset_draws, _model_datasets,
                             _row_params, penalized_log_likelihood)
from psml.samplers import propose_transition
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


def euler_step(model: SdeModel, x, theta, t: float, delta: float, z) -> np.ndarray:
    """One Euler-Maruyama substep driven by the standard-normal draw z.

    Returns x + f(x) delta + g(x) sqrt(delta) z with the model's
    admissibility clamp applied to the result. Batched states are fine;
    x and z must share shape (..., k). One (k, k) factor is applied to
    every row as z @ g.T, a batch of factors by einsum.
    """
    if delta <= 0:
        raise DomainError("substep length must be positive")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    f = np.asarray(model.drift(x, theta, t), dtype=float)
    g = np.asarray(model.diffusion(x, theta, t), dtype=float)
    _check_drift(model, f)
    if not np.all(np.isfinite(g)):
        raise DomainError("diffusion is non-finite")
    gz = z @ g.T if g.ndim == 2 else np.einsum("...ab,...b->...a", g, z)
    return model.clamp_state(x + f * delta + math.sqrt(delta) * gz)


def euler_path(model: SdeModel, theta, x0, grid: TimeGrid, rng: np.random.Generator):
    """One path of euler_step calls over the grid, each drawing its own
    (k,) normal from rng: (times, states) at every substep, the start
    first."""
    times, states = [grid.t0], [np.asarray(x0, dtype=float)]
    for i in range(grid.n):
        t_start, dt = grid.interval(i)
        delta = dt / grid.substeps
        for m in range(grid.substeps):
            states.append(euler_step(model, states[-1], theta, t_start + m * delta, delta,
                                     rng.standard_normal(model.dim)))
            times.append(t_start + (m + 1) * delta)
    return np.array(times), np.array(states)


def simulate_paths_batch(model: SdeModel, theta, x0, grid: TimeGrid, n_paths: int,
                         rng: np.random.Generator) -> np.ndarray:
    """n_paths replicate paths from x0, stepped together by euler_step,
    each substep drawing one (n_paths, k) block from rng: the states at
    the observation times, (n, n_paths, k)."""
    k = model.dim
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, k)).copy()
    out = np.empty((grid.n, n_paths, k))
    for i in range(grid.n):
        t_start, dt = grid.interval(i)
        delta = dt / grid.substeps
        for m in range(grid.substeps):
            x = euler_step(model, x, theta, t_start + m * delta, delta,
                           rng.standard_normal((n_paths, k)))
        out[i] = x
    return out


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
    evaluated = []

    def objective(z):
        evaluated.append(z)
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
        if not evaluated:  # a budget below dim + 2 raises before any evaluation
            raise
        raise EstimationError(f"objective not usable at the initial point: {exc}") from exc
    return fit.result(res)


class TransitionResult(NamedTuple):
    """What a likelihood run gives, as lists and plain sums."""

    loglik: float
    cv_sum: float
    diagnostics: list
    failed: bool


def _weight_stats(lw: np.ndarray, n_paths: int):
    """Per-row log p-hat, cv, ESS and weights of (n, J) log-weights, by np.std."""
    lw = np.where(np.isfinite(lw), lw, -np.inf)
    shift = lw.max(axis=-1)
    shift = np.where(shift > -700.0, shift, np.nan)
    w = np.exp(lw - shift[:, None])
    mean_w = w.mean(axis=-1)
    cv = w.std(axis=-1, ddof=1) / mean_w
    return shift + np.log(mean_w), cv, n_paths / (1.0 + cv**2), w


def _propose_rows(model, problems, n_paths, substeps, inputs, clouds, blocks):
    """One kernel call, its outcome per transition ((fit, dataset, index),
    error or (log_phat, cv, ess, row, endpoints, weights)); a failing call
    is run again fit by fit, then row by row."""
    obs, uno = list(model.observed), list(model.unobserved)
    rows = [(f, d, i) for f, d, lo, hi in blocks for i in range(lo, hi)]
    prev, y, t0, dt, u, z, z_end = (
        np.concatenate(parts)
        for parts in zip(*([a[lo:hi] for a in inputs[f, d]] for f, d, lo, hi in blocks))
    )
    starts = np.empty((len(rows), n_paths, model.dim))
    starts[..., obs] = prev[:, None, :]
    if uno:
        for r, (f, d, _, _) in enumerate(blocks):
            starts[r][:, uno] = clouds[f, d]._pick(u[r])
    fits = list(dict.fromkeys(f for f, *_ in blocks))
    theta, sampler = _row_params(problems, blocks) if len(fits) > 1 else problems[fits[0]][:2]
    try:
        with np.errstate(all="ignore"):
            paths = propose_transition(model, theta, starts, y, t0, dt, substeps, sampler, (z, z_end))
            log_phat, cv, ess, w = _weight_stats(paths.log_target - paths.log_proposal, n_paths)
    except (NumericalError, DomainError) as exc:
        if len(fits) > 1:
            return [out for f in fits for out in _propose_rows(
                model, problems, n_paths, substeps, inputs, clouds, [b for b in blocks if b[0] == f])]
        if len(rows) == 1 or isinstance(exc, DomainError):
            return [(rows[0], exc)]
        return [out for f, d, i in rows for out in _propose_rows(
            model, problems, n_paths, substeps, inputs, clouds, [(f, d, i, i + 1)])]
    vanished = TransitionFailure("all importance weights vanished")
    return [
        (row, vanished if math.isnan(lp) else (lp, c, e, r, paths.endpoints, w))
        for r, (row, lp, c, e) in enumerate(zip(rows, log_phat.tolist(), cv.tolist(), ess.tolist()))
    ]


def likelihoods_by_transition(model, problems, n_paths: int, substeps: int, on_failure: str):
    """psml.likelihood._likelihoods with its results taken one transition
    at a time: a TransitionDiag per transition as its kernel call returns
    it, loglik and cv_sum summed from those left to right, and the
    proposal's draw densities left to the kernel. Returns per problem a
    TransitionResult or the exception that stopped it."""
    validate_model(model)
    obs, uno = list(model.observed), list(model.unobserved)
    out = [None] * len(problems)
    live = []
    for f, (theta, sampler, datasets, seed) in enumerate(problems):
        try:
            live.append((f, (model.validate_theta(theta), sampler,
                             _model_datasets(model, datasets), seed)))
        except DomainError as exc:
            out[f] = exc
    if not live:
        return out
    index, problems = zip(*live)
    inputs, clouds = {}, {}
    for f, (_, _, data, seed) in enumerate(problems):
        for d, ds in enumerate(data):
            t_start = np.concatenate(([ds.t0], ds.times[:-1]))
            prev_obs = np.concatenate((ds.x0[obs][None], ds.values[:-1]))
            draws = _dataset_draws(seed, d, ds.n, n_paths, substeps, model.dim, len(uno))[:3]
            inputs[f, d] = (prev_obs, ds.values, t_start, ds.times - t_start) + draws
            if uno:
                clouds[f, d] = ParticleCloud.point_mass(ds.x0[uno])
    if uno:
        steps = [
            [(f, d, i, i + 1) for f, p in enumerate(problems) for d, ds in enumerate(p[2]) if i < ds.n]
            for i in range(max(ds.n for p in problems for ds in p[2]))
        ]
    else:
        steps = [[(f, d, 0, ds.n) for f, p in enumerate(problems) for d, ds in enumerate(p[2])]]
    diags = [[[] for _ in p[2]] for p in problems]
    failed = [None] * len(problems)
    for step in steps:
        blocks = [b for b in step if failed[b[0]] is None or b[1] < failed[b[0]][0]]
        if not blocks:
            break
        cut = set()
        for (f, d, i), res in (
            outcome
            for call in _calls(blocks, _CALL_BYTES // ((substeps + 1) * n_paths * model.dim * 8))
            for outcome in _propose_rows(model, problems, n_paths, substeps, inputs, clouds, call)
        ):
            if isinstance(res, DomainError) and (failed[f] is None or failed[f][0] >= 0):
                failed[f] = (-1, i, res)
                cut.add(f)
            if f in cut:
                continue
            if isinstance(res, Exception):
                failed[f] = (d, i, res)
                cut.add(f)
                continue
            log_phat, cv, ess, r, ends, w = res
            diags[f][d].append(TransitionDiag(d, i, log_phat, cv, ess))
            if uno:
                clouds[f, d] = ParticleCloud(ends[r][:, uno], w[r] / w[r].sum())
    for f, fail, dg in zip(index, failed, diags):
        kept = dg if fail is None else dg[: fail[0] + 1]
        diagnostics = [g for d in kept for g in d]
        loglik = cv_sum = 0.0
        for g in diagnostics:
            loglik += g.log_phat
            cv_sum += g.cv
        if fail is None:
            out[f] = TransitionResult(loglik, cv_sum, diagnostics, False)
        elif fail[0] < 0:
            out[f] = fail[2]
        elif on_failure == "raise":
            out[f] = TransitionFailure(f"transition {fail[1]} of dataset {fail[0]} failed: {fail[2]}",
                                       dataset_index=fail[0], index=fail[1])
        else:
            out[f] = TransitionResult(-math.inf, cv_sum, diagnostics, True)
    return out


def gauss_logpdf_solve(diff: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Log-density of N(0, L L^T) at diff through an LU solve with the
    factor L: diff (..., k), chol (k, k) or broadcastable (..., k, k)."""
    diff = np.asarray(diff, dtype=float)
    k = chol.shape[-1]
    if chol.ndim == 2:
        flat = diff.reshape(-1, k)
        v = np.linalg.solve(chol, flat.T)
        quad = np.einsum("ij,ij->j", v, v).reshape(diff.shape[:-1])
        ldet = float(np.log(np.diagonal(chol)).sum())
    else:
        v = np.linalg.solve(chol, diff[..., None])[..., 0]
        quad = np.einsum("...i,...i->...", v, v)
        ldet = np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return -0.5 * (k * math.log(2.0 * math.pi) + quad) - ldet


def observed_scalar_logpdf(diff_o: np.ndarray, s_oo: np.ndarray) -> np.ndarray:
    """The endpoint's Euler marginal log-density of a single observed
    coordinate in closed form: diff_o (..., 1) over the root of its
    variance s_oo (..., 1, 1), without a factor routine."""
    root = np.sqrt(s_oo[..., 0])
    v = diff_o / root
    return -0.5 * (math.log(2.0 * math.pi) + v[..., 0] * v[..., 0]) - np.log(root[..., 0])


def cwd_sigma_two_checks(s_count, i_count, beta, mu, a, m):
    """The epidemic's event-rate covariance (S, I, C), checking each count's sign."""
    s_count = np.asarray(s_count, dtype=float)
    i_count = np.asarray(i_count, dtype=float)
    if np.any(s_count < 0) or np.any(i_count < 0):
        raise DomainError("S and I must be non-negative (clamp happens upstream)")
    shape = np.broadcast_shapes(s_count.shape, i_count.shape)
    sig = np.zeros(shape + (3, 3))
    infection = beta * s_count * i_count
    sig[..., 0, 0] = a + s_count * (beta * i_count + m)
    sig[..., 0, 1] = -infection
    sig[..., 1, 0] = -infection
    sig[..., 1, 1] = infection + i_count * (mu + m)
    sig[..., 1, 2] = -mu * i_count
    sig[..., 2, 1] = -mu * i_count
    sig[..., 2, 2] = mu * i_count
    return sig


def step_value_by_search(f, t):
    """A step function's value at t: the last breakpoint at or before t,
    the first value before the first breakpoint."""
    idx = np.searchsorted(f.times, t, side="right") - 1
    return f.values[np.maximum(idx, 0)]


def cwd_drift_stacked(model, x, theta, t):
    """CwdDirectModel's drift, its three components put together by np.stack."""
    beta, mu = theta[0], theta[1]
    a = step_value_by_search(model.additions, t)
    m = model.natural_mortality
    s_count, i_count = x[..., 0], x[..., 1]
    infection = beta * s_count * i_count
    return np.stack(
        [a - s_count * (beta * i_count + m), infection - i_count * (mu + m), mu * i_count], axis=-1
    )


def lorenz_drift_stacked(x, theta, t):
    """Lorenz63Model's drift, its three components put together by np.stack."""
    s, r, b = theta[0], theta[1], theta[2]
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([s * (x2 - x1), r * x1 - x2 - x1 * x3, x1 * x2 - b * x3], axis=-1)


def chol_spd_lapack(cov: np.ndarray) -> np.ndarray:
    """chol_spd with every block factored by LAPACK, 1x1 blocks included:
    one jitter retry, a (J, k, k) batch repaired as a whole and an
    (n, J, k, k) batch one transition at a time."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    if cov.ndim == 4:
        return np.stack([chol_spd_lapack(row) for row in cov])
    k = cov.shape[-1]
    tr = np.trace(cov, axis1=-2, axis2=-1)
    jitter = 1e-10 * np.maximum(tr, 0.0) / k + 1e-30
    bumped = cov + np.asarray(jitter)[..., None, None] * np.eye(k)
    try:
        return np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance not positive definite after jitter") from exc


def logdet_diagonal_sum(chol: np.ndarray) -> np.ndarray:
    """log|L| of factors (..., k, k) as the sum of the logs of each diagonal."""
    return np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
