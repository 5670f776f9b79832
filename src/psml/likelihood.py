"""Chained importance estimates of the observation likelihood.

Each inter-observation transition is estimated by J weighted proposal
paths; the endpoint's unobserved coordinates, weighted by the
self-normalized importance weights, form the particle cloud that seeds
the next transition. The penalized objective subtracts the summed weight
coefficient of variation, scaled by the penalty weight lambda.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Dataset,
    DomainError,
    NumericalError,
    SdeModel,
    derive_seed,
    rng_stream,
    validate_model,
)
from .samplers import SamplerSpec, _path_draws, propose_transition

# Per-path log-weights at or below this are treated as vanished.
_LOG_WEIGHT_FLOOR = -700.0


class TransitionFailure(NumericalError):
    """All importance weights of one transition vanished or went non-finite."""

    def __init__(self, message, dataset_index=0, index=0):
        super().__init__(message)
        self.dataset_index = dataset_index
        self.index = index


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted values of the unobserved coordinates at one observation time."""

    particles: np.ndarray  # (n_particles, n_unobserved)
    weights: np.ndarray

    def __post_init__(self):
        particles = np.asarray(self.particles, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if particles.ndim != 2 or weights.shape != (particles.shape[0],):
            raise DomainError("cloud needs (n, d) particles and (n,) weights")
        if particles.shape[0] < 1:
            raise DomainError("cloud must hold at least one particle")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must be non-negative and sum to one")
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point_mass(cls, values) -> "ParticleCloud":
        values = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(values[None, :], np.array([1.0]))

    def resample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n multinomial draws from the cloud; skips rng use when empty-width."""
        if self.particles.shape[1] == 0:
            return np.empty((n, 0))
        return self._pick(rng.random(n))

    def _pick(self, u: np.ndarray) -> np.ndarray:
        """Particles at the uniforms u under the inverse weight CDF."""
        idx = np.searchsorted(np.cumsum(self.weights), u, side="right")
        idx = np.minimum(idx, self.particles.shape[0] - 1)
        return self.particles[idx]


@dataclass(frozen=True)
class TransitionDiag:
    """Per-transition diagnostics, exported as {i, log_phat, cv, ess}."""

    dataset_index: int
    index: int
    log_phat: float
    cv: float
    ess: float


@dataclass
class LikelihoodResult:
    loglik: float
    diagnostics: list
    failed: bool = False

    @property
    def cv_sum(self) -> float:
        return float(sum(d.cv for d in self.diagnostics))


@dataclass(frozen=True)
class PenaltyConfig:
    """Estimation configuration: penalty weight, path count, substeps, family."""

    lam: float
    n_paths: int
    substeps: int
    sampler: SamplerSpec

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise DomainError("lambda must be >= 0")
        if self.n_paths < 2:
            raise DomainError("need at least 2 paths per transition")
        if self.substeps < 1:
            raise DomainError("substeps must be >= 1")


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


def _weight_stats(log_weights: np.ndarray, n_paths: int):
    """Per-row log p-hat, cv, ESS and max-shifted weights of (n, J) log-weights.

    A row whose weights all vanished or went non-finite gets a NaN p-hat.
    """
    lw = np.where(np.isfinite(log_weights), log_weights, -np.inf)
    shift = lw.max(axis=-1)
    shift = np.where(shift > _LOG_WEIGHT_FLOOR, shift, np.nan)
    w = np.exp(lw - shift[:, None])
    mean_w = w.mean(axis=-1)
    cv = w.std(axis=-1, ddof=1) / mean_w
    return shift + np.log(mean_w), cv, n_paths / (1.0 + cv**2), w


def _as_datasets(datasets) -> list:
    if isinstance(datasets, Dataset):
        return [datasets]
    out = list(datasets)
    if not out:
        raise DomainError("need at least one dataset")
    return out


# Draws of recent datasets, newest last, and a bound on their total size.
# An entry is a pure function of its key, so sharing it cannot change a result.
_DRAW_CACHE: OrderedDict = OrderedDict()
_DRAW_CACHE_BYTES = 32 << 20
_DRAW_CACHE_LOCK = threading.Lock()


def _dataset_draws(dseed: int, n: int, n_paths: int, substeps: int, k: int, n_unobserved: int):
    """Read-only draws of every transition of one dataset.

    Transition i reads the stream (dseed, i) in the order: J resample
    uniforms (only with unobserved coordinates), then the proposal's
    normals. Returns arrays with a leading transition axis: uniforms
    (n, J or 0), intermediate normals (n, substeps - 1, J, k) and endpoint
    normals (n, J, n_unobserved). Draws never depend on theta, so a fit
    makes them on its first evaluation and reuses them on every later one;
    the key holds everything that fixes them, and the least recently used
    entries go once the cache outgrows its byte bound.
    """
    key = (dseed, n, n_paths, substeps, k, n_unobserved)
    with _DRAW_CACHE_LOCK:
        if key in _DRAW_CACHE:
            _DRAW_CACHE.move_to_end(key)
            return _DRAW_CACHE[key]
    u = np.empty((n, n_paths if n_unobserved else 0))
    z = np.empty((n, substeps - 1, n_paths, k))
    z_end = np.empty((n, n_paths, n_unobserved))
    for i in range(n):
        rng = rng_stream(dseed, i)
        if n_unobserved:
            u[i] = rng.random(n_paths)
        z[i], z_end[i] = _path_draws(rng, n_paths, substeps, k, n_unobserved)
    draws = (u, z, z_end)
    for a in draws:
        a.flags.writeable = False
    with _DRAW_CACHE_LOCK:
        _DRAW_CACHE[key] = draws
        while sum(a.nbytes for d in _DRAW_CACHE.values() for a in d) > _DRAW_CACHE_BYTES:
            _DRAW_CACHE.popitem(last=False)
    return draws


def _propose(model, theta, sampler, n_paths, substeps, inputs, clouds, blocks):
    """One kernel call over the blocks (dataset, first, stop) of a step.

    inputs and clouds are log_likelihood's per-dataset rows and particle
    clouds. Returns, per transition, ((dataset, index), outcome): the error
    that stopped it, or (log_phat, cv, ess, r, endpoints, weights), where
    row r of the last two is the transition's.
    """
    obs, uno = list(model.observed), list(model.unobserved)
    rows = [(d, i) for d, lo, hi in blocks for i in range(lo, hi)]
    # a lone block passes views of its dataset's draws, not copies
    prev, y, t0, dt, u, z, z_end = (
        parts[0] if len(parts) == 1 else np.concatenate(parts)
        for parts in zip(*([a[lo:hi] for a in inputs[d]] for d, lo, hi in blocks))
    )
    starts = np.empty((len(rows), n_paths, model.dim))
    starts[..., obs] = prev[:, None, :]
    if uno:  # partially observed blocks hold one transition each
        for r, (d, _, _) in enumerate(blocks):
            starts[r][:, uno] = clouds[d]._pick(u[r])
    try:
        # rows after a failing one still run in the call; keep them quiet
        with np.errstate(all="ignore"):
            paths = propose_transition(
                model, theta, starts, y, t0, dt, substeps, sampler, (z, z_end)
            )
            log_phat, cv, ess, w = _weight_stats(paths.log_target - paths.log_proposal, n_paths)
    except NumericalError as exc:
        if len(rows) == 1:
            return [(rows[0], exc)]
        # rerun one at a time to find the failing rows
        return [
            out
            for d, i in rows
            for out in _propose(
                model, theta, sampler, n_paths, substeps, inputs, clouds, [(d, i, i + 1)]
            )
        ]
    vanished = TransitionFailure("all importance weights vanished")
    ends = paths.endpoints
    return [
        (row, vanished if math.isnan(lp) else (lp, c, e, r, ends, w))
        for r, (row, lp, c, e) in enumerate(zip(rows, log_phat.tolist(), cv.tolist(), ess.tolist()))
    ]


def log_likelihood(
    model: SdeModel,
    theta,
    datasets,
    n_paths: int,
    substeps: int,
    sampler: SamplerSpec,
    seed: int,
    on_failure: str = "raise",
) -> LikelihoodResult:
    """Simulated log-likelihood chained over all transitions of all datasets.

    Each dataset d gets the derived seed (seed, d), and transition i of
    that dataset draws from the stream (dataset seed, i), so the joint
    value over several datasets equals the sum of single-dataset runs and
    draws never depend on theta. The datasets run in lockstep, one kernel
    call per step: with every coordinate observed, each transition starts
    from an observation, so one step holds every transition of every
    dataset; otherwise each dataset's particle cloud chains its
    transitions, and step i holds transition i of every dataset still
    running. on_failure selects between raising a TransitionFailure for
    the first failing transition in dataset-major order and returning
    -inf with the diagnostics of the transitions before it; a failure
    stops its own dataset and the ones after it.
    """
    if on_failure not in ("raise", "neginf"):
        raise DomainError("on_failure must be 'raise' or 'neginf'")
    validate_model(model)
    theta = model.validate_theta(theta)
    obs, uno = list(model.observed), list(model.unobserved)
    data = _as_datasets(datasets)
    if any(tuple(ds.observed) != tuple(model.observed) for ds in data):
        raise DomainError("dataset observed coordinates do not match the model")
    # Per dataset, one row per transition: previous observation, observation,
    # start time, length, then the cached uniforms and normals.
    inputs = []
    for d_idx, ds in enumerate(data):
        t_start = np.concatenate(([ds.t0], ds.times[:-1]))
        prev_obs = np.concatenate((ds.x0[obs][None], ds.values[:-1]))
        draws = _dataset_draws(
            derive_seed(seed, d_idx), ds.n, n_paths, substeps, model.dim, len(uno)
        )
        inputs.append((prev_obs, ds.values, t_start, ds.times - t_start) + draws)
    clouds = [ParticleCloud.point_mass(ds.x0[uno]) for ds in data]
    if uno:
        steps = [
            [(d, i, i + 1) for d, ds in enumerate(data) if i < ds.n]
            for i in range(max(ds.n for ds in data))
        ]
    else:
        steps = [[(d, 0, ds.n) for d, ds in enumerate(data)]]
    diags = [[] for _ in data]
    failed = None  # (dataset, transition, error) first in dataset-major order
    for step in steps:
        blocks = [b for b in step if failed is None or b[0] < failed[0]]
        if not blocks:
            break
        for (d_idx, i), out in _propose(
            model, theta, sampler, n_paths, substeps, inputs, clouds, blocks
        ):
            if isinstance(out, Exception):
                failed = (d_idx, i, out)
                break  # the rest of the step comes after it
            log_phat, cv, ess, r, ends, w = out
            diags[d_idx].append(TransitionDiag(d_idx, i, log_phat, cv, ess))
            if uno:
                clouds[d_idx] = ParticleCloud(ends[r][:, uno], w[r] / w[r].sum())
    if failed is not None:
        d_idx, i, cause = failed
        if on_failure == "raise":
            raise TransitionFailure(
                f"transition {i} of dataset {d_idx} failed: {cause}",
                dataset_index=d_idx,
                index=i,
            ) from cause
        return LikelihoodResult(-math.inf, [g for d in diags[: d_idx + 1] for g in d], failed=True)
    diagnostics = [g for d in diags for g in d]
    total = 0.0
    for g in diagnostics:
        total += g.log_phat
    return LikelihoodResult(total, diagnostics)


def penalized_log_likelihood(
    model: SdeModel,
    theta,
    rho: float | None,
    datasets,
    config: PenaltyConfig,
    seed: int,
    on_failure: str = "raise",
):
    """Objective value log-likelihood minus lambda times the summed weight cv.

    rho overrides the sampler parameter for families that have one; pass
    None to keep the configured value. Returns (value, LikelihoodResult).
    """
    sampler = config.sampler
    if rho is not None:
        sampler = sampler.with_rho(rho)
    res = log_likelihood(
        model, theta, datasets, config.n_paths, config.substeps, sampler, seed, on_failure
    )
    if res.failed:
        return -math.inf, res
    return res.loglik - config.lam * res.cv_sum, res
