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
from typing import NamedTuple

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
from .samplers import (SamplerSpec, _Coords, _draw_logpdf, _Layout, _path_draws, _RowRho,
                       _transition_ends)

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


class TransitionDiag(NamedTuple):
    """Per-transition diagnostics, exported as {i, log_phat, cv, ess}."""

    dataset_index: int
    index: int
    log_phat: float
    cv: float
    ess: float


class _Segment(NamedTuple):
    """Consecutive transitions first, first + 1, ... of one dataset: their
    log p-hat, cv and ESS as arrays."""

    dataset_index: int
    first: int
    log_phat: np.ndarray
    cv: np.ndarray
    ess: np.ndarray


def _left_to_right(arrays) -> float:
    """Sum of the arrays' entries in order. Python 3.12's sum() of floats
    is compensated, so it would differ in the last bits from one Python
    to another."""
    total = 0.0
    for a in arrays:
        for v in a.tolist():
            total += v
    return total


class LikelihoodResult:
    """The chained estimate from per-transition segments in dataset-major
    order: loglik and cv_sum are their left-to-right sums (loglik is -inf
    when the run failed, and the segments end at the failing transition),
    and diagnostics lists a TransitionDiag per transition, built only
    when read; the optimizer reads only the sums."""

    def __init__(self, segments: list, failed: bool = False):
        self.segments, self.failed = segments, failed
        self.cv_sum = _left_to_right(g.cv for g in segments)
        self.loglik = -math.inf if failed else _left_to_right(g.log_phat for g in segments)

    def __eq__(self, other):
        if not isinstance(other, LikelihoodResult):
            return NotImplemented
        return (self.loglik, self.diagnostics, self.failed) == (
            other.loglik, other.diagnostics, other.failed
        )

    @property
    def diagnostics(self) -> list:
        return [
            TransitionDiag(g.dataset_index, i, *values)
            for g in self.segments
            for i, values in enumerate(
                zip(g.log_phat.tolist(), g.cv.tolist(), g.ess.tolist()), g.first
            )
        ]


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


def _weight_stats(log_weights: np.ndarray, n_paths: int):
    """Per-row log p-hat, cv, ESS and max-shifted weights of (n, J) log-weights.

    A row whose weights all vanished or went non-finite gets a NaN p-hat.
    The cv is w.std(ddof=1) / w.mean() by numpy's own steps, without the
    overhead of its Python wrappers.
    """
    lw = np.where(np.isfinite(log_weights), log_weights, -np.inf)
    shift = np.maximum.reduce(lw, axis=-1)
    shift = np.where(shift > _LOG_WEIGHT_FLOOR, shift, np.nan)
    w = np.exp(lw - shift[:, None])
    mean_w = np.add.reduce(w, axis=-1, keepdims=True) / n_paths
    dev = w - mean_w
    dev *= dev
    cv = np.sqrt(np.add.reduce(dev, axis=-1) / (n_paths - 1)) / mean_w[:, 0]
    return shift + np.log(mean_w[:, 0]), cv, n_paths / (1.0 + cv**2), w


def _as_datasets(datasets) -> list:
    if isinstance(datasets, Dataset):
        return [datasets]
    out = list(datasets)
    if not out:
        raise DomainError("need at least one dataset")
    return out


def _model_datasets(model, datasets) -> list:
    """_as_datasets, each checked against the model: it must observe the
    model's coordinates and start from a state of the model's size. Its
    times must be finite, which Dataset's order check lets NaN slip by,
    so that every interval length that the kernel gets is positive."""
    out = _as_datasets(datasets)
    for ds in out:
        if tuple(ds.observed) != tuple(model.observed):
            raise DomainError("dataset observed coordinates do not match the model")
        if not (math.isfinite(ds.t0) and np.isfinite(ds.times).all()):
            raise DomainError("dataset times must be finite")
        if ds.x0.shape != (model.dim,):
            raise DomainError(
                f"dataset x0 has {ds.x0.size} entries, the model has {model.dim} states"
            )
    return out


# Draws of recent datasets, newest last, and a bound on their total size.
# An entry is a pure function of its key, so sharing it cannot change a result.
_DRAW_CACHE: OrderedDict = OrderedDict()
_DRAW_CACHE_BYTES = 32 << 20
_DRAW_CACHE_LOCK = threading.Lock()

# Bound on a kernel call's rows, counted at (substeps + 1) x J x k doubles
# per transition. What it limits is the rows a call stacks, mostly their
# draws, about (substeps - 1) x J x (k + 1) doubles per transition: near
# the size that the count gives. A lockstep step with more transitions is
# split over several calls, so that a call's memory stays bounded whatever
# the group's size.
_CALL_BYTES = 1 << 19


def _draw_nbytes(n: int, n_paths: int, substeps: int, k: int, n_unobserved: int) -> int:
    """Bytes of the cached draws of one dataset of n transitions: per
    transition, the uniforms, the normals and the normals' log-density."""
    per_path = (1 if n_unobserved else 0) + (substeps - 1) * (k + 1) + n_unobserved
    return 8 * n * n_paths * per_path


def _dataset_draws(seed: int, d_idx: int, n: int, n_paths: int, substeps: int, k: int,
                   n_unobserved: int):
    """Read-only draws of every transition of dataset d_idx of a run seeded by seed.

    The dataset's seed is derive_seed(seed, d_idx), and transition i reads
    the stream (dataset seed, i) in the order: J resample uniforms (only
    with unobserved coordinates), then the proposal's normals. Returns
    arrays with a leading transition axis: uniforms (n, J or 0),
    intermediate normals (n, substeps - 1, J, k), endpoint normals
    (n, J, n_unobserved) and the intermediate normals' own log-density
    (n, substeps - 1, J), the part of each substep's proposal density
    that theta does not touch. Draws never depend on theta, so a fit makes them
    on its first evaluation and reuses them on every later one; the key
    holds everything that fixes them, so the dataset's seed is derived
    only on a miss, and the least recently used entries go once the cache
    outgrows its byte bound.
    """
    key = (seed, d_idx, n, n_paths, substeps, k, n_unobserved)
    with _DRAW_CACHE_LOCK:
        if key in _DRAW_CACHE:
            _DRAW_CACHE.move_to_end(key)
            return _DRAW_CACHE[key]
    dseed = derive_seed(seed, d_idx)
    u = np.empty((n, n_paths if n_unobserved else 0))
    z = np.empty((n, substeps - 1, n_paths, k))
    z_end = np.empty((n, n_paths, n_unobserved))
    for i in range(n):
        rng = rng_stream(dseed, i)
        if n_unobserved:
            u[i] = rng.random(n_paths)
        z[i], z_end[i] = _path_draws(rng, n_paths, substeps, k, n_unobserved)
    draws = (u, z, z_end, _draw_logpdf(z))
    for a in draws:
        a.flags.writeable = False
    with _DRAW_CACHE_LOCK:
        _DRAW_CACHE[key] = draws
        while sum(a.nbytes for d in _DRAW_CACHE.values() for a in d) > _DRAW_CACHE_BYTES:
            _DRAW_CACHE.popitem(last=False)
    return draws


def _calls(blocks, most: int):
    """The blocks (fit, dataset, first, stop) of a step in kernel calls of
    near-equal row counts, at most most rows each (at least one row); a
    block that straddles two calls is cut in two."""
    total = sum(hi - lo for _, _, lo, hi in blocks)
    n_calls = -(-total // max(most, 1))
    size = -(-total // n_calls)
    call, room = [], size
    for f, d, lo, hi in blocks:
        while lo < hi:
            take = min(hi - lo, room)
            call.append((f, d, lo, lo + take))
            lo, room = lo + take, room - take
            if not room:
                yield call
                call, room = [], size
    if call:
        yield call


def _row_params(problems, blocks):
    """theta and sampler of a kernel call whose blocks (fit, dataset,
    first, stop) come from several problems: each theta entry as (n, 1),
    one value per transition, and rho, where the family has one, as (n,)."""
    counts = [hi - lo for _, _, lo, hi in blocks]
    theta = np.repeat([problems[f][0] for f, *_ in blocks], counts, axis=0).T[:, :, None]
    spec = problems[blocks[0][0]][1]
    if spec.has_rho:
        spec = _RowRho(spec.kind, np.repeat([problems[f][1].rho for f, *_ in blocks], counts))
    return theta, spec


class _Rows:
    """Transition rows of the problems of likelihood runs, and the stacks
    that kernel calls read them from.

    A fit's rows, per dataset one per transition: previous observation,
    observation, start time, length, then the cached draws. A fit is known
    by its datasets object and seed, which are all its rows depend on
    under one model and configuration; the entry holds the datasets, so
    that their id stays theirs while the entry lives. A kernel call reads
    the rows of its blocks (fit, dataset, first, stop) stacked into
    buffers that every call reuses, grown to the largest call. With the
    rows, a call gets what its kernel run needs of them that theta does
    not touch: its layout (samplers._Layout) and its start states with
    the observed coordinates set, which are the whole start states when
    every coordinate is observed. All of these are left as they are when
    a call repeats the blocks of the last one.

    A lockstep group keeps one _Rows over its runs, so that it builds each
    fit's rows once. After its start simplex a group asks for one point
    per running fit in every round, so a round whose step is one call
    reads the stacks and layout of the last round's call as they are, and
    a round of several calls restacks them into the same memory: no
    steady round allocates stacked draws, and the stacks never weigh more
    than the largest call's rows.
    """

    def __init__(self):
        self.fits, self.run = {}, []
        self.key, self.stacked, self.buffers = None, [], []
        self.layout = self.starts = None

    def begin(self, model, n_paths: int, substeps: int, fits):
        """Start a run whose problem f belongs to the fit fits[f],
        (datasets, data, seed) with data the datasets checked against the
        model."""
        self.run = []
        obs, n_uno = list(model.observed), len(model.unobserved)
        # what a call's layout and start states depend on besides its rows
        self.config = (n_paths, model.dim, substeps, _Coords.of(model))
        for datasets, data, seed in fits:
            key = (id(datasets), seed)
            if key not in self.fits:
                rows = []
                for d, ds in enumerate(data):
                    t_start = np.concatenate(([ds.t0], ds.times[:-1]))
                    prev_obs = np.concatenate((ds.x0[obs][None], ds.values[:-1]))
                    draws = _dataset_draws(seed, d, ds.n, n_paths, substeps, model.dim, n_uno)
                    rows.append((prev_obs, ds.values, t_start, ds.times - t_start) + draws)
                self.fits[key] = (datasets, rows)
            self.run.append((key, self.fits[key][1]))

    def stack(self, blocks):
        """The rows of a kernel call over blocks (fit, dataset, first,
        stop), its layout, and its start states with the observed
        coordinates set; rows and start states are read-only, and all
        are valid until the next call."""
        key = tuple((self.run[f][0], d, lo, hi) for f, d, lo, hi in blocks)
        if key == self.key:
            return self.stacked, self.layout, self.starts
        stacked = []
        parts_of = zip(*([a[lo:hi] for a in self.run[f][1][d]] for f, d, lo, hi in blocks))
        for i, parts in enumerate(parts_of):
            shape = (sum(len(a) for a in parts),) + parts[0].shape[1:]
            size = math.prod(shape)
            if i == len(self.buffers):
                self.buffers.append(np.empty(0))
            if self.buffers[i].size < size:
                self.buffers[i] = np.empty(size)
            rows = self.buffers[i][:size].reshape(shape)
            np.concatenate(parts, out=rows)
            rows = rows.view()
            rows.flags.writeable = False
            stacked.append(rows)
        n_paths, k, substeps, c = self.config
        prev, y, t0, dt = stacked[:4]
        self.starts = np.empty((len(prev), n_paths, k))
        self.starts[..., c.o] = prev[:, None, :]
        self.starts.flags.writeable = False
        self.layout = _Layout.of(t0, dt / substeps, y, n_paths, k, substeps, c)
        self.key, self.stacked = key, stacked
        return self.stacked, self.layout, self.starts


def _propose(model, problems, n_paths, rows, clouds, blocks):
    """One kernel call over the blocks (fit, dataset, first, stop) of a step.

    problems are _likelihoods' (theta, sampler, datasets, seed), rows its
    _Rows, from which the call reads its rows, and clouds its particle
    clouds per (fit, dataset). The kernel keeps only the current substep
    and hands back endpoints and log-densities. Returns, per block,
    (block, outcome): the error that stopped it, or the arrays (log_phat,
    cv, ess, endpoints, weights) of its rows, where a row whose weights
    all vanished has a NaN log_phat. A call that fails is run again fit
    by fit, and a fit's block that fails row by row, so that a failure
    stays with its fit and its transition. A DomainError stops the whole
    fit: only the fit's first block reports it.
    """
    (*_, u, z, z_end, z_dens), g, starts = rows.stack(blocks)
    uno = list(model.unobserved)
    if uno:  # partially observed blocks hold one transition each
        starts = starts.copy()
        for r, (f, d, _, _) in enumerate(blocks):
            starts[r][:, uno] = clouds[f, d]._pick(u[r])
    fits = list(dict.fromkeys(f for f, *_ in blocks))
    theta, sampler = _row_params(problems, blocks) if len(fits) > 1 else problems[fits[0]][:2]
    try:
        # rows after a failing one still run in the call; keep them quiet
        with np.errstate(all="ignore"):
            ends, log_t, log_p = _transition_ends(model, theta, starts, sampler,
                                                  (z, z_end, z_dens), g)
            log_phat, cv, ess, w = _weight_stats(log_t - log_p, n_paths)
    except (NumericalError, DomainError) as exc:
        if len(fits) > 1:
            return [
                out
                for f in fits
                for out in _propose(model, problems, n_paths, rows, clouds,
                                    [b for b in blocks if b[0] == f])
            ]
        if len(starts) == 1 or isinstance(exc, DomainError):
            return [(blocks[0], exc)]
        # rerun one at a time to find the failing rows
        return [
            out
            for f, d, lo, hi in blocks
            for i in range(lo, hi)
            for out in _propose(model, problems, n_paths, rows, clouds, [(f, d, i, i + 1)])
        ]
    out, lo = [], 0
    for b in blocks:
        hi = lo + b[3] - b[2]
        out.append((b, (log_phat[lo:hi], cv[lo:hi], ess[lo:hi], ends[lo:hi], w[lo:hi])))
        lo = hi
    return out


def _likelihoods(model, problems, n_paths: int, substeps: int, on_failure: str,
                 rows: _Rows | None = None) -> list:
    """log_likelihood of independent problems, (theta, sampler, datasets,
    seed) each, in lockstep; every sampler is of one family.

    The (dataset, transition) schedule of log_likelihood gains an outer
    problem axis: with every coordinate observed one kernel call holds
    every transition of every problem, otherwise step i holds transition
    i of every (problem, dataset) pair still running. Returns per problem
    its LikelihoodResult, or the exception that stopped it: the
    DomainError it raised, or under on_failure "raise" its
    TransitionFailure. A problem's outcome never depends on the others.
    rows is the _Rows of the lockstep group whose run this is; without
    one, the run builds its rows for itself.
    """
    if on_failure not in ("raise", "neginf"):
        raise DomainError("on_failure must be 'raise' or 'neginf'")
    validate_model(model)
    uno = list(model.unobserved)
    out = [None] * len(problems)
    live = []
    for f, (theta, sampler, datasets, seed) in enumerate(problems):
        try:
            theta = model.validate_theta(theta)
            data = _model_datasets(model, datasets)
        except DomainError as exc:
            out[f] = exc
            continue
        live.append((f, (theta, sampler, data, seed), (datasets, data, seed)))
    if not live:
        return out
    index, problems, fits = zip(*live)  # from here on, f counts valid problems only
    rows = _Rows() if rows is None else rows
    rows.begin(model, n_paths, substeps, fits)
    clouds = {}
    if uno:
        for f, (_, _, data, _) in enumerate(problems):
            for d, ds in enumerate(data):
                clouds[f, d] = ParticleCloud.point_mass(ds.x0[uno])
        steps = [
            [(f, d, i, i + 1) for f, p in enumerate(problems) for d, ds in enumerate(p[2]) if i < ds.n]
            for i in range(max(ds.n for p in problems for ds in p[2]))
        ]
    else:
        steps = [[(f, d, 0, ds.n) for f, p in enumerate(problems) for d, ds in enumerate(p[2])]]
    segments = [[[] for _ in p[2]] for p in problems]
    # per problem, (dataset, transition, error) first in dataset-major order;
    # a DomainError is filed under dataset -1, which stops every dataset
    failed = [None] * len(problems)
    for step in steps:
        blocks = [b for b in step if failed[b[0]] is None or b[1] < failed[b[0]][0]]
        if not blocks:
            break
        cut = set()  # problems whose failure this step makes the rest of it moot
        for (f, d, lo, hi), res in (
            outcome
            for call in _calls(blocks, _CALL_BYTES // ((substeps + 1) * n_paths * model.dim * 8))
            for outcome in _propose(model, problems, n_paths, rows, clouds, call)
        ):
            # a DomainError anywhere in the step stops its problem, as if raised
            if isinstance(res, DomainError) and (failed[f] is None or failed[f][0] >= 0):
                failed[f] = (-1, lo, res)
                cut.add(f)
            if f in cut:
                continue
            if isinstance(res, Exception):
                failed[f] = (d, lo, res)
                cut.add(f)
                continue
            log_phat, cv, ess, ends, w = res
            vanished = np.isnan(log_phat)
            if vanished.any():
                stop = int(vanished.argmax())
                failed[f] = (d, lo + stop, TransitionFailure("all importance weights vanished"))
                cut.add(f)
                log_phat, cv, ess = log_phat[:stop], cv[:stop], ess[:stop]
            elif uno:
                clouds[f, d] = ParticleCloud(ends[0][:, uno], w[0] / w[0].sum())
            segments[f][d].append(_Segment(d, lo, log_phat, cv, ess))
    for f, fail, sg in zip(index, failed, segments):
        if fail is None:
            out[f] = LikelihoodResult([g for d in sg for g in d])
            continue
        d_idx, i, cause = fail
        if d_idx < 0:
            out[f] = cause
        elif on_failure == "raise":
            out[f] = TransitionFailure(
                f"transition {i} of dataset {d_idx} failed: {cause}",
                dataset_index=d_idx,
                index=i,
            )
            out[f].__cause__ = cause
        else:
            out[f] = LikelihoodResult([g for d in sg[: d_idx + 1] for g in d], failed=True)
    return out


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
    [res] = _likelihoods(model, [(theta, sampler, datasets, seed)], n_paths, substeps, on_failure)
    if isinstance(res, Exception):
        raise res
    return res


def _objective(res: LikelihoodResult, lam: float) -> float:
    """Log-likelihood minus lam times the summed weight cv; -inf on failure."""
    if res.failed:
        return -math.inf
    return res.loglik - lam * res.cv_sum


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
    return _objective(res, config.lam), res
