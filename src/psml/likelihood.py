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
    _whole,
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


def _left_to_right(arrays: list) -> float:
    """Sum of the arrays' entries in order, from 0.0. np.add.accumulate
    adds one entry at a time; np.sum adds pairwise, and Python 3.12's
    sum() of floats is compensated, so either would differ in the last
    bits. Starting from the first entry instead of 0.0 changes at most
    the sign of a zero sum, which the closing + 0.0 sets as 0.0 gives it."""
    a = arrays[0] if len(arrays) == 1 else np.concatenate(arrays) if arrays else ()
    return float(np.add.accumulate(a)[-1]) + 0.0 if len(a) else 0.0


class LikelihoodResult:
    """The chained estimate from per-transition segments in dataset-major
    order: loglik and cv_sum are their left-to-right sums (loglik is -inf
    when the run failed, and the segments end at the failing transition),
    and diagnostics lists a TransitionDiag per transition, built only
    when read; the optimizer reads only the sums."""

    def __init__(self, segments: list, failed: bool = False):
        self.segments, self.failed = segments, failed
        self.cv_sum = _left_to_right([g.cv for g in segments])
        self.loglik = -math.inf if failed else _left_to_right([g.log_phat for g in segments])

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
        if not math.isfinite(self.lam):
            raise DomainError("lambda must be finite")
        for key in ("n_paths", "substeps"):
            object.__setattr__(self, key, _whole(getattr(self, key), key))
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
    model's coordinates and start from a state of the model's size."""
    out = _as_datasets(datasets)
    for ds in out:
        if tuple(ds.observed) != tuple(model.observed):
            raise DomainError("dataset observed coordinates do not match the model")
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

# A block of at least this many transitions runs as a kernel call of its
# own, on its fit's rows as they are, in a run that stacks afresh: from
# there the kernel's cost per row is flat (an OU call of J = 8, M = 8
# takes 1.58 us per row at 100 rows and 1.41 at 500), and stacking a row
# (0.39 us) costs more than the call it would save.
_SOLO_ROWS = 64

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
    """theta and sampler of a kernel call whose blocks (problem, dataset,
    first, stop) come from several problems, (theta, sampler, ...) each:
    each theta entry as (n, 1), one value per transition, and rho, where
    the family has one, as (n,)."""
    counts = [hi - lo for _, _, lo, hi in blocks]
    theta = np.repeat([problems[p][0] for p, *_ in blocks], counts, axis=0).T[:, :, None]
    spec = problems[blocks[0][0]][1]
    if spec.rho is not None:
        spec = _RowRho(spec.kind, np.repeat([problems[p][1].rho for p, *_ in blocks], counts))
    return theta, spec


class _Problem:
    """A lockstep group's prepared problem: everything that evaluating its
    fits needs and that neither theta nor rho touches, built once, so that
    an evaluation does only the work that theta and rho change.

    The group's fits share the model, the path count J, the substep count
    M and the sampler family. add() enters a fit by its datasets and its
    evaluation seed: it checks the datasets against the model, once, and
    keeps per dataset the fit's rows, one per transition (previous
    observation, observation, start time, length, then the cached draws),
    and, with unobserved coordinates, the point-mass particle clouds at
    the start states; with every coordinate observed, the inputs of each
    dataset's call alone. A run of _likelihoods then names per problem
    only a fit, a theta and a rho.

    A run's plan is its schedule: its steps (the blocks (problem, dataset,
    first, stop) of each) and each step's kernel calls as _calls cuts
    them. A call's inputs are its draws, their samplers._Layout and their
    start states with the observed coordinates set. The draws of a call of
    one block are views of its fit's rows, and those of several blocks are
    stacked. The group keeps the plan of its last run whose problems are
    distinct fits, with each call's inputs once built: every round of a
    fit driver after its start simplex is such a run, save a shrink, so a
    round that repeats the last one's fits reads its schedule and every
    call's inputs as they are. A run that lists a fit twice (a start
    simplex, a shrink) plans for itself and builds each call's inputs
    when the call runs, and keeps neither; since it would stack afresh,
    a block of _SOLO_ROWS rows or more runs as a call of its own. So
    besides its fits' rows, a group holds at most one stacked copy of
    them, plus their layouts.
    """

    def __init__(self, model, n_paths: int, substeps: int, kind: str):
        validate_model(model)
        self.model, self.n_paths, self.substeps, self.kind = model, n_paths, substeps, kind
        self.c = _Coords.of(model)
        self.uno = list(model.unobserved)
        self.fits = []  # per fit, (rows, start clouds, inputs of a whole block) per dataset
        self.kept = None  # (fits, plan) of the last run whose problems are distinct fits

    def add(self, datasets, seed: int) -> int:
        """Enter the fit of datasets, evaluated under seed; returns its index.

        With every coordinate observed, a dataset's transitions are one
        block, and the inputs of its call alone are built here, once."""
        model, n_uno = self.model, len(self.uno)
        data = _model_datasets(model, datasets)
        obs = list(model.observed)
        rows = []
        for d, ds in enumerate(data):
            t_start = np.concatenate(([ds.t0], ds.times[:-1]))
            prev_obs = np.concatenate((ds.x0[obs][None], ds.values[:-1]))
            draws = _dataset_draws(seed, d, ds.n, self.n_paths, self.substeps, model.dim, n_uno)
            rows.append((prev_obs, ds.values, t_start, ds.times - t_start) + draws)
        clouds = [ParticleCloud.point_mass(ds.x0[self.uno]) for ds in data] if n_uno else []
        whole = [] if n_uno else [self._build(r) for r in rows]
        self.fits.append((rows, clouds, whole))
        return len(self.fits) - 1

    def calls(self, blocks, stack: bool = True) -> list:
        """The blocks of a step cut into kernel calls (_calls), at the row
        bound that _CALL_BYTES sets. Unless stack, a block of at least
        _SOLO_ROWS rows is a call of its own."""
        most = _CALL_BYTES // ((self.substeps + 1) * self.n_paths * self.model.dim * 8)
        out, pack = [], []
        for b in blocks:
            if stack or b[3] - b[2] < _SOLO_ROWS:
                pack.append(b)
                continue
            if pack:
                out += _calls(pack, most)
                pack = []
            out += _calls([b], most)
        if pack:
            out += _calls(pack, most)
        return [_Call(call) for call in out]

    def plan(self, fits):
        """The schedule of a run whose problem p belongs to the fit fits[p]:
        per step its blocks and its kernel calls, and whether the group
        keeps it.

        With every coordinate observed one step holds every transition of
        every problem; otherwise step i holds transition i of every
        (problem, dataset) pair that has one."""
        if self.kept is not None and self.kept[0] == fits:
            return self.kept[1], True
        lengths = [[len(rows[1]) for rows in self.fits[f][0]] for f in fits]
        if self.uno:
            steps = [
                [(p, d, i, i + 1) for p, ns in enumerate(lengths) for d, n in enumerate(ns) if i < n]
                for i in range(max(n for ns in lengths for n in ns))
            ]
        else:
            steps = [[(p, d, 0, n) for p, ns in enumerate(lengths) for d, n in enumerate(ns)]]
        keep = len(set(fits)) == len(fits)
        plan = [(step, self.calls(step, keep)) for step in steps]
        if keep:
            self.kept = (fits, plan)
        return plan, keep

    def inputs(self, fits, blocks):
        """The inputs of a kernel call over blocks (problem, dataset,
        first, stop), problem p being of the fit fits[p]: its draws (u, z,
        z_end, z_dens), its layout, and its start states with the observed
        coordinates set. Draws and start states are read-only; a whole
        dataset's block alone reads the inputs that add built."""
        if len(blocks) == 1:
            [(p, d, lo, hi)] = blocks
            rows, _, whole = self.fits[fits[p]]
            if whole and lo == 0 and hi == len(rows[d][0]):
                return whole[d]
            return self._build([a[lo:hi] for a in rows[d]])
        parts = [[a[lo:hi] for a in self.fits[fits[p]][0][d]] for p, d, lo, hi in blocks]
        rows = [np.concatenate(col) for col in zip(*parts)]
        for a in rows:
            a.flags.writeable = False
        return self._build(rows)

    def _build(self, rows):
        """Draws, layout and start states of a call over the rows."""
        prev, y, t0, dt, *draws = rows
        starts = np.empty((len(prev), self.n_paths, self.model.dim))
        starts[..., self.c.o] = prev[:, None, :]
        starts.flags.writeable = False
        return draws, _Layout.of(t0, dt / self.substeps, y, draws[1], self.c), starts


class _Call:
    """A kernel call of a plan: its blocks (problem, dataset, first, stop),
    and its inputs once a kept plan has built them."""

    __slots__ = ("blocks", "inputs")

    def __init__(self, blocks):
        self.blocks, self.inputs = blocks, None


def _propose(group: _Problem, fits, params, clouds, blocks, inputs=None):
    """One kernel call over the blocks (problem, dataset, first, stop) of a step.

    group is the run's prepared problem, fits[p] the fit of problem p and
    params[p] its (theta, sampler), clouds the run's particle clouds per
    (problem, dataset), and inputs the call's inputs where its plan keeps
    them (_Problem.inputs builds them otherwise). The kernel keeps only
    the current substep and hands back endpoints and log-densities.
    Returns, per block, (block, outcome): the error that stopped it, or
    the arrays (log_phat, cv, ess, endpoints, weights) of its rows, where
    a row whose weights all vanished has a NaN log_phat. A call that
    fails is run again problem by problem, and a problem's block that
    fails row by row, so that a failure stays with its problem and its
    transition. A DomainError stops the whole problem: only its first
    block reports it.
    """
    draws, g, starts = group.inputs(fits, blocks) if inputs is None else inputs
    uno = group.uno
    if uno:  # partially observed blocks hold one transition each
        starts = starts.copy()
        u = draws[0]
        for r, (p, d, _, _) in enumerate(blocks):
            starts[r][:, uno] = clouds[p, d]._pick(u[r])
    problems = list(dict.fromkeys(p for p, *_ in blocks))
    theta, sampler = _row_params(params, blocks) if len(problems) > 1 else params[problems[0]]
    try:
        ends, log_t, log_p = _transition_ends(group.model, theta, starts, sampler, draws[1:], g)
        log_phat, cv, ess, w = _weight_stats(log_t - log_p, group.n_paths)
    except (NumericalError, DomainError) as exc:
        if len(problems) > 1:
            return [
                out
                for p in problems
                for out in _propose(group, fits, params, clouds, [b for b in blocks if b[0] == p])
            ]
        if len(starts) == 1 or isinstance(exc, DomainError):
            return [(blocks[0], exc)]
        # rerun one at a time to find the failing rows
        return [
            out
            for p, d, lo, hi in blocks
            for i in range(lo, hi)
            for out in _propose(group, fits, params, clouds, [(p, d, i, i + 1)])
        ]
    if len(blocks) == 1:
        return [(blocks[0], (log_phat, cv, ess, ends, w))]
    out, lo = [], 0
    for b in blocks:
        hi = lo + b[3] - b[2]
        out.append((b, (log_phat[lo:hi], cv[lo:hi], ess[lo:hi], ends[lo:hi], w[lo:hi])))
        lo = hi
    return out


def _likelihoods(group: _Problem, problems, on_failure: str) -> list:
    """log_likelihood of independent problems of a prepared group, in
    lockstep: a problem is (fit, theta, rho), with fit an index that
    group.add gave and rho None for a family without one.

    The (dataset, transition) schedule of log_likelihood gains an outer
    problem axis (_Problem.plan). Returns per problem its
    LikelihoodResult, or the exception that stopped it: the DomainError
    it raised, or under on_failure "raise" its TransitionFailure. A
    problem's outcome never depends on the others.
    """
    model = group.model
    out = [None] * len(problems)
    live = []
    for j, (f, theta, rho) in enumerate(problems):
        try:
            theta = model.validate_theta(theta)
            if rho is not None and not 0.0 < rho <= 1.0:
                SamplerSpec(group.kind, rho)  # the family's own range check
        except DomainError as exc:
            out[j] = exc
            continue
        live.append((j, f, (theta, _RowRho(group.kind, rho))))
    if not live:
        return out
    index, fits, params = zip(*live)  # from here on, p counts valid problems only
    plan, keep = group.plan(fits)
    clouds = {(p, d): cloud for p, f in enumerate(fits) for d, cloud in enumerate(group.fits[f][1])
              } if group.uno else None
    segments = [[[] for _ in group.fits[f][0]] for f in fits]
    # per problem, (dataset, transition, error) first in dataset-major order;
    # a DomainError is filed under dataset -1, which stops every dataset
    failed = [None] * len(fits)
    any_failed = False
    # rows after a failing one still run in a call; keep them quiet
    with np.errstate(all="ignore"):
        for step, calls in plan:
            if any_failed:
                blocks = [b for b in step if failed[b[0]] is None or b[1] < failed[b[0]][0]]
                if not blocks:
                    break
                if blocks != step:
                    calls = group.calls(blocks, keep)
            cut = set()  # problems whose failure this step makes the rest of it moot
            for call in calls:
                if keep and call.inputs is None:
                    call.inputs = group.inputs(fits, call.blocks)
                for (p, d, lo, hi), res in _propose(group, fits, params, clouds, call.blocks,
                                                    call.inputs):
                    # a DomainError anywhere in the step stops its problem, as if raised
                    if isinstance(res, DomainError) and (failed[p] is None or failed[p][0] >= 0):
                        failed[p] = (-1, lo, res)
                        cut.add(p)
                    if p in cut:
                        continue
                    if isinstance(res, Exception):
                        failed[p] = (d, lo, res)
                        cut.add(p)
                        continue
                    log_phat, cv, ess, ends, w = res
                    vanished = np.isnan(log_phat)
                    if vanished.any():
                        stop = int(vanished.argmax())
                        failed[p] = (d, lo + stop, TransitionFailure("all importance weights vanished"))
                        cut.add(p)
                        log_phat, cv, ess = log_phat[:stop], cv[:stop], ess[:stop]
                    elif group.uno:
                        clouds[p, d] = ParticleCloud(ends[0][:, group.uno], w[0] / w[0].sum())
                    segments[p][d].append(_Segment(d, lo, log_phat, cv, ess))
            any_failed = any_failed or bool(cut)
    for j, fail, sg in zip(index, failed, segments):
        if fail is None:
            out[j] = LikelihoodResult([g for d in sg for g in d])
            continue
        d_idx, i, cause = fail
        if d_idx < 0:
            out[j] = cause
        elif on_failure == "raise":
            out[j] = TransitionFailure(
                f"transition {i} of dataset {d_idx} failed: {cause}",
                dataset_index=d_idx,
                index=i,
            )
            out[j].__cause__ = cause
        else:
            out[j] = LikelihoodResult([g for d in sg[: d_idx + 1] for g in d], failed=True)
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
    stops its own dataset and the ones after it. Each call prepares its
    problem (_Problem) afresh; a call of one block reads the cached draws
    as they are.
    """
    if on_failure not in ("raise", "neginf"):
        raise DomainError("on_failure must be 'raise' or 'neginf'")
    group = _Problem(model, n_paths, substeps, sampler.kind)
    [res] = _likelihoods(group, [(group.add(datasets, seed), theta, sampler.rho)], on_failure)
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
