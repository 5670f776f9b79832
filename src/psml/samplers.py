"""Sub-path proposals between consecutive observations.

Four families share one driver: blind forward simulation (pedersen),
the modified Brownian bridge pulled toward the next observation (mbb),
a convex blend of the two with a shrinking mixing matrix (regularized),
and the bridge with its covariance scaled by a free factor (aux-mbb).
Every proposal returns the log-density of the simulated sub-path under
the Euler target alongside the log-density under the proposal itself,
so the importance weight is a difference of accumulators. The driver
runs a batch of independent transitions at once, looping over substeps
only.

The kernel, _transition_ends, takes one input form and trusts it:
float start states (n, J, k), the draws (z, z_end, z_dens) and the
call's _Layout, which holds what the substeps share that neither theta
nor rho touches. Outside input enters through propose_transition, which
checks it, turns a Generator into draws and builds the layout; the
likelihood builds all three, once per fit or per kept call, from
datasets that it has checked (likelihood._Problem).

Before its substep loop, a call computes everything that depends
neither on the path states nor on the loop's outcome. With constant
diffusion and every coordinate observed, each kernel covariance is a
multiple of the Euler one, so one factor L_e per transition serves all
substeps and paths. The proposal's factor at substep m is then s_m L_e,
a scalar s_m set by m and rho alone, so every substep's proposal factor
and its log-determinant are known before the loop too; the draws' own
log-density, -(k log 2 pi + z'z)/2, comes with the draws. A shared
factor goes to the paths of a transition in one batched matmul per
substep, (n, J, k) by (n, k, k); where k = 1 it is applied elementwise,
which gives the same bits, and the moves of every substep are made
before the loop. Where k = 1 the factors are square roots (chol_spd's
closed form for 1x1 blocks) and L_e^-1 is a reciprocal, so the set-up
makes no LAPACK call.

Each call turns contiguous observed and unobserved coordinate sets into
basic slices, so that covariance blocks are views rather than copies. A
partially observed substep factors its Euler and proposal covariances
in one chol_spd call, takes both log-determinants from one pass over
the stacked factors, and solves with the Euler factor for the target
density by forward substitution; scripts/substep_cost.py prints the
cost of each part.

The loop keeps only the current substep's states and returns the
endpoints with the log-densities; only propose_transition stacks every
substep's states, for its callers.

A batch may hold the transitions of several fits, as the lockstep
bootstrap refits do: theta entries then carry one value per transition,
as the time does, and so does the sampler's rho. Each transition still
takes the branches of its own solo call, so its row equals that call
bit for bit.

The final substep is common to all families. The observed endpoint
coordinates are pinned to the observation, whose Euler marginal density
enters the target accumulator, and unobserved endpoint coordinates are
drawn from the Euler conditional given that observation, whose density
enters both accumulators (it cancels in the weight).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    _LOG_2PI,
    _coord_index,
    DomainError,
    SdeModel,
    _factor_logpdf,
    _logdet,
    chol_mul,
    chol_spd,
    gauss_logpdf,
)

KINDS = ("pedersen", "mbb", "regularized", "aux-mbb")
_RHO_KINDS = ("regularized", "aux-mbb")

# Diagonal floor for the observed-block covariance entering bridge solves.
_OBS_BLOCK_FLOOR = 1e-14


@dataclass(frozen=True)
class SamplerSpec:
    """Proposal family plus its tuning parameter where the family has one.

    pedersen and mbb take no parameter; regularized takes rho in [0, 1]
    (0 recovers mbb in law); aux-mbb takes rho in (0, 1] (1 recovers mbb
    exactly, rho = 0 would degenerate the proposal and is rejected).
    """

    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown sampler kind {self.kind!r}")
        if self.kind in _RHO_KINDS:
            if self.rho is None:
                raise DomainError(f"sampler {self.kind!r} requires rho")
            rho = float(self.rho)
            if self.kind == "aux-mbb" and not 0.0 < rho <= 1.0:
                raise DomainError("aux-mbb requires rho in (0, 1]")
            if self.kind == "regularized" and not 0.0 <= rho <= 1.0:
                raise DomainError("regularized requires rho in [0, 1]")
            object.__setattr__(self, "rho", rho)
        elif self.rho is not None:
            raise DomainError(f"sampler {self.kind!r} takes no rho")

    @property
    def has_rho(self) -> bool:
        return self.kind in _RHO_KINDS

    def with_rho(self, rho: float | None) -> "SamplerSpec":
        if not self.has_rho:
            if rho is not None:
                raise DomainError(f"sampler {self.kind!r} takes no rho")
            return self
        return replace(self, rho=rho)


@dataclass
class SubPathBatch:
    """J simulated sub-paths plus their target and proposal log-densities.

    states has shape (substeps + 1, J, k), or (substeps + 1, n, J, k) for
    a batch of n transitions; the first slice is the start states and the
    last has observed coordinates pinned to the observation.
    """

    states: np.ndarray
    log_target: np.ndarray
    log_proposal: np.ndarray

    @property
    def endpoints(self) -> np.ndarray:
        return self.states[-1]


class _RowRho(NamedTuple):
    """The sampler of a kernel call, as the likelihood hands it over: one
    family, and rho as a float, as an (n,) array of one value per
    transition when the call's transitions come from several fits, or
    None for a family without one. Its rho is trusted: it comes from a
    SamplerSpec, or from a search coordinate that stays inside the
    family's range."""

    kind: str
    rho: np.ndarray


def _blend_weight(m: int, substeps: int, rho: float) -> float:
    """Mixing scalar pulling a regularized step from blind toward bridge."""
    left = substeps - m
    return left / (left + rho * (left - 1) ** 2)


def _mix(spec: SamplerSpec, m: int, substeps: int) -> tuple[float, float]:
    """Weight w of the bridge in the proposal, and the factor s on its covariance.

    The proposal mean is (1 - w) Euler + w bridge and its covariance
    (1 - w) Euler + w s bridge: pedersen has w = 0, mbb w = s = 1, aux-mbb
    w = 1 and s = rho, regularized the blend weight and s = 1. With rho
    per transition, w or s is an (n,) array; with an (m, 1) array of
    substep indices, w is (m, 1) or (m, n).
    """
    if spec.kind == "pedersen":
        return 0.0, 1.0
    if spec.kind == "regularized":
        return _blend_weight(m, substeps, spec.rho), 1.0
    return 1.0, spec.rho if spec.kind == "aux-mbb" else 1.0


def _factor_ratios(spec: SamplerSpec, g: "_Layout") -> np.ndarray:
    """Ratio of the proposal factor to the Euler one at every intermediate
    substep of a fully observed model, where the bridge covariance is
    (r - 1)/r times the Euler one with r substeps left: the root of
    (1 - w) + w s (r - 1)/r, shaped (substeps - 1, n, 1, 1, 1) to scale
    (n, J, k, k) factors, with n = 1 unless rho is per transition. The r
    grid and (r - 1)/r come with the call's layout g."""
    substeps = len(g.times)
    w, s = _mix(spec, substeps - g.r, substeps)
    return np.sqrt((1.0 - w) + w * s * g.r_frac)[..., None, None, None]


def _convex(w, s, a, b):
    """(1 - w) a + (w s) b, and (w s) b alone where w is 1, as each
    transition's own call takes it; w and s are floats, or (n,) arrays of
    one value per transition."""
    if not isinstance(w, np.ndarray) and not isinstance(s, np.ndarray):
        wb = b if w * s == 1.0 else (w * s) * b
        return wb if w == 1.0 else (1.0 - w) * a + wb
    lead = (-1,) + (1,) * (b.ndim - 1)
    wb = np.reshape(np.multiply(w, s), lead) * b
    w = np.reshape(w, lead)
    return np.where(w == 1.0, wb, (1.0 - w) * a + wb)


def _floor_obs_diag(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[-1]
    if d == 1:
        return np.maximum(mat, _OBS_BLOCK_FLOOR)
    i = np.arange(d)
    out = mat.copy()
    out[..., i, i] = np.maximum(out[..., i, i], _OBS_BLOCK_FLOOR)
    return out


def _solve_obs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for observed blocks a; a division when one coordinate is observed."""
    return b / a if a.shape[-1] == 1 else np.linalg.solve(a, b)


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """v'v over the last axis, as einsum gives it; for k = 1 the square
    alone, which is einsum's 0.0 + v v, in a fraction of the time."""
    return v[..., 0] * v[..., 0] if v.shape[-1] == 1 else np.einsum("...i,...i->...", v, v)


def _draw_logpdf(z: np.ndarray) -> np.ndarray:
    """Standard-normal log-density of draws z (..., k), -(k log 2 pi + z'z) / 2:
    the part of a proposal density that theta does not touch."""
    return -0.5 * (z.shape[-1] * _LOG_2PI + _sq_norm(z))


def _white_logpdf(v: np.ndarray, logdet) -> np.ndarray:
    """Log-density of N(0, L L^T) at L v, given v and log|L|."""
    return _draw_logpdf(v) - logdet


class _Coords(NamedTuple):
    """The model's observed (o) and unobserved (u) coordinates as indices
    along the state axis and as the rows and columns of covariance blocks.
    A contiguous set is a basic slice, so that indexing gives views; a
    block takes slices only when both of its sets are contiguous, since
    a slice does not combine with an index array into a block."""

    n_uno: int
    o: slice | np.ndarray
    u: slice | np.ndarray
    o_rows: slice | np.ndarray
    o_cols: slice | np.ndarray
    u_rows: slice | np.ndarray
    u_cols: slice | np.ndarray

    @classmethod
    def of(cls, model: SdeModel) -> "_Coords":
        return _coords(tuple(model.observed), tuple(model.unobserved))


@functools.lru_cache(maxsize=None)
def _coords(observed: tuple, unobserved: tuple) -> _Coords:
    """_Coords of a model, made once per (observed, unobserved) value.

    The cache is keyed by the coordinate sets, not by the model class, as
    core._nonnegative_index is, so a model that sets observed per instance
    gets its own; integer indices are read-only, since every caller
    shares them.
    """
    o, u = _coord_index(observed), _coord_index(unobserved)
    if not unobserved or isinstance(o, slice) and isinstance(u, slice):
        # with every coordinate observed, no block is ever taken
        c = _Coords(len(unobserved), o, u, o, o, u, u)
    else:
        o_arr = np.asarray(observed, dtype=int)
        u_arr = np.asarray(unobserved, dtype=int)
        c = _Coords(len(unobserved), o, u, o_arr[:, None], o_arr[None, :], u_arr[:, None],
                    u_arr[None, :])
    for a in c[1:]:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return c


def _chol_pair(a: np.ndarray, b: np.ndarray):
    """chol_spd of two (n, J, k, k) batches in one call on their stack,
    and the log-determinants of both factors from one pass over it.

    chol_spd repairs an (n, J, k, k) batch one transition at a time, so
    each half equals its own chol_spd call bit for bit.
    """
    both = chol_spd(np.concatenate((a, b)))
    logdet = _logdet(both)
    n = len(a)
    return both[:n], both[n:], logdet[:n], logdet[n:]


class _Layout(NamedTuple):
    """What the substeps of a call share that neither theta nor rho
    touches, fixed before its loop.

    The substep length delta (n,) and the substep times (substeps, n),
    whose first row is each transition's start time; the substep length
    dl (n, J, k), its observed coordinates dl_o and the observation y
    (n, J, n_observed) laid out contiguously over the paths, since an
    (n, 1, 1) constant broadcast over (n, J, k) costs several times a
    contiguous operation at these sizes. r is the number of substeps
    left at each intermediate substep, substeps down to 2, as
    (substeps - 1, 1), and r_frac (r - 1)/r, for _factor_ratios; zt is
    the intermediate draws substep-major, (substeps - 1, n, J, 1), for
    the elementwise moves of a one-coordinate model, and None for a wider
    one; c is the model's coordinates. A lockstep group builds a call's
    layout once and hands it to every call over the same rows
    (likelihood._Problem).
    """

    delta: np.ndarray
    times: np.ndarray
    dl: np.ndarray
    dl_o: np.ndarray
    y: np.ndarray
    r: np.ndarray
    r_frac: np.ndarray
    zt: np.ndarray | None
    c: _Coords

    @classmethod
    def of(cls, t_start, delta, y_obs, z, c: _Coords):
        """The layout of transitions starting at t_start, with substep
        length delta and observation y_obs, whose intermediate draws z
        are (n, substeps - 1, J, k)."""
        n, steps, n_paths, k = z.shape
        substeps = steps + 1
        dl = np.repeat(delta, n_paths * k).reshape(n, n_paths, k)
        y = np.repeat(y_obs, n_paths, axis=0).reshape(n, n_paths, -1)
        times = t_start + np.arange(substeps)[:, None] * delta
        r = np.arange(substeps, 1, -1.0)[:, None]
        zt = np.ascontiguousarray(np.swapaxes(z, 0, 1)) if k == 1 else None
        return cls(delta, times, dl, dl[..., c.o], y, r, (r - 1) / r, zt, c)


def _bridge_moments(f, outer, x, c: _Coords, r: int, g: _Layout):
    """Bridge drift eta and covariance for the substep of each interval
    that has r substeps left.

    States carry leading (n, J) axes; g is the call's layout. The observed
    block of eta points straight at the observation over the remaining
    time; unobserved coordinates get the drift corrected by their
    covariance with the observed ones. The covariance shrinks the
    observed block by (r - 1)/r, and the unobserved block loses the
    explained part of its variance. With every coordinate observed the
    covariance is (r - 1)/r times the diffusion, and None is returned in
    its place.
    """
    span = g.dl_o * r
    x_o = x[..., c.o]
    if c.n_uno == 0 and isinstance(c.o, slice):  # every coordinate, in state order
        return (g.y - x_o) / span, None
    eta = np.empty_like(x)
    eta[..., c.o] = (g.y - x_o) / span
    if c.n_uno == 0:
        return eta, None
    g_oo = outer[..., c.o_rows, c.o_cols]
    g_ou = outer[..., c.o_rows, c.u_cols]
    g_uo = outer[..., c.u_rows, c.o_cols]
    g_uu = outer[..., c.u_rows, c.u_cols]
    d_obs = g.y - (x_o + f[..., c.o] * (g.dl_o * (r - 1)))
    solved = _solve_obs(_floor_obs_diag(g_oo), g_ou)  # G_oo^{-1} G_ou
    eta[..., c.u] = f[..., c.u] + np.einsum("...ou,...o->...u", solved, d_obs) / span[..., :1]
    sig = ((r - 1) / r) * outer
    sig[..., c.u_rows, c.u_cols] = g_uu - (g_uo @ solved) / r
    return eta, sig


def _euler(model: SdeModel, theta, x, t, dl, per_path: bool):
    """Drift and Euler mean of states x (n, J, k) at times t (n, 1), with
    dl the substep length laid out like x; with per_path also the
    diffusion outer product and Euler covariance, broadcast to
    (n, J, k, k)."""
    xa = model.clamp_state(x)
    f = np.asarray(model.drift(xa, theta, t), dtype=float)
    mean_e = x + f * dl
    if not per_path:
        return f, mean_e, None, None
    outer = np.asarray(model.diffusion_outer(xa, theta, t), dtype=float)
    if outer.shape != x.shape + x.shape[-1:]:
        outer = np.broadcast_to(outer, x.shape + x.shape[-1:])
    return f, mean_e, outer, outer * dl[..., None]


def _kernel(model: SdeModel, theta, x, t, m: int, substeps: int, spec: SamplerSpec,
            c: _Coords, g: _Layout, factors: bool = True, ratios: np.ndarray | None = None):
    """Euler step and proposal of intermediate substep m, 0 <= m <= substeps - 2.

    x is (n, J, k) and t (n, 1); c holds the model's coordinate indices
    and g the call's layout. Returns (mean_e, q_mean, chol_e, chol_q,
    logdet_e, logdet_q): the Euler step is N(mean_e, chol_e chol_e^T) and
    the proposal N(q_mean, chol_q chol_q^T), with factors built per path,
    in one chol_spd call where the proposal has a factor of its own, and
    the log-determinants of both factors. A fully observed model's
    proposal factor is ratios[m] times the Euler one, with ratios the
    call's _factor_ratios. A caller that fixed the factors before its
    loop passes factors False and gets None for the last four.
    theta entries and the sampler's rho may hold one value per transition
    (see propose_transition).
    """
    f, mean_e, outer, cov_e = _euler(model, theta, x, t, g.dl, factors)
    w, s = _mix(spec, m, substeps)
    plain = not isinstance(w, np.ndarray) and w == 0.0  # blind forward simulation
    sig = None
    if plain:
        q_mean = mean_e
    else:
        eta, sig = _bridge_moments(f, outer, x, c, substeps - m, g)
        q_mean = _convex(w, 1.0, mean_e, x + eta * g.dl)
    if not factors:
        return mean_e, q_mean, None, None, None, None
    if sig is None:
        # every kernel covariance is a multiple of the Euler one
        chol_e = chol_spd(cov_e)
        logdet_e = _logdet(chol_e)
        if plain:
            return mean_e, q_mean, chol_e, chol_e, logdet_e, logdet_e
        chol_q = ratios[m] * chol_e
        return mean_e, q_mean, chol_e, chol_q, logdet_e, _logdet(chol_q)
    q_cov = _convex(w, s, cov_e, sig * g.dl[..., None])
    return (mean_e, q_mean) + _chol_pair(cov_e, q_cov)


def _path_draws(rng: np.random.Generator, n_paths: int, substeps: int, k: int, n_unobserved: int):
    """One transition's normals in stream order: (substeps - 1, J, k) for the
    intermediate substeps, then (J, n_unobserved) for the endpoint."""
    return (rng.standard_normal((substeps - 1, n_paths, k)),
            rng.standard_normal((n_paths, n_unobserved)))


def propose_transition(
    model: SdeModel,
    theta,
    starts: np.ndarray,
    y_obs,
    t_start,
    dt,
    substeps: int,
    spec: SamplerSpec,
    rng,
) -> SubPathBatch:
    """Simulate J proposal sub-paths from starts toward the observation y_obs.

    One transition takes starts (J, k), y_obs with one value per observed
    coordinate in the model's observed order, and scalar t_start and dt.
    A batch of n independent transitions puts a leading axis on each:
    starts (n, J, k), y_obs (n, n_observed), t_start and dt (n,); the
    returned states, (substeps + 1, n, J, k), and log-densities, (n, J),
    carry it too, and row i equals transition i run alone. A batch whose
    transitions come from several fits passes each theta entry as an
    (n, 1) array of per-transition values (SdeModel's broadcasting
    contract), and a spec whose rho is an (n,) array; row i still equals
    transition i run alone with its own theta and rho, bit for bit.

    rng is a Generator, from which each transition in turn draws one
    (J, k) block per intermediate substep and then one (J, n_unobserved)
    block at the endpoint, or those draws made beforehand, stacked over
    the batch: ((n, substeps - 1, J, k), (n, J, n_unobserved)), optionally
    followed by the intermediate draws' _draw_logpdf, (n, substeps - 1, J).
    Draw consumption never depends on theta, so equal draws give
    comparable paths across parameter values.

    This is the kernel's entry for outside input: it checks the input,
    makes the draws and the call's _Layout, and runs _transition_ends on
    them, collecting the states of every substep.
    """
    starts = np.asarray(starts, dtype=float)
    y_obs = np.asarray(y_obs, dtype=float)
    single = starts.ndim == 2
    if single:
        starts, y_obs = starts[None], y_obs[None]
    if starts.ndim != 3 or starts.shape[2] != model.dim:
        raise DomainError("starts must have shape (J, k) or (n, J, k)")
    n, n_paths, k = starts.shape
    c = _Coords.of(model)
    if y_obs.shape != (n, len(model.observed)):
        raise DomainError("y_obs must carry one value per observed coordinate")
    t_start, dt = (np.asarray(a, dtype=float) for a in (t_start, dt))
    if t_start.shape != (n,) or dt.shape != (n,):
        t_start, dt = np.broadcast_to(t_start, (n,)), np.broadcast_to(dt, (n,))
    if not (dt > 0).all():
        raise DomainError("interval length must be positive")
    if substeps < 1:
        raise DomainError("substeps must be >= 1")
    if isinstance(rng, np.random.Generator):
        draws = [_path_draws(rng, n_paths, substeps, k, c.n_uno) for _ in range(n)]
        rng = [np.stack(d) for d in zip(*draws)]
    z, z_end, *z_dens = rng
    z_dens = z_dens[0] if z_dens else _draw_logpdf(z)
    if (z.shape != (n, substeps - 1, n_paths, k) or z_end.shape != (n, n_paths, c.n_uno)
            or z_dens.shape != z.shape[:-1]):
        raise DomainError("draws do not match the transitions")
    g = _Layout.of(t_start, dt / substeps, y_obs, z, c)
    states = []
    _, log_t, log_p = _transition_ends(model, theta, starts, spec, (z, z_end, z_dens), g, states)
    states = np.stack(states)
    if single:
        return SubPathBatch(states[:, 0], log_t[0], log_p[0])
    return SubPathBatch(states, log_t, log_p)


def _transition_ends(model: SdeModel, theta, starts: np.ndarray, spec: SamplerSpec, draws,
                     g: _Layout, states: list | None = None):
    """The substep loop over a batch of n transitions, on inputs that it
    trusts: float start states (n, J, k), the draws (z, z_end, z_dens)
    shaped as propose_transition describes, and the call's _Layout g.
    Keeps only the current substep and returns the endpoints (n, J, k),
    log_target and log_proposal (n, J). A list given as states receives
    the states of every substep in turn, starts first.
    """
    n, n_paths, k = starts.shape
    c = g.c
    z, z_end, z_dens = draws
    times = g.times  # (substeps, n)
    substeps = len(times)
    ratios = None if c.n_uno else _factor_ratios(spec, g)
    shared = c.n_uno == 0 and model.constant_diffusion
    if shared:
        # One Euler factor L_e per transition, (n, 1, k, k), serves every
        # path, and the proposal's at substep m is ratios[m] L_e, so the
        # proposal's log-determinant at every substep is known before the
        # loop.
        x0 = starts[:, :1]
        outer = np.asarray(model.diffusion_outer(x0, theta, times[0, :, None]), dtype=float)
        delta = g.delta[:, None, None, None]
        cov_e = outer * delta
        if cov_e.shape != x0.shape + (k,):
            # the diffusion's shape check: broadcast_to raises for a wrong one
            cov_e = np.broadcast_to(outer, x0.shape + (k,)) * delta
        chol_e = chol_spd(cov_e)
        chol_q = ratios * chol_e
        logdet_e = np.repeat(_logdet(chol_e), n_paths, axis=1)
        logdet_qs = _logdet(chol_q)  # (substeps - 1, n, 1)
        q_t = np.swapaxes(chol_q[:, :, 0], -1, -2)
        if k == 1:
            # Scalar factors, applied elementwise to the layout's
            # substep-major draws: batched matmul adds the same product to
            # a 0.0 accumulator, in several times the time, and the
            # inverse is a reciprocal. The moves of every substep,
            # (substeps - 1, n, J, 1), are made at once.
            inv_t = np.repeat(1.0 / chol_e[:, 0], n_paths, axis=1)
            moves = q_t * g.zt
            moves += 0.0
        else:
            # factors transposed for v @ L^T, (n, J, k) by (n, k, k) in one
            # batched matmul per substep
            inv_t = np.swapaxes(np.linalg.inv(chol_e)[:, 0], -1, -2)

    def shared_log_target(diff):
        # _white_logpdf(diff L_e^-T, logdet_e), in place; the sign of a zero
        # product does not reach the square
        out = _sq_norm(diff * inv_t if k == 1 else diff @ inv_t)
        out += k * _LOG_2PI
        out *= -0.5
        out -= logdet_e
        return out

    pedersen = spec.kind == "pedersen"
    log_t = np.zeros((n, n_paths))
    log_p = np.zeros((n, n_paths))
    x = starts
    if states is not None:
        states.append(x)
    for m in range(substeps - 1):
        mean_e, q_mean, chol_m, chol_q, logdet_m, logdet_q = _kernel(
            model, theta, x, times[m, :, None], m, substeps, spec, c, g, not shared, ratios
        )
        if not shared:
            x = q_mean + chol_mul(chol_q, z[:, m])
            dens = z_dens[:, m] - logdet_q
            log_p += dens
            log_t += dens if pedersen else _factor_logpdf(x - mean_e, chol_m, logdet_m)
        elif k == 1:
            x = q_mean + moves[m]
            if not pedersen:
                # the spent move's slot keeps the whitened residual
                np.multiply(x - mean_e, inv_t, out=moves[m])
        else:
            x = q_mean + z[:, m] @ q_t[m]
            if not pedersen:
                log_t += shared_log_target(x - mean_e)
        if states is not None:
            states.append(x)
    if shared:
        # Every substep's proposal density, and for k = 1 its target
        # density, summed over the substeps in order: a reduction over the
        # leading axis adds one substep's row at a time, as the loop would.
        log_p = np.add.reduce(np.swapaxes(z_dens, 0, 1) - logdet_qs, axis=0)
        if pedersen:
            log_t = log_p.copy()
        elif k == 1:
            sq = moves[..., 0] * moves[..., 0]
            sq += _LOG_2PI
            sq *= -0.5
            sq -= logdet_e
            log_t = np.add.reduce(sq, axis=0)
    # endpoint substep: pin observed coordinates, draw the unobserved rest
    _, mean_e, _, cov_e = _euler(model, theta, x, times[-1, :, None], g.dl, not shared)
    end = np.empty_like(x)
    end[..., c.o] = g.y
    if c.n_uno == 0:
        diff = end - mean_e
        log_t += shared_log_target(diff) if shared else gauss_logpdf(diff, chol_spd(cov_e))
    else:
        s_oo = _floor_obs_diag(cov_e[..., c.o_rows, c.o_cols])
        s_ou = cov_e[..., c.o_rows, c.u_cols]
        s_uo = cov_e[..., c.u_rows, c.o_cols]
        s_uu = cov_e[..., c.u_rows, c.u_cols]
        diff_o = g.y - mean_e[..., c.o]
        log_t += gauss_logpdf(diff_o, chol_spd(s_oo))
        solved = _solve_obs(s_oo, s_ou)  # S_oo^{-1} S_ou
        c_mean = mean_e[..., c.u] + np.einsum("...ou,...o->...u", solved, diff_o)
        chol_c = chol_spd(s_uu - s_uo @ solved)
        end[..., c.u] = c_mean + chol_mul(chol_c, z_end)
        dens = _white_logpdf(z_end, _logdet(chol_c))
        log_t += dens
        log_p += dens
    if states is not None:
        states.append(end)
    return end, log_t, log_p
