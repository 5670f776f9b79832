"""Sub-path proposals between consecutive observations.

Four families share one driver: blind forward simulation (pedersen),
the modified Brownian bridge pulled toward the next observation (mbb),
a convex blend of the two with a shrinking mixing matrix (regularized),
and the bridge with its covariance scaled by a free factor (aux-mbb).
Every proposal returns the log-density of the simulated sub-path under
the Euler target alongside the log-density under the proposal itself,
so the importance weight is a difference of accumulators. The driver
runs a batch of independent transitions at once, looping over substeps
only; with constant diffusion and every coordinate observed, each
kernel covariance is a multiple of the Euler one, so a single factor
per transition serves all substeps and paths.

Each call turns contiguous observed and unobserved coordinate sets into
basic slices, so that covariance blocks are views rather than copies,
and a partially observed substep factors its Euler and proposal
covariances in one chol_spd call: on the benchmark's cwd-direct fit, 132
chol_spd calls per evaluation where factoring them apart took 253. A
call takes 0.87x the time it took with index arrays and separate
factorizations for Lorenz63 (21 transitions, J = 32, M = 10), 0.89x for
cwd-direct (2 transitions, J = 48, M = 12) and 0.93x for OU (100
transitions, J = 8, M = 8), in interleaved timings on a 2-core Xeon.
Most of the Lorenz63 saving is core.chol_mul copying a factor shared by
the paths out to them before einsum applies it.

The final substep is common to all families. The observed endpoint
coordinates are pinned to the observation, whose Euler marginal density
enters the target accumulator, and unobserved endpoint coordinates are
drawn from the Euler conditional given that observation, whose density
enters both accumulators (it cancels in the weight).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _LOG_2PI,
    _coord_index,
    DomainError,
    SdeModel,
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

    def to_json(self) -> str:
        payload = {"kind": self.kind}
        if self.rho is not None:
            payload["rho"] = float(self.rho)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SamplerSpec":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "kind" not in payload:
            raise DomainError("sampler spec JSON must be an object with a 'kind'")
        extra = set(payload) - {"kind", "rho"}
        if extra:
            raise DomainError(f"unknown sampler spec keys {sorted(extra)}")
        return cls(payload["kind"], payload.get("rho"))


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


def importance_weight(paths: SubPathBatch):
    """Per-path weights target/proposal; returns (weights, log_weights).

    Aggregation downstream should use the log form; the plain weights can
    overflow for extreme paths.
    """
    lw = paths.log_target - paths.log_proposal
    with np.errstate(over="ignore"):
        return np.exp(lw), lw


def _blend_weight(m: int, substeps: int, rho: float) -> float:
    """Mixing scalar pulling a regularized step from blind toward bridge."""
    left = substeps - m
    return left / (left + rho * (left - 1) ** 2)


def _mix(spec: SamplerSpec, m: int, substeps: int) -> tuple[float, float]:
    """Weight w of the bridge in the proposal, and the factor s on its covariance.

    The proposal mean is (1 - w) Euler + w bridge and its covariance
    (1 - w) Euler + w s bridge: pedersen has w = 0, mbb w = s = 1, aux-mbb
    w = 1 and s = rho, regularized the blend weight and s = 1.
    """
    if spec.kind == "pedersen":
        return 0.0, 1.0
    if spec.kind == "regularized":
        return _blend_weight(m, substeps, spec.rho), 1.0
    return 1.0, spec.rho if spec.kind == "aux-mbb" else 1.0


def _floor_obs_diag(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[-1]
    i = np.arange(d)
    out = mat.copy()
    out[..., i, i] = np.maximum(out[..., i, i], _OBS_BLOCK_FLOOR)
    return out


def _solve_obs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for observed blocks a; a division when one coordinate is observed."""
    return b / a if a.shape[-1] == 1 else np.linalg.solve(a, b)


def _logdet(chol: np.ndarray) -> np.ndarray:
    return np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def _white_logpdf(v: np.ndarray, logdet) -> np.ndarray:
    """Log-density of N(0, L L^T) at L v, given v and log|L|."""
    return -0.5 * (v.shape[-1] * _LOG_2PI + np.einsum("...i,...i->...", v, v)) - logdet


@dataclass(frozen=True)
class _Coords:
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
        o, u = _coord_index(model.observed), _coord_index(model.unobserved)
        if isinstance(o, slice) and isinstance(u, slice):
            return cls(len(model.unobserved), o, u, o, o, u, u)
        o_arr = np.asarray(model.observed, dtype=int)
        u_arr = np.asarray(model.unobserved, dtype=int)
        return cls(len(model.unobserved), o, u,
                   o_arr[:, None], o_arr[None, :], u_arr[:, None], u_arr[None, :])


def _chol_pair(a: np.ndarray, b: np.ndarray):
    """chol_spd of two (n, J, k, k) batches in one call on their stack.

    chol_spd repairs an (n, J, k, k) batch one transition at a time, so
    each half equals its own chol_spd call bit for bit.
    """
    both = chol_spd(np.concatenate((a, b)))
    return both[: len(a)], both[len(a):]


def _bridge_moments(f, outer, x, y_obs, c: _Coords, m, substeps, delta):
    """Bridge drift eta and covariance for substep m of each interval.

    States carry leading (n, J) axes and delta is (n,). The observed
    block of eta points straight at the observation over the remaining
    time; unobserved coordinates get the drift corrected by their
    covariance with the observed ones. The covariance shrinks the
    observed block by (r - 1)/r with r substeps remaining, and the
    unobserved block loses the explained part of its variance. With every
    coordinate observed the covariance is (r - 1)/r times the diffusion,
    and None is returned in its place.
    """
    r = substeps - m
    frac = (r - 1) / r
    span = (delta * r)[:, None, None]
    y = y_obs[:, None, :]
    x_o = x[..., c.o]
    eta = np.empty_like(x)
    eta[..., c.o] = (y - x_o) / span
    if c.n_uno == 0:
        return eta, None
    g_oo = outer[..., c.o_rows, c.o_cols]
    g_ou = outer[..., c.o_rows, c.u_cols]
    g_uo = outer[..., c.u_rows, c.o_cols]
    g_uu = outer[..., c.u_rows, c.u_cols]
    d_obs = y - (x_o + f[..., c.o] * ((r - 1) * delta)[:, None, None])
    solved = _solve_obs(_floor_obs_diag(g_oo), g_ou)  # G_oo^{-1} G_ou
    eta[..., c.u] = f[..., c.u] + np.einsum("...ou,...o->...u", solved, d_obs) / span
    sig = frac * outer
    sig[..., c.u_rows, c.u_cols] = g_uu - (g_uo @ solved) / r
    return eta, sig


def _euler(model: SdeModel, theta, x, t, delta, per_path: bool):
    """Drift and Euler mean of states x (n, J, k) at times t (n, 1); with
    per_path also the diffusion outer product and Euler covariance,
    broadcast to (n, J, k, k)."""
    xa = model.clamp_state(x)
    f = np.asarray(model.drift(xa, theta, t), dtype=float)
    mean_e = x + f * delta[:, None, None]
    if not per_path:
        return f, mean_e, None, None
    outer = np.asarray(model.diffusion_outer(xa, theta, t), dtype=float)
    if outer.shape != x.shape + x.shape[-1:]:
        outer = np.broadcast_to(outer, x.shape + x.shape[-1:])
    return f, mean_e, outer, outer * delta[:, None, None, None]


def _kernel(model: SdeModel, theta, x, y_obs, t, m: int, substeps: int, delta,
            spec: SamplerSpec, c: _Coords, chol_e=None):
    """Euler step and proposal of intermediate substep m (0-based, m <= substeps - 2).

    x is (n, J, k), y_obs (n, n_observed), t (n, 1) and delta (n,); c
    holds the model's coordinate indices. Returns (mean_e, chol_e, q_mean, chol_q): the Euler step is
    N(mean_e, chol_e chol_e^T) and the proposal N(q_mean, chol_q chol_q^T).
    A constant-diffusion, fully observed model passes its one Euler factor
    as chol_e, (n, 1, k, k); otherwise the factor is built per path, in
    one chol_spd call with the proposal's own factor where it has one.
    """
    if not 0 <= m <= substeps - 2:
        raise DomainError("the proposal kernel covers intermediate substeps only")
    f, mean_e, outer, cov_e = _euler(model, theta, x, t, delta, chol_e is None)
    w, s = _mix(spec, m, substeps)
    if w == 0.0:
        if chol_e is None:
            chol_e = chol_spd(cov_e)
        return mean_e, chol_e, mean_e, chol_e
    eta, sig = _bridge_moments(f, outer, x, y_obs, c, m, substeps, delta)
    mean_b = x + eta * delta[:, None, None]
    q_mean = mean_b if w == 1.0 else (1.0 - w) * mean_e + w * mean_b
    if sig is None:
        # every kernel covariance is a multiple of the Euler one
        if chol_e is None:
            chol_e = chol_spd(cov_e)
        r = substeps - m
        frac = (r - 1) / r
        return mean_e, chol_e, q_mean, math.sqrt((1.0 - w) + w * s * frac) * chol_e
    cov_b = (w * s) * (sig * delta[:, None, None, None])
    q_cov = cov_b if w == 1.0 else (1.0 - w) * cov_e + cov_b
    chol_e, chol_q = _chol_pair(cov_e, q_cov)
    return mean_e, chol_e, q_mean, chol_q


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
    carry it too, and row i equals transition i run alone.

    rng is a Generator, from which each transition in turn draws one
    (J, k) block per intermediate substep and then one (J, n_unobserved)
    block at the endpoint, or those draws made beforehand, stacked over
    the batch: ((n, substeps - 1, J, k), (n, J, n_unobserved)). Draw
    consumption never depends on theta, so equal draws give comparable
    paths across parameter values.
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
    t_start = np.broadcast_to(np.asarray(t_start, dtype=float), (n,))
    dt = np.broadcast_to(np.asarray(dt, dtype=float), (n,))
    if not np.all(dt > 0):
        raise DomainError("interval length must be positive")
    if substeps < 1:
        raise DomainError("substeps must be >= 1")
    if isinstance(rng, np.random.Generator):
        draws = [_path_draws(rng, n_paths, substeps, k, c.n_uno) for _ in range(n)]
        rng = [np.stack(d) for d in zip(*draws)]
    z, z_end = rng
    if z.shape != (n, substeps - 1, n_paths, k) or z_end.shape != (n, n_paths, c.n_uno):
        raise DomainError("draws do not match the transitions")

    delta = dt / substeps
    shared = c.n_uno == 0 and model.constant_diffusion
    chol_e = inv_e = None
    if shared:
        # one Euler factor per transition serves every substep and path
        x0 = starts[:, :1]
        outer = np.asarray(model.diffusion_outer(x0, theta, t_start[:, None]), dtype=float)
        chol_e = chol_spd(np.broadcast_to(outer, x0.shape + (k,)) * delta[:, None, None, None])
        logdet_e = _logdet(chol_e)
        inv_e = np.linalg.inv(chol_e)
        if k > 1:  # copied out to the paths once here, not by chol_mul per substep
            inv_e = np.broadcast_to(inv_e, (n, n_paths, k, k)).copy()

    def log_target(diff, chol):
        if inv_e is None:
            return gauss_logpdf(diff, chol)
        return _white_logpdf(chol_mul(inv_e, diff), logdet_e)

    states = np.empty((substeps + 1, n, n_paths, k))
    states[0] = starts
    log_t = np.zeros((n, n_paths))
    log_p = np.zeros((n, n_paths))
    x = starts
    for m in range(substeps - 1):
        t = (t_start + m * delta)[:, None]
        mean_e, chol_m, q_mean, chol_q = _kernel(
            model, theta, x, y_obs, t, m, substeps, delta, spec, c, chol_e
        )
        x = q_mean + chol_mul(chol_q, z[:, m])
        dens = _white_logpdf(z[:, m], _logdet(chol_q))
        log_p += dens
        log_t += dens if spec.kind == "pedersen" else log_target(x - mean_e, chol_m)
        states[m + 1] = x
    # endpoint substep: pin observed coordinates, draw the unobserved rest
    t = (t_start + (substeps - 1) * delta)[:, None]
    _, mean_e, _, cov_e = _euler(model, theta, x, t, delta, not shared)
    end = np.empty_like(x)
    end[..., c.o] = y_obs[:, None, :]
    if c.n_uno == 0:
        log_t += log_target(end - mean_e, chol_e if shared else chol_spd(cov_e))
    else:
        s_oo = _floor_obs_diag(cov_e[..., c.o_rows, c.o_cols])
        s_ou = cov_e[..., c.o_rows, c.u_cols]
        s_uo = cov_e[..., c.u_rows, c.o_cols]
        s_uu = cov_e[..., c.u_rows, c.u_cols]
        diff_o = y_obs[:, None, :] - mean_e[..., c.o]
        if s_oo.shape[-1] == 1:
            root = np.sqrt(s_oo[..., 0])
            log_t += _white_logpdf(diff_o / root, np.log(root[..., 0]))
        else:
            log_t += gauss_logpdf(diff_o, chol_spd(s_oo))
        solved = _solve_obs(s_oo, s_ou)  # S_oo^{-1} S_ou
        c_mean = mean_e[..., c.u] + np.einsum("...ou,...o->...u", solved, diff_o)
        chol_c = chol_spd(s_uu - s_uo @ solved)
        end[..., c.u] = c_mean + chol_mul(chol_c, z_end)
        dens = _white_logpdf(z_end, _logdet(chol_c))
        log_t += dens
        log_p += dens
    states[substeps] = end
    if single:
        return SubPathBatch(states[:, 0], log_t[0], log_p[0])
    return SubPathBatch(states, log_t, log_p)
