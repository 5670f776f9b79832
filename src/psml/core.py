"""Core state-space machinery shared by the estimation stack.

Defines the model interface, observation grids and datasets, Gaussian
kernels with a jitter-repair policy, and Euler-Maruyama stepping and
simulation. Everything downstream (proposals, likelihoods, tuning) is
built on these primitives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Constraint kinds for parameter entries.
FREE = "free"
POSITIVE = "positive"
UNIT_INTERVAL = "unit-interval"
CONSTRAINT_KINDS = (FREE, POSITIVE, UNIT_INTERVAL)


class DomainError(ValueError):
    """Inputs fall outside an operation's admissible domain."""


class NumericalError(RuntimeError):
    """A linear-algebra kernel failed beyond jitter repair."""


# ---------------------------------------------------------------------------
# Keyed random streams


def rng_stream(*key: int) -> np.random.Generator:
    """Independent generator addressed by a tuple of non-negative integers.

    Equal keys give bit-identical streams and distinct keys give
    statistically independent ones, so concurrent consumers can each pull
    from their own key and results stay reproducible under any schedule.
    """
    return np.random.default_rng(np.random.SeedSequence(key))


def derive_seed(*key: int) -> int:
    """Deterministic child seed for a key path, reportable as a plain int."""
    state = np.random.SeedSequence(key).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


# ---------------------------------------------------------------------------
# Model interface


class SdeModel:
    """Interface for drift-diffusion models with partially observed states.

    Subclasses fix the structure at class level (dimension, coordinate
    names, observed coordinate indices, parameter layout) and implement
    ``drift`` and ``diffusion``. Both accept a state of shape ``(k,)`` or
    any batched shape ``(..., k)`` plus a parameter vector and a time, and
    return matching shapes, ``(..., k)`` for drift and ``(..., k, k)`` for
    diffusion. A model whose diffusion depends on neither state nor time
    sets ``constant_diffusion`` and may return one ``(k, k)`` matrix
    regardless of batch shape.

    The time is a float when one path is stepped, and an array when the
    proposal driver steps a batch of transitions: with states
    ``(n, J, k)`` it is ``(n, 1)``, one substep time per transition, which
    broadcasts against ``x[..., 0]``. Time-dependent terms must therefore
    broadcast over t as well as over the state.
    """

    dim: int = 0
    state_names: tuple[str, ...] = ()
    observed: tuple[int, ...] = ()
    nonnegative: tuple[int, ...] = ()
    param_names: tuple[str, ...] = ()
    param_constraints: tuple[str, ...] = ()
    constant_diffusion: bool = False

    def drift(self, x, theta, t):
        raise NotImplementedError

    def diffusion(self, x, theta, t):
        raise NotImplementedError

    def diffusion_outer(self, x, theta, t):
        """Diffusion outer product g g^T, the per-unit-time noise covariance."""
        g = self.diffusion(x, theta, t)
        return g @ np.swapaxes(g, -1, -2)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def unobserved(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.dim) if i not in self.observed)

    def clamp_state(self, x):
        """Project states onto the admissible region (non-negative coordinates)."""
        if not self.nonnegative:
            return x
        out = np.array(x, dtype=float, copy=True)
        idx = _coord_index(self.nonnegative)
        if isinstance(idx, slice):
            view = out[..., idx]
            np.maximum(view, 0.0, out=view)
        else:
            out[..., idx] = np.maximum(out[..., idx], 0.0)
        return out

    def validate_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise DomainError(
                f"expected {self.n_params} parameters, got shape {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise DomainError("parameter vector has non-finite entries")
        for i, kind in enumerate(self.param_constraints):
            v = theta[i]
            if kind == POSITIVE and v <= 0:
                raise DomainError(f"parameter {self.param_names[i]} must be > 0")
            if kind == UNIT_INTERVAL and not 0.0 <= v <= 1.0:
                raise DomainError(f"parameter {self.param_names[i]} must lie in [0, 1]")
        return theta


def _coord_index(idx: Sequence[int]):
    """Index of a coordinate set along the last axis.

    A nonempty ascending run of consecutive coordinates becomes a basic
    slice, so that indexing with it gives a view instead of a copy; any
    other set becomes an integer array. Both select the same entries in
    the same order.
    """
    idx = tuple(int(i) for i in idx)
    if idx and idx == tuple(range(idx[0], idx[0] + len(idx))):
        return slice(idx[0], idx[0] + len(idx))
    return np.asarray(idx, dtype=int)


def validate_model(model: SdeModel) -> None:
    """Check structural consistency of a model definition."""
    k = model.dim
    if k < 1:
        raise DomainError("model dimension must be >= 1")
    if len(model.state_names) != k:
        raise DomainError("state_names length must equal dim")
    if not model.observed:
        raise DomainError("observed coordinate set must be nonempty")
    if len(set(model.observed)) != len(model.observed):
        raise DomainError("observed coordinate indices must be unique")
    if any(not 0 <= i < k for i in model.observed):
        raise DomainError("observed coordinate index out of range")
    if any(not 0 <= i < k for i in model.nonnegative):
        raise DomainError("nonnegative coordinate index out of range")
    if len(model.param_names) != len(model.param_constraints):
        raise DomainError("param_names and param_constraints must align")
    for kind in model.param_constraints:
        if kind not in CONSTRAINT_KINDS:
            raise DomainError(f"unknown constraint kind {kind!r}")


# ---------------------------------------------------------------------------
# Grids and datasets


@dataclass(frozen=True)
class TimeGrid:
    """Observation times over (t0, ...] with a fixed substep count per interval.

    Intervals do not have to be equidistant; each interval (t_{i-1}, t_i]
    is cut into ``substeps`` equal Euler substeps.
    """

    t0: float
    times: np.ndarray
    substeps: int

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise DomainError("times must be a nonempty 1-d array")
        if not np.all(np.isfinite(times)) or not math.isfinite(self.t0):
            raise DomainError("grid times must be finite")
        if times[0] <= self.t0 or np.any(np.diff(times) <= 0):
            raise DomainError("times must be strictly increasing and start after t0")
        if self.substeps < 1:
            raise DomainError("substeps must be >= 1")
        object.__setattr__(self, "times", times)

    @property
    def n(self) -> int:
        return int(self.times.size)

    def interval(self, i: int) -> tuple[float, float]:
        """Start time and length of the i-th inter-observation interval."""
        start = self.t0 if i == 0 else float(self.times[i - 1])
        return start, float(self.times[i]) - start


@dataclass(frozen=True)
class Dataset:
    """A fully known initial state plus observations of a coordinate subset.

    ``values[i]`` holds the observed sub-vector at ``times[i]``, ordered by
    the ``observed`` index tuple. ``names`` optionally labels the observed
    columns for file round trips.
    """

    t0: float
    x0: np.ndarray
    times: np.ndarray
    values: np.ndarray
    observed: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if x0.ndim != 1:
            raise DomainError("x0 must be a 1-d state vector")
        if values.ndim != 2 or values.shape[0] != times.size:
            raise DomainError("values must have shape (len(times), n_observed)")
        if values.shape[1] != len(self.observed):
            raise DomainError("values width must match the observed index tuple")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(values))):
            raise DomainError("dataset contains non-finite entries")
        if times[0] <= self.t0 or np.any(np.diff(times) <= 0):
            raise DomainError("observation times must be strictly increasing after t0")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed", tuple(int(i) for i in self.observed))

    @property
    def n(self) -> int:
        return int(self.times.size)

    def grid(self, substeps: int) -> TimeGrid:
        return TimeGrid(self.t0, self.times, substeps)


# ---------------------------------------------------------------------------
# Gaussian kernels


def _sym_check(cov: np.ndarray, rtol: float = 1e-12) -> None:
    scale = 1.0 + np.max(np.abs(cov)) if cov.size else 1.0
    if np.max(np.abs(cov - np.swapaxes(cov, -1, -2))) > rtol * scale:
        raise DomainError("matrix is not symmetric within tolerance")


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


def chol_spd(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with a single jitter retry.

    On failure the diagonal is bumped by 1e-10 * trace / k (plus a tiny
    absolute floor for all-zero blocks); a second failure raises
    NumericalError. Accepts a single (k, k) matrix or a batch (..., k, k).
    A (J, k, k) batch, the paths of one transition, is jittered as a whole
    if any member fails. An (n, J, k, k) batch holds n independent
    transitions, so each is retried on its own: a transition that factors
    keeps its exact factor, and the repair of one never reaches another.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    if cov.ndim == 4:
        return np.stack([chol_spd(row) for row in cov])
    k = cov.shape[-1]
    tr = np.trace(cov, axis1=-2, axis2=-1)
    jitter = 1e-10 * np.maximum(tr, 0.0) / k + 1e-30
    bumped = cov + np.asarray(jitter)[..., None, None] * np.eye(k)
    try:
        return np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance not positive definite after jitter") from exc


def chol_mul(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Apply a Cholesky factor to standard-normal draws, L z per row.

    A k > 1 factor broadcast over rows of z, such as one (n, 1, k, k)
    factor per transition against (n, J, k) draws, is copied out to the
    rows first: einsum over a stride-0 axis is about 3x slower, and the
    product is the same bit for bit.
    """
    if chol.ndim == 2:
        return z @ chol.T
    if chol.shape[-1] > 1 and chol.shape[:-2] != z.shape[:-1]:
        rows = np.broadcast_shapes(chol.shape[:-2], z.shape[:-1])
        chol = np.broadcast_to(chol, rows + chol.shape[-2:]).copy()
    return np.einsum("...ab,...b->...a", chol, z)


def gauss_logpdf(diff: np.ndarray, chol: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Log-density of N(0, scale * L L^T) at diff, given the factor L of L L^T.

    diff has shape (..., k); chol is (k, k) or broadcastable (..., k, k).
    The scalar ``scale`` lets callers reuse one factor for proportional
    covariances without refactorizing.
    """
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
    out = -0.5 * (k * _LOG_2PI + quad) - ldet
    if scale != 1.0:
        out = -0.5 * (k * _LOG_2PI + k * math.log(scale) + quad / scale) - ldet
    return out


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


def matrix_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below zero (roundoff) are clipped before the root. The
    result B is symmetric with B @ B ~= sigma.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-1] != sigma.shape[-2]:
        raise DomainError("matrix_sqrt needs a square matrix")
    if not np.all(np.isfinite(sigma)):
        raise DomainError("matrix_sqrt input has non-finite entries")
    _sym_check(sigma)
    w, v = np.linalg.eigh(sigma)
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


# ---------------------------------------------------------------------------
# Euler-Maruyama stepping and simulation


def _check_drift(model: SdeModel, f: np.ndarray) -> None:
    if not np.isfinite(f).all():
        bad = int(np.argwhere(~np.isfinite(np.atleast_2d(f)))[0][-1])
        name = model.state_names[bad] if bad < len(model.state_names) else str(bad)
        raise DomainError(f"drift is non-finite at coordinate {name!r}")


def euler_step(model: SdeModel, x, theta, t: float, delta: float, z) -> np.ndarray:
    """One Euler-Maruyama substep driven by the standard-normal draw z.

    Returns x + f(x) delta + g(x) sqrt(delta) z with the model's
    admissibility clamp applied to the result. Batched states are fine;
    x and z must share shape (..., k).
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
    step = x + f * delta + math.sqrt(delta) * chol_mul(g, z)
    return model.clamp_state(step)


def euler_transition(model: SdeModel, x, theta, t: float, delta: float) -> GaussianSpec:
    """One-substep Euler transition law N(x + f delta, g g^T delta)."""
    if delta <= 0:
        raise DomainError("substep length must be positive")
    x = np.asarray(x, dtype=float)
    f = np.asarray(model.drift(x, theta, t), dtype=float)
    outer = np.asarray(model.diffusion_outer(x, theta, t), dtype=float)
    return GaussianSpec(x + f * delta, outer * delta)


def simulate_path(model: SdeModel, theta, x0, grid: TimeGrid, rng: np.random.Generator):
    """Simulate one Euler path over the grid.

    Returns (times, states) including the initial point, with ``substeps``
    interior points per observation interval. Each substep is the
    euler_step of its draw, bit for bit. The path's normals come from one
    (n * substeps, k) draw, which reads the stream as one (k,) draw per
    substep in time order would. A constant-diffusion model has its factor
    evaluated and checked once per path; a non-finite factor is still
    reported after the first substep's drift check. Against a loop of
    euler_step calls this takes 0.66x the time on a Lorenz63 preset path
    (21 intervals of 64 substeps), 0.55x on the OU preset and 0.84x on
    cwd-direct, whose state-dependent factor stays per substep (medians
    of 30 interleaved runs, 2-core Xeon, numpy 2.4).
    """
    k = model.dim
    x = np.asarray(x0, dtype=float)
    if x.shape != (k,):
        raise DomainError(f"x0 has shape {x.shape}, expected ({k},)")
    m_sub = grid.substeps
    z = rng.standard_normal((grid.n * m_sub, k))
    times = np.empty(grid.n * m_sub + 1)
    states = np.empty((grid.n * m_sub + 1, k))
    times[0], states[0] = grid.t0, x
    constant = model.constant_diffusion
    if constant:
        g = np.asarray(model.diffusion(x, theta, grid.t0), dtype=float)
        g_finite = bool(np.isfinite(g).all())
    row = 0
    for i in range(grid.n):
        t_start, dt = grid.interval(i)
        delta = dt / m_sub
        if delta <= 0:
            raise DomainError("substep length must be positive")
        root = math.sqrt(delta)
        for m in range(m_sub):
            t = t_start + m * delta
            f = np.asarray(model.drift(x, theta, t), dtype=float)
            if not constant:
                g = np.asarray(model.diffusion(x, theta, t), dtype=float)
            _check_drift(model, f)
            if not (g_finite if constant else np.isfinite(g).all()):
                raise DomainError("diffusion is non-finite")
            x = model.clamp_state(x + f * delta + root * chol_mul(g, z[row]))
            row += 1
            times[row] = t_start + (m + 1) * delta
            states[row] = x
    return times, states


def simulate_paths_batch(
    model: SdeModel, theta, x0, grid: TimeGrid, n_paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Euler-simulate many replicate paths at once.

    Returns states at the observation times only, shape (n, n_paths, k).
    Each substep consumes one (n_paths, k) normal block.
    """
    k = model.dim
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, k)).copy()
    out = np.empty((grid.n, n_paths, k))
    m_sub = grid.substeps
    for i in range(grid.n):
        t_start, dt = grid.interval(i)
        delta = dt / m_sub
        for m in range(m_sub):
            z = rng.standard_normal((n_paths, k))
            x = euler_step(model, x, theta, t_start + m * delta, delta, z)
        out[i] = x
    return out


def simulate_dataset(
    model: SdeModel, theta, x0, grid: TimeGrid, rng: np.random.Generator
) -> Dataset:
    """Simulate a path and keep only the observed coordinates at grid times."""
    _, states = simulate_path(model, theta, x0, grid, rng)
    obs_states = states[grid.substeps :: grid.substeps]
    values = obs_states[:, list(model.observed)]
    names = tuple(model.state_names[i] for i in model.observed)
    return Dataset(grid.t0, np.asarray(x0, dtype=float), grid.times, values, model.observed, names)


# ---------------------------------------------------------------------------
# Dataset files: CSV of observations plus a JSON sidecar


def sidecar_path(csv_path: Path | str) -> Path:
    return Path(csv_path).with_suffix(".json")


def _fmt(v: float) -> str:
    # repr of a Python float round-trips exactly (shortest decimal form)
    return repr(float(v))


def save_dataset(ds: Dataset, csv_path: Path | str) -> None:
    """Write observations as CSV (time plus one column per observed coordinate)
    and the initial condition to a JSON sidecar next to it."""
    csv_path = Path(csv_path)
    names = ds.names or tuple(f"y{i}" for i in ds.observed)
    lines = ["time," + ",".join(names)]
    for t, row in zip(ds.times, ds.values):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    csv_path.write_text("\n".join(lines) + "\n")
    side = {
        "t0": float(ds.t0),
        "x0": [float(v) for v in ds.x0],
        "observed": [int(i) for i in ds.observed],
    }
    sidecar_path(csv_path).write_text(json.dumps(side, sort_keys=True) + "\n")


def dataset_to_dict(ds: Dataset) -> dict:
    """Plain-JSON form of a dataset, for embedding in result files."""
    return {
        "t0": float(ds.t0),
        "x0": [float(v) for v in ds.x0],
        "times": [float(t) for t in ds.times],
        "values": [[float(v) for v in row] for row in ds.values],
        "observed": [int(i) for i in ds.observed],
        "names": list(ds.names) if ds.names is not None else None,
    }


def dataset_from_dict(payload: dict) -> Dataset:
    try:
        return Dataset(
            t0=float(payload["t0"]),
            x0=np.asarray(payload["x0"], dtype=float),
            times=np.asarray(payload["times"], dtype=float),
            values=np.asarray(payload["values"], dtype=float),
            observed=tuple(int(i) for i in payload["observed"]),
            names=tuple(payload["names"]) if payload.get("names") else None,
        )
    except KeyError as exc:
        raise DomainError(f"dataset record missing key {exc.args[0]!r}") from exc


def load_dataset(csv_path: Path | str) -> Dataset:
    """Read a dataset written by save_dataset, exactly round-tripping values."""
    csv_path = Path(csv_path)
    text = csv_path.read_text().strip().splitlines()
    if not text:
        raise DomainError(f"{csv_path} is empty")
    header = text[0].split(",")
    if header[0] != "time":
        raise DomainError(f"{csv_path} first column must be 'time'")
    names = tuple(header[1:])
    rows = [[float(v) for v in line.split(",")] for line in text[1:]]
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise DomainError(f"{csv_path} rows do not match the header")
    side_file = sidecar_path(csv_path)
    if not side_file.exists():
        raise DomainError(f"missing sidecar {side_file}")
    side = json.loads(side_file.read_text())
    return Dataset(
        t0=float(side["t0"]),
        x0=np.asarray(side["x0"], dtype=float),
        times=arr[:, 0],
        values=arr[:, 1:],
        observed=tuple(int(i) for i in side["observed"]),
        names=names,
    )
