"""Core state-space machinery shared by the estimation stack.

Defines the model interface, observation grids and datasets, Gaussian
kernels with a jitter-repair policy, and the one Euler-Maruyama loop,
_euler, through which every simulation runs: datasets, bootstrap
replicate data and the prediction error's replicate paths. Everything
downstream (proposals, likelihoods, tuning) is built on these
primitives.
"""

from __future__ import annotations

import functools
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


# What reading a field of a JSON object of the wrong shape raises.
_SHAPE_ERRORS = (KeyError, TypeError, AttributeError, IndexError)


def _shape_error(what: str, exc: Exception) -> DomainError:
    """The DomainError for one of _SHAPE_ERRORS, raised while reading the
    fields of the JSON object named by what: a missing key, or a field of
    the wrong shape."""
    if isinstance(exc, KeyError):
        return DomainError(f"{what} missing key {exc.args[0]!r}")
    return DomainError(f"{what} is malformed: {exc}")


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

    The parameter vector follows the same rule. It is a ``(p,)`` vector
    for one fit; a batch that holds the transitions of several fits, as
    a lockstep group of bootstrap refits does, passes it as a ``(p, n,
    1)`` array, so that each entry ``theta[i]`` is ``(n, 1)``, one value
    per transition, like t. Write each term with the entries as factors
    that broadcast against ``x[..., j]`` and t: ``theta[0] * x[..., 0]``
    works either way, ``theta[0] * x`` does not. A constant diffusion
    keeps a trailing ``(k, k)`` matrix after the entry's shape, as
    ``np.multiply.outer(theta[3] ** 2, np.eye(3))`` does.
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
        idx = _nonnegative_index(tuple(self.nonnegative))
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


@functools.lru_cache(maxsize=None)
def _nonnegative_index(nonnegative: tuple[int, ...]):
    """_coord_index of a nonnegative tuple, made once per tuple value.

    clamp_state runs once per substep, and the index would cost it about
    as much as the clamp itself. The cache is keyed by the tuple, not by
    the model class, so a model that sets nonnegative per instance gets
    its own index; there are only as many entries as distinct tuples.
    An integer index is read-only, since every caller shares it.
    """
    idx = _coord_index(nonnegative)
    if isinstance(idx, np.ndarray):
        idx.flags.writeable = False
    return idx


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


def chol_spd(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with a single jitter retry.

    On failure the diagonal is bumped by 1e-10 * trace / k (plus a tiny
    absolute floor for all-zero blocks); a second failure raises
    NumericalError. Accepts a single (k, k) matrix or a batch (..., k, k).
    A (J, k, k) batch, the paths of one transition, is jittered as a whole
    if any member fails. An (n, J, k, k) batch holds n independent
    transitions, so each is retried on its own: a transition that factors
    keeps its exact factor, and the repair of one never reaches another.

    A batch of 1x1 blocks whose every entry is > 0 is factored in closed
    form, as np.sqrt(cov): the bits of LAPACK's factor from 5e-324 to
    +inf, without its per-call cost. Any other entry (0, -0, negative or
    NaN) sends the batch down the LAPACK path, so that repairs, the
    NumericalError and LAPACK's NaN factor of a NaN block stay as they
    are; a 4-d batch's rows that factor then take the closed form again.
    """
    if cov.shape[-1] == 1 and (cov > 0).all():
        return np.sqrt(cov)
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
    """Apply batched Cholesky factors (..., k, k) to standard-normal draws
    (..., k), L z per row; the factors broadcast against the rows of z.

    The proposal kernel applies a factor shared by the paths of a
    transition by batched matmul instead, since einsum over a stride-0
    axis is slow.
    """
    return np.einsum("...ab,...b->...a", chol, z)


def _logdet(chol: np.ndarray) -> np.ndarray:
    """log|L| of Cholesky factors (..., k, k): the sum of the logs of each
    diagonal, and for 1x1 factors the log of the one entry, which that
    one-term sum equals bit for bit."""
    if chol.shape[-1] == 1:
        return np.log(chol[..., 0, 0])
    return np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def _factor_logpdf(diff: np.ndarray, chol: np.ndarray, logdet) -> np.ndarray:
    """Log-density of N(0, L L^T) at diff, given the factor L and log|L|.

    v = L^{-1} diff comes by forward substitution over the rows of L,
    v_i = (diff_i - sum_{j<i} L_ij v_j) / L_ii, each row a few
    elementwise operations over the batch, so that no LU factorization
    of the triangular factor is made; the squared norm of v accumulates
    row by row. diff is (..., k) and chol (k, k) or broadcastable
    (..., k, k).
    """
    k = chol.shape[-1]
    v = [diff[..., 0] / chol[..., 0, 0]]
    quad = v[0] * v[0]
    for i in range(1, k):
        row = diff[..., i] - chol[..., i, 0] * v[0]
        for j in range(1, i):
            row -= chol[..., i, j] * v[j]
        row /= chol[..., i, i]
        quad += row * row
        v.append(row)
    return -0.5 * (k * _LOG_2PI + quad) - logdet


def gauss_logpdf(diff: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Log-density of N(0, L L^T) at diff, given the factor L.

    diff has shape (..., k); chol is (k, k) or broadcastable (..., k, k).
    """
    return _factor_logpdf(np.asarray(diff, dtype=float), chol, _logdet(chol))


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
# Euler-Maruyama simulation


def _check_drift(model: SdeModel, f: np.ndarray) -> None:
    if not np.isfinite(f).all():
        bad = int(np.argwhere(~np.isfinite(np.atleast_2d(f)))[0][-1])
        name = model.state_names[bad] if bad < len(model.state_names) else str(bad)
        raise DomainError(f"drift is non-finite at coordinate {name!r}")


def _euler(model: SdeModel, theta, x0, grid: TimeGrid, rngs):
    """The Euler-Maruyama loop behind every simulation.

    ``x0`` is one ``(k,)`` start or a ``(P, k)`` batch of starts. What
    ``rngs`` is sets how the paths read their normals:

    - one Generator: each observation interval draws one
      ``(substeps,) + x0.shape`` block from it, which reads the stream
      as one ``x0.shape`` draw per substep would, path p of a batch
      taking row p of each substep's draw (the prediction error's
      replicate paths);
    - a sequence of P generators, for a batch: path p reads
      ``rngs[p]`` alone, one ``(substeps, k)`` block per interval, as
      its own one-path run with ``rngs[p]`` would (datasets).

    Every substep is x + f(x) delta + sqrt(delta) g(x) z, clamped by the
    model. The factor g is applied as ``(g @ z[..., None])[..., 0]``,
    one matrix-vector product per path, so a path of a batch equals its
    own one-path run bit for bit. A constant-diffusion model has its
    factor evaluated and checked once, and applied to a whole interval's
    draws at once; a non-finite factor is still reported after the first
    substep's drift check.

    Returns the states at the observation times, ``(n,) + x0.shape``.
    Beyond those the loop holds one interval's normals.
    """
    x = np.asarray(x0, dtype=float)
    k, m_sub = x.shape[-1], grid.substeps
    states = np.empty((grid.n,) + x.shape)
    shared = isinstance(rngs, np.random.Generator)
    if not shared:
        z = np.empty((m_sub,) + x.shape)
    constant = model.constant_diffusion
    if constant:
        g = np.asarray(model.diffusion(x, theta, grid.t0), dtype=float)
        g_finite = bool(np.isfinite(g).all())
    for i in range(grid.n):
        t_start, dt = grid.interval(i)
        delta = dt / m_sub
        if delta <= 0:
            raise DomainError("substep length must be positive")
        root = math.sqrt(delta)
        if shared:
            z = rngs.standard_normal((m_sub,) + x.shape)
        else:
            for p, rng in enumerate(rngs):
                z[:, p] = rng.standard_normal((m_sub, k))
        if constant:
            noise = root * (g @ z[..., None])[..., 0]
        for m in range(m_sub):
            t = t_start + m * delta
            f = np.asarray(model.drift(x, theta, t), dtype=float)
            if not constant:
                g = np.asarray(model.diffusion(x, theta, t), dtype=float)
            _check_drift(model, f)
            if not (g_finite if constant else np.isfinite(g).all()):
                raise DomainError("diffusion is non-finite")
            step = noise[m] if constant else root * (g @ z[m][..., None])[..., 0]
            x = model.clamp_state(x + f * delta + step)
        states[i] = x
    return states


def _start(model: SdeModel, x0) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.dim,):
        raise DomainError(f"x0 has shape {x.shape}, expected ({model.dim},)")
    return x


def _observe(model: SdeModel, x0: np.ndarray, grid: TimeGrid, states: np.ndarray) -> Dataset:
    """The dataset of one path's (n, k) observation-time states."""
    values = states[:, list(model.observed)]
    names = tuple(model.state_names[i] for i in model.observed)
    return Dataset(grid.t0, x0, grid.times, values, model.observed, names)


def simulate_dataset(
    model: SdeModel, theta, x0, grid: TimeGrid, rng: np.random.Generator
) -> Dataset:
    """Simulate a path and keep only the observed coordinates at grid times."""
    x0 = _start(model, x0)
    return _observe(model, x0, grid, _euler(model, theta, x0, grid, rng))


def _simulate_datasets(model: SdeModel, theta, x0, grid: TimeGrid, rngs) -> list:
    """simulate_dataset of one start for each generator, in one Euler loop.

    Dataset p equals ``simulate_dataset(model, theta, x0, grid, rngs[p])``
    bit for bit. A path that fails raises for the whole batch, so a
    caller that needs to know which one failed, and how, reruns them one
    at a time.
    """
    x0 = _start(model, x0)
    states = _euler(model, theta, np.tile(x0, (len(rngs), 1)), grid, rngs)
    return [_observe(model, x0, grid, states[:, p]) for p in range(len(rngs))]


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
