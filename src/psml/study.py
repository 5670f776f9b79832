"""Replicated simulation studies with bias/RMSE reporting.

A study simulates R datasets from a generating parameter, estimates each
with a list of methods, and summarizes bias and root-mean-square error
per method and parameter. For the OU model the exact MLE of a
replicate's episodes, taken jointly as the methods take them, is the
reference; elsewhere the generating value is. Replicates are
independent and run in a process pool; reports are assembled in
replicate order so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import (_SHAPE_ERRORS, DomainError, NumericalError, TimeGrid, _shape_error, derive_seed,
                   rng_stream, simulate_dataset)
from .likelihood import PenaltyConfig, TransitionFailure
from .models import make_model, ou_exact_mle
from .optimize import EstimationError, OptimizerConfig, maximize_psml
from .samplers import _RHO_KINDS, KINDS, SamplerSpec
from .tune import TUNE_PRESETS, _map, tune_lambda

# Seed tags separating data generation from estimation.
_TAG_DATA = 10
_TAG_FIT = 11

_TUNE = "tune"
_EST = "est"


def _whole(value, name: str) -> int:
    """A count or seed read from a file: a whole number, 8 or 8.0, as an
    int; anything else (2.5, "8", true, null) is a DomainError naming the
    field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DomainError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class EpisodeSpec:
    """One simulated trajectory: initial state, count and spacing of records."""

    x0: tuple
    n: int
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if self.n < 1 or self.dt <= 0:
            raise DomainError("episode needs n >= 1 and dt > 0")

    def grid(self, substeps: int) -> TimeGrid:
        times = self.dt * np.arange(1, self.n + 1)
        return TimeGrid(0.0, times, substeps)

    def to_dict(self) -> dict:
        return {"x0": list(self.x0), "n": self.n, "dt": self.dt}

    @classmethod
    def from_dict(cls, payload: dict) -> "EpisodeSpec":
        return cls(tuple(payload["x0"]), _whole(payload["n"], "episode n"), float(payload["dt"]))


@dataclass(frozen=True)
class MethodSpec:
    """One estimation method: a sampler configuration or the exact MLE.

    lam is a fixed penalty weight or the string "tune"; rho is a fixed
    value, the string "est" (estimated jointly, started at rho_init, which
    only an estimated rho takes), or None for families without the
    parameter.
    """

    name: str
    kind: str
    n_paths: int = 8
    substeps: int = 8
    lam: float | str = 0.0
    rho: float | str | None = None
    rho_init: float | None = None

    def __post_init__(self):
        if self.kind == "exact-mle":
            if (self.rho, self.rho_init) != (None, None) or self.lam not in (0.0, 0):
                raise DomainError("exact-mle takes no sampler options")
            return
        if self.kind not in KINDS:
            raise DomainError(f"unknown method kind {self.kind!r}")
        if self.n_paths < 2:
            raise DomainError("need n_paths >= 2")
        if self.substeps < 1:
            raise DomainError("substeps must be >= 1")
        if isinstance(self.lam, str) and self.lam != _TUNE:
            raise DomainError(f"lam must be a number or {_TUNE!r}")
        if not isinstance(self.lam, str) and not self.lam >= 0:
            raise DomainError("lam must be >= 0")
        if isinstance(self.rho, str) and self.rho != _EST:
            raise DomainError(f"rho must be a number, {_EST!r}, or None")
        if self.estimates_rho and self.kind not in _RHO_KINDS:
            raise DomainError(f"sampler {self.kind!r} has no rho to estimate")
        if self.rho_init is not None and not self.estimates_rho:
            raise DomainError(f"method {self.name!r} has a rho_init but does not estimate rho")
        # Build once to let the sampler family validate its parameter.
        self.sampler()

    def sampler(self) -> SamplerSpec:
        if self.rho == _EST:
            if self.rho_init is None:
                raise DomainError(f"method {self.name!r} estimates rho but has no rho_init")
            return SamplerSpec(self.kind, self.rho_init)
        return SamplerSpec(self.kind, self.rho)

    @property
    def estimates_rho(self) -> bool:
        return self.rho == _EST

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind}
        if self.kind != "exact-mle":
            out.update(n_paths=self.n_paths, substeps=self.substeps, lam=self.lam)
            if self.rho is not None:
                out["rho"] = self.rho
            if self.rho_init is not None:
                out["rho_init"] = self.rho_init
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "MethodSpec":
        known = {"name", "kind", "n_paths", "substeps", "lam", "rho", "rho_init"}
        extra = set(payload) - known
        if extra:
            raise DomainError(f"unknown method keys {sorted(extra)}")
        counts = {key: _whole(payload[key], key) for key in ("n_paths", "substeps") if key in payload}
        return cls(**{**payload, **counts})


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to rerun a study byte-for-byte."""

    model: str
    theta0: tuple
    theta_init: tuple
    episodes: tuple
    methods: tuple
    n_replicates: int
    data_substeps: int
    seed: int = 0
    model_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
        object.__setattr__(self, "theta_init", tuple(float(v) for v in self.theta_init))
        object.__setattr__(self, "episodes", tuple(self.episodes))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.n_replicates < 1:
            raise DomainError("need n_replicates >= 1")
        if not self.episodes or not self.methods:
            raise DomainError("study needs at least one episode and one method")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise DomainError("method names must be unique")
        if self.data_substeps < 1:
            raise DomainError("data_substeps must be >= 1")
        model = self.build_model()
        for name in ("theta0", "theta_init"):
            try:
                model.validate_theta(getattr(self, name))
            except DomainError as exc:
                raise DomainError(f"{name}: {exc}") from exc
        for e, ep in enumerate(self.episodes):
            if len(ep.x0) != model.dim:
                raise DomainError(f"episode {e} x0 must have {model.dim} coordinates")
        if any(m.kind == "exact-mle" for m in self.methods) and self.model != "ou":
            raise DomainError("exact-mle is only available for the ou model")
        if any(m.lam == _TUNE for m in self.methods) and self.model not in TUNE_PRESETS:
            raise DomainError(f"no tuning preset for model {self.model!r}")

    def build_model(self):
        return make_model(self.model, **self.model_kwargs)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "model_kwargs": dict(self.model_kwargs),
            "theta0": list(self.theta0),
            "theta_init": list(self.theta_init),
            "episodes": [e.to_dict() for e in self.episodes],
            "methods": [m.to_dict() for m in self.methods],
            "n_replicates": self.n_replicates,
            "data_substeps": self.data_substeps,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyConfig":
        known = {
            "model", "model_kwargs", "theta0", "theta_init", "episodes",
            "methods", "n_replicates", "data_substeps", "seed",
        }
        extra = set(payload) - known
        if extra:
            raise DomainError(f"unknown study config keys {sorted(extra)}")
        try:
            return cls(
                model=payload["model"],
                theta0=tuple(payload["theta0"]),
                theta_init=tuple(payload["theta_init"]),
                episodes=tuple(EpisodeSpec.from_dict(e) for e in payload["episodes"]),
                methods=tuple(MethodSpec.from_dict(m) for m in payload["methods"]),
                n_replicates=_whole(payload["n_replicates"], "n_replicates"),
                data_substeps=_whole(payload["data_substeps"], "data_substeps"),
                seed=_whole(payload.get("seed", 0), "seed"),
                model_kwargs=dict(payload.get("model_kwargs", {})),
            )
        except _SHAPE_ERRORS as exc:
            raise _shape_error("study config", exc) from exc

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise DomainError("study config must be a JSON object")
        return cls.from_dict(payload)


_FAILURES = (EstimationError, NumericalError, TransitionFailure, DomainError)


def replicate_data(model, theta, episodes, data_substeps: int, seed: int, r: int) -> list:
    """Replicate r's datasets, one per episode, simulated at theta."""
    theta = np.asarray(theta, dtype=float)
    return [
        simulate_dataset(model, theta, np.asarray(ep.x0), ep.grid(data_substeps),
                         rng_stream(seed, _TAG_DATA, r, e))
        for e, ep in enumerate(episodes)
    ]


def fit_method(model_name: str, model, datasets, method: MethodSpec, theta_init, seed: int,
               optimizer: OptimizerConfig = OptimizerConfig()):
    """The PsmlFit of a sampler method: at its fixed lambda, or at the
    lambda that the prediction-error ladder of the model's tuning preset
    accepts, with the ladder's trace in fit.tune_trace."""
    tune = method.lam == _TUNE
    penalty = PenaltyConfig(
        lam=0.0 if tune else float(method.lam),
        n_paths=method.n_paths,
        substeps=method.substeps,
        sampler=method.sampler(),
    )
    if tune:
        return tune_lambda(
            model, datasets, TUNE_PRESETS[model_name], penalty, theta_init, method.rho_init,
            optimizer, seed=seed, estimate_rho=method.estimates_rho,
        ).fit
    return maximize_psml(model, datasets, penalty, theta_init, method.rho_init, optimizer,
                         seed=seed, estimate_rho=method.estimates_rho)


def fit_record(fit) -> dict:
    """The fields of a fit that every report of it carries."""
    return {
        "theta": [float(v) for v in fit.theta],
        "rho": None if fit.rho is None else float(fit.rho),
        "lam": float(fit.lam),
        "loglik": float(fit.loglik),
        "objective": float(fit.objective),
        "evals": fit.evals,
        "converged": fit.converged,
    }


def trace_record(trace) -> list:
    """A lambda ladder's trace, one entry per rung."""
    return [{"lam": float(t.lam), "eps": float(t.eps), "accepted": bool(t.accepted)}
            for t in trace]


def run_replicate(config: StudyConfig, r: int):
    """Simulate replicate r's data and run every method on it.

    Returns (record, times): the record carries everything deterministic,
    the times dict the wall-clock seconds per method fit.
    """
    model = config.build_model()
    datasets = replicate_data(model, config.theta0, config.episodes, config.data_substeps,
                              config.seed, r)

    record = {"replicate": r, "methods": {}, "reference": None}
    times = {}
    if config.model == "ou":
        exact = ou_exact_mle(datasets, theta_init=config.theta_init)
        record["reference"] = [float(v) for v in exact[0]]

    for m_idx, method in enumerate(config.methods):
        fit_seed = derive_seed(config.seed, _TAG_FIT, r, m_idx)
        start = time.perf_counter()
        try:
            if method.kind == "exact-mle":
                theta_hat, res = exact
                entry = {
                    "theta": [float(v) for v in theta_hat],
                    "rho": None,
                    "lam": None,
                    "loglik": None,
                    "objective": float(res.value),
                    "evals": res.evals,
                    "converged": res.converged,
                    "prediction_error": None,
                }
            else:
                fit = fit_method(config.model, model, datasets, method, config.theta_init,
                                 fit_seed)
                entry = fit_record(fit)
                entry["prediction_error"] = fit.prediction_error
                if method.lam == _TUNE:
                    entry["tune_trace"] = trace_record(fit.tune_trace)
        except _FAILURES as exc:
            entry = {"error": f"{type(exc).__name__}: {exc}"}
        entry["seed"] = fit_seed
        record["methods"][method.name] = entry
        times[method.name] = time.perf_counter() - start
    return record, times


def summarize(config: StudyConfig, records) -> dict:
    """Bias/RMSE per method and parameter against the study's reference."""
    model = config.build_model()
    p = model.n_params
    theta0 = np.asarray(config.theta0, dtype=float)
    summary = {"reference": "exact-mle" if config.model == "ou" else "theta0", "methods": {}}
    for method in config.methods:
        diffs = []
        rhos = []
        lams = []
        n_failed = 0
        for rec in records:
            entry = rec["methods"][method.name]
            if "error" in entry:
                n_failed += 1
                continue
            ref = np.asarray(rec["reference"], float) if rec["reference"] is not None else theta0
            diffs.append(np.asarray(entry["theta"], float) - ref)
            if method.estimates_rho and entry["rho"] is not None:
                rhos.append(entry["rho"])
            if entry["lam"] is not None:
                lams.append(entry["lam"])
        cell = {"n_ok": len(diffs), "n_failed": n_failed}
        if diffs:
            arr = np.asarray(diffs)
            cell["bias"] = [float(v) for v in arr.mean(axis=0)]
            cell["rmse"] = [float(v) for v in np.sqrt((arr ** 2).mean(axis=0))]
        else:
            cell["bias"] = [None] * p
            cell["rmse"] = [None] * p
        cell["mean_rho"] = float(np.mean(rhos)) if rhos else None
        cell["mean_lam"] = float(np.mean(lams)) if lams else None
        summary["methods"][method.name] = cell
    return summary


def run_study(config: StudyConfig, workers: int = 1, out_dir=None):
    """Run all replicates, summarize, optionally write the report files.

    Returns (report, timings). The report holds only deterministic
    content; wall-clock numbers live in the timings dict so that equal
    configurations produce byte-identical report files at any worker
    count.
    """
    if workers < 1:
        raise DomainError("workers must be >= 1")
    outcomes = _map(partial(run_replicate, config), range(config.n_replicates), workers)
    records = [rec for rec, _ in outcomes]
    timings = {
        "per_replicate": [t for _, t in outcomes],
        "total_seconds": float(sum(sum(t.values()) for _, t in outcomes)),
    }
    report = {
        "config": config.to_dict(),
        "replicates": records,
        "summary": summarize(config, records),
    }
    if out_dir is not None:
        write_report(report, timings, out_dir)
    return report, timings


def write_report(report: dict, timings: dict, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / "timings.json").write_text(json.dumps(timings, sort_keys=True, indent=2) + "\n")
    _write_table(report, out / "table.csv")


def _write_table(report: dict, path: Path) -> None:
    """CSV summary, one bias and one rmse row per method.

    OU cells are shown times 1e4 (flagged in the header) so they print
    on the same scale the model is usually reported at.
    """
    config = report["config"]
    model = make_model(config["model"], **config.get("model_kwargs", {}))
    scale = 1e4 if config["model"] == "ou" else 1.0
    suffix = " (x 1e-4)" if scale != 1.0 else ""
    header = ["method", "stat"] + [f"{n}{suffix}" for n in model.param_names] + ["mean_rho", "mean_lam", "n_failed"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for name, cell in report["summary"]["methods"].items():
            for stat in ("bias", "rmse"):
                row = [name, stat]
                row += ["" if v is None else repr(v * scale) for v in cell[stat]]
                if stat == "bias":
                    row += [
                        "" if cell["mean_rho"] is None else repr(cell["mean_rho"]),
                        "" if cell["mean_lam"] is None else repr(cell["mean_lam"]),
                        cell["n_failed"],
                    ]
                else:
                    row += ["", "", ""]
                writer.writerow(row)


# ---------------------------------------------------------------------------
# Desk-scale presets. Full-scale replicate counts are noted per study;
# these defaults keep a complete run in the minutes range.


def ou_study_config(n_replicates: int = 20, seed: int = 0) -> StudyConfig:
    """Sparse scalar OU: 100 observations at unit spacing (full scale uses R=100)."""
    j, m = 8, 8
    return StudyConfig(
        model="ou",
        theta0=(0.0187, 0.2610, 0.0224),
        theta_init=(0.05, 0.5, 0.05),
        episodes=(EpisodeSpec(x0=(1.0,), n=100, dt=1.0),),
        methods=(
            MethodSpec("mbb", "mbb", n_paths=j, substeps=m, lam=0.0),
            MethodSpec("psml-mbb", "aux-mbb", n_paths=j, substeps=m, lam=_TUNE,
                       rho=_EST, rho_init=0.8),
            MethodSpec("psml-reg", "regularized", n_paths=j, substeps=m, lam=_TUNE,
                       rho=_EST, rho_init=0.5),
        ),
        n_replicates=n_replicates,
        data_substeps=64,
        seed=seed,
    )


def lorenz_study_config(n_replicates: int = 10, seed: int = 0) -> StudyConfig:
    """Chaotic 3-d flow observed densely for a short window (full scale R=100)."""
    j, m = 32, 10
    return StudyConfig(
        model="lorenz63",
        theta0=(10.0, 28.0, 8.0 / 3.0, 2.0),
        theta_init=(8.0, 25.0, 2.0, 1.0),
        episodes=(EpisodeSpec(x0=(-10.0, -10.0, 30.0), n=21, dt=0.05),),
        methods=(
            MethodSpec("mbb", "mbb", n_paths=j, substeps=m, lam=0.0),
            MethodSpec("psml-reg", "regularized", n_paths=j, substeps=m, lam=_TUNE,
                       rho=_EST, rho_init=0.5),
        ),
        n_replicates=n_replicates,
        data_substeps=64,
        seed=seed,
    )


def cwd_study_config(n_replicates: int = 10, seed: int = 0) -> StudyConfig:
    """Two epidemics with only cumulative deaths observed (full scale R=100)."""
    j, m = 48, 12
    return StudyConfig(
        model="cwd-direct",
        model_kwargs={"additions": 10.0, "natural_mortality": 0.15},
        theta0=(0.03, 0.20),
        theta_init=(0.05, 0.3),
        episodes=(
            # Seed infections of 4 keep early stochastic extinction rare
            # (~1% of simulated herds), so replicates stay informative.
            EpisodeSpec(x0=(36.0, 4.0, 0.0), n=11, dt=1.0),
            EpisodeSpec(x0=(46.0, 4.0, 0.0), n=10, dt=1.0),
        ),
        methods=(
            MethodSpec("psml-mbb", "aux-mbb", n_paths=j, substeps=m, lam=_TUNE,
                       rho=_EST, rho_init=0.8),
        ),
        n_replicates=n_replicates,
        data_substeps=12,
        seed=seed,
    )


STUDY_PRESETS = {
    "ou": ou_study_config,
    "lorenz63": lorenz_study_config,
    "cwd-direct": cwd_study_config,
}
