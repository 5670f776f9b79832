"""Command-line front end.

Subcommands: simulate, estimate, study, bootstrap, r0. All results land
in files (CSV datasets, JSON fits and intervals, study report
directories); exit code 0 on success, 2 for configuration problems,
3 when the numerics fail.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import (
    _SHAPE_ERRORS,
    DomainError,
    NumericalError,
    _shape_error,
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    save_dataset,
)
from .models import MODEL_NAMES, make_model, r0_estimate
from .optimize import EstimationError, OptimizerConfig
from .samplers import KINDS, SamplerSpec
from .study import (
    STUDY_PRESETS,
    EpisodeSpec,
    MethodSpec,
    StudyConfig,
    _whole,
    fit_method,
    fit_record,
    replicate_data,
    run_study,
    trace_record,
)
from .tune import parametric_bootstrap

# Starting rho per family when --rho est is given without --rho-init.
_RHO_INIT = {"aux-mbb": 0.8, "regularized": 0.5}


def _vector(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from exc


def _model_kwargs(args) -> dict:
    if args.model != "cwd-direct":
        return {}
    return {"additions": args.additions, "natural_mortality": args.mortality}


def _add_model_flags(sub):
    sub.add_argument("--model", required=True, choices=MODEL_NAMES)
    sub.add_argument("--additions", type=float, default=10.0,
                     help="cwd-direct only: animals added per unit time")
    sub.add_argument("--mortality", type=float, default=0.15,
                     help="cwd-direct only: background mortality rate")


def _threads(args) -> int:
    if args.threads < 1:
        raise DomainError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    model = make_model(args.model, **_model_kwargs(args))
    preset = STUDY_PRESETS[args.model](seed=args.seed)
    theta = model.validate_theta(args.theta or preset.theta0)
    substeps = preset.data_substeps if args.substeps is None else args.substeps
    base = preset.episodes if args.x0 is None else preset.episodes[:1]
    episodes = [
        EpisodeSpec(
            ep.x0 if args.x0 is None else args.x0,
            ep.n if args.n is None else args.n,
            ep.dt if args.dt is None else args.dt,
        )
        for ep in base
    ]

    out = Path(args.out)
    paths = []
    for e, ds in enumerate(replicate_data(model, theta, episodes, substeps, args.seed, 0)):
        if len(episodes) == 1:
            path = out
        else:
            path = out.with_name(f"{out.stem}-epi{e + 1}{out.suffix or '.csv'}")
        save_dataset(ds, path)
        paths.append(path)
    print("\n".join(str(p) for p in paths))
    return 0


# ---------------------------------------------------------------------------
# estimate


def _number_or(text, word: str, flag: str):
    """A flag's value: None, the one word it takes besides numbers, or a number."""
    if text is None or text == word:
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"{flag} must be a number or {word!r}, got {text!r}") from exc


def cmd_estimate(args) -> int:
    model = make_model(args.model, **_model_kwargs(args))
    datasets = [load_dataset(p) for p in args.data]
    theta_init = args.theta_init or STUDY_PRESETS[args.model]().theta_init

    rho, rho_init = _number_or(args.rho, "est", "--rho"), args.rho_init
    if args.sampler in _RHO_INIT and rho is None:
        raise DomainError(f"sampler {args.sampler!r} needs --rho (a number or 'est')")
    if args.sampler == "mbb" and rho == 1.0:
        # The plain bridge is the rho = 1 member of the scaled family, so
        # accept that one value as an explicit no-op.
        rho = None
    if rho == "est" and rho_init is None:
        rho_init = _RHO_INIT.get(args.sampler)
    method = MethodSpec("estimate", args.sampler, n_paths=args.n_paths, substeps=args.substeps,
                        lam=_number_or(args.lam, "tune", "--lambda"), rho=rho, rho_init=rho_init)

    start = time.perf_counter()
    fit = fit_method(args.model, model, datasets, method, theta_init, args.seed,
                     OptimizerConfig(max_evals=args.max_evals))
    elapsed = time.perf_counter() - start

    payload = {
        "model": {"name": args.model, "kwargs": _model_kwargs(args)},
        "dataset_paths": [str(p) for p in args.data],
        "datasets": [dataset_to_dict(ds) for ds in datasets],
        "config": {
            "sampler": {"kind": method.kind, "rho": method.sampler().rho},
            "n_paths": method.n_paths,
            "substeps": method.substeps,
            "lam": method.lam,
            "estimate_rho": method.estimates_rho,
            "theta_init": list(theta_init),
            "seed": args.seed,
            "max_evals": args.max_evals,
        },
        "estimate": fit_record(fit),
        "diagnostics": [
            {"dataset": d.dataset_index, "i": d.index, "log_phat": float(d.log_phat),
             "cv": float(d.cv), "ess": float(d.ess)}
            for d in fit.diagnostics
        ],
        "prediction_error": fit.prediction_error,
        "tune_trace": trace_record(fit.tune_trace),
        "timing_seconds": elapsed,
    }
    _write_json(args.out, payload)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# study


def cmd_study(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise DomainError("give exactly one of --config or --preset")
    if args.config is not None:
        config = StudyConfig.from_json(Path(args.config).read_text())
    else:
        config = STUDY_PRESETS[args.preset]()
    overrides = {"n_replicates": args.replicates, "seed": args.seed}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    run_study(config, workers=_threads(args), out_dir=args.out)
    print(str(Path(args.out) / "report.json"))
    return 0


# ---------------------------------------------------------------------------
# bootstrap


def _read_object(path, what: str) -> dict:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise DomainError(f"{what} must be a JSON object")
    return payload


def cmd_bootstrap(args) -> int:
    fit = _read_object(args.fit, "fit file")
    try:
        model = make_model(fit["model"]["name"], **fit["model"].get("kwargs", {}))
        templates = [dataset_from_dict(d) for d in fit["datasets"]]
        cfg = fit["config"]
        estimate = fit["estimate"]
        sampler_kind = cfg["sampler"]["kind"]
        theta = model.validate_theta(estimate["theta"])
        rho = estimate["rho"]
        lam = float(estimate["lam"])
        n_paths, substeps = _whole(cfg["n_paths"], "n_paths"), _whole(cfg["substeps"], "substeps")
        max_evals = _whole(cfg.get("max_evals", 1500), "max_evals")
        estimate_rho = bool(cfg.get("estimate_rho", False))
    except _SHAPE_ERRORS as exc:
        raise _shape_error("fit file", exc) from exc

    sampler = SamplerSpec(sampler_kind, rho)
    result = parametric_bootstrap(
        model, theta, rho, lam, templates, sampler,
        n_paths=n_paths, substeps=substeps,
        n_replicates=args.replicates, alpha=args.alpha,
        optimizer=OptimizerConfig(max_evals=max_evals),
        seed=args.seed, estimate_rho=estimate_rho,
        data_substeps=args.data_substeps, workers=_threads(args),
    )
    payload = {
        "source_fit": str(args.fit),
        "model": fit["model"],
        "estimate": estimate,
        "n_replicates": args.replicates,
        "alpha": args.alpha,
        "seed": args.seed,
        "replicates": [[float(v) for v in row] for row in result.replicates],
        "rho_replicates": None if result.rho_replicates is None
        else [float(v) for v in result.rho_replicates],
        "intervals": {
            name: [float(result.intervals[i, 0]), float(result.intervals[i, 1])]
            for i, name in enumerate(model.param_names)
        },
        "n_failed": result.n_failed,
    }
    _write_json(args.out, payload)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# r0


def cmd_r0(args) -> int:
    boot = _read_object(args.boot, "bootstrap file")
    try:
        name = boot["model"]["name"]
        kwargs = boot["model"].get("kwargs", {})
        estimate = boot["estimate"]
        replicates = boot["replicates"]
        if name != "cwd-direct":
            raise DomainError("r0 is defined for the cwd-direct model only")
        if not replicates:
            raise DomainError("bootstrap file has no replicate estimates")
        model = make_model(name, **kwargs)
        beta_i = model.param_names.index("beta")
        mu_i = model.param_names.index("mu")
        draws = np.asarray(replicates, dtype=float)[:, [beta_i, mu_i]]
        theta = model.validate_theta(estimate["theta"])
        alpha = float(boot.get("alpha", 0.05))
    except _SHAPE_ERRORS as exc:
        raise _shape_error("bootstrap file", exc) from exc
    m = model.natural_mortality

    lines = ["n0,point,lower,upper"]
    for n0 in args.n0_grid:
        est = r0_estimate(theta[beta_i], theta[mu_i], m, n0, draws=draws, alpha=alpha)
        lines.append(f"{repr(float(n0))},{est.point!r},{est.lower!r},{est.upper!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psml",
        description="Simulated maximum likelihood for partially observed SDEs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate datasets from a model preset")
    _add_model_flags(sim)
    sim.add_argument("--theta", type=_vector, default=None,
                     help="generating parameters (default: model preset)")
    sim.add_argument("--x0", type=_vector, default=None,
                     help="initial state; overrides the preset episodes")
    sim.add_argument("--n", type=int, default=None, help="observations per dataset")
    sim.add_argument("--dt", type=float, default=None, help="observation spacing")
    sim.add_argument("--substeps", type=int, default=None,
                     help="fine simulation substeps per interval")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    est = subs.add_parser("estimate", help="fit a model to datasets")
    est.add_argument("data", nargs="+", help="dataset CSV paths")
    _add_model_flags(est)
    est.add_argument("--sampler", required=True, choices=KINDS)
    est.add_argument("--rho", default=None,
                     help="sampler parameter: a number or 'est'")
    est.add_argument("--rho-init", type=float, default=None,
                     help="starting value when rho is estimated")
    est.add_argument("--lambda", dest="lam", default="0",
                     help="penalty weight: a number or 'tune'")
    est.add_argument("-J", dest="n_paths", type=int, default=16,
                     help="importance-sample paths per transition")
    est.add_argument("-M", dest="substeps", type=int, default=8,
                     help="Euler substeps per observation interval")
    est.add_argument("--theta-init", type=_vector, default=None)
    est.add_argument("--max-evals", type=int, default=1500)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--out", required=True, help="output fit JSON path")
    est.set_defaults(func=cmd_estimate)

    study = subs.add_parser("study", help="run a replicated bias/RMSE study")
    study.add_argument("--config", default=None, help="study config JSON path")
    study.add_argument("--preset", default=None, choices=tuple(STUDY_PRESETS),
                       help="built-in desk-scale study")
    study.add_argument("--replicates", type=int, default=None)
    study.add_argument("--seed", type=int, default=None)
    study.add_argument("--threads", type=int, default=1)
    study.add_argument("--out", required=True, help="output directory")
    study.set_defaults(func=cmd_study)

    boot = subs.add_parser("bootstrap", help="parametric bootstrap from a fit")
    boot.add_argument("fit", help="fit JSON from the estimate command")
    boot.add_argument("-B", "--replicates", type=int, default=200)
    boot.add_argument("--alpha", type=float, default=0.05)
    boot.add_argument("--data-substeps", type=int, default=None,
                      help="substeps for replicate data simulation (default: fit's M)")
    boot.add_argument("--seed", type=int, default=0)
    boot.add_argument("--threads", type=int, default=1)
    boot.add_argument("--out", required=True, help="output JSON path")
    boot.set_defaults(func=cmd_bootstrap)

    r0 = subs.add_parser("r0", help="reproduction-number table from a bootstrap")
    r0.add_argument("boot", help="bootstrap JSON from the bootstrap command")
    r0.add_argument("--n0-grid", type=_vector, default=(25.0, 50.0, 75.0, 100.0),
                    help="comma-separated herd sizes")
    r0.add_argument("--out", required=True, help="output CSV path")
    r0.set_defaults(func=cmd_r0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, NotADirectoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
