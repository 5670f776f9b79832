"""Replicated studies and the command-line front end."""

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psml.cli import main
from psml.core import DomainError, load_dataset, save_dataset
from psml.likelihood import PenaltyConfig
from psml.models import ou_exact_loglik, ou_exact_mle
from psml.optimize import OptimizerConfig
from psml.samplers import SamplerSpec
from psml.study import (
    STUDY_PRESETS,
    EpisodeSpec,
    MethodSpec,
    StudyConfig,
    cwd_study_config,
    lorenz_study_config,
    ou_study_config,
    replicate_data,
    run_replicate,
    run_study,
    summarize,
)
from psml.tune import TuneConfig

OU_THETA0 = (0.0187, 0.2610, 0.0224)


def tiny_study(n_replicates=2, methods=None, seed=0, n=6):
    methods = methods or (
        MethodSpec("exact", "exact-mle"),
        MethodSpec("mbb", "mbb", n_paths=4, substeps=2),
    )
    return StudyConfig(
        model="ou",
        theta0=OU_THETA0,
        theta_init=(0.05, 0.5, 0.05),
        episodes=(EpisodeSpec((1.0,), n, 1.0),),
        methods=tuple(methods),
        n_replicates=n_replicates,
        data_substeps=16,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# configuration objects


def test_episode_grid():
    ep = EpisodeSpec((1.0, 2.0), 3, 0.5)
    grid = ep.grid(4)
    assert grid.t0 == 0.0
    np.testing.assert_allclose(grid.times, [0.5, 1.0, 1.5])
    with pytest.raises(DomainError):
        EpisodeSpec((1.0,), 0, 0.5)
    with pytest.raises(DomainError):
        EpisodeSpec((1.0,), 3, 0.0)


def test_method_spec_validation():
    with pytest.raises(DomainError):
        MethodSpec("x", "exact-mle", rho=0.5)
    with pytest.raises(DomainError):
        MethodSpec("x", "exact-mle", lam="tune")
    with pytest.raises(DomainError):
        MethodSpec("x", "bogus-kind")
    with pytest.raises(DomainError):
        MethodSpec("x", "mbb", n_paths=1)
    with pytest.raises(DomainError):
        MethodSpec("x", "mbb", lam="later")
    with pytest.raises(DomainError):
        MethodSpec("x", "mbb", lam=-0.5)
    with pytest.raises(DomainError):
        MethodSpec("x", "aux-mbb", rho="sometimes")
    with pytest.raises(DomainError):
        MethodSpec("x", "aux-mbb", rho="est")  # no starting value
    with pytest.raises(DomainError):
        MethodSpec("x", "mbb", rho=0.5)  # family takes no rho
    with pytest.raises(DomainError, match="no rho to estimate"):
        MethodSpec("x", "mbb", rho="est")
    with pytest.raises(DomainError):
        MethodSpec("x", "mbb", substeps=0)
    # only an estimated rho has a starting value
    for kind, rho in (("aux-mbb", 0.5), ("regularized", 0.5), ("mbb", None)):
        with pytest.raises(DomainError, match="has a rho_init but does not estimate rho"):
            MethodSpec("x", kind, rho=rho, rho_init=0.3)
    with pytest.raises(DomainError):
        MethodSpec("x", "exact-mle", rho_init=0.3)
    with pytest.raises(DomainError, match="exact-mle takes no sampler options"):
        MethodSpec("x", "exact-mle", n_paths=16)
    spec = MethodSpec("x", "aux-mbb", rho="est", rho_init=0.8)
    assert spec.estimates_rho
    assert spec.penalty.sampler.rho == 0.8
    # the one PenaltyConfig that fit_method uses, lambda 0 standing in for "tune"
    tuned = MethodSpec("x", "aux-mbb", n_paths=4.0, substeps=2, lam="tune", rho="est", rho_init=0.8)
    assert tuned.penalty == PenaltyConfig(0.0, 4, 2, SamplerSpec("aux-mbb", 0.8))
    fixed = MethodSpec("x", "regularized", rho=0.3)
    assert not fixed.estimates_rho
    assert fixed.penalty.sampler.rho == 0.3


def test_method_spec_dict_round_trip():
    for spec in (
        MethodSpec("exact", "exact-mle"),
        MethodSpec("a", "mbb", n_paths=4, substeps=2),
        MethodSpec("b", "aux-mbb", lam="tune", rho="est", rho_init=0.8),
    ):
        assert MethodSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(DomainError):
        MethodSpec.from_dict({"name": "x", "kind": "mbb", "paths": 4})


def test_study_config_validation():
    with pytest.raises(DomainError):
        tiny_study(methods=(MethodSpec("a", "mbb"), MethodSpec("a", "mbb")))
    with pytest.raises(DomainError):
        tiny_study(n_replicates=0)
    with pytest.raises(DomainError):
        StudyConfig("ou", OU_THETA0, (0.05, 0.5, 0.05), (), (MethodSpec("a", "mbb"),), 1, 8)
    with pytest.raises(DomainError):
        StudyConfig("ou", OU_THETA0, (0.05, 0.5, 0.05),
                    (EpisodeSpec((1.0,), 3, 1.0),), (), 1, 8)
    with pytest.raises(DomainError):
        StudyConfig("lorenz63", (10, 28, 8 / 3, 2), (8, 25, 2, 1),
                    (EpisodeSpec((-10.0, -10.0, 30.0), 3, 0.05),),
                    (MethodSpec("exact", "exact-mle"),), 1, 8)


@pytest.mark.parametrize("preset, change, message", [
    (ou_study_config, {"theta0": [0.02, 0.3]}, "theta0: expected 3 parameters"),
    (lorenz_study_config, {"theta0": [10.0, 28.0, 2.5, 2.0, 1.0]}, "theta0: expected 4 parameters"),
    (ou_study_config, {"theta_init": [0.05, -0.5, 0.05]}, "theta_init: parameter theta2 must be > 0"),
    (cwd_study_config, {"episodes": [{"x0": [36.0, 4.0], "n": 3, "dt": 1.0}]},
     "episode 0 x0 must have 3 coordinates"),
    (ou_study_config, {"model": "nope"}, "unknown model 'nope'"),
    (ou_study_config, {"methods": [5]}, "study config is malformed"),
    (ou_study_config, {"episodes": [5]}, "study config is malformed"),
    (ou_study_config, {"theta0": 5}, "study config is malformed"),
    (cwd_study_config, {"model_kwargs": [1]}, "study config is malformed"),
    (ou_study_config, {"methods": [{"name": "m", "kind": "regularized", "rho": 0.5,
                                    "rho_init": 0.3}]},
     "method 'm' has a rho_init but does not estimate rho"),
    # model_kwargs follow the number rules of the rest of the config; each
    # was copied into report.json as given (exit 0)
    (cwd_study_config, {"model_kwargs": {"natural_mortality": True}},
     "natural_mortality must be a number, got True"),
    (cwd_study_config, {"model_kwargs": {"additions": "10"}}, "additions must be a number, got '10'"),
    (cwd_study_config, {"model_kwargs": {"additions": {"times": [0.0, math.nan],
                                                       "values": [10.0, 5.0]}}},
     "breakpoints must be finite and strictly increasing, values finite"),
], ids=["ou-theta0", "lorenz-theta0", "theta_init", "x0", "model", "methods-number",
        "episodes-number", "theta0-number", "model_kwargs-list", "fixed-rho-with-rho_init",
        "mortality-bool", "additions-string", "additions-nan-breakpoint"])
def test_cli_study_config_must_fit_its_model(tmp_path, capsys, preset, change, message):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(dict(preset(n_replicates=1).to_dict(), **change)))
    assert run_cli("study", "--config", cfg_path, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_study_config_json_round_trip():
    config = tiny_study(methods=(
        MethodSpec("exact", "exact-mle"),
        MethodSpec("psml", "aux-mbb", n_paths=4, substeps=2, lam="tune",
                   rho="est", rho_init=0.8),
    ))
    back = StudyConfig.from_json(config.to_json())
    assert back == config
    assert back.to_dict() == config.to_dict()
    with pytest.raises(DomainError):
        StudyConfig.from_json(json.dumps({"model": "ou"}))
    with pytest.raises(DomainError):
        StudyConfig.from_json(json.dumps(dict(config.to_dict(), extra=1)))
    with pytest.raises(DomainError):
        StudyConfig.from_json("[1, 2]")


def test_presets_build():
    ou = ou_study_config()
    assert ou.n_replicates == 20
    assert [m.name for m in ou.methods] == ["mbb", "psml-mbb", "psml-reg"]
    assert ou.episodes[0].n == 100

    lor = lorenz_study_config()
    assert lor.n_replicates == 10
    assert lor.theta0 == (10.0, 28.0, 8.0 / 3.0, 2.0)

    cwd = cwd_study_config()
    assert cwd.n_replicates == 10
    assert len(cwd.episodes) == 2
    assert set(STUDY_PRESETS) == {"ou", "lorenz63", "cwd-direct"}


# ---------------------------------------------------------------------------
# replicates and summaries


def test_exact_mle_matches_reference_exactly():
    config = tiny_study(n_replicates=1, methods=(MethodSpec("exact", "exact-mle"),), n=20)
    report, _ = run_study(config)
    cell = report["summary"]["methods"]["exact"]
    assert cell["n_ok"] == 1
    assert cell["bias"] == [0.0, 0.0, 0.0]
    assert cell["rmse"] == [0.0, 0.0, 0.0]


def test_ou_reference_is_the_joint_exact_mle_of_every_episode():
    # The sampler methods fit a replicate's episodes jointly, so bias and
    # RMSE must be taken against the joint exact MLE, not episode 0's.
    config = StudyConfig(
        model="ou", theta0=OU_THETA0, theta_init=(0.05, 0.5, 0.05),
        episodes=(EpisodeSpec((1.0,), 30, 1.0), EpisodeSpec((0.5,), 30, 1.0)),
        methods=(MethodSpec("exact", "exact-mle"),), n_replicates=1, data_substeps=16, seed=0,
    )
    record, _ = run_replicate(config, 0)
    datasets = replicate_data(config.build_model(), config.theta0, config.episodes,
                              config.data_substeps, config.seed, 0)
    joint, _ = ou_exact_mle(datasets, theta_init=config.theta_init)
    first, _ = ou_exact_mle(datasets[0], theta_init=config.theta_init)
    assert record["reference"] == [float(v) for v in joint]
    assert record["methods"]["exact"]["theta"] == record["reference"]
    assert not np.allclose(joint, first, rtol=1e-3)
    summed = [sum(ou_exact_loglik(th, ds) for ds in datasets) for th in (joint, first)]
    assert summed[0] > summed[1]


def test_replicate_record_shape():
    config = tiny_study(n_replicates=1)
    record, times = run_replicate(config, 0)
    assert record["replicate"] == 0
    assert set(record["methods"]) == {"exact", "mbb"}
    assert len(record["reference"]) == 3
    entry = record["methods"]["mbb"]
    assert len(entry["theta"]) == 3
    assert entry["lam"] == 0.0
    assert entry["rho"] is None
    assert isinstance(entry["seed"], int)
    assert set(times) == {"exact", "mbb"}


def test_summary_arithmetic_matches_records():
    config = tiny_study(n_replicates=3, methods=(MethodSpec("mbb", "mbb", n_paths=4, substeps=2),))
    report, _ = run_study(config)
    thetas = np.array([r["methods"]["mbb"]["theta"] for r in report["replicates"]])
    refs = np.array([r["reference"] for r in report["replicates"]])
    diffs = thetas - refs
    cell = report["summary"]["methods"]["mbb"]
    np.testing.assert_allclose(cell["bias"], diffs.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(cell["rmse"], np.sqrt((diffs**2).mean(axis=0)), rtol=1e-12)
    # rmse^2 = bias^2 + variance (population form)
    np.testing.assert_allclose(
        np.asarray(cell["rmse"]) ** 2,
        np.asarray(cell["bias"]) ** 2 + diffs.var(axis=0),
        rtol=1e-10,
    )


def test_summarize_counts_failures():
    config = tiny_study(n_replicates=2, methods=(MethodSpec("mbb", "mbb"),))
    ok = {"theta": [0.03, 0.30, 0.03], "rho": None, "lam": 0.0}
    records = [
        {"replicate": 0, "reference": [0.02, 0.26, 0.02], "methods": {"mbb": ok}},
        {"replicate": 1, "reference": [0.02, 0.26, 0.02],
         "methods": {"mbb": {"error": "EstimationError: refit failed"}}},
    ]
    summary = summarize(config, records)
    cell = summary["methods"]["mbb"]
    assert cell["n_ok"] == 1
    assert cell["n_failed"] == 1
    np.testing.assert_allclose(cell["bias"], [0.01, 0.04, 0.01])
    np.testing.assert_allclose(cell["rmse"], [0.01, 0.04, 0.01])


def test_summarize_all_failed_leaves_blanks():
    config = tiny_study(n_replicates=1, methods=(MethodSpec("mbb", "mbb"),))
    records = [{"replicate": 0, "reference": None,
                "methods": {"mbb": {"error": "EstimationError: nope"}}}]
    cell = summarize(config, records)["methods"]["mbb"]
    assert cell["bias"] == [None, None, None]
    assert cell["mean_rho"] is None


def test_study_report_independent_of_workers():
    config = tiny_study(n_replicates=2)
    serial, _ = run_study(config, workers=1)
    parallel, _ = run_study(config, workers=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_study_writes_report_files(tmp_path):
    config = tiny_study(n_replicates=1)
    out = tmp_path / "study"
    report, timings = run_study(config, out_dir=out)
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(report))
    assert (out / "timings.json").exists()
    table = (out / "table.csv").read_text().splitlines()
    assert table[0].startswith("method,stat,theta1 (x 1e-4)")
    assert len(table) == 1 + 2 * len(config.methods)


# ---------------------------------------------------------------------------
# command line


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_simulate_reproducible(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    for out in (a, b):
        assert run_cli("simulate", "--model", "ou", "--n", "5", "--seed", "3",
                       "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_cli("simulate", "--model", "ou", "--n", "5", "--seed", "4",
                   "--out", c) == 0
    assert a.read_bytes() != c.read_bytes()
    ds = load_dataset(a)
    assert ds.n == 5
    assert ds.observed == (0,)


def test_cli_simulate_multi_episode(tmp_path):
    out = tmp_path / "herd.csv"
    assert run_cli("simulate", "--model", "cwd-direct", "--n", "3",
                   "--substeps", "8", "--out", out) == 0
    assert not out.exists()
    epi1, epi2 = tmp_path / "herd-epi1.csv", tmp_path / "herd-epi2.csv"
    assert epi1.exists() and epi2.exists()
    ds = load_dataset(epi1)
    assert ds.names == ("C",)
    assert ds.x0.shape == (3,)


def test_cli_simulate_x0_override(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli("simulate", "--model", "cwd-direct", "--x0", "40,6,0",
                   "--n", "3", "--substeps", "8", "--out", out) == 0
    assert out.exists()
    np.testing.assert_allclose(load_dataset(out).x0, [40.0, 6.0, 0.0])
    assert run_cli("simulate", "--model", "cwd-direct", "--x0", "40,6",
                   "--n", "3", "--out", tmp_path / "bad.csv") == 2


@pytest.mark.parametrize("flag, message", [
    ("--n", "episode needs n >= 1"),
    ("--dt", "episode needs n >= 1 and dt > 0"),
    ("--substeps", "substeps must be >= 1"),
])
def test_cli_simulate_rejects_zero(tmp_path, capsys, flag, message):
    out = tmp_path / "zero.csv"
    assert run_cli("simulate", "--model", "ou", flag, "0", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def ou_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ou.csv"
    assert run_cli("simulate", "--model", "ou", "--n", "4", "--seed", "1",
                   "--out", path) == 0
    return path


@pytest.fixture(scope="module")
def ou_fit(tmp_path_factory, ou_data):
    path = tmp_path_factory.mktemp("fits") / "fit.json"
    code = run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "-J", "4", "-M", "2", "--max-evals", "80", "--out", path)
    assert code == 0
    return path


def test_cli_estimate_payload(ou_fit):
    payload = json.loads(ou_fit.read_text())
    est = payload["estimate"]
    assert len(est["theta"]) == 3
    assert est["rho"] is None
    assert est["lam"] == 0.0
    assert payload["config"]["sampler"] == {"kind": "mbb", "rho": None}
    assert payload["config"]["n_paths"] == 4
    assert len(payload["diagnostics"]) == 4
    assert payload["tune_trace"] == []
    assert len(payload["datasets"]) == 1


def test_cli_estimate_rho_rules(tmp_path, capsys, ou_data):
    out = tmp_path / "f.json"
    # the plain bridge accepts rho 1 as an explicit no-op, nothing else
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "--rho", "1", "-J", "4", "-M", "2", "--max-evals", "40",
                   "--out", out) == 0
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "--rho", "0.5", "--out", out) == 2
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "pedersen",
                   "--rho", "1", "--out", out) == 2
    # rho-bearing samplers demand the flag
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "aux-mbb",
                   "--out", out) == 2
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "regularized",
                   "--out", out) == 2
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "--rho", "est", "--out", out) == 2
    assert "sampler 'mbb' has no rho to estimate" in capsys.readouterr().err
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "aux-mbb",
                   "--rho", "high", "--out", out) == 2
    assert "--rho must be a number or 'est', got 'high'" in capsys.readouterr().err
    # a starting rho goes only with --rho est
    for sampler, rho in (("aux-mbb", ["--rho", "0.5"]), ("mbb", [])):
        assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", sampler, *rho,
                       "--rho-init", "0.3", "--out", out) == 2
        assert "has a rho_init but does not estimate rho" in capsys.readouterr().err


def test_cli_estimate_joint_rho(tmp_path, ou_data):
    out = tmp_path / "joint.json"
    code = run_cli("estimate", ou_data, "--model", "ou", "--sampler", "aux-mbb",
                   "--rho", "est", "--rho-init", "0.9", "--lambda", "0.3",
                   "-J", "4", "-M", "2", "--max-evals", "80", "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["estimate_rho"] is True
    assert 0.0 < payload["estimate"]["rho"] < 1.0
    assert payload["estimate"]["lam"] == 0.3


def test_cli_estimate_bad_flags(tmp_path, ou_data):
    out = tmp_path / "x.json"
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "--lambda", "-0.5", "--out", out) == 2
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "--lambda", "soon", "--out", out) == 2
    assert run_cli("estimate", tmp_path / "missing.csv", "--model", "ou",
                   "--sampler", "mbb", "--out", out) == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("estimate", ou_data, "--model", "ou", "--sampler", "warp",
                "--out", out)
    assert exc.value.code == 2


def test_cli_estimate_equals_a_study_replicate_entry(tmp_path):
    # psml estimate with a method's flags, replicate 0's data, the entry's
    # seed and the study's theta_init reports the fit that the study did.
    methods = (
        MethodSpec("fixed", "mbb", n_paths=4, substeps=2, lam=0.2),
        MethodSpec("tuned", "aux-mbb", n_paths=4, substeps=2, lam="tune", rho="est",
                   rho_init=0.7),
    )
    flags = {
        "fixed": ["--sampler", "mbb", "--lambda", "0.2"],
        "tuned": ["--sampler", "aux-mbb", "--lambda", "tune", "--rho", "est",
                  "--rho-init", "0.7"],
    }
    config = tiny_study(n_replicates=1, methods=methods)
    record, _ = run_replicate(config, 0)
    [ds] = replicate_data(config.build_model(), config.theta0, config.episodes,
                          config.data_substeps, config.seed, 0)
    data = tmp_path / "ou.csv"
    save_dataset(ds, data)
    theta_init = ",".join(repr(v) for v in config.theta_init)
    fields = ("theta", "rho", "lam", "loglik", "objective", "evals", "converged")
    for method in methods:
        entry = record["methods"][method.name]
        out = tmp_path / f"{method.name}.json"
        assert run_cli("estimate", data, "--model", "ou", *flags[method.name], "-J", "4",
                       "-M", "2", "--seed", entry["seed"], "--theta-init", theta_init,
                       "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["estimate"] == {k: entry[k] for k in fields}
        assert payload["prediction_error"] == entry["prediction_error"]
        assert payload["tune_trace"] == entry.get("tune_trace", [])
    assert len(record["methods"]["tuned"]["tune_trace"]) >= 1


def test_cli_estimate_numerical_failure(tmp_path, ou_data):
    ds = load_dataset(ou_data)
    hopeless = np.array(ds.values)
    hopeless[0, 0] = 1e6
    from psml.core import Dataset

    bad_path = tmp_path / "bad.csv"
    save_dataset(Dataset(ds.t0, ds.x0, ds.times, hopeless, ds.observed, ds.names), bad_path)
    assert run_cli("estimate", bad_path, "--model", "ou", "--sampler", "mbb",
                   "-J", "4", "-M", "2", "--out", tmp_path / "f.json") == 3


def test_cli_study_config_file(tmp_path):
    config = tiny_study(n_replicates=1)
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(config.to_json())
    out = tmp_path / "results"
    assert run_cli("study", "--config", cfg_path, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["n_replicates"] == 1
    # flag overrides rebuild the config
    out2 = tmp_path / "results2"
    assert run_cli("study", "--config", cfg_path, "--seed", "9", "--out", out2) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["config"]["seed"] == 9
    assert report2["replicates"][0]["reference"] != report["replicates"][0]["reference"]


def test_cli_study_preset_equals_its_config_file(tmp_path):
    cfg_path = tmp_path / "ou.json"
    cfg_path.write_text(STUDY_PRESETS["ou"]().to_json())
    for flag, value in (("--preset", "ou"), ("--config", cfg_path)):
        assert run_cli("study", flag, value, "--replicates", "1", "--seed", "9",
                       "--out", tmp_path / flag[2:]) == 0
    report = (tmp_path / "preset" / "report.json").read_bytes()
    assert json.loads(report)["config"]["seed"] == 9
    assert report == (tmp_path / "config" / "report.json").read_bytes()


def test_cli_study_flag_conflicts(tmp_path):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(tiny_study(n_replicates=1).to_json())
    assert run_cli("study", "--out", tmp_path / "a") == 2
    assert run_cli("study", "--config", cfg_path, "--preset", "ou",
                   "--out", tmp_path / "b") == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{not json")
    assert run_cli("study", "--config", bogus, "--out", tmp_path / "c") == 2


def test_cli_bootstrap(tmp_path, ou_fit):
    out = tmp_path / "boot.json"
    code = run_cli("bootstrap", ou_fit, "-B", "2", "--alpha", "1.0",
                   "--data-substeps", "8", "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["replicates"]) == 2
    assert payload["rho_replicates"] is None
    assert payload["n_failed"] == 0
    assert set(payload["intervals"]) == {"theta1", "theta2", "theta3"}
    for lo, hi in payload["intervals"].values():
        assert lo == hi  # alpha 1 collapses the band to the median
    assert run_cli("bootstrap", tmp_path / "nope.json", "--out", out) == 2


def test_cli_bootstrap_file_is_independent_of_threads(tmp_path):
    # One chunk of six replicates, so one data loop of six paths, against
    # two chunks of three.
    data, fit = tmp_path / "lz.csv", tmp_path / "fit.json"
    assert run_cli("simulate", "--model", "lorenz63", "--n", "8", "--seed", "3", "--out", data) == 0
    assert run_cli("estimate", data, "--model", "lorenz63", "--sampler", "mbb", "-J", "8",
                   "-M", "4", "--max-evals", "60", "--out", fit) == 0
    outs = [tmp_path / f"boot{threads}.json" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        assert run_cli("bootstrap", fit, "-B", "6", "--threads", threads, "--out", out) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["n_failed"] == 0


def _counted(payload: dict, where: str) -> dict:
    """The object in a study config or fit file that holds a count field."""
    if where == "episode":
        return payload["episodes"][0]
    if where == "method":
        return payload["methods"][-1]
    return payload["config"] if where == "fit" else payload


@pytest.mark.parametrize("value", ["whole", 2.5, "8", True, None])
@pytest.mark.parametrize("where, key", [
    ("study", "n_replicates"), ("study", "data_substeps"), ("study", "seed"), ("episode", "n"),
    ("method", "n_paths"), ("method", "substeps"),
    ("fit", "n_paths"), ("fit", "substeps"), ("fit", "max_evals"),
])
def test_counts_read_from_files_must_be_whole_numbers(tmp_path, capsys, ou_fit, where, key, value):
    # A whole number given as a float (8.0) is taken as the int; anything
    # else is a configuration error naming the field, where it used to be
    # cut to an int (2.5 ran as 2) or to fail as a TypeError (exit code 1).
    if where == "fit":
        payload = json.loads(ou_fit.read_text())
        command = ["bootstrap", "-B", "2"]
    else:
        payload = tiny_study(n_replicates=1).to_dict()
        command = ["study", "--config"]
    fields = _counted(payload, where)
    value = float(fields[key]) if value == "whole" else value
    fields[key] = value
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps(payload))
    whole = isinstance(value, float) and value.is_integer()
    if where != "fit":
        if whole:
            config = StudyConfig.from_dict(payload)
            got = _counted(config.to_dict(), where)[key]
            assert type(got) is int and got == value
        else:
            with pytest.raises(DomainError, match=f"{key} must be a whole number"):
                StudyConfig.from_dict(payload)
    assert run_cli(*command, path, "--out", out) == (0 if whole else 2)
    if not whole:
        assert f"{key} must be a whole number, got {value!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("build, message, edit", [
    pytest.param(lambda: PenaltyConfig(0.0, 8.5, 4, SamplerSpec("mbb")),
                 "n_paths must be a whole number, got 8.5", None, id="penalty-n-paths"),
    pytest.param(lambda: PenaltyConfig(0.0, 8, "4", SamplerSpec("mbb")),
                 "substeps must be a whole number, got '4'", None, id="penalty-substeps"),
    pytest.param(lambda: PenaltyConfig(math.inf, 8, 4, SamplerSpec("mbb")),
                 "lambda must be finite", None, id="penalty-lam"),
    pytest.param(lambda: OptimizerConfig(max_evals=30.5),
                 "max_evals must be a whole number, got 30.5", None, id="max-evals"),
    pytest.param(lambda: MethodSpec("mbb", "mbb", lam=math.inf), "lambda must be finite",
                 lambda p: p["methods"][-1].update(lam=math.inf), id="method-lam"),
    pytest.param(lambda: MethodSpec(7, "mbb"), "method name must be a string, got 7",
                 lambda p: p["methods"][-1].update(name=7), id="method-name"),
    pytest.param(lambda: EpisodeSpec((1.0,), 2.5, 1.0), "episode n must be a whole number, got 2.5",
                 None, id="episode-n"),
    pytest.param(lambda: TuneConfig(0.04, 0.001, n_sims=2.5),
                 "n_sims must be a whole number, got 2.5", None, id="tune-n-sims"),
    pytest.param(lambda: MethodSpec("mbb", "mbb", lam=True), "lam must be a number, got True",
                 lambda p: p["methods"][-1].update(lam=True), id="method-lam-bool"),
    pytest.param(lambda: MethodSpec("aux", "aux-mbb", rho="est", rho_init=True),
                 "rho must be a number, got True",
                 lambda p: p["methods"].append(
                     {"name": "aux", "kind": "aux-mbb", "rho": "est", "rho_init": True}),
                 id="method-rho-init-bool"),
    pytest.param(lambda: EpisodeSpec((1.0,), 6, True), "episode dt must be a number, got True",
                 lambda p: p["episodes"][0].update(dt=True), id="episode-dt-bool"),
    pytest.param(lambda: EpisodeSpec(("1.0",), 6, 1.0), "episode x0 must be a number, got '1.0'",
                 lambda p: p["episodes"][0].update(x0=["1.0"]), id="episode-x0-string"),
    pytest.param(lambda: replace(tiny_study(), n_replicates=2.5),
                 "n_replicates must be a whole number, got 2.5", None, id="study-replicates"),
    pytest.param(lambda: replace(tiny_study(), n_replicates=True),
                 "n_replicates must be a whole number, got True", None, id="study-replicates-bool"),
    pytest.param(lambda: replace(tiny_study(), data_substeps=16.5),
                 "data_substeps must be a whole number, got 16.5", None, id="study-data-substeps"),
    pytest.param(lambda: replace(tiny_study(), seed=1.5),
                 "seed must be a whole number, got 1.5", None, id="study-seed"),
])
def test_counts_lambdas_and_names_fail_where_they_enter(tmp_path, capsys, build, message, edit):
    # Each used to pass its constructor and fail late or not at all: a
    # float count as a TypeError at the first evaluation (or, in an
    # episode or a ladder setting, cut to an int), an infinite lambda as a
    # report holding a non-JSON Infinity (exit 0), a numeric method name
    # as a TypeError when the report sorted its method names (exit 1), and
    # true, or a number given as a string, read as a number (exit 0).
    with pytest.raises(DomainError, match=message):
        build()
    if edit is None:
        return
    payload = tiny_study(n_replicates=1).to_dict()
    edit(payload)
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_text(json.dumps(payload))
    assert run_cli("study", "--config", path, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_whole_float_counts_are_taken_as_ints():
    cfg = PenaltyConfig(0.0, 8.0, 4.0, SamplerSpec("mbb"))
    assert (type(cfg.n_paths), type(cfg.substeps)) == (int, int)
    assert type(OptimizerConfig(max_evals=np.int64(30)).max_evals) is int
    assert type(MethodSpec("mbb", "mbb", n_paths=4.0).n_paths) is int
    assert type(replace(tiny_study(), seed=3.0).seed) is int


def _field_paths(node, prefix=()):
    """The key path of every field, list entry and nested object of a JSON payload."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _put(payload, path, value):
    """A copy of a JSON payload with the field at key path set to value."""
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 2.5, "x", None, [], True]
FUZZ_STUDY = tiny_study(n_replicates=1, methods=(
    MethodSpec("exact", "exact-mle"),
    MethodSpec("mbb", "mbb", n_paths=4, substeps=2),
    MethodSpec("aux", "aux-mbb", n_paths=4, substeps=2, lam=0.1, rho="est", rho_init=0.8),
)).to_dict()


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(list(_field_paths(FUZZ_STUDY))),
       value=st.sampled_from(FUZZ_VALUES))
def test_a_study_config_with_one_bad_field_ends_in_a_known_exit_code(tmp_path_factory, path, value):
    # Malformed input exits 2 and an estimator failure 3; a mutation that
    # leaves the config valid runs (exit 0). Nothing may escape as an
    # uncaught exception (exit 1).
    payload = _put(FUZZ_STUDY, path, value)
    where = tmp_path_factory.mktemp("fuzz")
    config = where / "config.json"
    config.write_text(json.dumps(payload))
    assert run_cli("study", "--config", config, "--out", where / "out") in (0, 2, 3)


@pytest.fixture(scope="module")
def ou_aux_fit(tmp_path_factory, ou_data):
    """A small fit with rho estimated, so that a bootstrap reads every field it has."""
    path = tmp_path_factory.mktemp("fits") / "aux.json"
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "aux-mbb", "--rho", "est",
                   "-J", "4", "-M", "2", "--max-evals", "20", "--out", path) == 0
    return path


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("estimate", "lam"), True, "lam must be a number, got True",
                 id="lam"),
    pytest.param(("estimate", "rho"), True, "rho must be a number, got True",
                 id="rho"),
    pytest.param(("estimate", "theta", 0), True, "theta entry must be a number, got True",
                 id="theta-bool"),
    pytest.param(("estimate", "theta", 1), "0.4", "theta entry must be a number, got '0.4'",
                 id="theta-string"),
    pytest.param(("config", "estimate_rho"), "no", "estimate_rho must be true or false, got 'no'",
                 id="estimate-rho"),
    pytest.param(("datasets", 0, "x0"), [True], "dataset x0 must be a number, got True",
                 id="x0"),
    pytest.param(("datasets", 0, "times", 0), "1.0", "dataset times must be a number, got '1.0'",
                 id="times"),
    pytest.param(("datasets", 0, "values", 0, 0), True, "dataset values must be a number, got True",
                 id="values"),
    pytest.param(("datasets", 0, "observed"), [False],
                 "dataset observed must be a whole number, got False", id="observed-bool"),
    pytest.param(("datasets", 0, "observed"), [5],
                 "dataset observed coordinates do not match the model", id="observed-model"),
    pytest.param(("datasets", 0, "names"), "x", "names must be one string per observed column",
                 id="names-string"),
    pytest.param(("datasets", 0, "names"), 0, "names must be one string per observed column",
                 id="names-zero"),
    pytest.param(("datasets", 0, "names"), [math.nan],
                 "names must be one string per observed column", id="names-nan"),
    pytest.param(("datasets", 0, "names"), ["x1", "x2"],
                 "names must be one string per observed column", id="names-count"),
])
def test_a_fit_file_field_that_is_not_what_it_should_be_is_refused(
        tmp_path, capsys, ou_aux_fit, path, value, message):
    # Each was read with float(), int() or bool(), and the bootstrap ran
    # (exit 0): true as 1, "0.4" as 0.4, false as 0, "no" as true; the
    # templates were never checked against the model; and names were taken
    # as given, "x" as ("x",), 0 dropped and [NaN] kept.
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(_put(json.loads(ou_aux_fit.read_text()), path, value)))
    assert run_cli("bootstrap", bad, "-B", "2", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# The parts of a fit file that psml bootstrap reads.
_BOOTSTRAP_READS = ("model", "datasets", "config", "estimate")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=st.sampled_from(FUZZ_VALUES))
def test_a_fit_file_with_one_bad_field_ends_in_a_known_exit_code(tmp_path_factory, ou_aux_fit,
                                                                 data, value):
    # As for study configs: exit 0, 2 or 3, never an uncaught exception.
    fit = json.loads(ou_aux_fit.read_text())
    paths = [p for p in _field_paths(fit) if p[0] in _BOOTSTRAP_READS]
    path = data.draw(st.sampled_from(paths))
    where = tmp_path_factory.mktemp("fuzz")
    (where / "fit.json").write_text(json.dumps(_put(fit, path, value)))
    code = run_cli("bootstrap", where / "fit.json", "-B", "2", "--out", where / "boot.json")
    assert code in (0, 2, 3)


# Values that a dataset field may be mutated to, in its sidecar or its CSV.
DATA_FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 2.5, "x", None, [], True, ""]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), value=st.sampled_from(DATA_FUZZ_VALUES))
def test_a_dataset_with_one_bad_field_ends_in_a_known_exit_code(tmp_path_factory, ou_data,
                                                                data, value):
    # One field of a small OU dataset changed: a sidecar field or its first
    # entry, or the header name, one time or one value of the CSV, where a
    # value is written as its JSON text. As for study configs and fit
    # files: exit 0, 2 or 3, never an uncaught exception.
    side = json.loads(ou_data.with_suffix(".json").read_text())
    rows = [line.split(",") for line in ou_data.read_text().splitlines()]
    path = data.draw(st.sampled_from(list(_field_paths(side)) + ["header", "time", "value"]))
    if isinstance(path, tuple):
        side = _put(side, path, value)
    else:
        row = 0 if path == "header" else data.draw(st.integers(1, len(rows) - 1))
        rows[row][0 if path == "time" else 1] = value if isinstance(value, str) else json.dumps(value)
    where = tmp_path_factory.mktemp("fuzz")
    csv = where / "data.csv"
    csv.write_text("\n".join(",".join(row) for row in rows) + "\n")
    csv.with_suffix(".json").write_text(json.dumps(side))
    code = run_cli("estimate", csv, "--model", "ou", "--sampler", "mbb", "-J", "4", "-M", "2",
                   "--max-evals", "10", "--out", where / "fit.json")
    assert code in (0, 2, 3)


@pytest.mark.parametrize("kwargs, message", [
    ({"natural_mortality": -5.0}, "natural_mortality and additions must be finite and >= 0, got -5.0"),
    ({"natural_mortality": True}, "natural_mortality must be a number, got True"),
    ({"additions": "10"}, "additions must be a number, got '10'"),
])
def test_a_fit_file_model_setting_follows_the_config_number_rules(tmp_path, capsys, cwd_fit,
                                                                  kwargs, message):
    # true bootstrapped (exit 0), and -5.0 failed every replicate as a
    # numerical error (exit 3).
    payload = json.loads(cwd_fit.read_text())
    payload["model"]["kwargs"].update(kwargs)
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("bootstrap", bad, "-B", "2", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (("--mortality", "-1"), "natural_mortality and additions must be finite and >= 0, got -1.0"),
    (("--mortality", "nan"), "natural_mortality and additions must be finite and >= 0, got nan"),
    (("--additions", "-2"), "must be finite and >= 0, got 0.15 and [-2.0]"),
])
def test_cli_model_flags_follow_the_config_number_rules(tmp_path, capsys, flags, message):
    # Each simulated a herd and wrote it (exit 0).
    assert run_cli("simulate", "--model", "cwd-direct", *flags, "--out", tmp_path / "herd.csv") == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, edit, message", [
    pytest.param("bootstrap", lambda p: [p], "fit file must be a JSON object", id="bootstrap-list"),
    pytest.param("bootstrap", lambda p: p["estimate"].update(lam=None),
                 "lam must be a number, got None", id="bootstrap-null-lam"),
    pytest.param("bootstrap", lambda p: p["estimate"].update(theta=None), "expected 3 parameters",
                 id="bootstrap-null-theta"),
    pytest.param("bootstrap", lambda p: p.update(config=[]), "fit file is malformed",
                 id="bootstrap-list-config"),
    pytest.param("r0", lambda p: [p], "bootstrap file must be a JSON object", id="r0-list"),
    pytest.param("r0", lambda p: p["estimate"].update(theta=None), "expected 2 parameters",
                 id="r0-null-theta"),
    pytest.param("r0", lambda p: p.update(replicates=[1.0, 2.0]), "bootstrap file is malformed",
                 id="r0-flat-replicates"),
])
def test_cli_json_inputs_of_the_wrong_shape_are_configuration_errors(
        tmp_path, capsys, ou_fit, cwd_boot, command, edit, message):
    payload = json.loads((ou_fit if command == "bootstrap" else cwd_boot).read_text())
    payload = edit(payload) or payload
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text(json.dumps(payload))
    assert run_cli(command, bad, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("sidecar, message", [
    ({"x0": [40.0, 6.0]}, "dataset x0 has 2 entries, the model has 3 states"),
    ({"x0": [40.0, 6.0, 0.0, 1.0]}, "dataset x0 has 4 entries, the model has 3 states"),
    ({"observed": [1]}, "dataset observed coordinates do not match the model"),
    ({"t0": "0.0"}, "sidecar t0 must be a number, got '0.0'"),
    ({"x0": [40.0, True, 0.0]}, "sidecar x0 must be a number, got True"),
    ({"observed": [2.5]}, "sidecar observed must be a whole number, got 2.5"),
])
def test_cli_estimate_rejects_data_that_do_not_fit_the_model(tmp_path, capsys, sidecar, message):
    data = tmp_path / "herd.csv"
    assert run_cli("simulate", "--model", "cwd-direct", "--x0", "40,6,0", "--n", "3",
                   "--substeps", "8", "--seed", "2", "--out", data) == 0
    side = data.with_suffix(".json")
    side.write_text(json.dumps({**json.loads(side.read_text()), **sidecar}))
    out = tmp_path / "fit.json"
    assert run_cli("estimate", data, "--model", "cwd-direct", "--sampler", "mbb", "-J", "6",
                   "-M", "3", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_evals", ["0", "4"])
def test_cli_estimate_budget_below_dim_plus_two_is_a_configuration_error(
        tmp_path, capsys, ou_data, max_evals):
    out = tmp_path / "fit.json"
    assert run_cli("estimate", ou_data, "--model", "ou", "--sampler", "mbb",
                   "--max-evals", max_evals, "--out", out) == 2
    assert "evaluation budget must be at least dim + 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("bootstrap", "FIT", "-B", "2", "--threads", "0"),
    ("bootstrap", "FIT", "-B", "2", "--threads", "-1"),
    ("study", "--preset", "ou", "--replicates", "1", "--threads", "0"),
])
def test_cli_rejects_thread_counts_below_one(tmp_path, capsys, ou_fit, argv):
    argv = [ou_fit if a == "FIT" else a for a in argv]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_study_rejects_workers_below_one(tmp_path):
    with pytest.raises(DomainError, match="workers must be >= 1"):
        run_study(tiny_study(n_replicates=1), workers=0, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def cwd_fit(tmp_path_factory):
    root = tmp_path_factory.mktemp("cwd")
    data = root / "herd.csv"
    assert run_cli("simulate", "--model", "cwd-direct", "--x0", "40,6,0",
                   "--n", "3", "--substeps", "8", "--seed", "2", "--out", data) == 0
    fit = root / "fit.json"
    assert run_cli("estimate", data, "--model", "cwd-direct", "--sampler", "mbb",
                   "-J", "6", "-M", "3", "--max-evals", "60", "--out", fit) == 0
    return fit


@pytest.fixture(scope="module")
def cwd_boot(cwd_fit):
    boot = cwd_fit.with_name("boot.json")
    assert run_cli("bootstrap", cwd_fit, "-B", "2", "--data-substeps", "8",
                   "--out", boot) == 0
    return boot


def test_cli_r0_table(tmp_path, cwd_boot):
    out = tmp_path / "r0.csv"
    assert run_cli("r0", cwd_boot, "--n0-grid", "50,100", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n0,point,lower,upper"
    assert len(lines) == 3
    boot = json.loads(cwd_boot.read_text())
    beta, mu = boot["estimate"]["theta"]
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 50.0
    assert first[1] == pytest.approx(50.0 * beta / (mu + 0.15), rel=1e-12)


def test_cli_r0_rejects_wrong_model(tmp_path, ou_fit):
    boot = tmp_path / "ou_boot.json"
    assert run_cli("bootstrap", ou_fit, "-B", "2", "--out", boot) == 0
    assert run_cli("r0", boot, "--out", tmp_path / "r0.csv") == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "psml", "simulate", "--model", "ou", "--n", "3",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
