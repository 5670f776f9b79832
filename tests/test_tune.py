"""Penalty-weight ladder, prediction error, and bootstrap intervals."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psml.core import (
    Dataset,
    DomainError,
    NumericalError,
    SdeModel,
    TimeGrid,
    rng_stream,
    simulate_dataset,
)
from psml.likelihood import PenaltyConfig
from psml.models import OuModel
from psml.optimize import EstimationError, OptimizerConfig, PsmlFit
from psml.samplers import SamplerSpec
from psml.tune import (
    TUNE_PRESETS,
    BootstrapResult,
    TuneConfig,
    TuneResult,
    parametric_bootstrap,
    prediction_error,
    run_lambda_ladder,
    tune_lambda,
)

OU_THETA = np.array([0.0187, 0.2610, 0.0224])


class StillModel(SdeModel):
    """Zero dynamics; simulations reproduce the initial state exactly."""

    dim = 2
    state_names = ("a", "b")
    observed = (0, 1)
    param_names = ()
    param_constraints = ()
    constant_diffusion = True

    def drift(self, x, theta, t):
        return np.zeros_like(x)

    def diffusion(self, x, theta, t):
        return np.zeros(x.shape + (2,))


class BrownianModel(SdeModel):
    dim = 1
    state_names = ("w",)
    observed = (0,)
    param_names = ("sigma",)
    param_constraints = ("positive",)
    constant_diffusion = True

    def drift(self, x, theta, t):
        return np.zeros_like(x)

    def diffusion(self, x, theta, t):
        out = np.zeros(x.shape + (1,))
        out[..., 0, 0] = theta[0]
        return out


class BrokenFitModel(BrownianModel):
    """Simulates like BrownianModel, but every likelihood evaluation raises.

    Simulation calls drift on one (k,) state; the likelihood's proposals
    call it on a batch of paths.
    """

    def __init__(self, error=NumericalError):
        self.error = error

    def drift(self, x, theta, t):
        if np.ndim(x) > 1:
            raise self.error("bridge proposals refused")
        return np.zeros_like(x)


def still_dataset(offsets, x0=(1.0, -2.0)):
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[0]
    values = np.asarray(x0)[None, :] + offsets
    return Dataset(0.0, np.asarray(x0, float), np.arange(1.0, n + 1.0), values, (0, 1))


def ou_dataset(n=4, seed=0):
    grid = TimeGrid(0.0, np.arange(1.0, n + 1.0), 32)
    return simulate_dataset(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(seed))


# ---------------------------------------------------------------------------
# configuration


def test_tune_config_validation():
    with pytest.raises(DomainError):
        TuneConfig(eps0=0.0, delta_eps=0.1)
    with pytest.raises(DomainError):
        TuneConfig(eps0=1.0, delta_eps=0.0)
    with pytest.raises(DomainError):
        TuneConfig(eps0=1.0, delta_eps=0.1, lambda0=-0.2)
    with pytest.raises(DomainError):
        TuneConfig(eps0=1.0, delta_eps=0.1, delta_lambda=0.0)
    with pytest.raises(DomainError):
        TuneConfig(eps0=1.0, delta_eps=0.1, n_sims=0)


def test_tune_presets_cover_models():
    assert set(TUNE_PRESETS) == {"ou", "lorenz63", "cwd-direct"}
    for cfg in TUNE_PRESETS.values():
        assert cfg.lambda0 == 0.5
        assert cfg.delta_lambda == 0.025
        assert cfg.n_sims == 1000


# ---------------------------------------------------------------------------
# prediction error


def test_prediction_error_zero_for_perfect_fit():
    ds = still_dataset(np.zeros((3, 2)))
    err = prediction_error(StillModel(), np.array([]), ds, 4, 50, rng_stream(0))
    assert err == 0.0


def test_prediction_error_exact_offsets():
    # zero diffusion makes every simulation identical, so the error is the
    # weighted mean of the observation offsets: (5 + 5 + 12) / 3
    d1 = still_dataset([[3.0, 4.0], [-3.0, 4.0]])
    d2 = still_dataset([[0.0, 12.0]])
    err = prediction_error(StillModel(), np.array([]), [d1, d2], 2, 7, rng_stream(1))
    assert err == pytest.approx(22.0 / 3.0, rel=1e-12)


def test_prediction_error_folded_normal():
    # Brownian endpoint vs a zero observation: mean |N(0, sigma^2 dt)|
    sigma, dt = 0.7, 1.3
    ds = Dataset(0.0, np.array([0.0]), np.array([dt]), np.array([[0.0]]), (0,))
    err = prediction_error(BrownianModel(), np.array([sigma]), ds, 8, 20000, rng_stream(3))
    expected = sigma * math.sqrt(dt) * math.sqrt(2.0 / math.pi)
    assert err == pytest.approx(expected, rel=0.02)


def test_prediction_error_rejects_empty_dataset_list():
    with pytest.raises(DomainError, match="at least one dataset"):
        prediction_error(StillModel(), np.array([]), [], 4, 10, rng_stream(0))


def test_prediction_error_noise_shrinks_with_sims():
    # the Monte Carlo spread of the error scales like 1 / sqrt(n_sims)
    sigma = 1.0
    ds = Dataset(0.0, np.array([0.0]), np.array([1.0]), np.array([[0.0]]), (0,))

    def spread(n_sims):
        vals = [
            prediction_error(BrownianModel(), np.array([sigma]), ds, 4, n_sims,
                             rng_stream(1000 + s))
            for s in range(40)
        ]
        return np.std(vals, ddof=1)

    ratio = spread(250) / spread(1000)
    assert 1.4 < ratio < 2.8


# ---------------------------------------------------------------------------
# lambda ladder


def make_evaluate(eps_fn, calls):
    def evaluate(lam, warm):
        calls.append(lam)
        return None, eps_fn(lam)

    return evaluate


def test_ladder_stops_at_initial_lambda_when_error_is_small():
    calls = []
    config = TuneConfig(eps0=1.0, delta_eps=0.01)
    result = run_lambda_ladder(make_evaluate(lambda lam: 0.5, calls), config)
    assert calls == [0.5]
    assert result.lam == 0.5
    assert result.trace == [type(result.trace[0])(0.5, 0.5, True)]


def test_ladder_walks_down_a_parabola():
    # minimum at 0.45: two accepted downward moves, then a rejected probe
    calls = []
    config = TuneConfig(eps0=1e-9, delta_eps=1e-5)
    result = run_lambda_ladder(
        make_evaluate(lambda lam: (lam - 0.45) ** 2 + 2.0, calls), config
    )
    assert calls == pytest.approx([0.5, 0.475, 0.45, 0.425])
    assert result.lam == pytest.approx(0.45)
    flags = [e.accepted for e in result.trace]
    assert flags == [True, True, True, False]


def test_ladder_probes_upward_when_first_step_down_fails():
    calls = []
    config = TuneConfig(eps0=1e-9, delta_eps=1e-5)
    result = run_lambda_ladder(
        make_evaluate(lambda lam: (lam - 0.6) ** 2 + 2.0, calls), config
    )
    assert calls == pytest.approx([0.5, 0.475, 0.525, 0.55, 0.575, 0.6, 0.625])
    assert result.lam == pytest.approx(0.6)
    assert [e.accepted for e in result.trace] == [True, False, True, True, True, True, False]


def test_ladder_clamps_at_zero():
    calls = []
    config = TuneConfig(eps0=1e-9, delta_eps=1e-5)
    result = run_lambda_ladder(make_evaluate(lambda lam: lam + 1.0, calls), config)
    assert result.lam == 0.0
    assert min(e.lam for e in result.trace) == 0.0
    assert all(e.lam >= 0.0 for e in result.trace)
    # 0.5 start, 20 accepted steps of 0.025 down to the clamp
    assert len(calls) == 21


def test_ladder_respects_step_budget():
    calls = []
    config = TuneConfig(eps0=1e-9, delta_eps=1e-5, lambda0=2.0, max_steps=5)
    result = run_lambda_ladder(make_evaluate(lambda lam: lam + 1.0, calls), config)
    assert len(calls) == 6
    assert result.lam == pytest.approx(2.0 - 5 * 0.025)


# (name, lambda0, max_steps, errors returned call by call, final lambda,
# trace as (lambda, error, accepted)), recorded with eps0 = 0.05 and
# delta_eps = 0.1 from the two-loop ladder this one replaced.
LADDER_PINS = [
    ("immediate-stop", 0.5, 200, [0.01],
     0.5, [(0.5, 0.01, True)]),
    ("down-then-reject", 0.5, 200, [3.0, 2.0, 1.5, 1.45, 0.0],
     0.44999999999999996, [(0.5, 3.0, True), (0.475, 2.0, True), (0.44999999999999996, 1.5, True),
                           (0.42499999999999993, 1.45, False)]),
    ("down-to-eps0", 0.5, 200, [3.0, 2.0, 1.0, 0.01, 0.0],
     0.42499999999999993, [(0.5, 3.0, True), (0.475, 2.0, True), (0.44999999999999996, 1.0, True),
                           (0.42499999999999993, 0.01, True)]),
    ("clamp-from-0.01", 0.01, 200, [3.0, 2.0, 1.0],
     0.0, [(0.01, 3.0, True), (0.0, 2.0, True)]),
    ("clamp-from-0", 0.0, 200, [3.0, 2.0, 1.0, 1.5],
     0.05, [(0.0, 3.0, True), (0.025, 2.0, True), (0.05, 1.0, True), (0.07500000000000001, 1.5, False)]),
    ("clamp-after-walk", 0.05, 200, [3.0, 2.0, 1.0, 0.5],
     0.0, [(0.05, 3.0, True), (0.025, 2.0, True), (0.0, 1.0, True)]),
    ("up-to-eps0", 0.5, 200, [3.0, 3.5, 2.0, 1.0, 0.01],
     0.5750000000000001, [(0.5, 3.0, True), (0.475, 3.5, False), (0.525, 2.0, True), (0.55, 1.0, True),
                          (0.5750000000000001, 0.01, True)]),
    ("up-then-reject", 0.5, 200, [3.0, 2.95, 2.0, 1.0, 0.95],
     0.55, [(0.5, 3.0, True), (0.475, 2.95, False), (0.525, 2.0, True), (0.55, 1.0, True),
            (0.5750000000000001, 0.95, False)]),
    ("reject-both", 0.5, 200, [3.0, 2.95, 3.5],
     0.5, [(0.5, 3.0, True), (0.475, 2.95, False), (0.525, 3.5, False)]),
    ("budget-down", 0.5, 1, [3.0, 2.0, 1.0],
     0.475, [(0.5, 3.0, True), (0.475, 2.0, True)]),
    ("budget-up", 0.5, 1, [3.0, 4.0, 2.0, 1.0],
     0.525, [(0.5, 3.0, True), (0.475, 4.0, False), (0.525, 2.0, True)]),
    ("budget-two", 0.2, 2, [3.0, 2.0, 1.0, 0.5],
     0.15000000000000002, [(0.2, 3.0, True), (0.17500000000000002, 2.0, True),
                           (0.15000000000000002, 1.0, True)]),
]


@pytest.mark.parametrize("name, lam0, max_steps, errors, lam, trace", LADDER_PINS,
                         ids=[pin[0] for pin in LADDER_PINS])
def test_ladder_pinned_traces(name, lam0, max_steps, errors, lam, trace):
    calls = []
    errors_left = iter(errors)

    def evaluate(probe, warm):
        calls.append((probe, warm))
        return probe, next(errors_left)  # the "fit" is the lambda it was made at

    config = TuneConfig(eps0=0.05, delta_eps=0.1, lambda0=lam0, max_steps=max_steps)
    result = run_lambda_ladder(evaluate, config)
    assert result.lam == lam
    assert result.fit == lam
    assert [(e.lam, e.eps, e.accepted) for e in result.trace] == trace
    # every probe warm-starts at the last accepted fit
    warm = None
    for (probe, seen), entry in zip(calls, result.trace):
        assert (probe, seen) == (entry.lam, warm)
        if entry.accepted:
            warm = entry.lam


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50))
def test_ladder_acceptance_is_monotone(vals):
    config = TuneConfig(eps0=0.05, delta_eps=0.3, max_steps=20)
    state = {"i": 0}

    def evaluate(lam, warm):
        eps = vals[min(state["i"], len(vals) - 1)]
        state["i"] += 1
        return None, eps

    result = run_lambda_ladder(evaluate, config)
    trace = result.trace
    accepted = [e for e in trace if e.accepted]
    # the error of accepted moves decreases by more than the threshold
    for prev, cur in zip(accepted, accepted[1:]):
        assert prev.eps - cur.eps > config.delta_eps
    assert all(e.lam >= 0.0 for e in trace)
    assert result.lam == accepted[-1].lam
    assert len(trace) <= 2 * config.max_steps + 2
    # moves head in one direction only
    lams = [e.lam for e in accepted]
    assert all(b < a for a, b in zip(lams, lams[1:])) or all(
        b > a for a, b in zip(lams, lams[1:])
    )


def test_tune_lambda_immediate_stop_records_error():
    ds = ou_dataset()
    penalty = PenaltyConfig(0.5, 8, 4, SamplerSpec("mbb"))
    config = TuneConfig(eps0=100.0, delta_eps=0.001, n_sims=50)
    result = tune_lambda(
        OuModel(), ds, config, penalty, (0.05, 0.5, 0.05),
        optimizer=OptimizerConfig(f_tol=1e-3, max_evals=150), seed=1,
    )
    assert result.lam == 0.5
    assert len(result.trace) == 1
    assert result.fit.prediction_error == result.trace[0].eps
    assert result.fit.tune_trace == result.trace
    assert result.fit.lam == 0.5


def test_tune_lambda_rejected_probes_keep_initial_fit():
    ds = ou_dataset()
    penalty = PenaltyConfig(0.5, 8, 4, SamplerSpec("mbb"))
    # an improvement threshold nothing can beat: probe down, probe up, stop
    config = TuneConfig(eps0=1e-12, delta_eps=1e12, n_sims=50)
    result = tune_lambda(
        OuModel(), ds, config, penalty, (0.05, 0.5, 0.05),
        optimizer=OptimizerConfig(f_tol=1e-3, max_evals=150), seed=1,
    )
    assert result.lam == 0.5
    assert [e.accepted for e in result.trace] == [True, False, False]
    assert [e.lam for e in result.trace] == pytest.approx([0.5, 0.475, 0.525])
    assert result.fit.lam == 0.5


# ---------------------------------------------------------------------------
# bootstrap


def bootstrap_template():
    return still_dataset(np.zeros((1, 2)))


def test_bootstrap_validation():
    with pytest.raises(DomainError):
        parametric_bootstrap(StillModel(), [], None, 0.0, bootstrap_template(),
                             SamplerSpec("mbb"), 8, 4, alpha=0.0)
    with pytest.raises(DomainError):
        parametric_bootstrap(StillModel(), [], None, 0.0, bootstrap_template(),
                             SamplerSpec("mbb"), 8, 4, n_replicates=1)
    with pytest.raises(DomainError, match="at least one dataset"):
        parametric_bootstrap(StillModel(), [], None, 0.0, [], SamplerSpec("mbb"), 8, 4)


@pytest.mark.parametrize("workers", [0, -1])
def test_bootstrap_rejects_workers_below_one(workers):
    calls = []
    with pytest.raises(DomainError, match="workers must be >= 1"):
        parametric_bootstrap(StillModel(), np.array([]), None, 0.0, bootstrap_template(),
                             SamplerSpec("mbb"), 8, 4, workers=workers,
                             estimate=lambda sims, b: calls.append(b))
    assert calls == []


@pytest.mark.parametrize("workers", [1, 2])
def test_bootstrap_budget_below_dim_plus_two_is_a_domain_error(workers):
    # a configuration error, not a replicate failure to count
    with pytest.raises(DomainError, match="evaluation budget must be at least dim \\+ 2"):
        parametric_bootstrap(OuModel(), OU_THETA, None, 0.0, ou_dataset(n=3, seed=5),
                             SamplerSpec("mbb"), 8, 4, n_replicates=2, workers=workers,
                             optimizer=OptimizerConfig(max_evals=4))


def test_bootstrap_degenerate_estimates_give_zero_width():
    res = parametric_bootstrap(
        StillModel(), np.array([]), None, 0.0, bootstrap_template(),
        SamplerSpec("mbb"), 8, 4, n_replicates=8,
        estimate=lambda sims, b: (np.array([2.5]), None),
    )
    assert res.n_failed == 0
    assert res.replicates.shape == (8, 1)
    np.testing.assert_array_equal(res.intervals, [[2.5, 2.5]])
    assert res.rho_replicates is None


def test_bootstrap_quantiles_ignore_replicate_order():
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0, 0.5, 6.0]
    perm = vals[5:] + vals[:5]

    def run(series):
        return parametric_bootstrap(
            StillModel(), np.array([]), None, 0.0, bootstrap_template(),
            SamplerSpec("mbb"), 8, 4, n_replicates=len(series), alpha=0.5,
            estimate=lambda sims, b: (np.array([series[b]]), None),
        )

    np.testing.assert_array_equal(run(vals).intervals, run(perm).intervals)


def test_bootstrap_alpha_one_collapses_to_median():
    vals = list(range(12))
    res = parametric_bootstrap(
        StillModel(), np.array([]), None, 0.0, bootstrap_template(),
        SamplerSpec("mbb"), 8, 4, n_replicates=12, alpha=1.0,
        estimate=lambda sims, b: (np.array([float(vals[b])]), None),
    )
    np.testing.assert_allclose(res.intervals, [[5.5, 5.5]])


def test_bootstrap_failure_budget():
    def flaky(threshold):
        def estimate(sims, b):
            if b < threshold:
                raise EstimationError("refit failed")
            return np.array([1.0]), None

        return estimate

    res = parametric_bootstrap(
        StillModel(), np.array([]), None, 0.0, bootstrap_template(),
        SamplerSpec("mbb"), 8, 4, n_replicates=10, estimate=flaky(1),
    )
    assert res.n_failed == 1
    assert res.replicates.shape == (9, 1)
    with pytest.raises(EstimationError):
        parametric_bootstrap(
            StillModel(), np.array([]), None, 0.0, bootstrap_template(),
            SamplerSpec("mbb"), 8, 4, n_replicates=10, estimate=flaky(2),
        )


def test_bootstrap_refits_ou():
    template = ou_dataset(n=3, seed=5)
    res = parametric_bootstrap(
        OuModel(), OU_THETA, None, 0.0, template, SamplerSpec("mbb"), 8, 4,
        n_replicates=3, optimizer=OptimizerConfig(f_tol=1e-3, max_evals=120),
        seed=9, data_substeps=16,
    )
    assert res.replicates.shape == (3, 3)
    assert np.all(np.isfinite(res.replicates))
    assert np.all(res.replicates[:, 1:] > 0)  # rate and noise scale are positive
    assert np.all(res.intervals[:, 0] <= res.intervals[:, 1])
    assert res.rho_replicates is None
    # replicates differ: each bootstrap draw is its own dataset
    assert not np.allclose(res.replicates[0], res.replicates[1])


def test_bootstrap_workers_match_serial():
    template = ou_dataset(n=3, seed=5)
    kwargs = dict(
        n_paths=8, substeps=4, n_replicates=2,
        optimizer=OptimizerConfig(f_tol=1e-3, max_evals=100), seed=9,
    )
    serial = parametric_bootstrap(OuModel(), OU_THETA, None, 0.0, template,
                                  SamplerSpec("mbb"), workers=1, **kwargs)
    parallel = parametric_bootstrap(OuModel(), OU_THETA, None, 0.0, template,
                                    SamplerSpec("mbb"), workers=2, **kwargs)
    np.testing.assert_array_equal(serial.replicates, parallel.replicates)


def test_bootstrap_frozen_rho_recorded():
    template = ou_dataset(n=3, seed=5)
    res = parametric_bootstrap(
        OuModel(), OU_THETA, 0.8, 0.1, template, SamplerSpec("aux-mbb", 0.8), 8, 4,
        n_replicates=2, optimizer=OptimizerConfig(f_tol=1e-3, max_evals=100),
        seed=9, estimate_rho=False,
    )
    np.testing.assert_array_equal(res.rho_replicates, [0.8, 0.8])


def test_bootstrap_hook_sees_the_refit_datasets(monkeypatch):
    templates = [ou_dataset(n=3, seed=5), ou_dataset(n=2, seed=6)]
    kwargs = dict(n_replicates=3, seed=9, data_substeps=16)
    hooked = []

    def hook(sims, b):
        hooked.append(sims)
        return OU_THETA, None

    parametric_bootstrap(OuModel(), OU_THETA, None, 0.0, templates, SamplerSpec("mbb"), 8, 4,
                         estimate=hook, **kwargs)
    refit = []

    def fake_fit(model, datasets, *args, **kw):
        refit.append(datasets)
        return PsmlFit(OU_THETA, None, 0.0, 0.0, 0.0, [], 1, True)

    monkeypatch.setattr("psml.tune.maximize_psml", fake_fit)
    parametric_bootstrap(OuModel(), OU_THETA, None, 0.0, templates, SamplerSpec("mbb"), 8, 4,
                         **kwargs)
    assert len(hooked) == len(refit) == 3
    for a_sims, b_sims in zip(hooked, refit):
        assert len(a_sims) == len(b_sims) == 2
        for a, b in zip(a_sims, b_sims):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.times.tobytes() == b.times.tobytes()
            assert a.x0.tobytes() == b.x0.tobytes()
    assert not np.array_equal(hooked[0][0].values, hooked[1][0].values)


def test_bootstrap_hook_runs_in_this_process_whatever_the_workers():
    pids = []

    def hook(sims, b):
        pids.append((os.getpid(), b))
        return np.array([float(b)]), None

    res = parametric_bootstrap(
        StillModel(), np.array([]), None, 0.0, bootstrap_template(),
        SamplerSpec("mbb"), 8, 4, n_replicates=4, workers=2, estimate=hook,
    )
    assert pids == [(os.getpid(), b) for b in range(4)]
    np.testing.assert_array_equal(res.replicates, [[0.0], [1.0], [2.0], [3.0]])


@pytest.mark.parametrize("workers", [1, 2])
def test_bootstrap_refit_failures_are_counted(workers):
    template = Dataset(0.0, np.array([0.0]), np.array([1.0, 2.0]), np.array([[0.1], [0.2]]), (0,))
    args = (np.array([0.5]), None, 0.0, template, SamplerSpec("mbb"), 4, 2)
    # NumericalError inside a refit makes the replicate a counted failure
    with pytest.raises(EstimationError, match="2 of 2 bootstrap replicates failed"):
        parametric_bootstrap(BrokenFitModel(), *args, n_replicates=2, workers=workers)
    # any other exception still propagates, from a pool worker too
    with pytest.raises(ZeroDivisionError, match="bridge proposals refused"):
        parametric_bootstrap(BrokenFitModel(ZeroDivisionError), *args, n_replicates=2,
                             workers=workers)
