"""Simplex maximizer, parameter transforms, and the joint fit driver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psml.core import (
    FREE,
    POSITIVE,
    UNIT_INTERVAL,
    Dataset,
    DomainError,
    TimeGrid,
    rng_stream,
    simulate_dataset,
)
from psml import optimize
from psml.likelihood import PenaltyConfig, penalized_log_likelihood
from psml.models import OuModel, make_model
from psml.optimize import (
    EstimationError,
    OptimizerConfig,
    maximize_psml,
    nelder_mead,
    transform,
    untransform,
)
from psml.samplers import SamplerSpec
from reference import maximize_one_at_a_time

OU_THETA = np.array([0.0187, 0.2610, 0.0224])


# ---------------------------------------------------------------------------
# transforms


def test_transform_round_trip():
    cons = [FREE, POSITIVE, UNIT_INTERVAL]
    values = np.array([-2.5, 0.031, 0.62])
    back = untransform(transform(values, cons), cons)
    np.testing.assert_allclose(back, values, rtol=1e-12)


def test_transform_boundary_nudges_warn():
    with pytest.warns(UserWarning):
        z = transform(np.array([0.0]), [POSITIVE])
    assert math.exp(z[0]) == pytest.approx(1e-8)
    with pytest.warns(UserWarning):
        transform(np.array([0.0]), [UNIT_INTERVAL])
    with pytest.warns(UserWarning):
        z = transform(np.array([1.0]), [UNIT_INTERVAL])
    assert 1.0 / (1.0 + math.exp(-z[0])) == pytest.approx(1.0 - 1e-8)


def test_transform_rejects_out_of_range():
    with pytest.raises(DomainError):
        transform(np.array([-0.1]), [POSITIVE])
    with pytest.raises(DomainError):
        transform(np.array([1.2]), [UNIT_INTERVAL])
    with pytest.raises(DomainError):
        transform(np.array([1.0, 2.0]), [FREE])
    with pytest.raises(DomainError):
        transform(np.array([1.0]), ["half-open"])
    with pytest.raises(DomainError):
        untransform(np.array([1.0]), ["half-open"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3, max_size=3))
def test_untransform_always_feasible(zs):
    out = untransform(np.array(zs), [FREE, POSITIVE, UNIT_INTERVAL])
    assert out[1] > 0.0 and math.isfinite(out[1])
    assert 0.0 < out[2] < 1.0


CLIP_EDGES = [0.0, -0.0, 1.5, -1.5, 5e-324, 699.9, 700.0, -700.0, 700.1, -700.1, 1e308, -1e308,
              math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("z", CLIP_EDGES)
def test_untransform_clips_as_np_clip_does(z):
    # untransform clips a plain float; np.clip on the numpy scalar gives the
    # same bits, signed zeros, infinities and NaN included
    clip = optimize._Z_CLIP
    plain = min(max(float(np.float64(z)), -clip), clip)
    assert np.float64(plain).tobytes() == np.float64(np.clip(np.float64(z), -clip, clip)).tobytes()
    cons = [FREE, POSITIVE, UNIT_INTERVAL]
    v = float(np.clip(np.float64(z), -clip, clip))
    want = np.array([z, math.exp(v), min(1.0 / (1.0 + math.exp(-v)), optimize._UNIT_CEIL)])
    assert untransform(np.full(3, z), cons).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# simplex search


def test_quadratic_maximum():
    # target in generic position: an optimum exactly halfway between two
    # lattice-aligned vertices can stop the spread rule early
    res = nelder_mead(lambda x: -((x[0] - math.pi) ** 2), np.array([0.0]))
    assert res.converged
    assert res.x[0] == pytest.approx(math.pi, abs=1e-3)
    assert res.value == pytest.approx(0.0, abs=1e-6)


def test_anisotropic_quadratic():
    res = nelder_mead(
        lambda x: -((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2),
        np.array([4.0, 4.0]),
    )
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, -0.5], atol=2e-3)


def test_rosenbrock_valley():
    def objective(x):
        return -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    res = nelder_mead(objective, np.array([-1.2, 1.0]),
                      OptimizerConfig(f_tol=1e-10, max_evals=1500))
    assert res.converged
    assert res.evals <= 1500
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_constant_objective_converges_immediately():
    res = nelder_mead(lambda x: 4.2, np.array([1.0, 2.0, 3.0]))
    assert res.converged
    assert res.evals == 4  # the initial simplex only
    assert res.value == 4.2


def test_nan_treated_as_rejection():
    def objective(x):
        if abs(x[0]) > 2.0:
            return math.nan
        return -(x[0] - 1.5) ** 2

    res = nelder_mead(objective, np.array([0.0]))
    assert res.converged
    assert res.x[0] == pytest.approx(1.5, abs=1e-3)


def test_neginf_start_rejected():
    with pytest.raises(DomainError):
        nelder_mead(lambda x: -math.inf, np.array([0.0]))


def test_budget_exhaustion_reported():
    def objective(x):
        return -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    res = nelder_mead(objective, np.array([-1.2, 1.0]),
                      OptimizerConfig(f_tol=0.0, max_evals=25))
    assert not res.converged
    assert res.evals <= 25


def test_budget_must_cover_initial_simplex():
    with pytest.raises(DomainError):
        nelder_mead(lambda x: 0.0, np.zeros(3), OptimizerConfig(max_evals=4))


def test_optimizer_config_validation():
    with pytest.raises(DomainError):
        OptimizerConfig(f_tol=-1e-3)
    with pytest.raises(DomainError):
        OptimizerConfig(simplex_step=0.0)


# ---------------------------------------------------------------------------
# joint fits


def ou_dataset(n=6, seed=0):
    grid = TimeGrid(0.0, np.arange(1.0, n + 1.0), 32)
    return simulate_dataset(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(seed))


def small_config(sampler, lam=0.0):
    return PenaltyConfig(lam, 8, 4, sampler)


def test_fit_ou_runs_and_reports():
    ds = ou_dataset()
    fit = maximize_psml(
        OuModel(), ds, small_config(SamplerSpec("mbb")), (0.05, 0.5, 0.05),
        optimizer=OptimizerConfig(f_tol=1e-4, max_evals=400), seed=1,
    )
    assert fit.theta.shape == (3,)
    assert np.all(fit.theta > 0)
    assert fit.rho is None
    assert math.isfinite(fit.loglik)
    assert fit.objective == fit.loglik  # lambda is zero
    assert fit.evals <= 400
    assert len(fit.diagnostics) == ds.n


def test_fit_deterministic():
    ds = ou_dataset()
    kwargs = dict(
        theta_init=(0.05, 0.5, 0.05),
        optimizer=OptimizerConfig(f_tol=1e-3, max_evals=200),
        seed=3,
    )
    a = maximize_psml(OuModel(), ds, small_config(SamplerSpec("mbb")), **kwargs)
    b = maximize_psml(OuModel(), ds, small_config(SamplerSpec("mbb")), **kwargs)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.objective == b.objective
    assert a.evals == b.evals


def test_fit_estimates_rho_inside_unit_interval():
    ds = ou_dataset(n=4)
    fit = maximize_psml(
        OuModel(), ds, small_config(SamplerSpec("aux-mbb", 0.8), lam=0.3),
        (0.05, 0.5, 0.05),
        optimizer=OptimizerConfig(f_tol=1e-3, max_evals=250), seed=2,
    )
    assert 0.0 < fit.rho < 1.0
    assert fit.objective == pytest.approx(
        fit.loglik - 0.3 * sum(d.cv for d in fit.diagnostics), rel=1e-12
    )


def test_fit_from_rho_one_starts_inside_without_warning():
    # rho_init = 1 is clamped 1e-8 inside the interval before the logit
    ds = ou_dataset(n=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = maximize_psml(
            OuModel(), ds, small_config(SamplerSpec("aux-mbb", 0.8)), (0.05, 0.5, 0.05),
            rho_init=1.0, optimizer=OptimizerConfig(f_tol=1e-3, max_evals=60), seed=2,
        )
    assert type(fit.rho) is float
    assert 0.0 < fit.rho < 1.0


def test_fit_keeps_rho_frozen_when_disabled():
    ds = ou_dataset(n=4)
    fit = maximize_psml(
        OuModel(), ds, small_config(SamplerSpec("aux-mbb", 0.5)), (0.05, 0.5, 0.05),
        rho_init=0.9, optimizer=OptimizerConfig(f_tol=1e-3, max_evals=200),
        seed=2, estimate_rho=False,
    )
    assert fit.rho == 0.9


def test_fit_rejects_rho_estimation_without_rho():
    ds = ou_dataset(n=4)
    with pytest.raises(DomainError):
        maximize_psml(OuModel(), ds, small_config(SamplerSpec("mbb")),
                      (0.05, 0.5, 0.05), seed=0, estimate_rho=True)


def test_fit_unusable_start_raises_estimation_error():
    ds = ou_dataset(n=3)
    hopeless = np.array(ds.values)
    hopeless[0, 0] = 1e6
    from psml.core import Dataset

    bad = Dataset(ds.t0, ds.x0, ds.times, hopeless, ds.observed, ds.names)
    with pytest.raises(EstimationError):
        maximize_psml(OuModel(), bad, small_config(SamplerSpec("mbb")),
                      (0.05, 0.5, 0.05), seed=0)


# Capped fits recorded when maximize_psml still evaluated its best point a
# second time: theta, rho, objective and loglik as float.hex, then evals
# and the fsums of log_phat, cv and ess over the diagnostics. The
# cwd-direct cv sum was re-recorded, one ulp, when the target density's
# LU solve became a forward substitution.
FIT_CASES = {  # theta0, start, episodes (x0, n, dt), J, M, sampler, rho
    "ou": ((0.0187, 0.2610, 0.0224), (0.05, 0.5, 0.05), [((1.0,), 12, 1.0)], 8, 6,
           "aux-mbb", 0.8),
    "lorenz63": ((10.0, 28.0, 8.0 / 3.0, 2.0), (10.0, 28.0, 8.0 / 3.0, 2.0),
                 [((-10.0, -10.0, 30.0), 6, 0.05)], 12, 6, "regularized", 0.5),
    "cwd-direct": ((0.03, 0.20), (0.05, 0.3), [((36.0, 4.0, 0.0), 4, 1.0), ((46.0, 4.0, 0.0), 3, 1.0)],
                   16, 6, "aux-mbb", 0.8),
}
PINNED_FITS = {
    "ou": (("0x1.b5bfffffffffep-4", "0x1.cf15a319f19e2p-2", "0x1.a85026a00bfe0p-5"),
           "0x1.a374e2cfdb652p-1", "0x1.490ac8f705b94p+4", "0x1.75d8a746d086bp+4", 16,
           (23.365393902415615, 5.60052168214468, 79.30066438127017)),
    "lorenz63": (("0x1.4000000000001p+3", "0x1.bffffffffffffp+4", "0x1.5555555555555p+1",
                  "0x1.1aec7b35a00d3p+1"),
                 "0x1.0000000000000p-1", "-0x1.c1d49814c1771p+3", "-0x1.47b8414751244p+3", 16,
                 (-10.241242064753472, 7.631918718810244, 31.3932286009659)),
    "cwd-direct": (("0x1.10896c003e0d1p-5", "0x1.040a08161489ep-2"),
                   "0x1.b647ca4365c04p-1", "-0x1.0fb48adc9b01fp+4", "-0x1.ae209d8ded886p+3", 16,
                   (-13.441481377795082, 7.080192727160209, 63.99086450138035)),
}


def counted_problems(monkeypatch) -> list:
    """The theta of every problem that optimize passes to _likelihoods,
    one per objective evaluation, in order."""
    calls = []
    likelihoods = optimize._likelihoods

    def counted(model, problems, *args):
        calls.extend(theta for _, theta, _ in problems)
        return likelihoods(model, problems, *args)

    monkeypatch.setattr(optimize, "_likelihoods", counted)
    return calls


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_reuses_its_best_evaluation(name, monkeypatch):
    theta0, start, episodes, n_paths, substeps, kind, rho = FIT_CASES[name]
    model = make_model(name)
    data = [
        simulate_dataset(model, np.array(theta0), np.array(x0),
                         TimeGrid(0.0, dt * np.arange(1, n + 1), 8), rng_stream(505, e))
        for e, (x0, n, dt) in enumerate(episodes)
    ]
    cfg = PenaltyConfig(0.5, n_paths, substeps, SamplerSpec(kind, rho))
    calls = counted_problems(monkeypatch)
    fit = maximize_psml(model, data, cfg, np.array(start), rho, OptimizerConfig(max_evals=16),
                        seed=21)
    assert len(calls) == fit.evals
    theta, rho_hat, objective, loglik, evals, sums = PINNED_FITS[name]
    assert [float(v).hex() for v in fit.theta] == list(theta)
    assert (fit.rho.hex(), fit.objective.hex(), fit.loglik.hex(), fit.evals) == (
        rho_hat, objective, loglik, evals)
    assert (math.fsum(d.log_phat for d in fit.diagnostics), math.fsum(d.cv for d in fit.diagnostics),
            math.fsum(d.ess for d in fit.diagnostics)) == sums
    # the kept evaluation is the one a fresh run at the estimate gives
    value, lik = penalized_log_likelihood(model, fit.theta, fit.rho, data, cfg, 21,
                                          on_failure="neginf")
    assert (value, lik.loglik) == (fit.objective, fit.loglik)
    assert lik.diagnostics == fit.diagnostics


def test_fit_reruns_an_estimate_it_did_not_keep(monkeypatch):
    # Should the simplex end on a point other than the best one evaluated
    # (the simplex breaks ties the same way, so this is a stand-in), the
    # fit evaluates that point once more rather than report another's
    # diagnostics.
    ds = ou_dataset(n=3)
    cfg = small_config(SamplerSpec("mbb"))
    search = optimize._simplex

    def second_vertex(x0, config):
        res = yield from search(x0, config)
        x = np.array(x0)
        x[1] += config.simplex_step
        return optimize.OptResult(x, res.value, res.evals, res.converged)

    monkeypatch.setattr(optimize, "_simplex", second_vertex)
    calls = counted_problems(monkeypatch)
    fit = maximize_psml(OuModel(), ds, cfg, (0.05, 0.5, 0.05),
                        optimizer=OptimizerConfig(max_evals=12), seed=0)
    assert len(calls) == fit.evals + 1
    np.testing.assert_array_equal(calls[-1], fit.theta)
    value, lik = penalized_log_likelihood(OuModel(), fit.theta, None, ds, cfg, 0)
    assert (fit.objective, fit.diagnostics) == (value, lik.diagnostics)


@pytest.mark.parametrize("max_evals", [0, 1, 4])
def test_fit_budget_below_dim_plus_two_is_a_domain_error(max_evals, monkeypatch):
    calls = counted_problems(monkeypatch)
    with pytest.raises(DomainError, match="evaluation budget must be at least dim \\+ 2"):
        maximize_psml(OuModel(), ou_dataset(n=3), small_config(SamplerSpec("mbb")),
                      (0.05, 0.5, 0.05), optimizer=OptimizerConfig(max_evals=max_evals), seed=0)
    assert calls == []
    # dim + 2 is enough; with rho estimated dim grows by one
    fit = maximize_psml(OuModel(), ou_dataset(n=3), small_config(SamplerSpec("mbb")),
                        (0.05, 0.5, 0.05), optimizer=OptimizerConfig(max_evals=5), seed=0)
    assert len(calls) == fit.evals > 0  # the seam sees every evaluation
    with pytest.raises(DomainError):
        maximize_psml(OuModel(), ou_dataset(n=3), small_config(SamplerSpec("aux-mbb", 0.8)),
                      (0.05, 0.5, 0.05), optimizer=OptimizerConfig(max_evals=5), seed=0)


# ---------------------------------------------------------------------------
# lockstep fits


def rosenbrock(x):
    return -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def rugged(x):
    # ripples on a bowl make contractions fail, so the simplex shrinks
    return -float(np.sum(x ** 2)) + math.sin(97.0 * x[0]) * math.cos(89.0 * x[-1])


@pytest.mark.parametrize("objective, x0", [
    (rosenbrock, (-1.2, 1.0)),
    (rugged, (2.0, -1.0, 0.5)),
    (lambda x: math.nan if x[0] > 0.35 else -(x[0] - 0.3) ** 2 - x[1] ** 2, (0.0, 0.2)),
], ids=["rosenbrock", "rugged", "nan-wall"])
@pytest.mark.parametrize("max_evals", [5, 9, 17, 40, 1500])
def test_simplex_answered_in_batches_equals_nelder_mead(objective, x0, max_evals):
    x0 = np.array(x0)
    config = OptimizerConfig(f_tol=1e-9, max_evals=max_evals)
    asked = []

    def recorded(x):
        asked.append(np.array(x))
        return objective(x)

    ref = nelder_mead(recorded, x0, config)
    # drive the generator with one answer per request, as a group round does
    search = optimize._simplex(x0, config)
    batches = [next(search)]
    while True:
        try:
            batches.append(search.send([objective(x) for x in batches[-1]]))
        except StopIteration as done:
            res = done.value
            break
    points = [x for batch in batches for x in batch]
    assert len(points) == len(asked) == res.evals == ref.evals <= max_evals
    assert all(a.tobytes() == b.tobytes() for a, b in zip(points, asked))
    assert (res.x.tobytes(), res.value, res.converged) == (ref.x.tobytes(), ref.value, ref.converged)
    assert {len(b) for b in batches[1:]} <= {1, x0.size}
    if objective is rugged and max_evals == 1500:
        assert any(len(b) == x0.size for b in batches[1:]), "the ripples should force a shrink"


def fit_summary(fit):
    return ([float(v).hex() for v in fit.theta], fit.rho, fit.objective.hex(), fit.loglik.hex(),
            fit.evals, fit.converged, math.fsum(d.log_phat for d in fit.diagnostics),
            math.fsum(d.cv for d in fit.diagnostics), math.fsum(d.ess for d in fit.diagnostics),
            fit.diagnostics)


def replicate_fits(name, count):
    """count fits of one FIT_CASES model, with 1, 2, ... datasets in turn."""
    theta0, start, episodes, n_paths, substeps, kind, rho = FIT_CASES[name]
    model = make_model(name)
    fits = []
    for r in range(count):
        chosen = episodes * 2 if r % 2 else episodes[:1]
        data = [
            simulate_dataset(model, np.array(theta0), np.array(x0),
                             TimeGrid(0.0, dt * np.arange(1, n + 1), 8), rng_stream(707, r, e))
            for e, (x0, n, dt) in enumerate(chosen)
        ]
        fits.append((data, np.array(start) * (1.0 + 0.05 * r), rho, 40 + r))
    return model, PenaltyConfig(0.5, n_paths, substeps, SamplerSpec(kind, rho)), fits


@pytest.mark.parametrize("count", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_group_fits_equal_solo_fits(name, count):
    model, cfg, fits = replicate_fits(name, count)
    optimizer = OptimizerConfig(max_evals=24)
    one_at_a_time = [
        fit_summary(maximize_one_at_a_time(model, data, cfg, theta, rho, optimizer, seed))
        for data, theta, rho, seed in fits
    ]
    solo = [maximize_psml(model, data, cfg, theta, rho, optimizer, seed=seed)
            for data, theta, rho, seed in fits]
    group = optimize._maximize_group(model, fits, cfg, optimizer)
    assert [fit_summary(f) for f in solo] == one_at_a_time
    assert [fit_summary(f) for f in group] == one_at_a_time


def test_a_fixed_rho_that_its_family_refuses_is_the_cause_of_its_fit_error():
    # The group refuses the fixed rho once, where the fit enters; its
    # EstimationError names that reason, not only the simplex's "not
    # finite" that follows from it, and the other fit is its solo fit.
    model, cfg, fits = replicate_fits("ou", 2)
    optimizer = OptimizerConfig(max_evals=20)
    data, theta, _, seed = fits[0]
    fits[0] = (data, theta, 0.0, seed)
    group = optimize._maximize_group(model, fits, cfg, optimizer, estimate_rho=False)
    reason = "aux-mbb requires rho in (0, 1]"
    assert isinstance(group[0], EstimationError) and reason in str(group[0])
    assert isinstance(group[0].__cause__, DomainError) and str(group[0].__cause__) == reason
    with pytest.raises(EstimationError, match=r"aux-mbb requires rho in \(0, 1\]"):
        maximize_psml(model, data, cfg, theta, 0.0, optimizer, seed=seed, estimate_rho=False)
    data, theta, rho, seed = fits[1]
    solo = maximize_psml(model, data, cfg, theta, rho, optimizer, seed=seed, estimate_rho=False)
    assert fit_summary(group[1]) == fit_summary(solo)


def test_group_fit_with_an_unusable_start_fails_alone():
    model, cfg, fits = replicate_fits("ou", 3)
    data, theta, rho, seed = fits[1]
    hopeless = np.array(data[0].values)
    hopeless[0, 0] = 1e6
    fits[1] = ([Dataset(data[0].t0, data[0].x0, data[0].times, hopeless, (0,))], theta, rho, seed)
    optimizer = OptimizerConfig(max_evals=20)
    group = optimize._maximize_group(model, fits, cfg, optimizer)
    assert isinstance(group[1], EstimationError)
    assert "not usable at the initial point" in str(group[1])
    for maximize in (maximize_psml, maximize_one_at_a_time):
        with pytest.raises(EstimationError, match="not usable at the initial point"):
            maximize(model, fits[1][0], cfg, theta, rho, optimizer, seed)
    for i in (0, 2):
        data, theta, rho, seed = fits[i]
        one_at_a_time = fit_summary(
            maximize_one_at_a_time(model, data, cfg, theta, rho, optimizer, seed))
        solo = maximize_psml(model, data, cfg, theta, rho, optimizer, seed=seed)
        assert fit_summary(solo) == one_at_a_time
        assert fit_summary(group[i]) == one_at_a_time
