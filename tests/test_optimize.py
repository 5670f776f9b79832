"""Simplex maximizer, parameter transforms, and the joint fit driver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psml.core import FREE, POSITIVE, UNIT_INTERVAL, DomainError, TimeGrid, rng_stream, simulate_dataset
from psml.likelihood import PenaltyConfig
from psml.models import OuModel
from psml.optimize import (
    EstimationError,
    OptimizerConfig,
    maximize_psml,
    nelder_mead,
    transform,
    untransform,
)
from psml.samplers import SamplerSpec

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
