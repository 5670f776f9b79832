"""Model definitions: OU exact law, Lorenz drift, CWD event-rate covariance."""

import math

import numpy as np
import pytest

from psml.core import DomainError, matrix_sqrt, validate_model
from psml.models import (
    CwdDirectModel,
    Lorenz63Model,
    MODEL_NAMES,
    OuModel,
    StepFunction,
    cwd_sigma,
    make_model,
    ou_exact_mle,
    ou_exact_moments,
    ou_exact_transition_logpdf,
    r0_estimate,
)
from reference import euler_transition

OU_THETA = np.array([0.0187, 0.2610, 0.0224])
# How CwdDirectModel and StepFunction refuse a negative or non-finite setting.
NEGATIVE = "natural_mortality and additions must be finite and >= 0, got "
NOT_FINITE = "breakpoints must be finite and strictly increasing, values finite"


def make_ou_dataset(n=200, seed=0, dt=1.0):
    from psml.core import rng_stream, simulate_dataset, TimeGrid

    grid = TimeGrid(0.0, dt * np.arange(1, n + 1), substeps=64)
    return simulate_dataset(OuModel(), OU_THETA, np.array([1.0]), grid,
                            rng_stream(seed, 10, 0, 0))


# ---------------------------------------------------------------------------
# OU exact law


def test_ou_moments_stationary_limit():
    theta = np.array([0.0, 1.0, math.sqrt(2.0)])
    mean, var = ou_exact_moments(5.0, theta, 200.0)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(1.0, rel=1e-12)  # th3^2 / (2 th2)


def test_ou_moments_match_euler_for_small_dt():
    dt = 1e-6
    mean, var = ou_exact_moments(1.0, OU_THETA, dt)
    spec = euler_transition(OuModel(), np.array([1.0]), OU_THETA, 0.0, dt)
    assert mean == pytest.approx(spec.mean[0], abs=1e-10)
    assert var == pytest.approx(spec.cov[0, 0], rel=1e-5)


def gauss_kl(m1, v1, m2, v2):
    return 0.5 * (math.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1.0)


def test_ou_euler_kl_shrinks_with_step():
    # One Euler step over dt vs the exact law: the gap closes as dt drops
    kls = []
    for dt in (1.0, 0.5, 0.25, 0.125):
        mean, var = ou_exact_moments(1.0, OU_THETA, dt)
        spec = euler_transition(OuModel(), np.array([1.0]), OU_THETA, 0.0, dt)
        kls.append(gauss_kl(mean, var, spec.mean[0], spec.cov[0, 0]))
    assert all(a > b for a, b in zip(kls, kls[1:]))
    assert kls[0] / kls[-1] > 50.0


def ar1_mle(ds):
    """Closed-form OU MLE via the conditional AR(1) regression (unit spacing)."""
    x = np.concatenate(([ds.x0[0]], ds.values[:, 0]))
    prev, curr = x[:-1], x[1:]
    n = prev.size
    phi = np.cov(prev, curr, ddof=0)[0, 1] / np.var(prev)
    c = curr.mean() - phi * prev.mean()
    resid = curr - c - phi * prev
    s2 = float(resid @ resid) / n
    th2 = -math.log(phi)
    th1 = th2 * c / (1.0 - phi)
    th3 = math.sqrt(2.0 * th2 * s2 / (1.0 - phi**2))
    return np.array([th1, th2, th3])


def test_ou_exact_mle_matches_ar1_closed_form():
    ds = make_ou_dataset(n=200, seed=3)
    theta_hat, res = ou_exact_mle(ds)
    assert res.converged
    np.testing.assert_allclose(theta_hat, ar1_mle(ds), rtol=5e-3)


def test_ou_exact_mle_of_one_episode_list_equals_the_dataset_alone():
    ds = make_ou_dataset(n=40, seed=5)
    alone, res_alone = ou_exact_mle(ds)
    listed, res_listed = ou_exact_mle([ds])
    assert alone.tobytes() == listed.tobytes()
    assert (res_alone.value, res_alone.evals) == (res_listed.value, res_listed.evals)
    with pytest.raises(DomainError):
        ou_exact_mle([])


def test_ou_exact_mle_mean_level_tracks_data():
    rng = np.random.default_rng(8)
    from psml.core import Dataset

    values = (0.5 + 1e-3 * rng.standard_normal(120)).reshape(-1, 1)
    ds = Dataset(0.0, np.array([0.5]), np.arange(1.0, 121.0), values, observed=(0,))
    theta_hat, _ = ou_exact_mle(ds)
    assert theta_hat[0] / theta_hat[1] == pytest.approx(0.5, abs=0.05)


def test_ou_exact_logpdf_broadcasts():
    out = ou_exact_transition_logpdf(np.array([0.9, 1.1]), np.array([1.0, 1.0]), OU_THETA, 1.0)
    assert out.shape == (2,)
    single = ou_exact_transition_logpdf(0.9, 1.0, OU_THETA, 1.0)
    assert out[0] == pytest.approx(float(single), rel=1e-14)


# ---------------------------------------------------------------------------
# Lorenz


def test_lorenz_fixed_point_drift_vanishes():
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    c = math.sqrt(8.0 / 3.0 * 27.0)
    f = Lorenz63Model().drift(np.array([c, c, 27.0]), theta, 0.0)
    np.testing.assert_allclose(f, np.zeros(3), atol=1e-12)


def test_lorenz_diffusion_isotropic():
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    outer = Lorenz63Model().diffusion_outer(np.zeros(3), theta, 0.0)
    np.testing.assert_allclose(outer, 4.0 * np.eye(3), atol=1e-14)


# ---------------------------------------------------------------------------
# step functions


def test_step_function_lookup():
    f = StepFunction(np.array([0.0, 2.0, 5.0]), np.array([1.0, 10.0, 3.0]))
    assert f(-1.0) == 1.0  # before the first breakpoint: first value
    assert f(0.0) == 1.0
    assert f(1.99) == 1.0
    assert f(2.0) == 10.0
    assert f(4.5) == 10.0
    assert f(100.0) == 3.0


def test_step_function_before_its_first_breakpoint_takes_the_first_value():
    # For one breakpoint and for several, and shaped like t.
    one = StepFunction(np.array([2.0]), np.array([5.0]))
    several = StepFunction(np.array([2.0, 4.0]), np.array([5.0, 7.0]))
    t = np.array([[0.0], [1.99], [2.0], [9.0]])
    np.testing.assert_array_equal(one(t), np.full((4, 1), 5.0))
    np.testing.assert_array_equal(several(t), [[5.0], [5.0], [5.0], [7.0]])
    assert one(-3.0) == several(-3.0) == 5.0


def test_step_function_constant():
    f = StepFunction.constant(7.5)
    assert f(0.0) == 7.5 and f(123.4) == 7.5


def test_step_function_rejects_unsorted():
    with pytest.raises(DomainError):
        StepFunction(np.array([1.0, 1.0]), np.array([2.0, 3.0]))


@pytest.mark.parametrize("times, values", [
    ([0.0, math.nan], [1.0, 2.0]),
    ([0.0, math.inf], [1.0, 2.0]),
    ([0.0, 1.0], [1.0, -math.inf]),
])
def test_step_function_rejects_non_finite_breakpoints_and_values(times, values):
    # A NaN breakpoint passed the ordering check, since NaN <= 0 is false.
    with pytest.raises(DomainError, match=NOT_FINITE):
        StepFunction(np.array(times), np.array(values))


# ---------------------------------------------------------------------------
# CWD covariance


def test_cwd_sigma_frozen_values():
    sigma = cwd_sigma(50.0, 5.0, beta=0.03, mu=0.2, a=10.0, m=0.15)
    expected = np.array(
        [
            [25.0, -7.5, 0.0],
            [-7.5, 9.25, -1.0],
            [0.0, -1.0, 1.0],
        ]
    )
    np.testing.assert_allclose(sigma, expected, atol=1e-12)


def test_cwd_sigma_no_infection_limit():
    sigma = cwd_sigma(50.0, 0.0, beta=0.03, mu=0.2, a=10.0, m=0.15)
    np.testing.assert_allclose(sigma, np.diag([17.5, 0.0, 0.0]), atol=1e-14)


def test_cwd_sigma_row_identity():
    # Row 2 sums to the natural-mortality outflow: S-edge + (C)-edge cancel
    # everything except m I
    rng = np.random.default_rng(4)
    for _ in range(50):
        s, i = rng.uniform(0, 80, size=2)
        beta, mu = rng.uniform(0.01, 0.2), rng.uniform(0.05, 0.6)
        sigma = cwd_sigma(s, i, beta, mu, a=10.0, m=0.15)
        assert sigma[1, 0] + sigma[1, 1] + sigma[1, 2] == pytest.approx(0.15 * i, rel=1e-10)


def test_cwd_sigma_psd_grid():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s, i = rng.uniform(0, 100, size=2)
        beta, mu = rng.uniform(0.0, 0.3), rng.uniform(0.0, 1.0)
        sigma = cwd_sigma(s, i, beta, mu, a=rng.uniform(0, 20), m=rng.uniform(0, 0.5))
        eig = np.linalg.eigvalsh(sigma)
        assert eig.min() >= -1e-10 * max(1.0, eig.max())


def test_cwd_sigma_rejects_negative_counts():
    with pytest.raises(DomainError):
        cwd_sigma(-1.0, 5.0, 0.03, 0.2, 10.0, 0.15)


def test_cwd_sigma_batched():
    s = np.array([50.0, 20.0])
    i = np.array([5.0, 2.0])
    sigma = cwd_sigma(s, i, 0.03, 0.2, 10.0, 0.15)
    assert sigma.shape == (2, 3, 3)
    np.testing.assert_allclose(sigma[0], cwd_sigma(50.0, 5.0, 0.03, 0.2, 10.0, 0.15))


def test_cwd_model_diffusion_is_sigma_sqrt():
    model = CwdDirectModel()
    theta = np.array([0.03, 0.2])
    x = np.array([50.0, 5.0, 1.0])
    b = model.diffusion(x, theta, 0.0)
    np.testing.assert_allclose(b @ b.T, model.diffusion_outer(x, theta, 0.0), atol=1e-10)
    np.testing.assert_allclose(b, b.T, atol=1e-12)


def test_cwd_transition_covariance_from_rates():
    # euler_transition covariance must equal the rate matrix times the step
    model = CwdDirectModel()
    theta = np.array([0.03, 0.2])
    x = np.array([50.0, 5.0, 0.0])
    spec = euler_transition(model, x, theta, 0.0, 0.25)
    np.testing.assert_allclose(
        spec.cov, 0.25 * cwd_sigma(50.0, 5.0, 0.03, 0.2, 10.0, 0.15), atol=1e-10
    )


def test_cwd_sigma_sqrt_round_trip():
    sigma = cwd_sigma(50.0, 5.0, 0.03, 0.2, 10.0, 0.15)
    b = matrix_sqrt(sigma)
    assert np.linalg.norm(b @ b - sigma) <= 1e-10 * (1 + np.linalg.norm(sigma))


# ---------------------------------------------------------------------------
# reproduction number


def test_r0_point_value():
    est = r0_estimate(0.03, 0.21, 0.15, n0=100.0)
    assert est.point == pytest.approx(100.0 * 0.03 / 0.36, rel=1e-12)
    assert est.lower is None and est.upper is None


def test_r0_zero_transmission():
    assert r0_estimate(0.0, 0.21, 0.15, n0=100.0).point == 0.0


def test_r0_interval_is_transform_quantile():
    rng = np.random.default_rng(2)
    draws = np.column_stack([rng.uniform(0.01, 0.05, 300), rng.uniform(0.1, 0.3, 300)])
    est = r0_estimate(0.03, 0.2, 0.15, n0=50.0, draws=draws, alpha=0.1)
    transformed = draws[:, 0] * 50.0 / (draws[:, 1] + 0.15)
    lo, hi = np.quantile(transformed, [0.05, 0.95])
    assert est.lower == pytest.approx(lo, rel=1e-12)
    assert est.upper == pytest.approx(hi, rel=1e-12)
    assert est.lower <= est.point <= est.upper


def test_r0_rejects_bad_rates():
    with pytest.raises(DomainError):
        r0_estimate(0.03, 0.0, 0.0, n0=10.0)
    with pytest.raises(DomainError):
        r0_estimate(0.03, 0.2, 0.15, n0=0.0)


# ---------------------------------------------------------------------------
# registry


def test_make_model_names():
    for name in MODEL_NAMES:
        model = make_model(name)
        validate_model(model)
        assert model.dim >= 1
    for name in ("heston", ["ou"], None):
        with pytest.raises(DomainError, match="unknown model"):
            make_model(name)
    with pytest.raises(DomainError):
        make_model("ou", bogus=1)


def test_make_model_cwd_kwargs():
    model = make_model("cwd-direct", additions=5.0, natural_mortality=0.1)
    assert model.natural_mortality == 0.1
    assert model.additions(0.0) == 5.0
    stepped = make_model(
        "cwd-direct", additions={"times": [0.0, 3.0], "values": [5.0, 8.0]}
    )
    assert stepped.additions(4.0) == 8.0
    # make_model only looks the name up: the constructor reads the settings
    assert CwdDirectModel(additions={"times": [0, 3], "values": [5, 8]}).additions(4.0) == 8.0
    assert type(CwdDirectModel(natural_mortality=1).natural_mortality) is float
    with pytest.raises(DomainError, match=r"unknown model arguments \['bogus'\]"):
        make_model("cwd-direct", additions=5.0, bogus=1)


@pytest.mark.parametrize("settings, message", [
    ({"natural_mortality": True}, "natural_mortality must be a number, got True"),
    ({"natural_mortality": "0.15"}, "natural_mortality must be a number, got '0.15'"),
    ({"natural_mortality": -1.0}, NEGATIVE + r"-1.0 and \[10.0\]"),
    ({"natural_mortality": math.nan}, NEGATIVE + "nan"),
    ({"natural_mortality": math.inf}, NEGATIVE + "inf"),
    ({"additions": "10"}, "additions must be a number, got '10'"),
    ({"additions": None}, "additions must be a number, got None"),
    ({"additions": -1.0}, NEGATIVE + r"0.15 and \[-1.0\]"),
    ({"additions": math.nan}, NOT_FINITE),
    ({"additions": {"times": [0.0, math.nan], "values": [5.0, 8.0]}}, NOT_FINITE),
    ({"additions": {"times": [0.0, 3.0], "values": [5.0, -8.0]}}, NEGATIVE + r"0.15 and \[5.0, -8.0\]"),
    ({"additions": {"times": [0.0, "3"], "values": [5.0, 8.0]}},
     "additions times must be a number, got '3'"),
    ({"additions": {"times": [0.0], "values": [True]}}, "additions values must be a number, got True"),
    ({"additions": {"times": [0.0]}}, "additions record missing key 'values'"),
    ({"additions": {"times": 0.0, "values": 5.0}}, "additions record is malformed"),
])
def test_cwd_settings_that_are_not_numbers_or_are_negative_are_refused(settings, message):
    # Each was taken by float() or passed as given: true as 1, "10" as 10,
    # a negative rate or a NaN breakpoint as a model that runs. A negative
    # one can make the S variance a + S (beta I + m) of cwd_sigma negative.
    with pytest.raises(DomainError, match=message):
        make_model("cwd-direct", **settings)
    with pytest.raises(DomainError, match=message):
        CwdDirectModel(**settings)
