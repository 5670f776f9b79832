"""State-space core: stepping, densities, square roots, simulation, files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psml.core import (
    Dataset,
    DomainError,
    GaussianSpec,
    NumericalError,
    SdeModel,
    TimeGrid,
    chol_mul,
    chol_spd,
    dataset_from_dict,
    dataset_to_dict,
    derive_seed,
    euler_step,
    euler_transition,
    gauss_logpdf,
    load_dataset,
    matrix_sqrt,
    mvn_logpdf,
    rng_stream,
    save_dataset,
    simulate_dataset,
    simulate_path,
    simulate_paths_batch,
)
from psml.models import CwdDirectModel, Lorenz63Model, OuModel

OU_THETA = np.array([0.0187, 0.2610, 0.0224])


class StillModel(SdeModel):
    """No drift, no noise; anything simulated stays put."""

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


class BrokenDriftModel(StillModel):
    def drift(self, x, theta, t):
        out = np.zeros_like(x)
        out[..., 1] = np.nan
        return out


class SkewNoiseModel(SdeModel):
    """Linear drift with a constant, non-diagonal diffusion factor."""

    dim = 2
    state_names = ("a", "b")
    observed = (0, 1)
    param_names = ("k", "s")
    param_constraints = ("positive", "positive")
    constant_diffusion = True

    def drift(self, x, theta, t):
        return -theta[0] * x + np.array([0.3, -0.1])

    def diffusion(self, x, theta, t):
        return theta[1] * np.array([[1.0, 0.0], [0.7, 0.6]])


class BrokenNoiseModel(StillModel):
    """Finite drift, NaN diffusion; constant or state-dependent."""

    def __init__(self, constant):
        self.constant_diffusion = constant

    def diffusion(self, x, theta, t):
        return np.full(x.shape + (2,), np.nan)


class BrokenModel(BrokenNoiseModel):
    """Both the drift and the diffusion are non-finite."""

    def drift(self, x, theta, t):
        return BrokenDriftModel.drift(self, x, theta, t)


def random_spd(rng, k):
    a = rng.standard_normal((k, k))
    return a @ a.T + 0.5 * np.eye(k)


# ---------------------------------------------------------------------------
# euler stepping


def test_euler_step_identity_without_dynamics():
    x = np.array([1.3, -2.0])
    out = euler_step(StillModel(), x, np.array([]), 0.0, 0.5, np.zeros(2))
    np.testing.assert_array_equal(out, x)


def test_euler_step_ou_arithmetic():
    # 1 + (0.0187 - 0.2610 * 1) * 0.125
    out = euler_step(OuModel(), np.array([1.0]), OU_THETA, 0.0, 0.125, np.zeros(1))
    assert out[0] == pytest.approx(0.9697125, abs=1e-15)


def test_euler_step_lorenz_drift_only():
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    x = np.array([-10.0, -10.0, 30.0])
    # f = (10(x2-x1), 28 x1 - x2 - x1 x3, x1 x2 - (8/3) x3) = (0, 30, 20)
    out = euler_step(Lorenz63Model(), x, theta, 0.0, 0.05, np.zeros(3))
    np.testing.assert_allclose(out, [-10.0, -8.5, 31.0], atol=1e-12)


def test_euler_step_uses_noise_scale():
    out = euler_step(OuModel(), np.array([1.0]), OU_THETA, 0.0, 0.25, np.array([2.0]))
    expected = 1.0 + (0.0187 - 0.2610) * 0.25 + 0.0224 * math.sqrt(0.25) * 2.0
    assert out[0] == pytest.approx(expected, rel=1e-14)


def test_euler_step_nonfinite_drift_names_coordinate():
    with pytest.raises(DomainError, match="b"):
        euler_step(BrokenDriftModel(), np.array([0.0, 0.0]), np.array([]), 0.0, 0.1, np.zeros(2))


def test_euler_step_clamps_nonnegative_coordinates():
    model = CwdDirectModel()
    x = np.array([0.02, 0.01, 0.0])
    out = euler_step(model, x, np.array([0.03, 0.2]), 0.0, 1.0, np.array([-50.0, -50.0, -50.0]))
    assert np.all(out >= 0.0)


def test_euler_transition_identity_covariance():
    spec = euler_transition(StillModel(), np.array([0.0, 0.0]), np.array([]), 0.0, 1.0)
    np.testing.assert_array_equal(spec.cov, np.zeros((2, 2)))
    spec = euler_transition(OuModel(), np.array([1.0]), OU_THETA, 0.0, 2.0)
    assert spec.cov[0, 0] == pytest.approx(0.0224 ** 2 * 2.0, rel=1e-14)
    assert spec.mean[0] == pytest.approx(1.0 + (0.0187 - 0.2610) * 2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# gaussian machinery


def test_mvn_logpdf_standard_normal():
    spec = GaussianSpec(np.zeros(1), np.eye(1))
    assert mvn_logpdf(np.zeros(1), spec) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)


def test_mvn_logpdf_at_mean():
    rng = np.random.default_rng(1)
    cov = random_spd(rng, 3)
    mean = rng.standard_normal(3)
    spec = GaussianSpec(mean, cov)
    expected = -0.5 * (3 * math.log(2 * math.pi) + np.linalg.slogdet(cov)[1])
    assert mvn_logpdf(mean, spec) == pytest.approx(expected, rel=1e-12)


def test_mvn_logpdf_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cov = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        x = rng.standard_normal(3)
        diff = x - mean
        expected = -0.5 * (
            3 * math.log(2 * math.pi)
            + np.linalg.slogdet(cov)[1]
            + diff @ np.linalg.inv(cov) @ diff
        )
        assert mvn_logpdf(x, GaussianSpec(mean, cov)) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mvn_chain_rule(seed):
    # log N(x; mu, cov) = log marginal(x_a) + log conditional(x_b | x_a)
    rng = np.random.default_rng(seed)
    cov = random_spd(rng, 3)
    mean = rng.standard_normal(3)
    x = rng.standard_normal(3)
    spec = GaussianSpec(mean, cov)
    idx = (0, 2)
    rest = (1,)
    joint = mvn_logpdf(x, spec)
    marg = mvn_logpdf(x[list(idx)], spec.marginal(idx))
    cond = mvn_logpdf(x[list(rest)], spec.conditional(idx, x[list(idx)]))
    assert joint == pytest.approx(marg + cond, abs=1e-9)


def test_conditional_two_dim_frozen():
    # cov [[2,1],[1,1]]: x1 | x0=v is N(mu1 + 0.5 (v - mu0), 0.5)
    spec = GaussianSpec(np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 1.0]]))
    cond = spec.conditional((0,), np.array([3.0]))
    assert cond.mean[0] == pytest.approx(3.0, rel=1e-14)
    assert cond.cov[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_conditional_matches_precision_closed_form():
    # Given x_o, x_r is N(m_r - P_rr^{-1} P_ro (x_o - m_o), P_rr^{-1}), P = cov^{-1}
    rng = np.random.default_rng(11)
    cov = random_spd(rng, 3)
    mean = rng.standard_normal(3)
    spec = GaussianSpec(mean, cov)
    prec = np.linalg.inv(cov)
    for idx, rest in (((0,), [1, 2]), ((2, 0), [1])):
        values = rng.standard_normal(len(idx))
        cond = spec.conditional(idx, values)
        p_rr = prec[np.ix_(rest, rest)]
        p_ro = prec[np.ix_(rest, list(idx))]
        expected_cov = np.linalg.inv(p_rr)
        expected_mean = mean[rest] - expected_cov @ p_ro @ (values - mean[list(idx)])
        np.testing.assert_allclose(cond.mean, expected_mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(cond.cov, expected_cov, rtol=1e-12, atol=1e-12)


def test_conditional_on_a_singular_observed_block():
    # Coordinates 0 and 1 are one variable observed twice: the jitter
    # repairs the rank-deficient block and the law given both equals the
    # law given coordinate 0 alone.
    cov = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
    spec = GaussianSpec(np.array([1.0, 1.0, -1.0]), cov)
    both = spec.conditional((0, 1), np.array([2.0, 2.0]))
    one = spec.conditional((0,), np.array([2.0]))
    np.testing.assert_allclose(both.mean, one.mean[1:], rtol=1e-9)
    np.testing.assert_allclose(both.cov, one.cov[1:, 1:], rtol=1e-9)
    # An observed block that is indefinite beyond the jitter is an error,
    # not a silently bad solve.
    eps = 1e-6
    cov = np.array([[1.0, 1.0 + eps, 0.0], [1.0 + eps, 1.0, 0.0], [0.0, 0.0, 1e6]])
    spec = GaussianSpec(np.zeros(3), cov)
    with pytest.raises(NumericalError):
        spec.conditional((0, 1), np.array([0.5, 0.5]))


def test_chol_spd_repairs_one_transition_of_a_batch():
    rng = np.random.default_rng(5)
    cov = np.stack([np.stack([random_spd(rng, 3) for _ in range(4)]) for _ in range(3)])
    cov[1, 2] = np.ones((3, 3))  # singular: only jitter factors it
    chol = chol_spd(cov)
    for n in (0, 2):
        np.testing.assert_array_equal(chol[n], np.linalg.cholesky(cov[n]))
    np.testing.assert_array_equal(chol[1], chol_spd(cov[1]))


def test_chol_spd_raises_when_a_row_fails_after_jitter():
    cov = np.broadcast_to(np.eye(2), (3, 2, 2, 2)).copy()
    cov[2, 1] = [[1.0, 2.0], [2.0, 1.0]]  # indefinite, beyond any jitter
    with pytest.raises(NumericalError):
        chol_spd(cov)


def test_chol_spd_jitters_a_three_dim_batch_as_a_whole():
    rng = np.random.default_rng(6)
    cov = np.stack([random_spd(rng, 3) for _ in range(4)])
    cov[2] = np.ones((3, 3))
    jitter = 1e-10 * np.trace(cov, axis1=-2, axis2=-1) / 3 + 1e-30
    bumped = cov + jitter[:, None, None] * np.eye(3)
    np.testing.assert_array_equal(chol_spd(cov), np.linalg.cholesky(bumped))
    assert not np.array_equal(chol_spd(cov)[0], np.linalg.cholesky(cov[0]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chol_mul_broadcast_factor_equals_materialized(k):
    rng = np.random.default_rng(8)
    chol = np.linalg.cholesky(np.stack([random_spd(rng, k) for _ in range(5)]))[:, None]
    z = rng.standard_normal((5, 32, k))
    full = np.broadcast_to(chol, (5, 32, k, k)).copy()
    out = chol_mul(chol, z)
    assert out.tobytes() == chol_mul(full, z).tobytes()
    assert out.tobytes() == np.einsum("...ab,...b->...a", chol, z).tobytes()


def test_gaussian_spec_rejects_asymmetry():
    with pytest.raises(DomainError):
        GaussianSpec(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_gaussian_spec_rejects_indefinite():
    with pytest.raises(DomainError):
        GaussianSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_chol_spd_handles_semidefinite():
    chol = chol_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.all(np.isfinite(chol))
    recon = chol @ chol.T
    np.testing.assert_allclose(recon, [[1.0, 1.0], [1.0, 1.0]], atol=1e-4)


def test_gauss_logpdf_scale_matches_scaled_cholesky():
    rng = np.random.default_rng(3)
    cov = random_spd(rng, 3)
    diff = rng.standard_normal((5, 3))
    c = 0.37
    direct = gauss_logpdf(diff, chol_spd(c * cov))
    scaled = gauss_logpdf(diff, chol_spd(cov), scale=c)
    np.testing.assert_allclose(scaled, direct, rtol=1e-10)


# ---------------------------------------------------------------------------
# matrix square root


def test_matrix_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(matrix_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_matrix_sqrt_round_trip_many():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        sigma = random_spd(rng, k)
        b = matrix_sqrt(sigma)
        np.testing.assert_allclose(b, b.T, atol=1e-12)
        err = np.linalg.norm(b @ b - sigma)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(sigma))


def test_matrix_sqrt_rejects_asymmetric():
    with pytest.raises(DomainError):
        matrix_sqrt(np.array([[1.0, 0.3], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# grids and datasets


def test_time_grid_intervals():
    # interval() reports the whole inter-observation gap; callers divide
    # by substeps for the Euler step size
    grid = TimeGrid(0.0, np.array([1.0, 3.0]), substeps=4)
    assert grid.interval(0) == (0.0, 1.0)
    assert grid.interval(1) == (1.0, 2.0)


def test_time_grid_rejects_nonincreasing():
    with pytest.raises(DomainError):
        TimeGrid(0.0, np.array([1.0, 1.0]), substeps=2)
    with pytest.raises(DomainError):
        TimeGrid(2.0, np.array([1.0, 3.0]), substeps=2)


def test_dataset_validation():
    with pytest.raises(DomainError):
        Dataset(0.0, np.array([1.0]), np.array([1.0]), np.array([[1.0, 2.0]]), observed=(0,))
    with pytest.raises(DomainError):
        Dataset(0.0, np.array([np.inf]), np.array([1.0]), np.array([[1.0]]), observed=(0,))


# ---------------------------------------------------------------------------
# simulation


def test_simulate_path_still_model():
    grid = TimeGrid(0.0, np.array([1.0]), substeps=1)
    times, states = simulate_path(StillModel(), np.array([]), np.array([2.0, 3.0]), grid,
                                  rng_stream(0))
    np.testing.assert_array_equal(times, [0.0, 1.0])
    np.testing.assert_array_equal(states, [[2.0, 3.0], [2.0, 3.0]])


SIM_CASES = {  # model, theta, x0, substeps
    "ou": (OuModel(), OU_THETA, [1.0], 16),
    "lorenz63": (Lorenz63Model(), np.array([10.0, 28.0, 8.0 / 3.0, 2.0]), [-10.0, -10.0, 30.0], 16),
    "cwd-direct": (CwdDirectModel(), np.array([0.03, 0.2]), [36.0, 4.0, 0.0], 12),
    "skew-noise": (SkewNoiseModel(), np.array([0.8, 0.5]), [1.0, -1.0], 8),
}


@pytest.mark.parametrize("name", sorted(SIM_CASES))
def test_simulate_path_equals_an_euler_step_loop(name):
    model, theta, x0, substeps = SIM_CASES[name]
    # unequal intervals, so the substep length changes between intervals
    grid = TimeGrid(0.5, np.array([0.55, 0.6, 0.8, 0.85, 1.5]) * (20.0 if name == "cwd-direct" else 1.0),
                    substeps)
    times, states = simulate_path(model, theta, np.array(x0), grid, rng_stream(31, 7))
    rng = rng_stream(31, 7)
    ref_t, ref_x = [grid.t0], [np.array(x0, dtype=float)]
    for i in range(grid.n):
        t_start, dt = grid.interval(i)
        delta = dt / substeps
        for m in range(substeps):
            ref_x.append(euler_step(model, ref_x[-1], theta, t_start + m * delta, delta,
                                    rng.standard_normal(model.dim)))
            ref_t.append(t_start + (m + 1) * delta)
    assert times.tobytes() == np.array(ref_t).tobytes()
    assert states.tobytes() == np.array(ref_x).tobytes()


@pytest.mark.parametrize("model, message", [
    (BrokenDriftModel(), "drift is non-finite at coordinate 'b'"),
    (BrokenNoiseModel(constant=True), "diffusion is non-finite"),
    (BrokenNoiseModel(constant=False), "diffusion is non-finite"),
    (BrokenModel(constant=True), "drift is non-finite at coordinate 'b'"),
    (BrokenModel(constant=False), "drift is non-finite at coordinate 'b'"),
])
def test_simulate_path_reports_nonfinite_terms_as_euler_step_does(model, message):
    grid = TimeGrid(0.0, np.array([1.0, 2.0]), substeps=4)
    x0 = np.array([0.5, 0.5])
    with pytest.raises(DomainError, match=message):
        euler_step(model, x0, np.array([]), 0.0, 0.25, np.zeros(2))
    with pytest.raises(DomainError, match=message):
        simulate_path(model, np.array([]), x0, grid, rng_stream(0))


def test_simulate_path_deterministic_given_seed():
    grid = TimeGrid(0.0, np.arange(1.0, 6.0), substeps=8)
    _, a = simulate_path(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(123, 4))
    _, b = simulate_path(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(123, 4))
    np.testing.assert_array_equal(a, b)
    _, c = simulate_path(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(123, 5))
    assert not np.array_equal(a, c)


def test_ou_long_run_moments():
    # X(100) from x0=1: stationary by t=100, mean th1/th2, var th3^2/(2 th2)
    n_paths = 10000
    grid = TimeGrid(0.0, np.arange(1.0, 101.0), substeps=64)
    sims = simulate_paths_batch(OuModel(), OU_THETA, np.array([1.0]), grid, n_paths,
                                rng_stream(42))
    final = sims[-1, :, 0]
    mean_exact = 0.0187 / 0.2610
    var_exact = 0.0224 ** 2 / (2 * 0.2610)
    se_mean = math.sqrt(var_exact / n_paths)
    assert abs(final.mean() - mean_exact) < 3 * se_mean
    se_var = var_exact * math.sqrt(2.0 / (n_paths - 1))
    assert abs(final.var(ddof=1) - var_exact) < 3 * se_var


def test_simulate_dataset_projects_observed():
    model = CwdDirectModel()
    grid = TimeGrid(0.0, np.arange(1.0, 6.0), substeps=4)
    ds = simulate_dataset(model, np.array([0.03, 0.2]), np.array([30.0, 3.0, 0.0]), grid,
                          rng_stream(9))
    assert ds.values.shape == (5, 1)
    assert ds.observed == (2,)
    assert ds.names == ("C",)


def test_simulate_dataset_full_observation_matches_path():
    grid = TimeGrid(0.0, np.arange(1.0, 4.0), substeps=8)
    _, states = simulate_path(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(5))
    ds = simulate_dataset(OuModel(), OU_THETA, np.array([1.0]), grid, rng_stream(5))
    np.testing.assert_array_equal(ds.values[:, 0], states[8::8, 0])


# ---------------------------------------------------------------------------
# rng streams


def test_rng_stream_reproducible_and_distinct():
    a = rng_stream(1, 2, 3).standard_normal(8)
    b = rng_stream(1, 2, 3).standard_normal(8)
    c = rng_stream(1, 2, 4).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_stable():
    assert derive_seed(0, 1) == derive_seed(0, 1)
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert 0 <= derive_seed(7, 7) < 2 ** 63


# ---------------------------------------------------------------------------
# files


def test_dataset_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((7, 1)) * 0.0187 + 0.1 + 0.2
    ds = Dataset(0.0, np.array([1.0]), np.arange(1.0, 8.0), values, observed=(0,),
                 names=("x1",))
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.times, ds.times)
    np.testing.assert_array_equal(back.x0, ds.x0)
    assert back.observed == ds.observed
    assert back.names == ds.names


def test_dataset_dict_round_trip():
    ds = Dataset(0.5, np.array([1.0, 2.0]), np.array([1.0, 2.5]),
                 np.array([[0.1], [0.2]]), observed=(1,), names=("b",))
    back = dataset_from_dict(dataset_to_dict(ds))
    np.testing.assert_array_equal(back.values, ds.values)
    assert back.t0 == ds.t0
    assert back.observed == ds.observed


def test_load_dataset_requires_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("time,x1\n1.0,2.0\n")
    with pytest.raises(DomainError, match="sidecar"):
        load_dataset(path)
