"""Proposal families: kernels, pinning, identities, and unbiasedness."""

import math

import numpy as np
import pytest

from psml.core import DomainError, NumericalError, chol_spd, rng_stream
from psml.models import CwdDirectModel, Lorenz63Model, OuModel
from psml.samplers import (
    KINDS,
    SamplerSpec,
    SubPathBatch,
    _blend_weight,
    _chol_pair,
    _Coords,
    _factor_ratios,
    _kernel,
    _Layout,
    _path_draws,
    propose_transition,
)
from reference import importance_weight

OU_THETA = np.array([0.0187, 0.2610, 0.0224])
CWD_THETA = np.array([0.03, 0.2])
LORENZ_THETA = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])


def proposal_kernel(model, theta, x, y_obs, t, m, substeps, delta, spec):
    """Proposal mean (1, k) and covariance (1, k, k) of substep m from one state x."""
    x = np.asarray(x, dtype=float)[None, None]
    c = _Coords.of(model)
    g = _Layout.of(np.array([t]), np.array([delta]), np.asarray(y_obs, dtype=float)[None],
                   np.zeros((1, substeps - 1, 1, model.dim)), c)
    _, mean, _, chol = _kernel(model, theta, x, np.full((1, 1), t), m, substeps, spec, c, g, True,
                               _factor_ratios(spec, g))[:4]
    return mean[0], chol[0] @ np.swapaxes(chol[0], -1, -2)


def ou_euler_m_step(x, theta, dt, substeps):
    """Closed-form mean/variance of the M-step Euler chain (linear SDE)."""
    th1, th2, th3 = theta
    delta = dt / substeps
    a = 1.0 - th2 * delta
    mean = a ** substeps * x + (th1 / th2) * (1.0 - a ** substeps)
    var = th3 ** 2 * delta * (1.0 - a ** (2 * substeps)) / (1.0 - a ** 2)
    return mean, var


def all_specs():
    return [
        SamplerSpec("pedersen"),
        SamplerSpec("mbb"),
        SamplerSpec("regularized", 0.1),
        SamplerSpec("aux-mbb", 0.8),
    ]


# ---------------------------------------------------------------------------
# spec validation


def test_sampler_spec_validation():
    assert set(KINDS) == {"pedersen", "mbb", "regularized", "aux-mbb"}
    with pytest.raises(Exception):
        SamplerSpec("bogus")
    with pytest.raises(Exception):
        SamplerSpec("pedersen", 0.5)
    with pytest.raises(Exception):
        SamplerSpec("mbb", 0.5)
    with pytest.raises(Exception):
        SamplerSpec("regularized")
    with pytest.raises(Exception):
        SamplerSpec("regularized", 1.5)
    with pytest.raises(Exception):
        SamplerSpec("aux-mbb", 0.0)  # zero collapses the proposal covariance
    assert SamplerSpec("aux-mbb", 1.0).rho == 1.0
    assert SamplerSpec("regularized", 0.0).rho == 0.0


def test_with_rho():
    assert SamplerSpec("aux-mbb", 0.8).with_rho(0.3).rho == 0.3
    assert SamplerSpec("mbb").with_rho(None).kind == "mbb"
    with pytest.raises(Exception):
        SamplerSpec("mbb").with_rho(0.3)


# ---------------------------------------------------------------------------
# kernels


def test_blend_weight_arithmetic():
    # 10 remaining substeps, rho 0.1: 10 / (10 + 0.1 * 81)
    assert _blend_weight(0, 10, 0.1) == pytest.approx(10.0 / 18.1, rel=1e-15)
    assert _blend_weight(10 - 1, 10, 0.7) == 1.0  # one substep left: pure bridge
    assert _blend_weight(0, 10, 0.0) == 1.0


def test_kernel_pedersen_is_euler():
    mean, cov = proposal_kernel(
        OuModel(), OU_THETA, np.array([1.0]), np.array([0.8]), 0.0, 0, 8, 0.125,
        SamplerSpec("pedersen"),
    )
    assert mean[0, 0] == pytest.approx(1.0 + (0.0187 - 0.2610) * 0.125, rel=1e-14)
    assert cov[0, 0, 0] == pytest.approx(0.0224 ** 2 * 0.125, rel=1e-14)


def test_kernel_bridge_shrinks_last_intermediate_step():
    # m = M - 2 leaves two substeps: factor (r - 1) / r = 1 / 2
    mean, cov = proposal_kernel(
        OuModel(), OU_THETA, np.array([1.0]), np.array([0.8]), 0.0, 6, 8, 0.125,
        SamplerSpec("mbb"),
    )
    assert cov[0, 0, 0] == pytest.approx(0.5 * 0.0224 ** 2 * 0.125, rel=1e-14)
    assert mean[0, 0] == pytest.approx(1.0 + (0.8 - 1.0) / 2.0, rel=1e-14)


def test_kernel_regularized_blends_toward_euler():
    x, y = np.array([1.0]), np.array([0.8])
    args = (OuModel(), OU_THETA, x, y, 0.0, 0, 10, 0.1)
    mean_p, cov_p = proposal_kernel(*args, SamplerSpec("pedersen"))
    mean_b, cov_b = proposal_kernel(*args, SamplerSpec("mbb"))
    mean_r, cov_r = proposal_kernel(*args, SamplerSpec("regularized", 0.1))
    w = 10.0 / 18.1
    np.testing.assert_allclose(mean_r, (1 - w) * mean_p + w * mean_b, rtol=1e-14)
    np.testing.assert_allclose(cov_r, (1 - w) * cov_p + w * cov_b, rtol=1e-14)


def test_kernel_aux_scales_bridge_covariance():
    x, y = np.array([1.0]), np.array([0.8])
    args = (OuModel(), OU_THETA, x, y, 0.0, 2, 8, 0.125)
    mean_b, cov_b = proposal_kernel(*args, SamplerSpec("mbb"))
    mean_a, cov_a = proposal_kernel(*args, SamplerSpec("aux-mbb", 0.25))
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_allclose(cov_a, 0.25 * cov_b, rtol=1e-15)


def test_kernel_partial_observation_conditioning():
    # CWD: the unobserved block keeps its variance minus the explained part
    model = CwdDirectModel()
    x = np.array([40.0, 6.0, 2.0])
    y = np.array([2.5])
    m, substeps, delta = 0, 6, 1.0 / 6.0
    mean, cov = proposal_kernel(model, CWD_THETA, x, y, 0.0, m, substeps, delta,
                                SamplerSpec("mbb"))
    outer = model.diffusion_outer(x, CWD_THETA, 0.0)
    r = substeps - m
    g_oo = outer[2, 2]
    # observed block of the kernel covariance: (r-1)/r scaling
    assert cov[0, 2, 2] == pytest.approx((r - 1) / r * g_oo * delta, rel=1e-12)
    # unobserved block: G_uu - G_uo G_oo^{-1} G_ou / r
    sub = outer[:2, :2] - np.outer(outer[:2, 2], outer[2, :2]) / g_oo / r
    np.testing.assert_allclose(cov[0, :2, :2], sub * delta, rtol=1e-12)
    # observed drift points at the observation over the remaining time
    f = model.drift(x, CWD_THETA, 0.0)
    assert mean[0, 2] == pytest.approx(x[2] + (y[0] - x[2]) / r, rel=1e-12)
    # unobserved drift corrected through the cross-covariance
    d_obs = y[0] - (x[2] + f[2] * (r - 1) * delta)
    corr = outer[:2, 2] / g_oo * d_obs / (delta * r)
    np.testing.assert_allclose(mean[0, :2], x[:2] + (f[:2] + corr) * delta, rtol=1e-12)


def test_stacked_factorization_equals_two_calls():
    rng = np.random.default_rng(12)

    def batch():
        a = rng.standard_normal((3, 5, 3, 3))
        return a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3)

    euler, proposal, clean = batch(), batch(), batch()
    euler[1, 2] = np.ones((3, 3))  # singular: only the jitter factors it
    proposal[2, 0] = np.ones((3, 3))
    for a, b in ((euler, clean), (clean, proposal), (euler, proposal), (clean, batch())):
        pair = _chol_pair(a, b)
        assert pair[0].tobytes() == chol_spd(a).tobytes()
        assert pair[1].tobytes() == chol_spd(b).tobytes()
    proposal[0, 1] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # beyond jitter
    with pytest.raises(NumericalError):
        _chol_pair(euler, proposal)


def test_coords_take_slices_only_for_contiguous_blocks():
    cwd = _Coords.of(CwdDirectModel())  # observed (2,), unobserved (0, 1)
    assert (cwd.o, cwd.u, cwd.o_rows, cwd.u_cols) == (slice(2, 3), slice(0, 2), slice(2, 3), slice(0, 2))
    skew = _Coords.of(type("Skew", (Lorenz63Model,), {"observed": (0, 2)})())
    assert skew.u == slice(1, 2)  # a contiguous set still slices along one axis
    np.testing.assert_array_equal(skew.o, [0, 2])
    outer = np.arange(9.0).reshape(3, 3)
    np.testing.assert_array_equal(outer[skew.o_rows, skew.u_cols], [[1.0], [7.0]])
    np.testing.assert_array_equal(outer[skew.u_rows, skew.o_cols], [[3.0, 5.0]])


def test_coords_are_made_once_per_coordinate_sets():
    # _Coords.of is cached by the values of observed and unobserved, not by
    # the model class: a model that sets observed per instance, or as a
    # list, gets its own coordinates, and equal sets share one entry, whose
    # integer indices are read-only.
    full = _Coords.of(Lorenz63Model())
    assert full.n_uno == 0 and full.o == slice(0, 3)
    listed = Lorenz63Model()
    listed.observed = [0, 2]
    skew = _Coords.of(listed)
    assert skew.n_uno == 1 and skew.u == slice(1, 2)
    np.testing.assert_array_equal(skew.o, [0, 2])
    as_tuple = Lorenz63Model()
    as_tuple.observed = (0, 2)
    assert _Coords.of(as_tuple) is skew and _Coords.of(Lorenz63Model()) is full
    assert not skew.o.flags.writeable and not skew.o_rows.flags.writeable


# ---------------------------------------------------------------------------
# proposed sub-paths


def run_ou(spec, n_paths=64, substeps=8, seed=0, y=0.8):
    starts = np.full((n_paths, 1), 1.0)
    return propose_transition(
        OuModel(), OU_THETA, starts, np.array([y]), 0.0, 1.0, substeps, spec,
        rng_stream(seed),
    )


def run_cwd(spec, n_paths=64, substeps=6, seed=0):
    starts = np.tile(np.array([40.0, 6.0, 2.0]), (n_paths, 1))
    return propose_transition(
        CwdDirectModel(), CWD_THETA, starts, np.array([3.4]), 0.0, 1.0, substeps,
        spec, rng_stream(seed),
    )


def test_single_substep_reduces_to_euler_density():
    # M = 1: no intermediate draws, every family gives the one-step density
    results = [run_ou(spec, n_paths=8, substeps=1, seed=3) for spec in all_specs()]
    _, var = ou_euler_m_step(1.0, OU_THETA, 1.0, 1)
    mean_1 = 1.0 + (0.0187 - 0.2610) * 1.0
    expected = -0.5 * (math.log(2 * math.pi * var) + (0.8 - mean_1) ** 2 / var)
    for batch in results:
        np.testing.assert_array_equal(batch.log_proposal, np.zeros(8))
        np.testing.assert_allclose(batch.log_target, expected, rtol=1e-12)


def test_endpoints_pinned_to_observation():
    for spec in all_specs():
        batch = run_ou(spec, n_paths=16)
        np.testing.assert_array_equal(batch.endpoints[:, 0], np.full(16, 0.8))
        cwd = run_cwd(spec, n_paths=16)
        np.testing.assert_array_equal(cwd.endpoints[:, 2], np.full(16, 3.4))


def test_pedersen_weight_is_final_step_density():
    batch = run_ou(SamplerSpec("pedersen"), n_paths=32)
    delta = 1.0 / 8.0
    x_prev = batch.states[-2][:, 0]
    mean = x_prev + (0.0187 - 0.2610 * x_prev) * delta
    var = 0.0224 ** 2 * delta
    expected = -0.5 * (np.log(2 * math.pi * var) + (0.8 - mean) ** 2 / var)
    _, lw = importance_weight(batch)
    np.testing.assert_allclose(lw, expected, rtol=1e-10)


def test_sampler_means_match_euler_m_step_density():
    # Mean importance weight estimates the M-step Euler density of y | x.
    # y sits near the transition mean so every family has moderate weights.
    y = 0.783
    mean_m, var_m = ou_euler_m_step(1.0, OU_THETA, 1.0, 8)
    target = math.exp(-0.5 * (math.log(2 * math.pi * var_m) + (y - mean_m) ** 2 / var_m))
    n_paths = 5000
    for spec in all_specs():
        batch = run_ou(spec, n_paths=n_paths, substeps=8, seed=11, y=y)
        w, _ = importance_weight(batch)
        se = w.std(ddof=1) / math.sqrt(n_paths)
        assert abs(w.mean() - target) < 3.0 * se + 1e-12, spec.kind
        assert abs(w.mean() - target) / target < 0.03, spec.kind


def test_bridge_weights_less_variable_than_blind():
    n_paths = 5000
    cvs = {}
    for spec in all_specs():
        batch = run_ou(spec, n_paths=n_paths, substeps=8, seed=4, y=0.783)
        w, _ = importance_weight(batch)
        cvs[spec.kind] = w.std(ddof=1) / w.mean()
    assert cvs["mbb"] < cvs["pedersen"]


def test_partial_observation_families_agree_on_density():
    # No closed form exists for the CWD transition density; the four
    # families must agree with each other within Monte Carlo error.
    n_paths = 6000
    stats = {}
    for spec in all_specs():
        batch = run_cwd(spec, n_paths=n_paths, seed=21)
        w, _ = importance_weight(batch)
        stats[spec.kind] = (w.mean(), w.std(ddof=1) / math.sqrt(n_paths))
    kinds = list(stats)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            gap = abs(stats[a][0] - stats[b][0])
            tol = 3.0 * math.hypot(stats[a][1], stats[b][1])
            assert gap < tol, (a, b, gap, tol)


# ---------------------------------------------------------------------------
# family identities


def test_aux_rho_one_is_plain_bridge_bitwise():
    a = run_ou(SamplerSpec("aux-mbb", 1.0), seed=7)
    b = run_ou(SamplerSpec("mbb"), seed=7)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.log_target, b.log_target)
    np.testing.assert_array_equal(a.log_proposal, b.log_proposal)
    a = run_cwd(SamplerSpec("aux-mbb", 1.0), seed=7)
    b = run_cwd(SamplerSpec("mbb"), seed=7)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.log_proposal, b.log_proposal)


def test_regularized_rho_zero_is_plain_bridge_bitwise():
    a = run_ou(SamplerSpec("regularized", 0.0), seed=9)
    b = run_ou(SamplerSpec("mbb"), seed=9)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.log_target, b.log_target)
    np.testing.assert_array_equal(a.log_proposal, b.log_proposal)


def test_batch_rows_match_single_transitions():
    # Row i of a batched call, fed the draws of stream (77, i), equals
    # transition i run alone on that stream: fully observed with one
    # shared Euler factor (OU, Lorenz63) and partially observed (CWD),
    # with unequal interval lengths.
    n, n_paths, substeps = 4, 16, 6
    cases = [
        (OuModel(), OU_THETA, np.array([1.0]), np.array([0.8])),
        (Lorenz63Model(), LORENZ_THETA, np.array([-10.0, -10.0, 30.0]),
         np.array([-9.0, -11.0, 29.0])),
        (CwdDirectModel(), CWD_THETA, np.array([40.0, 6.0, 2.0]), np.array([3.4])),
    ]
    step = np.arange(n)[:, None]
    for model, theta, x0, y0 in cases:
        k, n_u = model.dim, len(model.unobserved)
        starts = np.broadcast_to((x0 + 0.1 * step)[:, None, :], (n, n_paths, k))
        y_obs = y0 + 0.05 * step
        t_start = 0.5 * np.arange(n)
        dt = 0.05 * (1.0 + 0.5 * np.arange(n))
        for spec in all_specs():
            draws = [_path_draws(rng_stream(77, i), n_paths, substeps, k, n_u) for i in range(n)]
            batch = propose_transition(model, theta, starts, y_obs, t_start, dt, substeps, spec,
                                       [np.stack(d) for d in zip(*draws)])
            assert batch.states.shape == (substeps + 1, n, n_paths, k)
            for i in range(n):
                one = propose_transition(model, theta, starts[i], y_obs[i], t_start[i], dt[i],
                                         substeps, spec, rng_stream(77, i))
                np.testing.assert_array_equal(batch.states[:, i], one.states)
                np.testing.assert_array_equal(batch.log_target[i], one.log_target)
                np.testing.assert_array_equal(batch.log_proposal[i], one.log_proposal)


def test_draw_consumption_independent_of_theta():
    # Common-random-numbers contract: equal seeds consume equal draws no
    # matter the parameter value.
    for spec in all_specs():
        rng_a = rng_stream(31)
        propose_transition(OuModel(), OU_THETA, np.full((5, 1), 1.0), np.array([0.8]),
                           0.0, 1.0, 8, spec, rng_a)
        rng_b = rng_stream(31)
        propose_transition(OuModel(), OU_THETA * 1.7, np.full((5, 1), 1.0),
                           np.array([0.8]), 0.0, 1.0, 8, spec, rng_b)
        assert rng_a.standard_normal() == rng_b.standard_normal()


def test_importance_weight_overflow_stays_in_logs():
    batch = SubPathBatch(
        states=np.zeros((2, 2, 1)),
        log_target=np.array([800.0, 0.0]),
        log_proposal=np.array([0.0, 0.0]),
    )
    w, lw = importance_weight(batch)
    assert lw[0] == 800.0
    assert math.isinf(w[0])
    assert w[1] == 1.0


@pytest.mark.parametrize("change, message", [
    ({"starts": np.ones(3)}, r"starts must have shape \(J, k\) or \(n, J, k\)"),
    ({"starts": np.ones((3, 2))}, r"starts must have shape \(J, k\) or \(n, J, k\)"),
    ({"y_obs": np.array([0.8, 0.9])}, "y_obs must carry one value per observed coordinate"),
    ({"dt": -1.0}, "interval length must be positive"),
    ({"dt": 0.0}, "interval length must be positive"),
    ({"substeps": 0}, r"substeps must be >= 1"),
    ({"rng": (np.zeros((1, 2, 3, 1)), np.zeros((1, 3, 0)))}, "draws do not match the transitions"),
    ({"rng": (np.zeros((1, 3, 3, 1)), np.zeros((1, 3, 1)))}, "draws do not match the transitions"),
    ({"rng": (np.zeros((1, 3, 3, 1)), np.zeros((1, 3, 0)), np.zeros((1, 3, 2)))},
     "draws do not match the transitions"),
], ids=["starts-1d", "starts-width", "y_obs-width", "dt-negative", "dt-zero", "substeps-zero",
        "draws-substeps", "draws-endpoint", "draws-logpdf"])
def test_propose_validates_shapes(change, message):
    # propose_transition is the kernel's entry for outside input, so these
    # checks are its own: the kernel trusts what it is given.
    args = dict(starts=np.ones((3, 1)), y_obs=np.array([0.8]), dt=1.0, substeps=4,
                rng=rng_stream(0))
    args.update(change)
    with pytest.raises(DomainError, match=message):
        propose_transition(OuModel(), OU_THETA, args["starts"], args["y_obs"], 0.0, args["dt"],
                           args["substeps"], SamplerSpec("mbb"), args["rng"])
