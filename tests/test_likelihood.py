"""Chained likelihood estimates, weight diagnostics, penalty arithmetic."""

import gc
import math
import sys
import threading

import numpy as np
import pytest

from psml.core import (
    Dataset,
    DomainError,
    TimeGrid,
    derive_seed,
    rng_stream,
    simulate_dataset,
)
from psml import likelihood, optimize, samplers
from psml.likelihood import (
    ParticleCloud,
    PenaltyConfig,
    TransitionFailure,
    log_likelihood,
    penalized_log_likelihood,
)
from psml.models import CwdDirectModel, Lorenz63Model, OuModel, make_model, ou_exact_loglik
from psml.optimize import maximize_psml
from psml.samplers import SamplerSpec, _RowRho, _transition_ends, propose_transition
from reference import (Lockstep, effective_sample_size, gauss_logpdf_solve, importance_weight,
                       lockstep, weight_cv)

OU_THETA = np.array([0.0187, 0.2610, 0.0224])


def ou_dataset(n=5, seed=0, x0=1.0, dt=1.0):
    grid = TimeGrid(0.0, dt * np.arange(1, n + 1), 32)
    return simulate_dataset(OuModel(), OU_THETA, np.array([x0]), grid, rng_stream(seed))


def cwd_dataset(n=4, seed=2):
    grid = TimeGrid(0.0, np.arange(1.0, n + 1.0) / 4.0, 24)
    return simulate_dataset(
        CwdDirectModel(), np.array([0.03, 0.2]), np.array([40.0, 6.0, 0.0]),
        grid, rng_stream(seed),
    )


# ---------------------------------------------------------------------------
# particle clouds


def test_point_mass_cloud():
    cloud = ParticleCloud.point_mass([3.0, 4.0])
    assert cloud.particles.shape == (1, 2)
    assert cloud.weights[0] == 1.0
    res = cloud.resample(7, rng_stream(0))
    np.testing.assert_array_equal(res, np.tile([3.0, 4.0], (7, 1)))


def test_cloud_validation():
    with pytest.raises(DomainError):
        ParticleCloud(np.zeros((2, 1)), np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        ParticleCloud(np.zeros((2, 1)), np.array([1.1, -0.1]))
    with pytest.raises(DomainError):
        ParticleCloud(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DomainError):
        ParticleCloud(np.zeros(3), np.ones(3) / 3)


def test_cloud_resample_follows_weights():
    cloud = ParticleCloud(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    draws = cloud.resample(20000, rng_stream(1))
    assert abs(draws.mean() - 0.75) < 0.01


def test_zero_width_cloud_skips_rng():
    cloud = ParticleCloud(np.empty((3, 0)), np.full(3, 1.0 / 3.0))
    rng = rng_stream(5)
    before = rng.bit_generator.state["state"]["state"]
    out = cloud.resample(10, rng)
    assert out.shape == (10, 0)
    assert rng.bit_generator.state["state"]["state"] == before


# ---------------------------------------------------------------------------
# weight diagnostics


def test_weight_cv_hand_example():
    # weights 1, 2, 3: mean 2, sample sd 1, cv one half
    lw = np.log([1.0, 2.0, 3.0])
    assert weight_cv(lw) == pytest.approx(0.5, rel=1e-12)


def test_weight_cv_shift_invariant():
    lw = np.log([1.0, 2.0, 3.0])
    assert weight_cv(lw + 137.0) == pytest.approx(weight_cv(lw), rel=1e-12)
    assert weight_cv(lw - 500.0) == pytest.approx(0.5, rel=1e-12)


def test_weight_cv_degenerate():
    assert weight_cv(np.full(4, -np.inf)) == math.inf
    assert weight_cv(np.array([np.nan, 0.0])) == math.inf
    assert weight_cv(np.zeros(8)) == 0.0


def test_effective_sample_size():
    assert effective_sample_size([0.0, 0.0], 50) == 50.0
    assert effective_sample_size([1.0, 1.0], 50) == pytest.approx(25.0)
    assert effective_sample_size([0.5], 10) == pytest.approx(8.0)
    with pytest.raises(DomainError):
        effective_sample_size([], 10)
    with pytest.raises(DomainError):
        effective_sample_size([-0.1], 10)


# ---------------------------------------------------------------------------
# single transitions


def test_single_transition_matches_direct_weights():
    # One fully observed transition: its estimate is the log-mean weight of
    # a batch drawn from the stream (dataset seed, 0).
    model = OuModel()
    ds = Dataset(0.0, np.array([1.0]), np.array([1.0]), np.array([[0.8]]), (0,))
    res = log_likelihood(model, OU_THETA, ds, 256, 8, SamplerSpec("mbb"), seed=9)
    batch = propose_transition(
        model, OU_THETA, np.full((256, 1), 1.0), np.array([0.8]), 0.0, 1.0, 8,
        SamplerSpec("mbb"), rng_stream(derive_seed(9, 0), 0),
    )
    _, lw = importance_weight(batch)
    shift = lw.max()
    (diag,) = res.diagnostics
    assert diag.log_phat == pytest.approx(shift + math.log(np.mean(np.exp(lw - shift))), rel=1e-12)
    assert diag.cv == pytest.approx(weight_cv(lw), rel=1e-12)
    assert diag.ess == pytest.approx(256 / (1.0 + diag.cv**2), rel=1e-12)
    assert res.loglik == diag.log_phat


def test_chained_transitions_advance_the_cloud():
    # Partially observed: transition i resamples the cloud that transition
    # i - 1 left, with J uniforms from the stream (dataset seed, i), then
    # proposes from the same stream. Rebuilt here one transition at a time.
    model, theta, spec = CwdDirectModel(), np.array([0.03, 0.2]), SamplerSpec("mbb")
    ds = cwd_dataset()
    res = log_likelihood(model, theta, ds, 64, 6, spec, seed=3)
    cloud = ParticleCloud.point_mass(ds.x0[:2])
    prev, t_start = ds.x0[2:], ds.t0
    for i, diag in enumerate(res.diagnostics):
        rng = rng_stream(derive_seed(3, 0), i)
        starts = np.column_stack([cloud.resample(64, rng), np.full(64, prev[0])])
        batch = propose_transition(model, theta, starts, ds.values[i], t_start,
                                   ds.times[i] - t_start, 6, spec, rng)
        _, lw = importance_weight(batch)
        w = np.exp(lw - lw.max())
        assert diag.log_phat == pytest.approx(lw.max() + math.log(w.mean()), rel=1e-12)
        assert diag.cv == pytest.approx(weight_cv(lw), rel=1e-12)
        cloud = ParticleCloud(batch.endpoints[:, :2], w / w.sum())
        assert cloud.particles.shape == (64, 2)
        assert np.all(cloud.weights >= 0)
        prev, t_start = ds.values[i], ds.times[i]
    assert len(res.diagnostics) == ds.n


def test_diagnostic_ess_matches_effective_sample_size():
    for model, theta, ds in ((OuModel(), OU_THETA, ou_dataset()),
                             (CwdDirectModel(), np.array([0.03, 0.2]), cwd_dataset())):
        res = log_likelihood(model, theta, ds, 24, 6, SamplerSpec("aux-mbb", 0.8), seed=2)
        for d in res.diagnostics:
            assert d.ess == effective_sample_size([d.cv], 24)


# ---------------------------------------------------------------------------
# chained likelihood


def test_likelihood_deterministic_and_theta_independent_draws():
    ds = ou_dataset()
    a = log_likelihood(OuModel(), OU_THETA, ds, 32, 8, SamplerSpec("mbb"), seed=7)
    b = log_likelihood(OuModel(), OU_THETA, ds, 32, 8, SamplerSpec("mbb"), seed=7)
    assert a.loglik == b.loglik
    assert [d.log_phat for d in a.diagnostics] == [d.log_phat for d in b.diagnostics]
    c = log_likelihood(OuModel(), OU_THETA, ds, 32, 8, SamplerSpec("mbb"), seed=8)
    assert a.loglik != c.loglik


def test_joint_likelihood_splits_by_dataset():
    d1, d2 = ou_dataset(seed=1), ou_dataset(seed=2)
    joint = log_likelihood(OuModel(), OU_THETA, [d1, d2], 16, 8, SamplerSpec("mbb"), seed=5)
    solo = log_likelihood(OuModel(), OU_THETA, d1, 16, 8, SamplerSpec("mbb"), seed=5)
    first = [d for d in joint.diagnostics if d.dataset_index == 0]
    assert [d.log_phat for d in first] == [d.log_phat for d in solo.diagnostics]
    rest = sum(d.log_phat for d in joint.diagnostics if d.dataset_index == 1)
    assert joint.loglik == pytest.approx(solo.loglik + rest, rel=1e-12)
    assert len(joint.diagnostics) == d1.n + d2.n


def test_likelihood_converges_to_exact_ou():
    # The estimator targets the discretized likelihood; its gap to the
    # exact value shrinks like 1/substeps once paths dominate the noise.
    ds = ou_dataset(n=3, seed=4)
    exact = ou_exact_loglik(OU_THETA, ds)
    errs = {
        m: abs(log_likelihood(OuModel(), OU_THETA, ds, 3000, m,
                              SamplerSpec("mbb"), seed=0).loglik - exact)
        for m in (4, 16, 64)
    }
    assert errs[4] > 2.0 * errs[16]
    assert errs[64] < 0.05


# Reference (loglik, cv_sum) per model, for pedersen, mbb, regularized 0.5
# and aux-mbb 0.8 in turn, recorded from the per-transition implementation
# at the seeds below. Only a change to the estimator beyond rounding and
# summation order moves them past rel 1e-9.
PINNED = {
    "ou": (41.443046881523316, 27.76039910849831, 50.212500263694835, 3.1223627216055925,
           48.69365446694441, 12.184174142884073, 49.57949257425297, 9.500745301034199),
    "lorenz63": (-17.642358923141234, 22.838711940231118, -11.61987840909824,
                 4.597714966588925, -11.630170117524077, 7.635533999913216,
                 -12.526597215852682, 7.4475239919802005),
    "cwd-direct": (-16.462138899793256, 11.071349440121274, -19.0386942737249,
                   5.969439640397379, -18.657854395589386, 7.340585060689792,
                   -18.63979740653972, 7.986868997509789),
}
PIN_CASES = {  # theta, episodes (x0, n, dt), J, M
    "ou": ((0.0187, 0.2610, 0.0224), [((1.0,), 20, 1.0)], 8, 8),
    "lorenz63": ((10.0, 28.0, 8.0 / 3.0, 2.0), [((-10.0, -10.0, 30.0), 8, 0.05)], 16, 6),
    "cwd-direct": ((0.03, 0.20), [((36.0, 4.0, 0.0), 5, 1.0), ((46.0, 4.0, 0.0), 4, 1.0)], 16, 6),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_log_likelihood_pinned_values(name):
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    data = [
        simulate_dataset(model, np.array(theta), np.array(x0),
                         TimeGrid(0.0, dt * np.arange(1, n + 1), 16), rng_stream(404, e))
        for e, (x0, n, dt) in enumerate(episodes)
    ]
    specs = [SamplerSpec("pedersen"), SamplerSpec("mbb"), SamplerSpec("regularized", 0.5),
             SamplerSpec("aux-mbb", 0.8)]
    for j, spec in enumerate(specs):
        res = log_likelihood(model, np.array(theta), data, n_paths, substeps, spec, seed=11)
        assert res.loglik == pytest.approx(PINNED[name][2 * j], rel=1e-9), spec.kind
        assert res.cv_sum == pytest.approx(PINNED[name][2 * j + 1], rel=1e-9), spec.kind


class SkewLorenz(Lorenz63Model):
    """Lorenz63 with a constant, non-diagonal noise factor, observing x1 and x3.

    The observed set is not contiguous, so the kernel indexes its
    covariance blocks with index arrays rather than slices.
    """

    observed = (0, 2)
    tilt = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.2, -0.4, 1.0]])

    def diffusion(self, x, theta, t):
        return theta[3] * self.tilt

    def diffusion_outer(self, x, theta, t):
        g = self.diffusion(x, theta, t)
        return g @ g.T


# (loglik, cv_sum) for pedersen, mbb, regularized 0.5 and aux-mbb 0.8 in
# turn, recorded before the kernel indexed contiguous coordinate sets by
# slices.
PINNED_SKEW = (-35.20273906769849, 27.658611121635477, -15.358267607790621,
               11.214095914662485, -14.193529065522608, 12.334293866201207,
               -14.451617681648925, 14.689892755838608)


def test_log_likelihood_pinned_for_scattered_observations():
    model = SkewLorenz()
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    data = [
        simulate_dataset(model, theta, np.array(x0), TimeGrid(0.0, dt * np.arange(1, n + 1), 16),
                         rng_stream(404, e))
        for e, (x0, n, dt) in enumerate([((-10.0, -10.0, 30.0), 6, 0.05), ((5.0, 5.0, 20.0), 5, 0.05)])
    ]
    specs = [SamplerSpec("pedersen"), SamplerSpec("mbb"), SamplerSpec("regularized", 0.5),
             SamplerSpec("aux-mbb", 0.8)]
    for j, spec in enumerate(specs):
        res = log_likelihood(model, theta, data, 16, 6, spec, seed=11)
        assert res.loglik == pytest.approx(PINNED_SKEW[2 * j], rel=1e-9), spec.kind
        assert res.cv_sum == pytest.approx(PINNED_SKEW[2 * j + 1], rel=1e-9), spec.kind


@pytest.mark.parametrize("observed, message", [
    ((0, 0), "unique"), ((1,), "out of range"), ((), "nonempty"),
])
def test_malformed_model_rejected_before_the_kernel(observed, message):
    # The dataset matches the bad index tuple, so only validate_model stands
    # between it and the kernel's indexing.
    bad = type("BadOu", (OuModel,), {"observed": observed})()
    ds = Dataset(0.0, np.array([1.0]), np.array([1.0]), np.full((1, len(observed)), 0.8), observed)
    with pytest.raises(DomainError, match=message):
        log_likelihood(bad, OU_THETA, ds, 8, 4, SamplerSpec("mbb"), seed=0)


def test_likelihood_rejects_mismatched_observation():
    ds = ou_dataset()
    with pytest.raises(DomainError):
        log_likelihood(CwdDirectModel(), np.array([0.03, 0.2]), ds, 8, 4,
                       SamplerSpec("mbb"), seed=0)


@pytest.mark.parametrize("x0, observed, message", [
    ([40.0, 6.0], (2,), "x0 has 2 entries, the model has 3 states"),
    ([40.0, 6.0, 0.0, 1.0], (2,), "x0 has 4 entries, the model has 3 states"),
    ([40.0, 6.0, 0.0], (1,), "observed coordinates do not match the model"),
])
def test_datasets_that_do_not_fit_the_model_are_rejected(monkeypatch, x0, observed, message):
    # A short x0 used to fail in the kernel's indexing, and a long one was
    # cut to the model's size without a word.
    good = cwd_dataset()
    bad = Dataset(good.t0, np.array(x0), good.times, good.values, observed)
    model, theta = CwdDirectModel(), np.array([0.03, 0.2])
    with pytest.raises(DomainError, match=message):
        log_likelihood(model, theta, bad, 8, 4, SamplerSpec("mbb"), seed=0)
    # a group refuses the fit where it enters, and its other fits run alone
    group = likelihood._Problem(model, 8, 4, "mbb")
    with pytest.raises(DomainError, match=message):
        group.add([good, bad], 0)
    [res] = likelihood._likelihoods(group, [(group.add(good, 0), theta, None)], "neginf")
    assert res.loglik == log_likelihood(model, theta, good, 8, 4, SamplerSpec("mbb"), seed=0).loglik
    # a fit refuses the data before its first evaluation
    monkeypatch.setattr(optimize, "_likelihoods", None)
    cfg = PenaltyConfig(lam=0.0, n_paths=8, substeps=4, sampler=SamplerSpec("mbb"))
    with pytest.raises(DomainError, match=message):
        maximize_psml(model, [good, bad], cfg, theta)
    with pytest.raises(DomainError, match=message):
        optimize._maximize_group(model, [([good], theta, None, 0), ([bad], theta, None, 1)], cfg)


@pytest.mark.parametrize("t0, times", [
    (math.nan, None), (0.0, [0.25, math.nan, 0.75, 1.0]),
    (math.inf, None), (-math.inf, None), (0.0, [0.25, 0.5, 0.75, math.inf]),
], ids=["t0", "times", "t0-inf", "t0-minus-inf", "times-inf"])
def test_datasets_with_a_nan_time_are_rejected(t0, times):
    # An order check is False for NaN, and an infinite time makes NaN
    # substep times: Dataset refuses both where the data enters, so that
    # every interval length that the kernel gets is positive and finite.
    good = cwd_dataset()
    with pytest.raises(DomainError, match="dataset times must be finite"):
        Dataset(t0, good.x0, good.times if times is None else np.array(times), good.values,
                good.observed)


def test_failure_raise_records_position():
    ds = ou_dataset(n=3, seed=6)
    bad_values = ds.values.copy()
    bad_values[1, 0] = 1e6  # unreachable in one step, every weight vanishes
    bad = Dataset(ds.t0, ds.x0, ds.times, bad_values, ds.observed, ds.names)
    with pytest.raises(TransitionFailure) as err:
        log_likelihood(OuModel(), OU_THETA, [ds, bad], 16, 8, SamplerSpec("mbb"), seed=0)
    assert err.value.dataset_index == 1
    assert err.value.index == 1


def test_failure_neginf_returns_partial_diagnostics():
    ds = ou_dataset(n=3, seed=6)
    bad_values = ds.values.copy()
    bad_values[1, 0] = 1e6
    bad = Dataset(ds.t0, ds.x0, ds.times, bad_values, ds.observed, ds.names)
    res = log_likelihood(OuModel(), OU_THETA, bad, 16, 8, SamplerSpec("mbb"),
                         seed=0, on_failure="neginf")
    assert res.failed
    assert res.loglik == -math.inf
    assert len(res.diagnostics) == 1  # the first transition still succeeded
    with pytest.raises(DomainError):
        log_likelihood(OuModel(), OU_THETA, ds, 16, 8, SamplerSpec("mbb"),
                       seed=0, on_failure="sometimes")


class StateNoiseModel(OuModel):
    """Fully observed, with a variance equal to the state: negative states fail."""

    constant_diffusion = False

    def diffusion_outer(self, x, theta, t):
        return np.asarray(x, dtype=float)[..., None]


def test_numerical_failure_located_inside_a_batch():
    # Transitions 0, 1 and 3 start at positive states; transition 2 starts
    # at -0.5, where the Euler variance is negative and no jitter repairs it.
    ds = Dataset(0.0, np.array([1.0]), np.arange(1.0, 5.0),
                 np.array([[1.1], [-0.5], [0.8], [1.0]]), (0,))
    model = StateNoiseModel()
    with pytest.raises(TransitionFailure) as err:
        log_likelihood(model, OU_THETA, ds, 8, 1, SamplerSpec("mbb"), seed=0)
    assert (err.value.dataset_index, err.value.index) == (0, 2)
    res = log_likelihood(model, OU_THETA, ds, 8, 1, SamplerSpec("mbb"), seed=0,
                         on_failure="neginf")
    assert res.failed
    assert [d.index for d in res.diagnostics] == [0, 1]


class SignedNoiseCwd(CwdDirectModel):
    """cwd-direct whose noise covariance turns negative once C drops below -0.5."""

    nonnegative = (0, 1)

    def diffusion_outer(self, x, theta, t):
        out = super().diffusion_outer(x, theta, t)
        return np.where((np.asarray(x)[..., 2] < -0.5)[..., None, None], -out, out)


def unequal_epidemics():
    """Epidemics of 11, 10 and 1 transitions, the first two as in the cwd-direct preset."""
    return [
        simulate_dataset(CwdDirectModel(), np.array([0.03, 0.2]), np.array(x0),
                         TimeGrid(0.0, np.arange(1.0, n + 1.0), 12), rng_stream(505, e))
        for e, (x0, n) in enumerate([((36.0, 4.0, 0.0), 11), ((46.0, 4.0, 0.0), 10),
                                     ((40.0, 6.0, 0.0), 1)])
    ]


def with_observation(ds, i, value):
    values = ds.values.copy()
    values[i, 0] = value
    return Dataset(ds.t0, ds.x0, ds.times, values, ds.observed)


# Failure at transition 6 of dataset 0 (when it is broken) and transition 2
# of dataset 1: (dataset, transition) raised, diagnostics per dataset under
# "neginf", and the fsums of their log_phat, cv and ess, all recorded from
# the implementation that ran the datasets one after the other. The True
# sums of cv and ess were re-recorded, one ulp each, when the target
# density's LU solve became a forward substitution.
FAILURE_ORDER = {
    True: ((0, 6), (6, 0, 0), -11.619145612827646, 6.130467787001669, 49.02057709724203),
    False: ((1, 2), (11, 2, 0), -27.30950020308945, 13.330140748143652, 106.16877121744827),
}


@pytest.mark.parametrize("kind", ["vanished", "numerical"])
@pytest.mark.parametrize("break_first", [True, False])
def test_failure_found_in_dataset_major_order(kind, break_first):
    # Dataset 1 fails at an earlier transition than dataset 0, but dataset 0
    # comes first, so its failure is the one reported.
    model, value, cause = {
        "vanished": (CwdDirectModel(), 1e6, "all importance weights vanished"),
        "numerical": (SignedNoiseCwd(), -2.0, "covariance not positive definite after jitter"),
    }[kind]
    data = unequal_epidemics()
    if break_first:
        data[0] = with_observation(data[0], 6, value)
    data[1] = with_observation(data[1], 2, value)
    (d, i), counts, log_phat, cv, ess = FAILURE_ORDER[break_first]
    args = (model, np.array([0.03, 0.2]), data, 16, 6, SamplerSpec("aux-mbb", 0.8), 3)
    with pytest.raises(TransitionFailure) as err:
        log_likelihood(*args)
    assert (err.value.dataset_index, err.value.index) == (d, i)
    assert str(err.value) == f"transition {i} of dataset {d} failed: {cause}"
    res = log_likelihood(*args, on_failure="neginf")
    assert res.failed and res.loglik == -math.inf
    assert [(g.dataset_index, g.index) for g in res.diagnostics] == [
        (k, j) for k, n in enumerate(counts) for j in range(n)
    ]
    assert math.fsum(g.log_phat for g in res.diagnostics) == log_phat
    assert math.fsum(g.cv for g in res.diagnostics) == cv
    assert math.fsum(g.ess for g in res.diagnostics) == ess


@pytest.mark.parametrize("spec", [
    SamplerSpec("pedersen"), SamplerSpec("mbb"), SamplerSpec("regularized", 0.1),
    SamplerSpec("regularized", 0.5), SamplerSpec("aux-mbb", 0.8), SamplerSpec("aux-mbb", 1.0),
], ids=lambda spec: f"{spec.kind}-{spec.rho}")
def test_cwd_log_likelihood_agrees_with_the_lu_solve_density(spec, monkeypatch):
    # The target density by forward substitution moves a cwd-direct
    # log-likelihood in its last bits only: the run with the LU-solve
    # density is within 1e-12.
    args = (CwdDirectModel(), np.array([0.03, 0.2]), unequal_epidemics()[:2], 16, 6, spec, 3)
    new = log_likelihood(*args)
    monkeypatch.setattr(samplers, "_factor_logpdf",
                        lambda diff, chol, logdet: gauss_logpdf_solve(diff, chol))
    monkeypatch.setattr(samplers, "gauss_logpdf", gauss_logpdf_solve)
    old = log_likelihood(*args)
    assert new.loglik == pytest.approx(old.loglik, rel=1e-12, abs=0.0)
    assert new.cv_sum == pytest.approx(old.cv_sum, rel=1e-12, abs=0.0)


def extinct_epidemic():
    """From 0.3 infected, C stays flat at 0.15 from t = 2: the infection must
    die out, so proposal paths reach I = 0 inside an interval."""
    return Dataset(0.0, np.array([40.0, 0.3, 0.0]), np.arange(1.0, 7.0),
                   np.array([[0.1]] + [[0.15]] * 5), (2,))


@pytest.mark.parametrize("spec", [
    SamplerSpec("pedersen"), SamplerSpec("mbb"), SamplerSpec("regularized", 0.5),
    SamplerSpec("aux-mbb", 0.8),
], ids=lambda s: s.kind)
def test_cwd_extinction_inside_an_interval(spec, monkeypatch):
    model, theta = CwdDirectModel(), np.array([0.03, 0.2])
    healthy = unequal_epidemics()[0]
    cholesky, repaired = np.linalg.cholesky, []

    def counting(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            repaired.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    solo = log_likelihood(model, theta, extinct_epidemic(), 48, 12, spec, seed=1)
    assert repaired, "the extinct epidemic should need the jitter"
    assert math.isfinite(solo.loglik)
    assert not any(math.isnan(v) for d in solo.diagnostics for v in (d.log_phat, d.cv, d.ess))
    # Jitter for the extinct epidemic must not reach the healthy one in
    # the same kernel call, whichever comes first.
    for data in ([extinct_epidemic(), healthy], [healthy, extinct_epidemic()]):
        joint = log_likelihood(model, theta, data, 48, 12, spec, seed=1)
        head = log_likelihood(model, theta, data[:1], 48, 12, spec, seed=1)
        assert math.isfinite(joint.loglik)
        assert [d for d in joint.diagnostics if d.dataset_index == 0] == head.diagnostics


def test_evaluation_leaves_no_cyclic_garbage():
    # A reference cycle would keep each evaluation's step inputs alive until
    # the cyclic collector runs, and every evaluation would pay for that run.
    cases = [
        (CwdDirectModel(), np.array([0.03, 0.2]), unequal_epidemics()),
        (OuModel(), OU_THETA, [ou_dataset(seed=1), ou_dataset(n=3, seed=2)]),
    ]
    for model, theta, data in cases:
        log_likelihood(model, theta, data, 16, 6, SamplerSpec("aux-mbb", 0.8), seed=3)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for model, theta, data in cases:
            log_likelihood(model, theta, data, 16, 6, SamplerSpec("aux-mbb", 0.8), seed=3)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_draw_cache_stays_within_its_byte_bound(monkeypatch):
    # each entry holds 10 x 7 x 16 x 3 normals and their 10 x 7 x 16
    # log-densities (35,840 bytes); one fits
    monkeypatch.setattr(likelihood, "_DRAW_CACHE_BYTES", 40_000)
    likelihood._DRAW_CACHE.clear()
    for seed in range(4):
        likelihood._dataset_draws(seed, 0, 10, 16, 8, 3, 0)
        assert sum(a.nbytes for d in likelihood._DRAW_CACHE.values() for a in d) <= 40_000
    assert list(likelihood._DRAW_CACHE) == [(3, 0, 10, 16, 8, 3, 0)]
    likelihood._DRAW_CACHE.clear()


@pytest.mark.parametrize("key", [
    (1, 0, 5, 8, 6, 1, 0), (2, 1, 4, 16, 3, 3, 2), (3, 0, 3, 4, 1, 3, 1), (4, 2, 2, 6, 2, 2, 0),
])
def test_draw_nbytes_is_what_the_cache_holds(key):
    # the byte bound and the bootstrap's group size count entries by _draw_nbytes
    _, _, n, n_paths, substeps, k, n_u = key
    draws = likelihood._dataset_draws(*key)
    assert sum(a.nbytes for a in draws) == likelihood._draw_nbytes(n, n_paths, substeps, k, n_u)
    likelihood._DRAW_CACHE.clear()


def test_draw_cache_shared_by_threads(monkeypatch):
    # More threads than cores, a short switch interval and a bound that
    # holds one entry, so lookups, inserts and evictions interleave.
    monkeypatch.setattr(likelihood, "_DRAW_CACHE_BYTES", 200)
    keys = [(seed, 0, 2, 4, 3, 1, 0) for seed in range(3)]
    expected = {key: likelihood._dataset_draws(*key) for key in keys}
    errors = []

    def work(offset):
        try:
            for r in range(1000):
                key = keys[(offset + r) % len(keys)]
                got = likelihood._dataset_draws(*key)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected[key]))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sum(a.nbytes for d in likelihood._DRAW_CACHE.values() for a in d) <= 200
    likelihood._DRAW_CACHE.clear()


def test_sums_run_left_to_right_on_every_python():
    # On these values the left-to-right sum is 0.0 and the exact one 2.0;
    # sum() of floats is compensated from Python 3.12 on, so it would
    # move objectives in the last bits from one Python to another.
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    left_to_right = 0.0
    for v in values:
        left_to_right += v
    assert (left_to_right, math.fsum(values)) == (0.0, 2.0)
    parts = [np.array(values[:6]), np.array(values[6:])]
    res = likelihood.LikelihoodResult([
        likelihood._Segment(0, 0, parts[0], parts[0], np.ones(6)),
        likelihood._Segment(1, 0, parts[1], parts[1], np.ones(7)),
    ])
    assert (res.loglik.hex(), res.cv_sum.hex()) == (left_to_right.hex(), left_to_right.hex())
    assert [(g.dataset_index, g.index) for g in res.diagnostics] == (
        [(0, i) for i in range(6)] + [(1, i) for i in range(7)])


def test_empty_dataset_list_rejected():
    with pytest.raises(DomainError):
        log_likelihood(OuModel(), OU_THETA, [], 16, 8, SamplerSpec("mbb"), seed=0)


def test_cwd_chained_run_diagnostics():
    ds = cwd_dataset()
    res = log_likelihood(CwdDirectModel(), np.array([0.03, 0.2]), ds, 48, 8,
                         SamplerSpec("mbb"), seed=1)
    assert math.isfinite(res.loglik)
    assert len(res.diagnostics) == ds.n
    for d in res.diagnostics:
        assert d.cv >= 0.0
        assert 0.0 < d.ess <= 48.0


# ---------------------------------------------------------------------------
# penalty


def test_penalty_config_validation():
    with pytest.raises(DomainError):
        PenaltyConfig(-0.1, 8, 8, SamplerSpec("mbb"))
    with pytest.raises(DomainError):
        PenaltyConfig(0.0, 1, 8, SamplerSpec("mbb"))
    with pytest.raises(DomainError):
        PenaltyConfig(0.0, 8, 0, SamplerSpec("mbb"))


def test_zero_lambda_recovers_likelihood():
    ds = ou_dataset()
    config = PenaltyConfig(0.0, 16, 8, SamplerSpec("mbb"))
    value, res = penalized_log_likelihood(OuModel(), OU_THETA, None, ds, config, seed=3)
    plain = log_likelihood(OuModel(), OU_THETA, ds, 16, 8, SamplerSpec("mbb"), seed=3)
    assert value == plain.loglik
    assert res.loglik == plain.loglik


def test_penalty_arithmetic():
    ds = ou_dataset()
    config = PenaltyConfig(0.7, 16, 8, SamplerSpec("regularized", 0.3))
    value, res = penalized_log_likelihood(OuModel(), OU_THETA, None, ds, config, seed=3)
    assert value == pytest.approx(res.loglik - 0.7 * res.cv_sum, rel=1e-12)
    assert res.cv_sum == pytest.approx(sum(d.cv for d in res.diagnostics), rel=1e-12)


def test_rho_override_matches_direct_spec():
    ds = ou_dataset()
    base = PenaltyConfig(0.2, 16, 8, SamplerSpec("aux-mbb", 0.8))
    direct = PenaltyConfig(0.2, 16, 8, SamplerSpec("aux-mbb", 0.3))
    v1, _ = penalized_log_likelihood(OuModel(), OU_THETA, 0.3, ds, base, seed=2)
    v2, _ = penalized_log_likelihood(OuModel(), OU_THETA, None, ds, direct, seed=2)
    assert v1 == v2


def test_aux_rho_one_objective_equals_bridge():
    ds = ou_dataset()
    aux = PenaltyConfig(0.5, 16, 8, SamplerSpec("aux-mbb", 1.0))
    mbb = PenaltyConfig(0.5, 16, 8, SamplerSpec("mbb"))
    va, ra = penalized_log_likelihood(OuModel(), OU_THETA, None, ds, aux, seed=4)
    vb, rb = penalized_log_likelihood(OuModel(), OU_THETA, None, ds, mbb, seed=4)
    assert va == vb
    assert ra.cv_sum == rb.cv_sum


def test_penalized_neginf_on_failure():
    ds = ou_dataset(n=2, seed=6)
    bad_values = ds.values.copy()
    bad_values[0, 0] = 1e6
    bad = Dataset(ds.t0, ds.x0, ds.times, bad_values, ds.observed, ds.names)
    config = PenaltyConfig(0.5, 16, 8, SamplerSpec("mbb"))
    value, res = penalized_log_likelihood(
        OuModel(), OU_THETA, None, bad, config, seed=0, on_failure="neginf"
    )
    assert value == -math.inf
    assert res.failed


# (loglik, fsum of cv, fsum of ess) as float.hex for pedersen, mbb,
# regularized 0.5 and aux-mbb 0.8 in turn, on the PIN_CASES data, recorded
# while the kernel still applied a factor shared by the paths with einsum.
# The factors of OU (k = 1) and Lorenz63 (diagonal) have one term per row,
# so applying them by matmul must not move a bit.
PINNED_EXACT = {
    "ou": (("0x1.4b8b5c29d5e64p+5", "0x1.bc2a98416e866p+4", "0x1.f9c735ceb7c09p+5"),
           ("0x1.91b3335697aefp+5", "0x1.8fa994e7c5d48p+1", "0x1.343a7e0389143p+7"),
           ("0x1.858c9ab692012p+5", "0x1.85e4c12c0e975p+3", "0x1.d90ea16dee46fp+6"),
           ("0x1.8ca2cd00b5873p+5", "0x1.30061b02722a3p+3", "0x1.043515ff04e4cp+7")),
    "lorenz63": (("-0x1.1a471a2672f75p+4", "0x1.6d6b5d3620eafp+4", "0x1.d58cbb7e1ec9ap+3"),
                 ("-0x1.73d60b3ed25a0p+3", "0x1.2640f6467510cp+2", "0x1.80f781135d7bcp+6"),
                 ("-0x1.742a5a85b5d5fp+3", "0x1.e8ac96cc47e44p+2", "0x1.0e9c644d6be66p+6"),
                 ("-0x1.90d9e267880fcp+3", "0x1.dca43bab6ebd7p+2", "0x1.1f15e7361af68p+6")),
}
ALL_SPECS = [SamplerSpec("pedersen"), SamplerSpec("mbb"), SamplerSpec("regularized", 0.5),
             SamplerSpec("aux-mbb", 0.8)]


def pin_data(model, theta, episodes):
    return [
        simulate_dataset(model, np.array(theta), np.array(x0),
                         TimeGrid(0.0, dt * np.arange(1, n + 1), 16), rng_stream(404, e))
        for e, (x0, n, dt) in enumerate(episodes)
    ]


@pytest.mark.parametrize("name", sorted(PINNED_EXACT))
def test_log_likelihood_pinned_exactly(name):
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    data = pin_data(model, theta, episodes)
    for spec, pins in zip(ALL_SPECS, PINNED_EXACT[name]):
        res = log_likelihood(model, np.array(theta), data, n_paths, substeps, spec, seed=11)
        got = (res.loglik, math.fsum(d.cv for d in res.diagnostics),
               math.fsum(d.ess for d in res.diagnostics))
        assert tuple(v.hex() for v in got) == pins, spec.kind


class TiltedLorenz(Lorenz63Model):
    """Lorenz63 with a constant, non-diagonal noise factor, every coordinate
    observed: the proposal kernel applies one full 3 x 3 factor per
    transition to all of its paths."""

    tilt = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.2, -0.4, 1.0]])

    def diffusion(self, x, theta, t):
        return np.multiply.outer(theta[3], self.tilt)

    def diffusion_outer(self, x, theta, t):
        return np.multiply.outer(theta[3] ** 2, self.tilt @ self.tilt.T)


# (loglik, cv_sum) per family, recorded while the shared factor was applied
# with einsum; matmul sums the three terms of a row in another order.
PINNED_TILTED = ((-34.22147148589676, 32.569799744042086), (-21.39954539038185, 11.41118593841858),
                 (-22.592198999113478, 12.973430636539431), (-22.137827122383356, 14.35702023166502))


def test_log_likelihood_with_a_full_shared_factor_agrees_with_einsum():
    model = TiltedLorenz()
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    data = pin_data(model, theta, [((-10.0, -10.0, 30.0), 6, 0.05), ((5.0, 5.0, 20.0), 5, 0.05)])
    for spec, (loglik, cv_sum) in zip(ALL_SPECS, PINNED_TILTED):
        res = log_likelihood(model, theta, data, 16, 6, spec, seed=11)
        assert res.loglik == pytest.approx(loglik, rel=1e-13, abs=0.0), spec.kind
        assert res.cv_sum == pytest.approx(cv_sum, rel=1e-13, abs=0.0), spec.kind


def likelihood_problems():
    """Problems of one group: TiltedLorenz fits with 1 or 2 datasets, one
    with an invalid theta and one whose weights vanish at transition 2."""
    model = TiltedLorenz()
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    data = pin_data(model, theta, [((-10.0, -10.0, 30.0), 6, 0.05), ((5.0, 5.0, 20.0), 5, 0.05)])
    far = Dataset(data[0].t0, data[0].x0, data[0].times,
                  np.where(np.arange(6)[:, None] == 2, 1e6, data[0].values), (0, 1, 2))
    spec = SamplerSpec("regularized", 0.5)
    return model, [
        (theta, spec, data, 11),
        (theta * 1.1, SamplerSpec("regularized", 0.0), data[:1], 12),
        (-theta, spec, data, 13),
        (theta, SamplerSpec("regularized", 0.9), [data[1], far], 14),
        (theta * 0.9, spec, data[1:], 15),
    ]


@pytest.mark.parametrize("on_failure", ["raise", "neginf"])
def test_lockstep_problems_equal_their_own_runs(on_failure, monkeypatch):
    model, problems = likelihood_problems()
    sizes = []

    def recorded(*args):
        sizes.append(len(args[2]))
        return _transition_ends(*args)

    monkeypatch.setattr(likelihood, "_transition_ends", recorded)
    group = lockstep(model, problems, 16, 6, on_failure)
    assert sizes == [11 + 6 + 11 + 5]  # one call: every transition of every valid problem
    for (theta, spec, data, seed), got in zip(problems, group):
        try:
            want = log_likelihood(model, theta, data, 16, 6, spec, seed, on_failure)
        except (DomainError, TransitionFailure) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert (got.loglik, got.failed, got.diagnostics) == (want.loglik, want.failed, want.diagnostics)


def test_numerical_failure_reruns_only_its_fit(monkeypatch):
    # The middle problem starts a transition at a negative state, whose
    # variance no jitter repairs: the group call fails, each problem runs
    # on its own, and only the failing one is run again row by row.
    model = StateNoiseModel()
    good = Dataset(0.0, np.array([1.0]), np.arange(1.0, 5.0), np.array([[1.1], [0.7], [0.8], [1.0]]), (0,))
    bad = Dataset(0.0, np.array([1.0]), np.arange(1.0, 4.0), np.array([[1.1], [-0.5], [0.8]]), (0,))
    spec = SamplerSpec("mbb")
    problems = [(OU_THETA, spec, [good], 1), (OU_THETA, spec, [bad], 2), (OU_THETA * 2, spec, [good], 3)]
    sizes = []

    def recorded(*args):
        sizes.append(len(args[2]))
        return _transition_ends(*args)

    monkeypatch.setattr(likelihood, "_transition_ends", recorded)
    group = lockstep(model, problems, 8, 1, "neginf")
    assert sizes == [11, 4, 3, 1, 1, 1, 4]
    assert group[1].failed and [d.index for d in group[1].diagnostics] == [0, 1]
    for (theta, _, data, seed), got in zip(problems, group):
        want = log_likelihood(model, theta, data, 8, 1, spec, seed, on_failure="neginf")
        assert (got.loglik, got.diagnostics) == (want.loglik, want.diagnostics)


@pytest.mark.parametrize("name", ["lorenz63", "cwd-direct"])
def test_kernel_calls_split_at_the_byte_bound(name, monkeypatch):
    # A bound of one transition's states: every call holds one row, and
    # every result stays the same bit for bit.
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    data = pin_data(model, theta, episodes)
    problems = [(np.array(theta) * s, SamplerSpec("aux-mbb", r), data, seed)
                for s, r, seed in [(1.0, 0.8, 11), (1.05, 0.6, 12), (0.95, 0.9, 13)]]
    whole = lockstep(model, problems, n_paths, substeps, "raise")
    sizes = []

    def recorded(*args):
        sizes.append(len(args[2]))
        return _transition_ends(*args)

    monkeypatch.setattr(likelihood, "_transition_ends", recorded)
    monkeypatch.setattr(likelihood, "_CALL_BYTES", (substeps + 1) * n_paths * model.dim * 8)
    split = lockstep(model, problems, n_paths, substeps, "raise")
    assert set(sizes) == {1} and len(sizes) == 3 * sum(ds.n for ds in data)
    assert [(r.loglik, r.diagnostics) for r in split] == [(r.loglik, r.diagnostics) for r in whole]


def test_steady_lockstep_round_reuses_its_stacked_rows():
    # Two regularized Lorenz63 fits at the benchmark bootstrap's shapes
    # (21 transitions each, J = 32, M = 10), run twice in one group: the
    # second round repeats the first one's fits, so it stacks no rows and
    # keeps no path states. It peaks at 0.53 MB by tracemalloc.
    # A round that stacked the draws afresh and kept every substep's states
    # and moves peaked at 1.65 MB, and each of the three alone adds more
    # than the 0.11 MB of headroom under the bound.
    import tracemalloc

    model = Lorenz63Model()
    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    data = [pin_data(model, theta, [((-10.0, -10.0, 30.0), 21, 0.05)]),
            pin_data(model, theta * 1.02, [((-9.0, -11.0, 29.0), 21, 0.05)])]
    spec = SamplerSpec("regularized", 0.5)

    def problems(scale):
        return [(theta * scale, spec, data[0], 31), (theta / scale, spec, data[1], 32)]

    run = Lockstep(model, 32, 10, spec.kind)
    run(problems(1.01), "neginf")
    tracemalloc.start()
    try:
        got = run(problems(1.02), "neginf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 << 10, peak
    want = lockstep(model, problems(1.02), 32, 10, "neginf")
    assert [(r.loglik, r.diagnostics) for r in got] == [(r.loglik, r.diagnostics) for r in want]


@pytest.mark.parametrize("name", ["lorenz63", "cwd-direct"])
def test_group_rows_follow_their_fits_between_runs(name):
    # A group keeps rows and plans by fit, not by a problem's place in a
    # run: runs that list the same fits in another order, or another fit
    # of the same shape, read each fit's own rows.
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    theta = np.array(theta)
    data = [pin_data(model, theta * s, episodes) for s in (1.0, 1.03, 0.97)]
    spec = SamplerSpec("aux-mbb", 0.8)
    run = Lockstep(model, n_paths, substeps, spec.kind)
    for order in [(0, 1), (1, 0), (2, 0), (2, 0), (0, 2, 1)]:
        problems = [(theta * (1.0 + 0.01 * i), spec, data[i], 40 + i) for i in order]
        got = run(problems, "raise")
        want = lockstep(model, problems, n_paths, substeps, "raise")
        assert [(r.loglik, r.diagnostics) for r in got] == [(r.loglik, r.diagnostics) for r in want]


@pytest.mark.parametrize("name", ["ou", "lorenz63", "cwd-direct"])
def test_prepared_kernel_inputs_equal_propose_transition(name):
    # A kernel call fed the inputs that a group prepared -- its layout and
    # its start states with the observed coordinates set -- equals
    # propose_transition, which makes its own, bit for bit, for every
    # family, with a theta and, where the family has one, a rho per row.
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    theta = np.array(theta)
    obs, uno = list(model.observed), list(model.unobserved)
    # partially observed blocks hold one transition each
    n = episodes[0][1]
    blocks = [(f, d, 1, 2) for f in (0, 1) for d in range(len(episodes))] if uno else [
        (0, 0, 0, n), (1, 0, 2, n - 1)]
    for kind in ("pedersen", "mbb", "regularized", "aux-mbb"):
        problems = [
            (theta * s, SamplerSpec(kind, rho if kind in ("regularized", "aux-mbb") else None),
             pin_data(model, theta * s, episodes), seed)
            for s, rho, seed in [(1.0, 0.8, 61), (1.03, 0.55, 62)]
        ]
        group = likelihood._Problem(model, n_paths, substeps, kind)
        fits = [group.add(data, seed) for *_, data, seed in problems]
        (u, *draws), g, prepared = group.inputs(fits, blocks)
        prev, y, t0, dt = (np.concatenate([a[lo:hi] for a, (_, _, lo, hi) in zip(col, blocks)])
                           for col in zip(*(group.fits[fits[p]][0][d][:4]
                                            for p, d, _, _ in blocks)))
        want = np.repeat(prev[:, None, :], n_paths, axis=1)
        assert prepared[..., obs].tobytes() == want.tobytes()
        starts = prepared
        if uno:
            starts = prepared.copy()
            starts[..., uno] = np.abs(rng_stream(63).normal(5.0, 2.0, (len(prev), n_paths, len(uno))))
        theta_rows, spec = likelihood._row_params(problems, blocks)
        with np.errstate(all="ignore"):
            ends, log_t, log_p = _transition_ends(model, theta_rows, starts, spec, draws, g)
            batch = propose_transition(model, theta_rows, starts, y, t0, dt, substeps, spec, draws)
        assert ends.tobytes() == batch.endpoints.tobytes(), kind
        assert log_t.tobytes() == batch.log_target.tobytes(), kind
        assert log_p.tobytes() == batch.log_proposal.tobytes(), kind


def test_steady_ou_round_rebuilds_no_layout(monkeypatch):
    # An OU fit's evaluation is one kernel call over every transition, so a
    # group's second round repeats the first one's call and builds no
    # layout; its result equals a fresh group's.
    built = []
    layout_of = samplers._Layout.of
    monkeypatch.setattr(samplers._Layout, "of", lambda *args: built.append(1) or layout_of(*args))
    data = [ou_dataset(20, seed=5)]
    run = Lockstep(OuModel(), 8, 8, "aux-mbb")
    run([(OU_THETA, SamplerSpec("aux-mbb", 0.8), data, 9)], "raise")
    assert len(built) == 1
    problems = [(OU_THETA * 1.02, SamplerSpec("aux-mbb", 0.7), data, 9)]
    [got] = run(problems, "raise")
    assert len(built) == 1
    [want] = lockstep(OuModel(), problems, 8, 8, "raise")
    assert len(built) == 2
    assert (got.loglik, got.diagnostics) == (want.loglik, want.diagnostics)


def test_wrong_shaped_constant_diffusion_raises_value_error():
    # The shared-factor preamble broadcasts a constant diffusion_outer to
    # (n, 1, k, k), which checks its shape: a (2, 2) outer for a 3-state
    # model raises ValueError from log_likelihood (exit code 2 in the CLI),
    # and does not reach chol_spd and fail later in a matmul.
    class WrongOuter(Lorenz63Model):
        def diffusion_outer(self, x, theta, t):
            return np.eye(2)

    theta = np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    data = pin_data(Lorenz63Model(), theta, [((-10.0, -10.0, 30.0), 4, 0.05)])
    with pytest.raises(ValueError, match="broadcast"):
        log_likelihood(WrongOuter(), theta, data, 8, 4, SamplerSpec("aux-mbb", 0.8), seed=3)


@pytest.mark.parametrize("name", ["ou", "lorenz63", "cwd-direct", "tilted"])
def test_kernel_rows_with_their_own_parameters_equal_solo_rows(name):
    # Three transitions with a theta and a rho each, in one call, against
    # each run alone. regularized at rho = 0 has a bridge weight of exactly
    # 1 and takes the bridge branch; its neighbours take the blend.
    model = TiltedLorenz() if name == "tilted" else make_model(name)
    theta = {"ou": OU_THETA, "cwd-direct": np.array([0.03, 0.2])}.get(
        name, np.array([10.0, 28.0, 8.0 / 3.0, 2.0]))
    thetas = np.stack([theta, theta * 1.1, theta * 0.9])
    rng = rng_stream(77)
    n_paths, substeps, k = 8, 5, model.dim
    x0 = {"ou": [1.0], "cwd-direct": [40.0, 6.0, 0.0]}.get(name, [-10.0, -10.0, 30.0])
    starts = np.array(x0) + 0.1 * rng.standard_normal((3, n_paths, k))
    starts = np.abs(starts) if name == "cwd-direct" else starts
    y_obs = starts[:, 0, list(model.observed)] + 0.05
    t0, dt = np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.2, 0.3])
    n_uno = len(model.unobserved)
    draws = (rng.standard_normal((3, substeps - 1, n_paths, k)), rng.standard_normal((3, n_paths, n_uno)))
    for kind, rhos in [("pedersen", None), ("mbb", None), ("regularized", (0.0, 0.5, 1.0)),
                       ("aux-mbb", (0.8, 1.0, 0.3))]:
        spec = _RowRho(kind, np.array(rhos)) if rhos else SamplerSpec(kind)
        both = propose_transition(model, thetas.T[:, :, None], starts, y_obs, t0, dt, substeps,
                                  spec, draws)
        for r in range(3):
            solo = propose_transition(
                model, thetas[r], starts[r:r + 1], y_obs[r:r + 1], t0[r:r + 1], dt[r:r + 1],
                substeps, SamplerSpec(kind, rhos[r] if rhos else None),
                (draws[0][r:r + 1], draws[1][r:r + 1]),
            )
            assert both.states[:, r].tobytes() == solo.states[:, 0].tobytes(), (kind, r)
            assert both.log_target[r].tobytes() == solo.log_target[0].tobytes(), (kind, r)
            assert both.log_proposal[r].tobytes() == solo.log_proposal[0].tobytes(), (kind, r)


def test_bridge_rows_stay_finite_beside_an_overflowing_euler_mean():
    # regularized at rho = 0 follows the bridge alone: a transition whose
    # drift overflows keeps finite states, as in its own call, even when
    # it shares the call with a transition that blends.
    model = Lorenz63Model()
    thetas = np.array([[1e308, 28.0, 8.0 / 3.0, 2.0], [10.0, 28.0, 8.0 / 3.0, 2.0]])
    rng = rng_stream(78)
    starts = np.array([-10.0, -10.0, 30.0]) + rng.standard_normal((2, 8, 3))
    y_obs, t0, dt = starts[:, 0] + 0.05, np.array([0.0, 0.5]), np.array([0.05, 0.05])
    draws = (rng.standard_normal((2, 5, 8, 3)), np.empty((2, 8, 0)))
    with np.errstate(all="ignore"):
        both = propose_transition(model, thetas.T[:, :, None], starts, y_obs, t0, dt, 6,
                                  _RowRho("regularized", np.array([0.0, 0.5])), draws)
        solo = propose_transition(model, thetas[0], starts[:1], y_obs[:1], t0[:1], dt[:1], 6,
                                  SamplerSpec("regularized", 0.0), (draws[0][:1], draws[1][:1]))
    assert np.all(np.isfinite(solo.states))
    assert both.states[:, 0].tobytes() == solo.states[:, 0].tobytes()


@pytest.mark.parametrize("name", ["ou", "cwd-direct"])
def test_a_group_prepares_each_fit_once(name, monkeypatch):
    # Over a two-fit lockstep search the model is checked once, each fit's
    # datasets once and its draws once per dataset, and a round that
    # repeats the fits of the last round of distinct fits builds no layout:
    # it runs the schedule and kernel inputs of that round as they are.
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    data = [pin_data(model, np.array(theta) * s, episodes) for s in (1.0, 1.02)]
    counts = dict.fromkeys(["validate_model", "_model_datasets", "_dataset_draws", "layout"], 0)

    def counted(attr, call):
        def wrapper(*args):
            counts[attr] += 1
            return call(*args)
        return wrapper

    for attr in ("validate_model", "_model_datasets", "_dataset_draws"):
        monkeypatch.setattr(likelihood, attr, counted(attr, getattr(likelihood, attr)))
    monkeypatch.setattr(samplers._Layout, "of", counted("layout", samplers._Layout.of))
    runs = []
    likelihoods = optimize._likelihoods

    def run(group, problems, *args):
        before = counts["layout"]
        out = likelihoods(group, problems, *args)
        runs.append(([f for f, *_ in problems], counts["layout"] - before))
        return out

    monkeypatch.setattr(optimize, "_likelihoods", run)
    cfg = PenaltyConfig(0.5, n_paths, substeps, SamplerSpec("aux-mbb", 0.8))
    fits = optimize._maximize_group(model, [(d, theta, 0.8, 50 + i) for i, d in enumerate(data)],
                                    cfg, optimize.OptimizerConfig(max_evals=20), True)
    assert all(isinstance(fit, optimize.PsmlFit) for fit in fits)
    assert counts["validate_model"] == 1
    assert counts["_model_datasets"] == 2
    assert counts["_dataset_draws"] == sum(len(d) for d in data)
    last, repeats = None, 0
    for fit_ids, built in runs:
        if len(set(fit_ids)) == len(fit_ids):
            if fit_ids == last:
                assert built == 0
                repeats += 1
            last = fit_ids
    assert repeats >= 10


@pytest.mark.parametrize("name", ["ou", "cwd-direct"])
def test_one_block_calls_read_the_draw_cache_as_views(name, monkeypatch):
    # A one-dataset log_likelihood stacks nothing: each kernel call's draws
    # are views of the cached draws.
    theta, episodes, n_paths, substeps = PIN_CASES[name]
    model = make_model(name)
    [data] = pin_data(model, np.array(theta), episodes[:1])
    seen = []

    def recorded(*args):
        seen.append(args[4])
        return _transition_ends(*args)

    monkeypatch.setattr(likelihood, "_transition_ends", recorded)
    log_likelihood(model, theta, data, n_paths, substeps, SamplerSpec("aux-mbb", 0.8), seed=9)
    _, z, z_end, z_dens = likelihood._dataset_draws(9, 0, data.n, n_paths, substeps, model.dim,
                                                    len(model.unobserved))
    assert len(seen) == (1 if name == "ou" else data.n)
    for got in seen:
        assert all(np.shares_memory(a, b) for a, b in zip(got, (z, z_end, z_dens)) if a.size)


def test_a_solo_lorenz_call_peaks_under_300_kb():
    # One dataset at the benchmark bootstrap's shapes (21 transitions,
    # J = 32, M = 10), its draws cached by an earlier call. The call reads
    # them as views and builds one layout; it peaks at 289 kB by
    # tracemalloc, where stacking a copy of its rows peaked at 460 kB.
    import tracemalloc

    model, theta = Lorenz63Model(), np.array([10.0, 28.0, 8.0 / 3.0, 2.0])
    grid = TimeGrid(0.0, 0.05 * np.arange(1, 22), 64)
    data = simulate_dataset(model, theta, np.array([-10.0, -10.0, 30.0]), grid,
                            rng_stream(0, 0, 0))
    spec = SamplerSpec("regularized", 0.5)

    def run():
        return log_likelihood(model, theta, data, 32, 10, spec, seed=7, on_failure="neginf")

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 300_000, peak


@pytest.mark.parametrize("kind, rho", [("aux-mbb", math.nan), ("aux-mbb", 0.0),
                                       ("regularized", 1.5)])
def test_a_rho_outside_its_family_fails_its_problem_alone(kind, rho):
    # A search coordinate keeps rho inside (0, 1] unless it is NaN; the
    # group still refuses a rho that its family refuses, as SamplerSpec
    # does, and the other problems of the run are unaffected.
    data = ou_dataset(6)
    group = likelihood._Problem(OuModel(), 8, 4, kind)
    fit = group.add(data, 3)
    bad, good = likelihood._likelihoods(group, [(fit, OU_THETA, rho), (fit, OU_THETA, 0.5)],
                                        "raise")
    assert isinstance(bad, DomainError) and f"{kind} requires rho" in str(bad)
    assert good == log_likelihood(OuModel(), OU_THETA, data, 8, 4, SamplerSpec(kind, 0.5), seed=3)
