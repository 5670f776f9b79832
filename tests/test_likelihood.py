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
from psml import likelihood
from psml.likelihood import (
    ParticleCloud,
    PenaltyConfig,
    TransitionFailure,
    effective_sample_size,
    log_likelihood,
    penalized_log_likelihood,
    weight_cv,
)
from psml.models import CwdDirectModel, Lorenz63Model, OuModel, make_model, ou_exact_loglik
from psml.samplers import SamplerSpec, importance_weight, propose_transition

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
# the implementation that ran the datasets one after the other.
FAILURE_ORDER = {
    True: ((0, 6), (6, 0, 0), -11.619145612827646, 6.130467787001668, 49.02057709724204),
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
    # each entry holds 10 x 7 x 16 x 3 normals (26,880 bytes); one fits
    monkeypatch.setattr(likelihood, "_DRAW_CACHE_BYTES", 40_000)
    likelihood._DRAW_CACHE.clear()
    for seed in range(4):
        likelihood._dataset_draws(seed, 10, 16, 8, 3, 0)
        assert sum(a.nbytes for d in likelihood._DRAW_CACHE.values() for a in d) <= 40_000
    assert list(likelihood._DRAW_CACHE) == [(3, 10, 16, 8, 3, 0)]
    likelihood._DRAW_CACHE.clear()


def test_draw_cache_shared_by_threads(monkeypatch):
    # More threads than cores, a short switch interval and a bound that
    # holds one entry, so lookups, inserts and evictions interleave.
    monkeypatch.setattr(likelihood, "_DRAW_CACHE_BYTES", 200)
    keys = [(seed, 2, 4, 3, 1, 0) for seed in range(3)]
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
