"""Property tests for identities of the transition-batched likelihood kernel."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psml import likelihood
from psml.core import (_LOG_2PI, Dataset, DomainError, NumericalError, SdeModel, TimeGrid, _euler,
                       _logdet, chol_spd, derive_seed, gauss_logpdf, rng_stream, simulate_dataset)
from psml.likelihood import TransitionFailure, log_likelihood
from psml.models import CwdDirectModel, Lorenz63Model, OuModel, StepFunction, cwd_sigma
from psml.samplers import (SamplerSpec, _Coords, _draw_logpdf, _Layout, _RowRho, _transition_ends,
                           propose_transition)
from psml.tune import prediction_error
from reference import (chol_spd_lapack, cwd_drift_stacked, cwd_sigma_two_checks,
                       gauss_logpdf_solve, likelihoods_by_transition, logdet_diagonal_sum,
                       lorenz_drift_stacked, observed_scalar_logpdf, simulate_paths_batch,
                       step_value_by_search)

MODELS = {
    # model, theta, x0, number of transitions, interval length
    "ou": (OuModel(), (0.0187, 0.2610, 0.0224), (1.0,), 6, 1.0),
    "lorenz63": (Lorenz63Model(), (10.0, 28.0, 8.0 / 3.0, 2.0), (-10.0, -10.0, 30.0), 5, 0.05),
    "cwd-direct": (CwdDirectModel(), (0.03, 0.2), (36.0, 4.0, 0.0), 4, 1.0),
}

seeds = st.integers(0, 2**32 - 1)
paths = st.integers(2, 12)
substeps = st.integers(1, 6)
scales = st.floats(0.8, 1.25)
specs = st.sampled_from([
    SamplerSpec("pedersen"), SamplerSpec("mbb"), SamplerSpec("regularized", 0.4),
    SamplerSpec("aux-mbb", 0.7),
])


@lru_cache(maxsize=None)
def dataset(name, index=0):
    model, theta, x0, n, dt = MODELS[name]
    grid = TimeGrid(0.0, dt * np.arange(1, n + 1), 16)
    return simulate_dataset(model, np.array(theta), np.array(x0), grid, rng_stream(606, index))


def run(name, data, n_paths, m, spec, seed, scale=1.0):
    model, theta = MODELS[name][:2]
    return log_likelihood(model, scale * np.array(theta), data, n_paths, m, spec, seed,
                          on_failure="neginf")


@settings(max_examples=20)
@given(name=st.sampled_from(["ou", "lorenz63"]), seed=seeds, n_paths=paths, m=substeps,
       scale=scales)
def test_aux_rho_one_is_mbb_bitwise(name, seed, n_paths, m, scale):
    data = dataset(name)
    aux = run(name, data, n_paths, m, SamplerSpec("aux-mbb", 1.0), seed, scale)
    mbb = run(name, data, n_paths, m, SamplerSpec("mbb"), seed, scale)
    assert aux == mbb


@settings(max_examples=15)
@given(name=st.sampled_from(sorted(MODELS)), n_data=st.integers(2, 3), seed=seeds,
       n_paths=paths, m=substeps, spec=specs)
def test_joint_loglik_is_sum_over_datasets(name, n_data, seed, n_paths, m, spec):
    data = [dataset(name, i) for i in range(n_data)]
    joint = run(name, data, n_paths, m, spec, seed)
    if joint.failed:
        return
    parts = [sum(d.log_phat for d in joint.diagnostics if d.dataset_index == i)
             for i in range(n_data)]
    assert joint.loglik == pytest.approx(sum(parts), rel=1e-12, abs=1e-12)
    # a prefix of the dataset list reproduces its share of the joint run
    head = run(name, data[:-1], n_paths, m, spec, seed)
    assert head.diagnostics == [d for d in joint.diagnostics if d.dataset_index < n_data - 1]


@settings(max_examples=15)
@given(name=st.sampled_from(sorted(MODELS)), seed=seeds, n_paths=paths, m=substeps, spec=specs)
def test_cold_and_warm_draw_cache_agree_bitwise(name, seed, n_paths, m, spec):
    data = dataset(name)
    likelihood._DRAW_CACHE.clear()
    cold = run(name, data, n_paths, m, spec, seed)
    assert len(likelihood._DRAW_CACHE) == 1
    warm = run(name, data, n_paths, m, spec, seed)
    assert cold == warm


@settings(max_examples=25)
@given(seed=seeds, n=st.integers(1, 4), n_paths=paths, m=substeps, k=st.integers(1, 3),
       data=st.data())
def test_cached_draws_are_read_only_fresh_stream_values(seed, n, n_paths, m, k, data):
    n_u = data.draw(st.integers(0, k - 1))
    draws = likelihood._dataset_draws(seed, 0, n, n_paths, m, k, n_u)
    for a in draws:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    u, z, z_end, z_dens = draws
    # the per-substep draws a transition's own stream gives, in order, and
    # their standard-normal log-density, as the kernel takes it from one
    # substep's draws alone
    for i in range(n):
        rng = rng_stream(derive_seed(seed, 0), i)
        if n_u:
            np.testing.assert_array_equal(u[i], rng.random(n_paths))
        for step in range(m - 1):
            np.testing.assert_array_equal(z[i, step], rng.standard_normal((n_paths, k)))
            np.testing.assert_array_equal(z_dens[i, step], _draw_logpdf(z[i, step]))
            np.testing.assert_allclose(
                z_dens[i, step], -0.5 * (k * math.log(2 * math.pi) + (z[i, step] ** 2).sum(axis=1)),
                rtol=1e-14,
            )
        np.testing.assert_array_equal(z_end[i], rng.standard_normal((n_paths, n_u)))


@settings(max_examples=60)
@given(steps=st.lists(st.integers(-3200, 3200), min_size=2, max_size=24),
       shift=st.integers(-32000, 32000))
def test_weight_stats_are_shift_invariant(steps, shift):
    # Log-weights in (-50, 50) and a shift c in (-500, 500), on a 1/64 grid
    # so that adding c is exact: cv and ESS must not move, and log p-hat
    # must move by c.
    lw = np.array([steps], dtype=float) / 64.0
    c = shift / 64.0
    lp, cv, ess, _ = likelihood._weight_stats(lw, lw.shape[1])
    lp_c, cv_c, ess_c, _ = likelihood._weight_stats(lw + c, lw.shape[1])
    assert cv_c == pytest.approx(cv, rel=1e-12)
    assert ess_c == pytest.approx(ess, rel=1e-12)
    # abs covers rounding when lp + c is near zero: a few ulp of 550
    assert lp_c == pytest.approx(lp + c, rel=1e-12, abs=1e-12)


@settings(max_examples=25)
@given(name=st.sampled_from(sorted(MODELS)), seed=seeds, n_paths=paths, m=substeps, spec=specs,
       rho=st.floats(0.2, 1.0), far_at=st.integers(1, 3),
       on_failure=st.sampled_from(["raise", "neginf"]))
def test_array_results_equal_the_transition_by_transition_oracle(
        name, seed, n_paths, m, spec, rho, far_at, on_failure):
    # One lockstep call: a two-dataset fit, a fit with its own theta and
    # rho, one with an invalid theta, and one whose second dataset has a
    # far observation, so that its weights vanish in the middle of a block
    # (of a step, when some coordinates are unobserved).
    model, theta = MODELS[name][:2]
    theta = np.array(theta)
    data = [dataset(name, 0), dataset(name, 1)]
    d0 = data[0]
    values = np.where(np.arange(d0.n)[:, None] == far_at, 1e6, d0.values)
    far = Dataset(d0.t0, d0.x0, d0.times, values, d0.observed)
    problems = [
        (theta, spec, data, seed),
        (1.1 * theta, spec.with_rho(rho) if spec.has_rho else spec, data[:1], seed + 1),
        (-theta, spec, data, seed + 2),
        (theta, spec, [data[1], far], seed + 3),
    ]
    got = likelihood._likelihoods(model, problems, n_paths, m, on_failure)
    want = likelihoods_by_transition(model, problems, n_paths, m, on_failure)
    # the far observation stops its fit
    assert isinstance(want[3], TransitionFailure) if on_failure == "raise" else want[3].failed
    for res, ref in zip(got, want):
        if isinstance(ref, Exception):
            assert (type(res), str(res)) == (type(ref), str(ref))
            if isinstance(ref, TransitionFailure):
                assert (res.dataset_index, res.index) == (ref.dataset_index, ref.index)
            continue
        assert (res.loglik.hex(), res.cv_sum.hex(), res.failed) == (
            ref.loglik.hex(), ref.cv_sum.hex(), ref.failed)
        assert res.diagnostics == ref.diagnostics
        assert [tuple(map(type, g)) for g in res.diagnostics] == [
            (int, int, float, float, float)] * len(ref.diagnostics)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)), seed=seeds, n=st.integers(1, 4), n_paths=paths,
       m=substeps, kind=st.sampled_from(["pedersen", "mbb", "regularized", "aux-mbb"]))
def test_endpoint_run_equals_propose_transition(name, seed, n, n_paths, m, kind):
    # The likelihood's kernel run, which keeps only the current substep,
    # against propose_transition on the batch and on each row alone, with
    # a theta and a rho per row.
    model, theta, x0, _, dt0 = MODELS[name]
    rng = np.random.default_rng(seed)
    thetas = np.array(theta) * rng.uniform(0.8, 1.25, (n, 1))
    rhos = {"regularized": rng.uniform(0.0, 1.0, n), "aux-mbb": rng.uniform(0.05, 1.0, n)}.get(kind)
    k, obs = model.dim, list(model.observed)
    starts = np.array(x0) + 0.1 * rng.standard_normal((n, n_paths, k))
    starts = np.abs(starts) if name == "cwd-direct" else starts
    y_obs = starts[:, 0, obs] + 0.05
    t0, dt = rng.uniform(0.0, 2.0, n), dt0 * rng.uniform(0.5, 1.5, n)
    z = rng.standard_normal((n, m - 1, n_paths, k))
    draws = (z, rng.standard_normal((n, n_paths, len(model.unobserved))), _draw_logpdf(z))
    spec = SamplerSpec(kind) if rhos is None else _RowRho(kind, rhos)
    args = (model, thetas.T[:, :, None], starts, y_obs, t0, dt, m, spec, draws)
    g = _Layout.of(t0, dt / m, y_obs, n_paths, k, m, _Coords.of(model))
    with np.errstate(all="ignore"):
        ends, log_t, log_p = _transition_ends(model, thetas.T[:, :, None], starts, spec, draws, g)
        batch = propose_transition(*args)
        solos = [
            propose_transition(model, thetas[r], starts[r], y_obs[r], t0[r], dt[r], m,
                               SamplerSpec(kind, None if rhos is None else rhos[r]),
                               tuple(a[r:r + 1] for a in draws))
            for r in range(n)
        ]
    assert same_bits(ends, batch.endpoints)
    assert same_bits(log_t, batch.log_target) and same_bits(log_p, batch.log_proposal)
    for r, solo in enumerate(solos):
        assert same_bits(ends[r], solo.endpoints) and same_bits(batch.states[:, r], solo.states)
        assert same_bits(log_t[r], solo.log_target) and same_bits(log_p[r], solo.log_proposal)


def lower_factors(rng, shape, k, pivot):
    """Cholesky-shaped factors, shape + (k, k): diagonals in [0.5, 2],
    entries below them in [-3, 3]. With pivot, |l21| is 1.5 to 3 times
    |l11|, so that an LU solve with partial pivoting swaps rows."""
    chol = np.tril(rng.uniform(-3.0, 3.0, shape + (k, k)), -1)
    idx = np.arange(k)
    chol[..., idx, idx] = rng.uniform(0.5, 2.0, shape + (k,))
    if pivot and k > 1:
        ratio = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.5, 3.0, shape)
        chol[..., 1, 0] = ratio * chol[..., 0, 0]
    return chol


@settings(max_examples=80)
@given(seed=seeds, k=st.integers(1, 4), batch=st.lists(st.integers(1, 6), max_size=2),
       shared=st.booleans(), pivot=st.booleans())
def test_gauss_logpdf_agrees_with_the_lu_solve(seed, k, batch, shared, pivot):
    # Forward substitution against an LU solve with the factor, for a batch
    # of factors or for one (k, k) factor broadcast over a batch of points.
    # The tolerance is relative to the summed magnitudes of the density's
    # terms, so that a value near zero by cancellation is judged by the
    # size of what cancelled.
    rng = np.random.default_rng(seed)
    shape = tuple(batch)
    chol = lower_factors(rng, () if shared else shape, k, pivot)
    diff = rng.uniform(-5.0, 5.0, shape + (k,))
    got, want = gauss_logpdf(diff, chol), gauss_logpdf_solve(diff, chol)
    assert np.shape(got) == np.shape(want) == shape
    logdet = np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    terms = np.abs(want) + k * _LOG_2PI + 2.0 * np.abs(logdet)
    assert np.all(np.abs(got - want) <= 1e-12 * terms)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


# 1x1 blocks: every positive double from the smallest subnormal up, and
# +inf, which chol_spd factors in closed form; and the entries that send a
# stack down LAPACK's path instead
positive = st.one_of(st.floats(5e-324, 1e308), st.just(math.inf))
not_positive = st.sampled_from([0.0, -0.0, -1.0, -5e-324, math.nan])


def factor_or_error(chol, cov):
    try:
        return chol(cov)
    except NumericalError:
        return NumericalError


@settings(max_examples=200)
@given(values=st.lists(positive, min_size=1, max_size=12), n=st.sampled_from([1, 2, 3]))
def test_scalar_closed_forms_equal_lapack(values, n):
    # chol_spd, _logdet and the reciprocal that the shared-factor preamble
    # takes for the inverse, against LAPACK bit for bit: one (1, 1) block,
    # a (J, 1, 1) stack and an (n, J, 1, 1) stack.
    cov = np.array(values * n)
    for stack in (cov[:1].reshape(1, 1), cov.reshape(-1, 1, 1), cov.reshape(n, -1, 1, 1)):
        chol = chol_spd(stack)
        assert same_bits(chol, chol_spd_lapack(stack))
        assert same_bits(_logdet(chol), logdet_diagonal_sum(chol))
        assert same_bits(1.0 / chol, np.linalg.inv(chol))


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 4), n_paths=st.integers(1, 5))
def test_scalar_stacks_take_lapacks_path_when_not_positive(data, n, n_paths):
    # (J, 1, 1) and (n, J, 1, 1) stacks in which some entries are 0, -0,
    # negative or NaN: the same factor as LAPACK's path, or the same
    # NumericalError. A 4-d stack is repaired one transition at a time, so
    # a transition whose entries are all positive keeps its closed form; a
    # 3-d stack is repaired as a whole, so a zero bumps every entry.
    entries = data.draw(st.lists(st.one_of(positive, not_positive), min_size=n * n_paths,
                                 max_size=n * n_paths))
    cov = np.array(entries).reshape(n, n_paths, 1, 1)
    with np.errstate(all="ignore"):
        for stack in (cov, cov[0]):
            got, want = factor_or_error(chol_spd, stack), factor_or_error(chol_spd_lapack, stack)
            if want is NumericalError:
                assert got is NumericalError
                continue
            assert same_bits(got, want)
            assert same_bits(_logdet(got), logdet_diagonal_sum(got))
            if stack.ndim == 4:
                for row, chol in zip(stack, got):
                    if (row > 0).all():
                        assert same_bits(chol, np.sqrt(row))
            elif (stack == 0).any():
                moved = np.isfinite(stack) & (stack > 0)
                assert not (got[moved] == np.sqrt(stack[moved])).any()


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 4), n_paths=st.integers(1, 5))
def test_observed_endpoint_density_equals_its_scalar_closed_form(data, n, n_paths):
    # The endpoint's observed block goes through chol_spd and gauss_logpdf
    # at every width. With one observed coordinate that equals the closed
    # form the endpoint once took of its own, bit for bit, on an
    # (n, J, 1, 1) stack of floored variances: positive, +inf or NaN, since
    # _floor_obs_diag leaves no 0 or negative entry.
    size = n * n_paths
    variances = data.draw(st.lists(st.one_of(positive, st.just(math.nan)), min_size=size,
                                   max_size=size))
    diffs = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size))
    s_oo = np.array(variances).reshape(n, n_paths, 1, 1)
    diff_o = np.array(diffs).reshape(n, n_paths, 1)
    with np.errstate(all="ignore"):
        got = gauss_logpdf(diff_o, chol_spd(s_oo))
        want = observed_scalar_logpdf(diff_o, s_oo)
    assert same_bits(got, want)


def raises_domain_error(fn, *args) -> bool:
    try:
        fn(*args)
    except DomainError:
        return True
    return False


@settings(max_examples=80)
@given(seed=seeds, layout=st.sampled_from(["one state", "paths", "lockstep"]),
       breakpoints=st.integers(1, 4))
def test_model_terms_equal_their_oracles_bitwise(seed, layout, breakpoints):
    # The cwd-direct drift and covariance, the Lorenz63 drift and the step
    # function against the forms they replaced. States are one (k,) state
    # at a scalar time, (P, k) paths at a scalar time, or (n, J, k) with a
    # lockstep theta of (n, 1) entries and times (n, 1); times fall before
    # the first breakpoint too.
    rng = np.random.default_rng(seed)
    n, paths = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    xshape, tshape = {"one state": ((), ()), "paths": ((paths,), ()),
                      "lockstep": ((n, paths), (n, 1))}[layout]
    x = rng.uniform(0.0, 60.0, xshape + (3,))
    x[rng.random(x.shape) < 0.2] = 0.0  # empty compartments
    times = np.cumsum(rng.uniform(0.5, 2.0, breakpoints))
    additions = StepFunction(times, rng.uniform(0.0, 20.0, breakpoints))
    t = rng.uniform(times[0] - 2.0, times[-1] + 2.0, tshape)
    for when in (t, times[0] - 1.0, times[-1]):
        assert same_bits(additions(when), step_value_by_search(additions, when))
    model = CwdDirectModel(additions=additions, natural_mortality=rng.uniform(0.0, 0.5))
    theta = rng.uniform(0.001, 0.5, (2,) + tshape)
    assert same_bits(model.drift(x, theta, t), cwd_drift_stacked(model, x, theta, t))
    args = (theta[0], theta[1], step_value_by_search(additions, t), model.natural_mortality)
    want = cwd_sigma_two_checks(x[..., 0], x[..., 1], *args)
    assert same_bits(model.diffusion_outer(x, theta, t), want)
    assert same_bits(cwd_sigma(x[..., 0], x[..., 1], *args), want)
    # a negative count raises, beside a NaN too, and a NaN alone does not
    bad = np.where(rng.random(x.shape[:-1] + (2,)) < 0.3,
                   rng.choice([-1.0, np.nan], x.shape[:-1] + (2,)), x[..., :2])
    assert (raises_domain_error(cwd_sigma, bad[..., 0], bad[..., 1], *args)
            == raises_domain_error(cwd_sigma_two_checks, bad[..., 0], bad[..., 1], *args))
    lorenz_x = rng.normal(0.0, 20.0, xshape + (3,))
    lorenz_theta = rng.uniform(0.5, 30.0, (4,) + tshape)
    assert same_bits(Lorenz63Model().drift(lorenz_x, lorenz_theta, t),
                     lorenz_drift_stacked(lorenz_x, lorenz_theta, t))


class DiagonalNoise(SdeModel):
    """Mean reversion to a point with a constant diagonal noise factor,
    the first of two coordinates observed."""

    dim = 2
    state_names = ("a", "b")
    observed = (0,)
    param_names = ("k", "s")
    param_constraints = ("positive", "positive")
    constant_diffusion = True

    def drift(self, x, theta, t):
        return theta[0] * (np.array([0.5, -1.0]) - x)

    def diffusion(self, x, theta, t):
        return np.diag([theta[1], 2.0 * theta[1]])


PATH_MODELS = {
    # model, theta, x0, number of observations, interval length
    **MODELS,
    "diagonal": (DiagonalNoise(), (0.9, 0.3), (1.0, 0.0), 5, 0.5),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PATH_MODELS)), seed=seeds, n_sims=st.integers(1, 40),
       m=substeps, n_data=st.integers(1, 3))
def test_replicate_paths_equal_the_euler_step_oracle(name, seed, n_sims, m, n_data):
    # _euler handed one stream for a batch reads it as the oracle does, one
    # (n_sims, k) draw per substep. With a constant factor the paths and the
    # prediction error are the oracle's bit for bit; a state-dependent
    # factor is applied by matmul there and by einsum in the oracle, so
    # cwd-direct agrees to the last bits only.
    model, theta, x0, n, dt = PATH_MODELS[name]
    theta, x0 = np.array(theta), np.array(x0)
    rng = np.random.default_rng(seed)
    data = [
        simulate_dataset(model, theta * rng.uniform(0.8, 1.25, theta.size), x0,
                         TimeGrid(0.0, dt * np.arange(1, n + 1), 4), rng_stream(seed, i))
        for i in range(n_data)
    ]
    got = prediction_error(model, theta, data, m, n_sims, rng_stream(seed))
    stream, total = rng_stream(seed), 0.0
    for i, ds in enumerate(data):
        grid = ds.grid(m)
        paths = _euler(model, theta, np.tile(x0, (n_sims, 1)), grid, rng_stream(seed, 7, i))
        want = simulate_paths_batch(model, theta, x0, grid, n_sims, rng_stream(seed, 7, i))
        assert paths.shape == want.shape == (n, n_sims, model.dim)
        if model.constant_diffusion:
            assert paths.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(paths - want) <= 1e-12 * np.abs(want))
        sims = simulate_paths_batch(model, theta, ds.x0, grid, n_sims, stream)
        diffs = sims[:, :, list(model.observed)] - ds.values[:, None, :]
        total += float(np.linalg.norm(diffs, axis=-1).sum())
    want = total / (n * n_data * n_sims)
    if model.constant_diffusion:
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * want
