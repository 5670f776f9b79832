"""Release gate: one test per acceptance check, each printing a verdict line.

Every check prints `C<n> PASS: ...` or `C<n> FAIL: ...` with the measured
numbers before asserting, so a transcript of this module shows the whole
checklist at a glance (run with -s to see the lines for passing tests).
The simulation-study checks rebuild their studies from the shipped presets
and are marked slow; `pytest -m slow tests/test_acceptance.py` runs them.
"""
import json
import math
import time

import numpy as np
import pytest

from psml.cli import main
from psml.core import matrix_sqrt, rng_stream, simulate_dataset, TimeGrid
from psml.likelihood import PenaltyConfig, log_likelihood, penalized_log_likelihood
from psml.models import make_model, OuModel, ou_exact_transition_logpdf
from psml.optimize import nelder_mead, OptimizerConfig
from psml.samplers import _blend_weight, propose_transition, SamplerSpec
from psml.study import (
    cwd_study_config,
    EpisodeSpec,
    lorenz_study_config,
    MethodSpec,
    ou_study_config,
    run_study,
    StudyConfig,
)
from psml.tune import run_lambda_ladder, TuneConfig
from reference import GaussianSpec, importance_weight, mvn_logpdf, weight_cv

THETA_OU = np.array([0.0187, 0.2610, 0.0224])


def verdict(name, checks):
    """checks: list of (ok, detail). Prints one line, then asserts all passed."""
    ok = all(flag for flag, _ in checks)
    line = f"{name} {'PASS' if ok else 'FAIL'}: " + "; ".join(d for _, d in checks)
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared study runs. Module-scoped so the OU study feeds two checks.


@pytest.fixture(scope="module")
def ou_summary():
    report, _ = run_study(ou_study_config(), workers=4)
    return report["summary"]["methods"]


# ---------------------------------------------------------------------------
# C1: transition-density oracle


def test_c1_transition_density_matches_exact_ou():
    model = OuModel()
    x, y, dt, substeps, n_paths = 1.0, 0.783, 1.0, 8, 5000
    exact = float(ou_exact_transition_logpdf(np.array([y]), np.array([x]), THETA_OU, dt)[0])
    specs = [
        ("pedersen", SamplerSpec("pedersen")),
        ("mbb", SamplerSpec("mbb")),
        ("regularized", SamplerSpec("regularized", 0.1)),
        ("aux-mbb", SamplerSpec("aux-mbb", 0.9)),
    ]
    start = time.perf_counter()
    rels = {}
    cvs = {}
    for idx, (name, spec) in enumerate(specs):
        paths = propose_transition(
            model, THETA_OU, np.full((n_paths, 1), x), np.array([y]),
            0.0, dt, substeps, spec, rng_stream(2024, idx),
        )
        _, lw = importance_weight(paths)
        shift = lw.max()
        log_phat = shift + math.log(np.exp(lw - shift).mean())
        rels[name] = abs(math.exp(log_phat - exact) - 1.0)
        cvs[name] = weight_cv(lw)
    elapsed = time.perf_counter() - start
    checks = [
        (rels[name] < 0.03, f"{name} rel err {rels[name]:.4f} < 0.03")
        for name, _ in specs
    ]
    checks.append(
        (cvs["mbb"] < cvs["pedersen"],
         f"mbb cv {cvs['mbb']:.3f} < pedersen cv {cvs['pedersen']:.3f}")
    )
    checks.append((elapsed < 60.0, f"elapsed {elapsed:.2f}s < 60s"))
    verdict("C1", checks)


# ---------------------------------------------------------------------------
# C2: exact equivalence identities


def test_c2_equivalence_identities():
    checks = []

    # aux-mbb at rho = 1 reproduces mbb bitwise under a shared stream, on
    # both the scalar-covariance driver (OU) and the generic one (CWD).
    ou = OuModel()
    a = propose_transition(ou, THETA_OU, np.full((64, 1), 1.0), np.array([0.8]),
                           0.0, 1.0, 6, SamplerSpec("aux-mbb", 1.0), rng_stream(55))
    b = propose_transition(ou, THETA_OU, np.full((64, 1), 1.0), np.array([0.8]),
                           0.0, 1.0, 6, SamplerSpec("mbb"), rng_stream(55))
    same_ou = (np.array_equal(a.states, b.states)
               and np.array_equal(a.log_target, b.log_target)
               and np.array_equal(a.log_proposal, b.log_proposal))
    cwd = make_model("cwd-direct", additions=10.0, natural_mortality=0.15)
    starts = np.column_stack([np.full(32, 30.0), np.full(32, 3.0), np.full(32, 2.0)])
    theta_cwd = np.array([0.03, 0.20])
    c = propose_transition(cwd, theta_cwd, starts, np.array([4.0]),
                           0.0, 1.0, 4, SamplerSpec("aux-mbb", 1.0), rng_stream(56))
    d = propose_transition(cwd, theta_cwd, starts, np.array([4.0]),
                           0.0, 1.0, 4, SamplerSpec("mbb"), rng_stream(56))
    same_cwd = (np.array_equal(c.states, d.states)
                and np.array_equal(c.log_target, d.log_target)
                and np.array_equal(c.log_proposal, d.log_proposal))
    checks.append((same_ou and same_cwd, "aux-mbb(rho=1) == mbb bitwise (scalar and generic)"))

    # Zero penalty weight leaves the objective equal to the log-likelihood.
    ds = simulate_dataset(ou, THETA_OU, np.array([1.0]),
                          TimeGrid(0.0, tuple(float(t) for t in range(1, 7)), 32),
                          rng_stream(57))
    config = PenaltyConfig(lam=0.0, n_paths=8, substeps=4, sampler=SamplerSpec("mbb"))
    value, _ = penalized_log_likelihood(ou, THETA_OU, None, ds, config, seed=58)
    base = log_likelihood(ou, THETA_OU, ds, 8, 4, SamplerSpec("mbb"), seed=58)
    checks.append((value == base.loglik,
                   f"lam=0 objective {value:.12f} == loglik {base.loglik:.12f}"))

    # The blend weight reaches exactly 1 on the last bridged substep.
    blend_ok = all(
        _blend_weight(m - 1, m, rho) == 1.0
        for m in (2, 5, 10, 64)
        for rho in (0.0, 0.1, 0.5, 1.0)
    )
    checks.append((blend_ok, "blend weight at m = M-1 is identically 1"))
    verdict("C2", checks)


# ---------------------------------------------------------------------------
# C3 and C6: the OU simulation study


@pytest.mark.slow
def test_c3_penalty_halves_ou_rmse(ou_summary):
    # Known red check, kept as the honest record. With one fixed evaluation
    # seed per fit the J=8 surface is smooth and the plain-bridge fits track
    # the exact MLE closely, so the penalized estimator has no instability
    # left to repair; its theta-dependent penalty term only shifts theta2.
    # The intended halving shows up only when the baseline itself is unstable.
    rmse_mbb = ou_summary["mbb"]["rmse"]
    rmse_psml = ou_summary["psml-mbb"]["rmse"]
    checks = [
        (ou_summary["mbb"]["n_failed"] == 0 and ou_summary["psml-mbb"]["n_failed"] == 0,
         f"failures mbb={ou_summary['mbb']['n_failed']} psml-mbb={ou_summary['psml-mbb']['n_failed']}"),
    ]
    for i, pname in ((1, "theta2"), (2, "theta3")):
        checks.append(
            (rmse_psml[i] <= 0.5 * rmse_mbb[i],
             f"{pname} rmse {rmse_psml[i]:.6f} <= 0.5 * {rmse_mbb[i]:.6f}")
        )
    verdict("C3", checks)


@pytest.mark.slow
def test_c6_estimated_rho_ranges(ou_summary):
    # The regularized bound is a known red check, kept as the honest record.
    # On these near-equilibrium transitions the family's weight cv rises
    # monotonically in rho (measured at J=8 and at J=5000 alike), so the
    # penalized objective is genuinely maximized at the rho = 0 edge, where
    # the proposal is the bridge in law, and the fitted rho settles there.
    rho_aux = ou_summary["psml-mbb"]["mean_rho"]
    rho_reg = ou_summary["psml-reg"]["mean_rho"]
    verdict("C6", [
        (0.95 <= rho_aux <= 1.0, f"mean rho psml-mbb {rho_aux:.4f} in [0.95, 1.0]"),
        (0.2 <= rho_reg <= 0.45, f"mean rho psml-reg {rho_reg:.4f} in [0.2, 0.45]"),
    ])


# ---------------------------------------------------------------------------
# C4: the Lorenz simulation study


@pytest.mark.slow
def test_c4_lorenz_study_rmse():
    report, _ = run_study(lorenz_study_config(), workers=4)
    methods = report["summary"]["methods"]
    reg = methods["psml-reg"]["rmse"]
    mbb = methods["mbb"]["rmse"]
    # The mbb bound is kept although it does not hold at this scale: with one
    # fixed evaluation seed per fit the plain-bridge surface is smooth (its
    # J=32 log-likelihood tracks a J=512 reference closely on these datasets)
    # and the unpenalized fits land near the truth, so the expected blow-up
    # does not materialize. Known red check, kept as the honest record.
    verdict("C4", [
        (methods["psml-reg"]["n_failed"] == 0,
         f"failures psml-reg={methods['psml-reg']['n_failed']} mbb={methods['mbb']['n_failed']}"),
        (reg[1] < 1.0, f"psml-reg rmse(r) {reg[1]:.4f} < 1.0"),
        (reg[2] < 0.5, f"psml-reg rmse(b) {reg[2]:.4f} < 0.5"),
        (reg[3] < 1.5, f"psml-reg rmse(sigma) {reg[3]:.4f} < 1.5"),
        (mbb[1] > 5.0, f"mbb rmse(r) {mbb[1]:.4f} > 5"),
    ])


# ---------------------------------------------------------------------------
# C5: the epidemic simulation study


@pytest.mark.slow
def test_c5_cwd_study_bias_and_rmse():
    report, _ = run_study(cwd_study_config(), workers=4)
    cell = report["summary"]["methods"]["psml-mbb"]
    verdict("C5", [
        (cell["n_failed"] == 0, f"failures={cell['n_failed']} of {cell['n_ok'] + cell['n_failed']}"),
        (abs(cell["bias"][0]) <= 0.04, f"|bias(beta)| {abs(cell['bias'][0]):.4f} <= 0.04"),
        (cell["rmse"][1] <= 0.10, f"rmse(mu) {cell['rmse'][1]:.4f} <= 0.10"),
    ])


# ---------------------------------------------------------------------------
# C7: ladder termination paths on scripted objectives


def test_c7_ladder_termination_paths():
    cfg = TuneConfig(eps0=0.04, delta_eps=0.001)
    traces = []

    def run(eps_fn):
        result = run_lambda_ladder(lambda lam, warm: (lam, eps_fn(round(lam, 6))), cfg)
        traces.append(result.trace)
        return result

    # Immediate stop: the start already beats the threshold.
    r_stop = run(lambda lam: 0.01)
    stop_ok = r_stop.lam == 0.5 and len(r_stop.trace) == 1

    # Downward walk: error is a parabola with its minimum under the grid.
    r_down = run(lambda lam: 0.5 + 10.0 * (lam - 0.45) ** 2)
    down_ok = (
        r_down.lam == pytest.approx(0.45)
        and [t.accepted for t in r_down.trace] == [True, True, True, False]
    )

    # Upward walk: the first downward probe is rejected, then gains taper off.
    table = {0.5: 0.50, 0.475: 0.52, 0.525: 0.45, 0.55: 0.40,
             0.575: 0.35, 0.6: 0.30, 0.625: 0.2995}
    r_up = run(lambda lam: table[lam])
    up_ok = (
        r_up.lam == pytest.approx(0.6)
        and [round(t.lam, 6) for t in r_up.trace] == [0.5, 0.475, 0.525, 0.55, 0.575, 0.6, 0.625]
        and [t.accepted for t in r_up.trace] == [True, False, True, True, True, True, False]
    )

    # Clamp: error keeps improving all the way down, the walk stops at 0.
    r_clamp = run(lambda lam: 1.0 + lam)
    clamp_ok = (
        r_clamp.lam == 0.0
        and r_clamp.trace[-1].lam == 0.0
        and all(t.accepted for t in r_clamp.trace)
    )

    never_negative = all(t.lam >= 0.0 for tr in traces for t in tr)
    improved = True
    for tr in traces:
        last_eps = None
        for t in tr:
            if t.accepted:
                if last_eps is not None and not (last_eps - t.eps > cfg.delta_eps):
                    improved = False
                last_eps = t.eps
    verdict("C7", [
        (stop_ok, "start below threshold stops at once"),
        (down_ok, "downward walk accepts while gains exceed delta_eps"),
        (up_ok, "rejected first probe turns the walk upward"),
        (clamp_ok, "walk clamps at lambda = 0"),
        (never_negative, "lambda never negative"),
        (improved, "every accepted move improved by more than delta_eps"),
    ])


# ---------------------------------------------------------------------------
# C8: numerical kernels


def test_c8_numerical_kernels():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(1000):
        k = int(rng.integers(1, 6))
        a = rng.normal(size=(k, k))
        if i % 5 == 0:
            a[:, 0] = 0.0  # rank-deficient every fifth draw
        sigma = a @ a.T
        root = matrix_sqrt(sigma)
        worst = max(worst, float(np.max(np.abs(root @ root - sigma))))
    sqrt_ok = worst <= 1e-10

    cwd = make_model("cwd-direct", additions=10.0, natural_mortality=0.15)
    min_eig = math.inf
    for beta, mu in ((0.03, 0.20), (0.10, 0.50), (0.01, 0.05)):
        for s in (0.0, 5.0, 20.0, 50.0):
            for i_count in (0.0, 1.0, 10.0, 30.0):
                outer = cwd.diffusion_outer(np.array([s, i_count, 3.0]),
                                            np.array([beta, mu]), 0.0)
                min_eig = min(min_eig, float(np.linalg.eigvalsh(outer).min()))
    psd_ok = min_eig >= -1e-10

    def neg_rosen(x):
        return -((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)

    res = nelder_mead(neg_rosen, np.array([-1.2, 1.0]),
                      OptimizerConfig(f_tol=1e-10, max_evals=1500))
    rosen_ok = bool(np.max(np.abs(res.x - 1.0)) <= 1e-3 and res.evals <= 1500)

    worst_chain = 0.0
    for _ in range(10):
        m = rng.normal(size=(4, 4))
        spec = GaussianSpec(rng.normal(size=4), m @ m.T + 0.5 * np.eye(4))
        x = spec.mean + rng.normal(size=4)
        joint = mvn_logpdf(x, spec)
        split = mvn_logpdf(x[[0, 2]], spec, idx=(0, 2)) + mvn_logpdf(
            x[[1, 3]], spec.conditional((0, 2), x[[0, 2]])
        )
        worst_chain = max(worst_chain, abs(joint - split))
    chain_ok = worst_chain <= 1e-9

    verdict("C8", [
        (sqrt_ok, f"matrix sqrt worst round-trip {worst:.2e} <= 1e-10"),
        (psd_ok, f"epidemic covariance min eigenvalue {min_eig:.2e} >= -1e-10"),
        (rosen_ok, f"Rosenbrock solved to {np.max(np.abs(res.x - 1.0)):.2e} in {res.evals} evals"),
        (chain_ok, f"mvn chain rule worst gap {worst_chain:.2e} <= 1e-9"),
    ])


# ---------------------------------------------------------------------------
# C9: study runs are byte-identical at any worker count


def test_c9_study_deterministic_across_threads(tmp_path):
    config = StudyConfig(
        model="ou",
        theta0=tuple(THETA_OU),
        theta_init=(0.05, 0.5, 0.05),
        episodes=(EpisodeSpec(x0=(1.0,), n=6, dt=1.0),),
        methods=(
            MethodSpec("exact-mle", "exact-mle"),
            MethodSpec("mbb", "mbb", n_paths=4, substeps=2, lam=0.0),
        ),
        n_replicates=2,
        data_substeps=16,
        seed=3,
    )
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(config.to_json())
    outs = {}
    for threads in (1, 2):
        out_dir = tmp_path / f"t{threads}"
        code = main(["study", "--config", str(cfg_path), "--out", str(out_dir),
                     "--threads", str(threads)])
        assert code == 0
        outs[threads] = {
            name: (out_dir / name).read_bytes() for name in ("report.json", "table.csv")
        }
    same = outs[1] == outs[2]
    json.loads(outs[1]["report.json"])  # well-formed output
    verdict("C9", [(same, "report.json and table.csv byte-identical for 1 and 2 workers")])
