"""The benchmark's workloads, run through psml's public API.

A workload turns the benchmark seed into inputs with simulate_dataset,
runs one unit of work -- a fit, or a bootstrap of fits -- and checks what
the unit returned. Every fit is capped by OptimizerConfig.max_evals far
below the evaluation count of an uncapped fit (OU 359, Lorenz 379,
cwd-direct 315 at the seed commit), so every unit does the same number
of objective evaluations and a last-digit change to the estimator cannot
change how much work is timed. lambda is fixed at the tuning ladder's
first rung and not tuned, because the ladder's rung count varies with
the data and a last-digit change can flip a rung.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psml import core, likelihood, models, optimize, samplers, tune

LAM = 0.5
# Relative tolerance of the recorded start objectives: wide enough for a
# changed summation order, far too narrow for a changed estimator.
REL_TOL = 1e-9

_TAG_DATA = 0
_TAG_FIT = 1
# parametric_bootstrap seeds replicate b's fit with derive_seed(seed, 3, b).
_TAG_BOOT_FIT = getattr(tune, "_TAG_BOOT_FIT", 3)


@dataclass(frozen=True)
class Episode:
    x0: tuple
    n: int
    dt: float


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    theta0: tuple
    theta_init: tuple  # fits start here; bootstrap replicates warm-start at theta0
    kind: str
    rho_init: float
    episodes: tuple
    data_substeps: int
    n_paths: int
    substeps: int
    max_evals: int
    replicates: int = 0  # > 0: one parametric_bootstrap of that many replicates
    workers: int = 1

    @property
    def penalty(self) -> likelihood.PenaltyConfig:
        return likelihood.PenaltyConfig(
            LAM, self.n_paths, self.substeps, samplers.SamplerSpec(self.kind, self.rho_init)
        )

    @property
    def dim(self) -> int:
        """Search dimension: theta plus the estimated rho."""
        return len(self.theta0) + 1

    def setup(self, seed: int) -> "Inputs":
        """Build the model and simulate this seed's datasets."""
        model = models.make_model(self.model)
        theta0 = np.asarray(self.theta0, dtype=float)
        datasets = []
        for e, ep in enumerate(self.episodes):
            grid = core.TimeGrid(0.0, ep.dt * np.arange(1, ep.n + 1), self.data_substeps)
            datasets.append(core.simulate_dataset(
                model, theta0, np.asarray(ep.x0, dtype=float), grid,
                core.rng_stream(seed, _TAG_DATA, e),
            ))
        return Inputs(self, seed, model, datasets)


@dataclass
class Inputs:
    workload: Workload
    seed: int
    model: object
    datasets: list

    def objective(self, datasets, theta, rho, fit_seed) -> float:
        value, _ = likelihood.penalized_log_likelihood(
            self.model, theta, rho, datasets, self.workload.penalty, fit_seed,
            on_failure="neginf",
        )
        return float(value)

    def fits(self) -> list:
        """(datasets, start theta, fit seed) of every fit a unit runs.

        A bootstrap's replicate data comes from parametric_bootstrap itself,
        through its estimate hook, so it is exactly the data the unit fits.
        """
        w = self.workload
        if not w.replicates:
            return [(self.datasets, w.theta_init, core.derive_seed(self.seed, _TAG_FIT))]
        captured = []

        def capture(sims, b):
            captured.append((sims, w.theta0, core.derive_seed(self.seed, _TAG_BOOT_FIT, b)))
            return np.asarray(w.theta0, dtype=float), w.rho_init

        self._bootstrap(1, estimate=capture)
        return captured

    def _bootstrap(self, workers, estimate=None):
        w = self.workload
        return tune.parametric_bootstrap(
            self.model, np.asarray(w.theta0, dtype=float), w.rho_init, LAM, self.datasets,
            samplers.SamplerSpec(w.kind, w.rho_init), w.n_paths, w.substeps,
            n_replicates=w.replicates, optimizer=optimize.OptimizerConfig(max_evals=w.max_evals),
            seed=self.seed, estimate_rho=True, data_substeps=w.data_substeps,
            workers=workers, estimate=estimate,
        )

    def run(self, workers: int | None = None) -> "Outcome":
        """One unit of work: a capped fit, or a capped bootstrap."""
        w = self.workload
        if w.replicates:
            res = self._bootstrap(w.workers if workers is None else workers)
            rhos = res.rho_replicates if res.rho_replicates is not None else [None] * len(res.replicates)
            return Outcome(
                [(np.asarray(th), r) for th, r in zip(res.replicates, rhos)],
                evals=w.replicates * w.max_evals,
                fits=[],
                objectives=[],
                failed=res.n_failed,
            )
        _, theta_init, fit_seed = self.fits()[0]
        fit = optimize.maximize_psml(
            self.model, self.datasets, w.penalty, theta_init, w.rho_init,
            optimize.OptimizerConfig(max_evals=w.max_evals), seed=fit_seed, estimate_rho=True,
        )
        return Outcome(
            [(np.asarray(fit.theta), fit.rho)],
            evals=fit.evals,
            fits=[(fit.evals, fit.converged)],
            objectives=[fit.objective],
            failed=0,
        )


@dataclass
class Outcome:
    estimates: list  # (theta, rho) per fit
    evals: int  # objective evaluations; a bootstrap counts its budget
    fits: list  # (evals, converged) per fit where the unit reports it
    objectives: list  # fitted objective per fit where the unit reports it
    failed: int  # replicates the bootstrap dropped

    def same_as(self, other: "Outcome") -> bool:
        """Bit-for-bit equality of the estimates and fit summaries."""
        if len(self.estimates) != len(other.estimates):
            return False
        for (t1, r1), (t2, r2) in zip(self.estimates, other.estimates):
            if t1.tobytes() != t2.tobytes() or r1 != r2:
                return False
        return self.fits == other.fits and self.objectives == other.objectives


def cap_reached(workload: Workload, evals: int, converged: bool) -> bool:
    """A capped fit stops at the cap, or up to dim - 1 short of it when a
    Nelder-Mead shrink step (dim evaluations) no longer fits; or converges."""
    return converged or workload.max_evals - workload.dim < evals <= workload.max_evals


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is in BENCHMARK.json.
        Workload(
            name="ou-fit",
            model="ou",
            theta0=(0.0187, 0.2610, 0.0224),
            theta_init=(0.05, 0.5, 0.05),
            kind="aux-mbb",
            rho_init=0.8,
            episodes=(Episode((1.0,), 100, 1.0),),
            data_substeps=64,
            n_paths=8,
            substeps=8,
            max_evals=30,
        ),
        Workload(
            name="cwd-fit",
            model="cwd-direct",
            theta0=(0.03, 0.20),
            theta_init=(0.05, 0.3),
            kind="aux-mbb",
            rho_init=0.8,
            episodes=(Episode((36.0, 4.0, 0.0), 11, 1.0), Episode((46.0, 4.0, 0.0), 10, 1.0)),
            data_substeps=12,
            n_paths=48,
            substeps=12,
            max_evals=20,
        ),
        Workload(
            name="lorenz-boot",
            model="lorenz63",
            theta0=(10.0, 28.0, 8.0 / 3.0, 2.0),
            theta_init=(10.0, 28.0, 8.0 / 3.0, 2.0),
            kind="regularized",
            rho_init=0.5,
            episodes=(Episode((-10.0, -10.0, 30.0), 21, 0.05),),
            data_substeps=64,
            n_paths=32,
            substeps=10,
            max_evals=40,
            replicates=4,
            workers=2,
        ),
    )
}


def start_objectives(inputs: Inputs) -> list:
    """Objective of every fit at its start point, as the unit will see it."""
    w = inputs.workload
    return [inputs.objective(data, theta, w.rho_init, fit_seed) for data, theta, fit_seed in inputs.fits()]


def relative_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))
