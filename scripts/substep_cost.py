"""Layer-by-layer cost of a likelihood evaluation on the benchmark's inputs.

    python3 scripts/substep_cost.py
    python3 scripts/substep_cost.py --workload cwd-fit --repeat 7 --number 200

For each workload of perfbench/workloads.py it builds that workload's
inputs for --seed and prints, in microseconds per call, the best of
--repeat rounds of --number calls each, timed in the process's CPU
time so that time spent descheduled on a shared machine is left out:

- log_likelihood: one evaluation at the fit's start point, in rounds of
  a tenth as many calls;
- kernel call: one _transition_ends call on the inputs of the
  likelihood's first kernel call at that point, read from a group's
  rows (likelihood._Rows) over the blocks that the likelihood gave that
  call, as the likelihood reads them;
- fixed cost per kernel call: that call's time less the time of its M
  substeps, 2 call(M) - call(2M), from calls with M and 2M substeps:
  its set-up before the substep loop, with the endpoint substep counted
  as one more substep. The benchmark's kernel spans cannot show this
  part;
- substep: one intermediate substep of that call, (call(2M) - call(M)) / M.
  These two rows take both calls from the same round and give the median
  over rounds, since the best of each call alone may come from rounds
  that a shared machine ran at different speeds;
- for a partially observed model, each part of an intermediate substep,
  called on the states of the middle substep of a kernel call.

It then prints the memory churn of a steady lockstep round: the fits of
the unit's first lockstep group (a bootstrap's first chunk) evaluated
at their start points together, as the fit driver does once every fit
asks for one point, on a group's rows (likelihood._Rows) that an
earlier round has already built and stacked. It gives the peak
allocation of one such round by tracemalloc, and the minor page faults
per evaluation (resource.getrusage) over a tenth of --number rounds; the
benchmark's per-evaluation spans do not see either.

The script imports psml from the checkout's src/ and the workloads from
perfbench/, and changes and replaces nothing in either. It is not a test
and takes no part in the benchmark.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no caches in src/ or perfbench/

from psml import core, likelihood, samplers, tune  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def rounds_us(fns, repeat: int, number: int) -> list:
    """Per round, per function, the mean CPU time of number calls, in us;
    the functions take turns within each of repeat rounds."""
    for fn in fns:
        fn()
    rounds = []
    for _ in range(repeat):
        row = []
        for fn in fns:
            t = time.process_time()
            for _ in range(number):
                fn()
            row.append((time.process_time() - t) / number * 1e6)
        rounds.append(row)
    return rounds


def best_us(fns, repeat: int, number: int) -> list:
    """Per function, the best over repeat rounds of rounds_us."""
    return [min(col) for col in zip(*rounds_us(fns, repeat, number))]


class _Recording(likelihood._Rows):
    """A group's rows that note the blocks of every kernel call they stack."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def stack(self, blocks):
        self.calls.append(list(blocks))
        return super().stack(blocks)


def first_call(inputs, substeps: int):
    """Arguments of _transition_ends for the likelihood's first kernel call
    at the start point, with substeps substeps: the call's blocks as the
    likelihood cuts its first step at the workload's M (likelihood._calls),
    read from rows built for substeps, so that calls with M and 2M
    substeps hold the same transitions."""
    w, model = inputs.workload, inputs.model
    theta = np.asarray(w.theta_init, dtype=float)
    spec = samplers.SamplerSpec(w.kind, w.rho_init)
    seed = inputs.fits()[0][2]
    recording = _Recording()
    likelihood._likelihoods(model, [(theta, spec, inputs.datasets, seed)], w.n_paths, w.substeps,
                            "neginf", recording)
    blocks = recording.calls[0]
    rows = likelihood._Rows()
    data = likelihood._model_datasets(model, inputs.datasets)
    rows.begin(model, w.n_paths, substeps, [(inputs.datasets, data, seed)])
    (*_, z, z_end, z_dens), g, starts = rows.stack(blocks)
    uno = list(model.unobserved)
    if uno:
        # the first step's particle clouds are point masses at the start states
        starts = starts.copy()
        for r, (_, d, _, _) in enumerate(blocks):
            starts[r][:, uno] = data[d].x0[uno]
    return (model, theta, starts, spec, (z, z_end, z_dens), g)


def part_timers(args):
    """Each part of one intermediate substep, as _kernel and the loop of
    _transition_ends call them, on the states of the middle substep."""
    model, theta, starts, spec, draws, g = args
    substeps = len(g.times)
    c = samplers._Coords.of(model)
    m = substeps // 2
    states = []
    samplers._transition_ends(*args, states)
    x = states[m]
    t = g.times[m, :, None]
    xa = model.clamp_state(x)
    f, mean_e, outer, cov_e = samplers._euler(model, theta, x, t, g.dl, True)
    w, s = samplers._mix(spec, m, substeps)
    eta, sig = samplers._bridge_moments(f, outer, x, c, substeps - m, g)
    q_cov = samplers._convex(w, s, cov_e, sig * g.dl[..., None])
    chol_e, chol_q, logdet_e, _ = samplers._chol_pair(cov_e, q_cov)
    z = draws[0][:, m]
    diff = samplers._convex(w, 1.0, mean_e, x + eta * g.dl) + core.chol_mul(chol_q, z) - mean_e
    timers = {
        "_kernel": lambda: samplers._kernel(model, theta, x, t, m, substeps, spec, c, g),
        "  _euler": lambda: samplers._euler(model, theta, x, t, g.dl, True),
        "    clamp_state": lambda: model.clamp_state(x),
        "    drift": lambda: model.drift(xa, theta, t),
        "    diffusion_outer": lambda: model.diffusion_outer(xa, theta, t),
    }
    additions = getattr(model, "additions", None)
    if additions is not None:
        timers["    additions(t), in both"] = lambda: additions(t)
    timers.update({
        "  _bridge_moments": lambda: samplers._bridge_moments(f, outer, x, c, substeps - m, g),
        "  proposal moments (_convex x 2)": lambda: (
            samplers._convex(w, 1.0, mean_e, x + eta * g.dl),
            samplers._convex(w, s, cov_e, sig * g.dl[..., None]),
        ),
        "  _chol_pair, with log-determinants": lambda: samplers._chol_pair(cov_e, q_cov),
        "move (chol_mul)": lambda: core.chol_mul(chol_q, z),
        "target density (_factor_logpdf)": lambda: core._factor_logpdf(diff, chol_e, logdet_e),
    })
    return timers


def round_churn(inputs, rounds: int):
    """(evaluations per round, traced peak bytes of one steady round,
    minor page faults per evaluation) of the unit's first lockstep group
    at its start points."""
    w = inputs.workload
    fits = inputs.fits()
    if w.replicates:
        fits = fits[: len(tune._chunks(w.replicates, w.workers, tune._GROUP_FITS)[0])]
    spec = samplers.SamplerSpec(w.kind, w.rho_init)
    problems = [(np.asarray(theta, dtype=float), spec, data, seed) for data, theta, seed in fits]
    rows = likelihood._Rows()

    def one_round():
        likelihood._likelihoods(inputs.model, problems, w.n_paths, w.substeps, "neginf", rows)

    one_round()  # builds the group's rows and the stacks that later rounds reuse
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        one_round()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    tracemalloc.start()
    try:
        one_round()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(problems), peak, faults / (rounds * len(problems))


def report(name: str, repeat: int, number: int, seed: int) -> None:
    w = WORKLOADS[name]
    inputs = w.setup(seed)
    model = inputs.model
    theta = np.asarray(w.theta_init, dtype=float)
    spec = samplers.SamplerSpec(w.kind, w.rho_init)
    fit_seed = inputs.fits()[0][2]

    def evaluation():
        likelihood.log_likelihood(model, theta, inputs.datasets, w.n_paths, w.substeps, spec,
                                  fit_seed, on_failure="neginf")

    one = first_call(inputs, w.substeps)
    two = first_call(inputs, 2 * w.substeps)
    n, n_paths, k = one[2].shape
    print(f"{name}: {model.__class__.__name__}, n = {n}, J = {n_paths}, k = {k}, "
          f"M = {w.substeps}, {w.kind} (us per call, {repeat} rounds of {number})")
    [lik] = best_us([evaluation], repeat, max(number // 10, 1))
    calls = rounds_us([lambda: samplers._transition_ends(*one),
                       lambda: samplers._transition_ends(*two)], repeat, number)
    rows = [("log_likelihood", lik),
            ("kernel call (_transition_ends)", min(m for m, _ in calls)),
            ("fixed cost per kernel call", statistics.median(2 * m - m2 for m, m2 in calls)),
            ("intermediate substep", statistics.median((m2 - m) / w.substeps for m, m2 in calls))]
    if model.unobserved:
        parts = part_timers(one)
        rows += [("parts of an intermediate substep:", None)]
        rows += [("  " + part, us) for part, us in zip(parts, best_us(list(parts.values()), repeat, number))]
    for label, us in rows:
        print(f"  {label}" if us is None else f"  {label:<40} {us:10.1f}")
    n_evals, peak, faults = round_churn(inputs, max(number // 10, 1))
    print(f"  steady round of {n_evals} evaluation(s): traced peak {peak / 1e3:.1f} kB, "
          f"{faults:.2f} minor page faults per evaluation")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                    help="workload to time (repeatable; default every workload)")
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed of the inputs")
    ap.add_argument("--repeat", type=int, default=5, help="timing rounds; the best is kept")
    ap.add_argument("--number", type=int, default=200, help="calls per round")
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        ap.error("--repeat and --number must be >= 1")
    for name in args.workload or sorted(WORKLOADS):
        report(name, args.repeat, args.number, args.seed)


if __name__ == "__main__":
    main()
