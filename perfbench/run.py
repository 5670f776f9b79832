"""Fit-throughput benchmark of psml: capped fits and a capped bootstrap.

    python3 perfbench/run.py --workload ou-fit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

A run imports psml from the checkout's src/, simulates its workload's
inputs from --seed, checks the objective at each fit's start point
against the value recorded in reference.json, then runs the workload's
unit of work back to back (a closed loop, one unit at a time) while the
next unit is expected to end within --seconds, and checks every output.
It prints the machine it ran on, each figure with its unit, and last one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics, taken from three more units run with spans around
the calls into each psml module (see spans.py). Details and spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
CLI_PROBES = 5
TRACED_UNITS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Units of figures that are printed but not part of BENCHMARK.json.
EXTRA_UNITS = {
    "failed_frac": "frac",
    "units": "count",
    "unit_wall_median_s": "s",
    "evals_per_unit": "count",
    "t1_wall_s": "s",
    "likelihood.evals_traced": "count",
}

# Set-up probe: a fresh interpreter times its own import of psml, model
# build and data simulation, so every sample pays the import in full.
_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].setup({seed})
print(time.perf_counter() - t)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_psml():
    """Import psml from this checkout's src/ and nowhere else."""
    if not (SRC / "psml" / "__init__.py").is_file():
        fail(f"no psml package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import psml

    if Path(psml.__file__).resolve().parent != (SRC / "psml").resolve():
        fail(f"psml imported from {psml.__file__}, not from {SRC}")


class Ledger:
    """Attempted and failed operations, with a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{what}: {detail}")
        return ok

    def crashed(self, what: str, exc: BaseException, count: int = 1):
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        traceback.print_exc(file=sys.stderr)
        for _ in range(count):
            self.record(what, False, detail)


# ---------------------------------------------------------------------------
# Machine


def blas_threads():
    """Thread count of the loaded OpenBLAS, as it stands, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Measurements


def median_probe(cmd: list, times_itself: bool, count: int, env=None) -> float:
    """Median wall time of count runs of cmd; a probe that times itself
    prints its own seconds as its last line."""
    samples = []
    for _ in range(count):
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        wall = time.perf_counter() - t
        samples.append(float(proc.stdout.split()[-1]) if times_itself else wall)
    return statistics.median(samples)


def setup_seconds(name: str, seed: int) -> float:
    code = _PROBE.format(paths=[str(SRC), str(BENCH)], name=name, seed=seed)
    return median_probe([sys.executable, "-c", code], True, SETUP_PROBES)


def cli_startup_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return median_probe([sys.executable, "-m", "psml", "--help"], False, CLI_PROBES, env)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_units(inputs, seconds: float, ledger: Ledger):
    """Run units back to back while the next one is expected to end within
    seconds, judged by the last unit's wall time; at least one unit."""
    outcomes, walls = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + walls[-1] <= deadline:
        t = time.perf_counter()
        try:
            outcome = inputs.run()
        except Exception as exc:  # a failed unit is reported, not fatal
            ledger.crashed("unit raised", exc, max(inputs.workload.replicates, 1))
            break
        walls.append(time.perf_counter() - t)
        outcomes.append(outcome)
    return outcomes, walls


# ---------------------------------------------------------------------------
# Output checks


def check_start(wl, inputs, reference: dict, ledger: Ledger):
    """Start objectives are finite and match the recorded ones, here and
    on the canonical seed 0."""
    from workloads import REL_TOL, relative_gap, start_objectives

    starts = start_objectives(inputs)
    for b, v in enumerate(starts):
        ledger.record(f"start objective {b} finite", math.isfinite(v), repr(v))
    recorded = reference.get(wl.name, {})
    cases = [(inputs.seed, starts)]
    if inputs.seed != 0:
        cases.append((0, start_objectives(wl.setup(0))))
    for seed, values in cases:
        want = recorded.get(str(seed))
        if want is None:
            continue
        for b, (got, exp) in enumerate(zip(values, want)):
            gap = relative_gap(got, exp)
            ledger.record(f"seed {seed} start objective {b} matches reference", gap <= REL_TOL,
                          f"got {got!r}, recorded {exp!r}, relative gap {gap:.3g}")
    return starts


def check_outcome(wl, inputs, outcome, starts, ledger: Ledger):
    from workloads import REL_TOL, cap_reached

    ledger.record("no replicate dropped", outcome.failed == 0, f"{outcome.failed} failed")
    fitted = outcome.objectives
    if not fitted:  # a bootstrap reports estimates only: evaluate them
        fitted = [
            inputs.objective(data, theta, rho, fit_seed)
            for (data, _, fit_seed), (theta, rho) in zip(inputs.fits(), outcome.estimates)
        ]
    for b, (start, end) in enumerate(zip(starts, fitted)):
        ok = math.isfinite(end) and end >= start - REL_TOL * abs(start)
        ledger.record(f"fit {b} objective finite and not below its start", ok,
                      f"start {start!r}, fitted {end!r}")
    for b, (evals, converged) in enumerate(outcome.fits):
        ledger.record(f"fit {b} used its evaluation cap or converged",
                      cap_reached(wl, evals, converged), f"{evals} evals, cap {wl.max_evals}")


# ---------------------------------------------------------------------------
# One run


def run(args) -> dict:
    started = time.perf_counter()
    import_psml()
    sys.path.insert(0, str(BENCH))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())["start_objectives"]
    OUT.mkdir(exist_ok=True)
    info = machine()
    ledger = Ledger()

    inputs = wl.setup(args.seed)
    starts = check_start(wl, inputs, reference, ledger)
    outcomes, walls = timed_units(inputs, args.seconds, ledger)
    for i, outcome in enumerate(outcomes):
        if i == 0:
            check_outcome(wl, inputs, outcome, starts, ledger)
        else:
            ledger.record(f"unit {i} repeats unit 0 bit for bit", outcome.same_as(outcomes[0]))
    # Whole-run figures: total time over units, total evaluations over total
    # time. On a host whose speed drifts by 15% from unit to unit, the mean
    # of ten units varies less between runs than their median.
    m = {
        "wall_s": statistics.fmean(walls) if walls else 0.0,
        "evals_per_s": sum(o.evals for o in outcomes) / sum(walls) if outcomes else 0.0,
        "units": len(walls),
        "unit_wall_median_s": statistics.median(walls) if walls else 0.0,
        "evals_per_unit": outcomes[0].evals if outcomes else 0,
    }
    m["peak_rss_mb"] = peak_rss_mb()

    if args.trace:
        m.update(traced(args, wl, inputs, outcomes, m, ledger))
    else:
        m["setup_s"] = setup_seconds(wl.name, args.seed)
    m["failed_frac"] = ledger.failed / max(ledger.attempted, 1)
    info["loadavg_end"] = os.getloadavg()

    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"run {time.perf_counter() - started:.1f} s")
    for key, value in sorted(info.items()):
        print(f"  machine {key} = {value}")
    for name in sorted(m):
        print(f"  {name} = {m[name]!r} {units.get(name, '')}")
    for note in ledger.notes:
        print(f"  FAILED {note}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {x["name"]: {"value": m[x["name"]], "unit": x["unit"]} for x in wanted},
    }
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": info,
              "metrics": m, "walls_s": walls, "failures": ledger.notes}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    return result


def traced(args, wl, inputs, outcomes, m, ledger: Ledger) -> dict:
    """Per-layer figures from TRACED_UNITS more units, run with spans."""
    import spans
    from workloads import cap_reached

    out = {"cli.startup_s": cli_startup_seconds(), "tune.pool.parallel_eff": 0.0}
    if wl.workers > 1:
        t = time.perf_counter()
        try:
            serial = inputs.run(workers=1)
        except Exception as exc:
            ledger.crashed("one-worker unit raised", exc, wl.replicates)
        else:
            out["t1_wall_s"] = time.perf_counter() - t
            out["tune.pool.parallel_eff"] = out["t1_wall_s"] / (wl.workers * m["wall_s"])
            if outcomes:
                ledger.record(f"estimates at workers={wl.workers} equal workers=1 bit for bit",
                              serial.same_as(outcomes[0]))
    # Each traced unit runs right after an untraced one, so host-speed
    # drift mostly cancels in trace_overhead_frac.
    spans.clear_worker_files(OUT)
    tracer = spans.Tracer(OUT)
    traced_inputs = None
    plain_rates, traced_rates = [], []
    for i in range(TRACED_UNITS):
        try:
            t = time.perf_counter()
            plain = inputs.run()
            plain_rates.append(plain.evals / (time.perf_counter() - t))
            tracer.install()
            if traced_inputs is None:
                traced_inputs = wl.setup(args.seed)
            t = time.perf_counter()
            outcome = traced_inputs.run()
            traced_rates.append(outcome.evals / (time.perf_counter() - t))
        except Exception as exc:
            ledger.crashed("traced unit raised", exc, max(wl.replicates, 1))
            break
        finally:
            tracer.uninstall()
        if outcomes:
            ledger.record(f"traced unit {i} equals untraced bit for bit", outcome.same_as(outcomes[0]))
    sets = tracer.span_sets()
    spans.clear_worker_files(OUT)
    spans.write_spans(sets, OUT / f"spans-{wl.name}-seed{args.seed}.npz")
    layers, fits = spans.layer_metrics(sets, wl.n_paths, wl.substeps)
    out.update(layers)
    for b, (evals, converged) in enumerate(fits):
        ledger.record(f"traced fit {b} used its evaluation cap or converged",
                      cap_reached(wl, int(evals), bool(converged)), f"{evals} evals")
    if traced_inputs is not None:
        ledger.record("traced data equal untraced bit for bit", all(
            a.values.tobytes() == b.values.tobytes()
            for a, b in zip(traced_inputs.datasets, inputs.datasets)))
    out["trace_overhead_frac"] = (
        1.0 - statistics.median(traced_rates) / statistics.median(plain_rates)
        if traced_rates else 0.0
    )
    out["absent_names"] = tracer.absent  # their metrics read 0
    return out


# ---------------------------------------------------------------------------
# Self-check


def self_check() -> int:
    """Run every workload briefly in both modes and check that each metric
    of BENCHMARK.json is printed, numeric, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{w['name']} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{tag}: no result line (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            got = result["metrics"]
            for x in wanted:
                entry = got.get(x["name"])
                if not isinstance(entry, dict) or entry.get("unit") != x["unit"] or not isinstance(
                        entry.get("value"), (int, float)):
                    problems.append(f"{tag}: metric {x['name']} printed as {entry!r}")
            extra = set(got) - {x["name"] for x in wanted}
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} checks", flush=True)
    for p in problems:
        print(f"SELF-CHECK FAIL {p}")
    print("SELF-CHECK " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
