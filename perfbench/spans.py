"""In-memory spans around calls into psml, for the benchmark's traced run.

Tracing wraps module attributes where their consumers look them up at
call time, so the program's source stays untouched:

    psml.likelihood.{propose_transition, rng_stream, log_likelihood}
    psml.samplers.{chol_spd, gauss_logpdf}
    psml.optimize.{penalized_log_likelihood, maximize_psml}
    psml.tune.{maximize_psml, simulate_dataset, _bootstrap_one}
    psml.core.simulate_dataset
    the model classes' drift and diffusion_outer, ParticleCloud.resample

A name missing at some commit is recorded as absent and its metrics read
0, so one benchmark runs on the parent and the change alike.

Spans are (name, parent, start, end) rows in flat arrays. Bootstrap
replicates that run in forked pool workers inherit the patches; each
worker keeps its replicate's spans in memory and writes them to one file
when the replicate ends, and the parent merges those files afterwards.
"""

from __future__ import annotations

import importlib
import itertools
import math
import os
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

EVAL = "optimize.penalized_log_likelihood"
FIT = "optimize.maximize_psml"
REPLICATE = "tune.bootstrap_one"

# (module, attribute, span name); classes are patched per method below.
_FUNCTIONS = (
    ("psml.likelihood", "rng_stream", "core.rng_stream"),
    ("psml.likelihood", "propose_transition", "samplers.propose_transition"),
    ("psml.likelihood", "log_likelihood", "likelihood.log_likelihood"),
    ("psml.samplers", "chol_spd", "core.chol_spd"),
    ("psml.samplers", "gauss_logpdf", "core.gauss_logpdf"),
    ("psml.optimize", "penalized_log_likelihood", EVAL),
    ("psml.optimize", "maximize_psml", FIT),
    ("psml.tune", "maximize_psml", FIT),
    ("psml.core", "simulate_dataset", "core.simulate_dataset"),
    ("psml.tune", "simulate_dataset", "core.simulate_dataset"),
)
_METHODS = (
    ("psml.models", ("OuModel", "Lorenz63Model", "CwdDirectModel"), "drift", "models.drift"),
    ("psml.models", ("OuModel", "Lorenz63Model", "CwdDirectModel"), "diffusion_outer",
     "models.diffusion_outer"),
    ("psml.likelihood", ("ParticleCloud",), "resample", "likelihood.resample"),
)

# The tracer of this process; pool workers reach it through fork.
_ACTIVE = None
_WORKER_FILES = itertools.count()


class Tracer:
    """Span recorder plus the per-evaluation and per-fit outcomes it saw."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []  # names not found by the last install
        self.clear()

    def clear(self):
        self.kind = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.evals: list[tuple[float, float]] = []  # (value, mean ESS / J)
        self.fits: list[tuple[int, bool]] = []  # (evals, converged)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = len(self.kind)
            self.kind.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(time.perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter_ns()
                self._stack.pop()
            if note is not None:
                note(out)
            return out

        return traced

    # -- outcome notes ---------------------------------------------------

    def _note_eval(self, out):
        value, res = out
        diags = res.diagnostics
        ess = statistics.fmean(d.ess for d in diags) if diags else math.nan
        self.evals.append((float(value), ess))

    def _note_fit(self, fit):
        self.fits.append((int(fit.evals), bool(fit.converged)))

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, note=None):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def install(self):
        """Wrap every traced name; undone by uninstall."""
        global _ACTIVE
        self.absent = []
        notes = {EVAL: self._note_eval, FIT: self._note_fit}
        for module, attr, name in _FUNCTIONS:
            self._patch(importlib.import_module(module), attr, name, notes.get(name))
        for module, classes, attr, name in _METHODS:
            mod = importlib.import_module(module)
            for cls_name in classes:
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    self.absent.append(f"{module}.{cls_name}")
                else:
                    self._patch(cls, attr, name)
        tune = importlib.import_module("psml.tune")
        original = getattr(tune, "_bootstrap_one", None)
        if original is None:
            self.absent.append("psml.tune._bootstrap_one")
        else:
            self._patches.append((tune, "_bootstrap_one", original))
            self._replicate = self.wrap(REPLICATE, original)
            tune._bootstrap_one = bootstrap_one
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    # -- worker files ----------------------------------------------------

    def _arrays(self) -> dict:
        return {
            "names": list(self.names),
            "kind": np.array(self.kind, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "evals": np.array(self.evals, dtype=float).reshape(-1, 2),
            "fits": np.array(self.fits, dtype=float).reshape(-1, 2),
        }

    def span_sets(self) -> list[dict]:
        """This process's spans plus every file a pool worker wrote."""
        sets = [self._arrays()]
        for path in sorted(self.out_dir.glob("worker-*.npz")):
            with np.load(path) as f:
                sets.append({k: ([str(n) for n in f[k]] if k == "names" else f[k]) for k in f.files})
        return sets


def write_spans(sets: list[dict], path: Path):
    """Write span sets, one per process, as p<i>_<field> arrays of one npz file."""
    arrays = {}
    for i, s in enumerate(sets):
        for key, value in s.items():
            arrays[f"p{i}_{key}"] = np.asarray(value)
    np.savez_compressed(path, **arrays)


def bootstrap_one(payload):
    """Stand-in for psml.tune._bootstrap_one while tracing.

    Picklable by reference, so a process pool can ship it. In a forked
    worker it records the replicate's spans afresh and writes them when
    the replicate ends.
    """
    tracer = _ACTIVE
    if tracer.owner == os.getpid():
        return tracer._replicate(payload)
    tracer.clear()
    try:
        return tracer._replicate(payload)
    finally:
        np.savez(tracer.out_dir / f"worker-{os.getpid()}-{next(_WORKER_FILES)}.npz", **tracer._arrays())


def clear_worker_files(out_dir: Path):
    for path in out_dir.glob("worker-*.npz"):
        path.unlink()


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(sets: list[dict], n_paths: int, substeps: int) -> dict:
    """Reduce span sets to the per-layer statistics and the list of
    (evals, converged) of every traced fit.

    Per-evaluation figures count only spans nested inside an objective
    evaluation; self time is a span's duration minus its direct children.
    """
    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list] = {EVAL: [], REPLICATE: [], "core.simulate_dataset": []}
    fit_self = 0
    evals = []
    fits = []
    for s in sets:
        names = s["names"]
        kind, parent = s["kind"], s["parent"]
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        eval_id = names.index(EVAL) if EVAL in names else -1
        fit_id = names.index(FIT) if FIT in names else -1
        # Parents precede their children, so one forward pass marks nesting.
        inside_l = []
        kind_l = kind.tolist()
        for p in parent.tolist():
            inside_l.append(p >= 0 and (inside_l[p] or kind_l[p] == eval_id))
        inside = np.array(inside_l, dtype=bool)
        for k, name in enumerate(names):
            sel = kind == k
            if name in durations:
                durations[name].extend((dur[sel] / 1e6).tolist())
            if k == fit_id:
                fit_self += int(own[sel].sum())
            sel &= inside | (kind == eval_id)
            if sel.any():
                calls[name] = calls.get(name, 0) + int(sel.sum())
                incl[name] = incl.get(name, 0) + int(dur[sel].sum())
                self_ns[name] = self_ns.get(name, 0) + int(own[sel].sum())
        evals.extend(map(tuple, s["evals"]))
        fits.extend(map(tuple, s["fits"]))

    n_evals = len(durations[EVAL])
    out = {"likelihood.evals_traced": n_evals}

    def per_eval(name, stat):
        if not n_evals or name not in calls:
            return 0.0
        if stat == "calls":
            return calls[name] / n_evals
        source = self_ns if stat == "self_ms" else incl
        return source[name] / 1e6 / n_evals

    for layer in ("core.rng_stream", "core.chol_spd", "core.gauss_logpdf", "models.drift",
                  "models.diffusion_outer", "likelihood.resample"):
        out[f"{layer}.calls_per_eval"] = per_eval(layer, "calls")
        out[f"{layer}.ms_per_eval"] = per_eval(layer, "ms")
    sims = durations["core.simulate_dataset"]
    out["core.simulate_dataset.ms"] = statistics.median(sims) if sims else 0.0

    prop = "samplers.propose_transition"
    out[f"{prop}.calls_per_eval"] = per_eval(prop, "calls")
    out[f"{prop}.self_ms_per_eval"] = per_eval(prop, "self_ms")
    substep_count = calls.get(prop, 0) * substeps
    prop_s = incl.get(prop, 0) / 1e9
    out["samplers.substep_us"] = prop_s * 1e6 / substep_count if substep_count else 0.0
    out["samplers.path_substeps_per_s"] = n_paths * substep_count / prop_s if prop_s else 0.0

    eval_ms = durations[EVAL]
    if len(eval_ms) >= 2:
        q = statistics.quantiles(eval_ms, n=10)
        out["likelihood.eval_ms.p50"] = statistics.median(eval_ms)
        out["likelihood.eval_ms.p90"] = q[8]
    else:
        out["likelihood.eval_ms.p50"] = out["likelihood.eval_ms.p90"] = 0.0
    out["likelihood.log_likelihood.self_ms_per_eval"] = per_eval("likelihood.log_likelihood", "self_ms")
    ess = [e for _, e in evals if math.isfinite(e)]
    out["likelihood.ess_frac"] = statistics.fmean(ess) / n_paths if ess else 0.0
    out["likelihood.neginf_frac"] = (
        sum(1 for v, _ in evals if v == -math.inf) / len(evals) if evals else 0.0
    )

    total_evals = sum(e for e, _ in fits)
    out["optimize.evals_per_fit"] = float(total_evals) / len(fits) if fits else 0.0
    out["optimize.overhead_ms_per_eval"] = fit_self / 1e6 / n_evals if n_evals else 0.0
    out["optimize.converged_frac"] = sum(1 for _, c in fits if c) / len(fits) if fits else 0.0
    reps = durations[REPLICATE]
    out["tune.bootstrap.replicate_s"] = statistics.median(reps) / 1e3 if reps else 0.0
    return out, fits
