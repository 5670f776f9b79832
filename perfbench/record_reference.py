"""Record each workload's start objectives for seeds 0-99 in reference.json.

    python3 perfbench/record_reference.py

run.py checks every run against these values, so rerun this only when
the estimator is meant to change, and say so with the change.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

SEEDS = range(100)


def main():
    table = {
        name: {str(seed): workloads.start_objectives(wl.setup(seed)) for seed in SEEDS}
        for name, wl in workloads.WORKLOADS.items()
    }
    payload = {"rel_tol": workloads.REL_TOL, "start_objectives": table}
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
