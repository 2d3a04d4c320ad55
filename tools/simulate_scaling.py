"""How long `simulate` takes on the procedure x u-policy x family matrix.

Times ``downstream.simulate`` on the model example1 (pi0 3/4, alpha 1/10,
one fixed master seed) for each of the 4 procedures x 3 u policies x 2
families, at two shapes: 200 hypotheses x 2000 replicates and 2000
hypotheses x 200 replicates.  Each case runs REPEAT (3) times; the record
keeps every run, the median and the sha256 of ``report_to_json``, so two
columns also show whether the versions wrote the same reports.  The result
is merged into a JSON record under one named column, with the same host
fields as BENCH_verify.json.  The package measured is whichever
``mdpvalues`` is first on the import path:

    PYTHONPATH=src python tools/simulate_scaling.py --column change
    PYTHONPATH=../other-checkout/src python tools/simulate_scaling.py --column parent --commit abc1234

The script writes nothing but BENCH_simulate.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
from verify_scaling import cpu_name, source_commit

import mdpvalues
from mdpvalues import config_from_dict, simulate
from mdpvalues.downstream import report_to_json
from mdpvalues.registry import example1_model

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_simulate.json"
REPEAT = 3
SEED = 20260401
SHAPES = {"200x2000": (200, 2000), "2000x200": (2000, 200)}
MATRIX = list(itertools.product(
    ("bh", "bonferroni", "fisher", "geometric-mean"), ("natural", "mid", "randomized"), ("t", "md"),
))
TARGETS = {"bh randomized md 200x2000": 0.1}


def run_case(model, procedure: str, u_policy: str, family: str, hypotheses: int, replicates: int) -> tuple[float, str]:
    config = config_from_dict({
        "hypotheses": hypotheses, "pi0": "3/4", "family": family, "u_policy": u_policy,
        "procedure": procedure, "alpha": "1/10", "replicates": replicates, "seed": SEED,
    }, model, "example1")
    start = time.perf_counter()
    report = simulate(config)
    elapsed = time.perf_counter() - start
    return elapsed, hashlib.sha256(report_to_json(report).encode()).hexdigest()


def measure() -> dict:
    model = example1_model()
    run_case(model, "bh", "natural", "md", 10, 10)  # load numpy and fill the caches outside the timings
    cases = {}
    for shape, (hypotheses, replicates) in SHAPES.items():
        for procedure, u_policy, family in MATRIX:
            runs = [run_case(model, procedure, u_policy, family, hypotheses, replicates) for _ in range(REPEAT)]
            digests = {digest for _, digest in runs}
            if len(digests) != 1:
                raise SystemExit(f"{procedure} {u_policy} {family} {shape}: reruns wrote different reports")
            name = f"{procedure} {u_policy} {family} {shape}"
            cases[name] = {
                "s_median": statistics.median(s for s, _ in runs),
                "s_runs": [s for s, _ in runs],
                "report_sha256": digests.pop(),
            }
            print(f"{name:<38} {cases[name]['s_median']:8.3f} s", flush=True)
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", required=True, help="name of the record column, e.g. parent or change")
    parser.add_argument("--commit", default=None, help="commit of the measured source (default: git describe)")
    args = parser.parse_args(argv)

    cases = measure()
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["what"] = (
        "simulate wall time (seconds, median of repeat) on example1, pi0 3/4, alpha 1/10, for "
        "procedure x u policy x family at hypotheses x replicates; sha256 of each report.json"
    )
    record["repeat"] = REPEAT
    record["seed"] = SEED
    record["targets_s"] = TARGETS
    record.setdefault("columns", {})[args.column] = {
        "commit": args.commit or source_commit(Path(mdpvalues.__file__).parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_name(),
        "cpus": os.cpu_count(),
        "total_s": sum(case["s_median"] for case in cases.values()),
        "cases": cases,
        "targets_met": {name: cases[name]["s_median"] < limit for name, limit in TARGETS.items()},
    }
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
