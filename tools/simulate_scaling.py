"""How long `simulate` takes on the procedure x u-policy x family matrix, two versions side by side.

Times ``downstream.simulate`` on the model example1 (pi0 3/4, alpha 1/10,
one fixed master seed) for each of the 4 procedures x 3 u policies x 2
families, at two shapes: 200 hypotheses x 2000 replicates and 2000
hypotheses x 200 replicates, for two source trees of the package, and
writes both as columns of one JSON record.  Each run times one case in a
fresh Python process whose ``PYTHONPATH`` is the source tree of its
column, after a small warm-up run that loads numpy.  The two columns
alternate run by run, REPEAT (3) runs each per case, and the side that
goes first alternates too, so a drift of the host's speed reaches both
columns alike.  The record keeps every run, the median and the sha256 of
``report_to_json``; ``reports_equal`` says whether both trees wrote the
same report on every case:

    git archive PARENT | tar -x -C ../parent
    python tools/simulate_scaling.py --parent ../parent/src --change src

The script writes nothing but BENCH_simulate.json at the repository root.
A column's commit is ``git describe`` of its tree, or the
``--parent-commit`` / ``--change-commit`` text where that cannot tell (a
``git archive`` copy has no history).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from verify_scaling import cpu_name, source_commit

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_simulate.json"
REPEAT = 3
SEED = 20260401
SHAPES = {"200x2000": (200, 2000), "2000x200": (2000, 200)}
MATRIX = list(itertools.product(
    ("bh", "bonferroni", "fisher", "geometric-mean"), ("natural", "mid", "randomized"), ("t", "md"),
))
CASES = [(*case, shape) for shape in SHAPES for case in MATRIX]
TARGETS = {"bh randomized md 200x2000": 0.1}


def run_case(procedure: str, u_policy: str, family: str, shape: str) -> dict:
    """One timed run, in this process, of the package first on the import path."""
    from mdpvalues import config_from_dict, simulate
    from mdpvalues.downstream import report_to_json
    from mdpvalues.registry import example1_model

    model = example1_model()

    def config(procedure: str, u_policy: str, family: str, hypotheses: int, replicates: int):
        return config_from_dict({
            "hypotheses": hypotheses, "pi0": "3/4", "family": family, "u_policy": u_policy,
            "procedure": procedure, "alpha": "1/10", "replicates": replicates, "seed": SEED,
        }, model, "example1")

    simulate(config("bh", "natural", "md", 10, 10))  # load numpy outside the timing
    timed = config(procedure, u_policy, family, *SHAPES[shape])
    start = time.perf_counter()
    report = simulate(timed)
    elapsed = time.perf_counter() - start
    return {"s": elapsed, "sha256": hashlib.sha256(report_to_json(report).encode()).hexdigest()}


def run_child(src: Path, case: tuple[str, ...]) -> dict:
    """``run_case`` in a fresh interpreter that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--child", *case],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    """Per column, per case: every run, the median and the report digest, alternating the columns."""
    cases: dict[str, dict] = {column: {} for column in trees}
    columns = list(trees)
    for i, case in enumerate(CASES):
        runs: dict[str, list[dict]] = {column: [] for column in columns}
        for repeat in range(REPEAT):
            for column in columns if (i + repeat) % 2 == 0 else columns[::-1]:
                runs[column].append(run_child(trees[column], case))
        name = " ".join(case)
        line = [f"{name:<38}"]
        for column in columns:
            digests = {run["sha256"] for run in runs[column]}
            if len(digests) != 1:
                raise SystemExit(f"{name}: {column} reruns wrote different reports")
            cases[column][name] = {
                "s_median": statistics.median(run["s"] for run in runs[column]),
                "s_runs": [run["s"] for run in runs[column]],
                "report_sha256": digests.pop(),
            }
            line.append(f"{column} {cases[column][name]['s_median']:7.3f} s")
        if len({cases[column][name]["report_sha256"] for column in columns}) != 1:
            line.append("REPORTS DIFFER")
        print("  ".join(line), flush=True)
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="src directory of the version before the change")
    parser.add_argument("--change", type=Path, help="src directory of the changed version")
    parser.add_argument("--parent-commit", default=None, help="commit of the parent tree (default: git describe)")
    parser.add_argument("--change-commit", default=None, help="commit of the changed tree (default: git describe)")
    parser.add_argument("--child", nargs=4, metavar=("PROCEDURE", "U_POLICY", "FAMILY", "SHAPE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_case(*args.child)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    cases = measure(trees)
    record = {
        "what": (
            "simulate wall time (seconds, median of repeat) on example1, pi0 3/4, alpha 1/10, for "
            "procedure x u policy x family at hypotheses x replicates; sha256 of each report.json; each "
            "run in a fresh process, the two columns alternating run by run"
        ),
        "repeat": REPEAT,
        "seed": SEED,
        "targets_s": TARGETS,
        "reports_equal": all(
            cases["parent"][name]["report_sha256"] == cases["change"][name]["report_sha256"]
            for name in cases["parent"]
        ),
        "columns": {
            column: {
                "commit": commits[column] or source_commit(tree),
                "python": platform.python_version(),
                "numpy": metadata.version("numpy"),
                "cpu": cpu_name(),
                "cpus": os.cpu_count(),
                "total_s": sum(case["s_median"] for case in cases[column].values()),
                "cases": cases[column],
                "targets_met": {
                    name: cases[column][name]["s_median"] < limit for name, limit in TARGETS.items()
                },
            }
            for column, tree in trees.items()
        },
    }
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
