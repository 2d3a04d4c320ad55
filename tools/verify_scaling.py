"""How `verify_all_claims` scales with support size and denominator size, two versions side by side.

Times the full C1-C9 suite on two model families, for two source trees of
the package, and writes both as columns of one JSON record:

  - Bernoulli products, theta 1/2 vs 4/5, n = 8, 10, 12, 14, 16 coins
    (support N = 2^n), likelihood-ratio statistic, lexicographic ranking;
  - binomial(n), theta 1/2 vs 3/5, n = 100 (the size of perfbench's
    verify-binomial), 200, 1000, 4000: one point per class, but null and
    alternative denominators of n and 2.3 n bits.

Each run builds and verifies one case from scratch in a fresh Python
process whose ``PYTHONPATH`` is the source tree of its column.  The two
columns alternate case by case, REPEAT (5) runs each, and the side that
goes first alternates too, so a drift of the host's speed reaches both
columns alike instead of reading as a change.  The record keeps every run
and the median.  Model build, model-file load, statistic plus ranking,
verification and ``orders.reports_to_json`` (what ``mdpv verify`` writes
as reports.json) are timed separately, and the size of that JSON is
recorded in bytes, counted over the pieces the writer yields (or over the
one string that an older tree's ``reports_to_json`` returns).
``peak_rss_mb`` is the run's own peak resident set size, read with
``resource.getrusage`` at the end of its fresh process; every run's value
is kept beside the median, since it can fall on either of two levels with
no change to the code.  ``load_s`` times ``load_model`` of the built model,
written once by ``save_model`` to a temporary file outside the timer; the
rest of the run uses the loaded model, as ``mdpv verify --model FILE`` does.
``statistic_s`` covers ``likelihood_ratio_statistic`` plus
``build_agreeing_ranking``; the agreement check and the p-value family
builds run inside ``verify_all_claims`` and so are timed in ``verify_s``.
At binomial n = 1000 and 4000 a run also times the two CSV commands end
to end, each in a fresh ``python -m mdpvalues`` process on the same tree:
``pvalues_s`` for ``mdpv pvalues --model binomial:n,1/2,3/5`` and
``cdf_s`` for ``mdpv cdf --model binomial:n,1/2,3/5 --theta theta1``.
The sha256 of each CSV is kept, and the two columns must agree on it.

The per-op phase table times what one in-process ``mdpv verify --model
FILE --ranking-file FILE`` op does, on model and ranking files of the
benchmark's verify workloads' sizes (Bernoulli N = 128, theta 1/2 vs 4/5;
binomial n = 100, theta 1/2 vs 4/7), each ranking the likelihood ratio's
order with ties in label order.  An op is split into its phases, timed one
after another: ``load`` (``registry.resolve_model`` of the file),
``statistic`` (``default_statistic``), ``ranking`` (``cli._load_ranking``),
``verify`` (``verify_all_claims``), ``json`` (draining ``reports_to_json``)
and ``text`` (``reports_to_text``); ``main`` then times a whole
``cli.main`` op writing its three files, as perfbench runs it.  Each tree
runs OP_ROUNDS fresh processes per input of OP_BATCH timed ops each, after
OP_WARMUP untimed ones, the trees alternating process by process; the
table keeps each phase's 10th percentile and median, and the sha256 of the
reports.json that every op wrote, which both columns must share:

    git archive PARENT | tar -x -C ../parent
    python tools/verify_scaling.py --parent ../parent/src --change src

The script writes nothing but BENCH_verify.json at the repository root
and the temporary model and output files, which it removes.
A column's commit is ``git describe`` of its tree, or the
``--parent-commit`` / ``--change-commit`` text where that cannot tell (a
``git archive`` copy has no history).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import product
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_verify.json"
REPEAT = 5

CASES = [("bernoulli", n) for n in (8, 10, 12, 14, 16)] + [("binomial", n) for n in (100, 200, 1000, 4000)]
TARGETS = {"bernoulli n=14": 3.0, "binomial n=4000": 10.0}
TIMES = ("model_s", "load_s", "statistic_s", "verify_s", "serialize_s")
# Binomial n at which the CSV commands are timed, and their arguments besides --model and --out.
CSV_CASES = (1000, 4000)
CSV_COMMANDS = {"pvalues": ["pvalues"], "cdf": ["cdf", "--theta", "theta1"]}
# Outputs that every run of a case, in both columns, must repeat.
SAME = ("output_bytes", *(f"{name}_sha256" for name in CSV_COMMANDS))
# The per-op phase table: inputs (family, size, theta1), phases, and processes x timed ops per tree and input.
OP_INPUTS = {"bernoulli N=128": ("bernoulli", 7, Fraction(4, 5)), "binomial n=100": ("binomial", 100, Fraction(4, 7))}
PHASES = ("load", "statistic", "ranking", "verify", "json", "text", "main")
OP_ROUNDS, OP_BATCH, OP_WARMUP = 10, 30, 10


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_commit(src: Path) -> str:
    """``git describe`` of the checkout that holds ``src``, or "unknown"."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=src, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_case(family: str, n: int) -> dict:
    """One timed run, in this process, of the package first on the import path."""
    from mdpvalues import (
        bernoulli_product_model,
        binomial_model,
        build_agreeing_ranking,
        likelihood_ratio_statistic,
        verify_all_claims,
    )
    from mdpvalues.model import load_model, save_model
    from mdpvalues.orders import reports_to_json

    start = time.perf_counter()
    if family == "bernoulli":
        model = bernoulli_product_model(n, ["1/2", "4/5"])
    else:
        model = binomial_model(n, ["1/2", "3/5"])
    model_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "model.json"
        save_model(model, path)
        start = time.perf_counter()
        model = load_model(path)
        load_s = time.perf_counter() - start
    start = time.perf_counter()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    ranked = time.perf_counter()
    reports = verify_all_claims(model, lr, ranking, ["theta0", "theta1"])
    verified = time.perf_counter()
    # json.dumps escapes every non-ASCII character, so the text has one byte per character.
    chunks = reports_to_json(reports)
    output_bytes = sum(map(len, [chunks] if isinstance(chunks, str) else chunks))
    serialized = time.perf_counter()
    verdicts = sorted({r.verdict for r in reports})
    if verdicts != ["pass"]:
        raise SystemExit(f"{family} n={n}: verdicts {verdicts}, expected all pass")
    null_bits, alt_bits = (model.int_row(theta)[0].bit_length() for theta in ("theta0", "theta1"))
    # ru_maxrss is in KiB on Linux; read before the CSV commands, whose files are hashed here
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        **(time_commands(n) if family == "binomial" and n in CSV_CASES else {}),
        "model_s": model_s,
        "load_s": load_s,
        "statistic_s": ranked - start,
        "verify_s": verified - ranked,
        "serialize_s": serialized - verified,
        "output_bytes": output_bytes,
        "support": model.size,
        "denominator_bits": [null_bits, alt_bits],
        "peak_rss_mb": peak_rss_mb,
    }


def time_commands(n: int) -> dict:
    """Wall time and output sha256 of each CSV command at binomial n, each in a fresh interpreter."""
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "table.csv"
        for name, argv in CSV_COMMANDS.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "mdpvalues", *argv, "--model", f"binomial:{n},1/2,3/5",
                            "--out", str(path)], check=True, stdout=subprocess.DEVNULL)
            out[f"{name}_s"] = time.perf_counter() - start
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            out[f"{name}_sha256"] = digest.hexdigest()
    return out


def write_op_inputs(directory: Path, family: str, n: int, theta1: Fraction) -> tuple[Path, Path]:
    """A theta0 = 1/2 vs theta1 model file and its likelihood-ratio ranking file, ties in label order."""
    if family == "bernoulli":
        labels = ["".join(bits) for bits in product("01", repeat=n)]
        weights, ones = [1] * (n + 1), [label.count("1") for label in labels]
    else:
        labels = [str(k) for k in range(n + 1)]
        weights, ones = [comb(n, k) for k in range(n + 1)], range(n + 1)
    thetas = {"theta0": Fraction(1, 2), "theta1": theta1}
    rows = {name: [weights[k] * t**k * (1 - t) ** (n - k) for k in ones] for name, t in thetas.items()}
    text = lambda value: f"{value.numerator}/{value.denominator}"
    model = {"parameters": {name: text(t) for name, t in thetas.items()}, "support": labels,
             "pmf": {name: list(map(text, row)) for name, row in rows.items()}}
    order = sorted(range(len(labels)), key=lambda i: (-rows["theta1"][i] / rows["theta0"][i], labels[i]))
    model_path, ranking_path = directory / f"{family}.model.json", directory / f"{family}.ranking.json"
    model_path.write_text(json.dumps(model, indent=1) + "\n")
    ranking_path.write_text(json.dumps([labels[i] for i in order], indent=1) + "\n")
    return model_path, ranking_path


def run_ops(model_path: Path, ranking_path: Path, out: Path) -> dict:
    """OP_BATCH timed verify ops, phase by phase, in this process, of the package first on the import path."""
    from mdpvalues import cli
    from mdpvalues.orders import reports_to_json, reports_to_text, verify_all_claims
    from mdpvalues.registry import default_statistic, resolve_model

    argv = ["verify", "--model", str(model_path), "--ranking-file", str(ranking_path), "--out", str(out)]
    times: dict[str, list[float]] = {phase: [] for phase in PHASES}

    def timed(phase: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        times[phase].append(time.perf_counter() - start)
        return value

    for _ in range(OP_WARMUP + OP_BATCH):
        model, _ = timed("load", resolve_model, str(model_path))
        statistic = timed("statistic", default_statistic, model)
        ranking = timed("ranking", cli._load_ranking, model, str(ranking_path))
        reports = timed("verify", verify_all_claims, model, statistic, ranking, list(model.parameter_names))
        text = timed("json", lambda: "".join(reports_to_json(reports)))
        timed("text", reports_to_text, reports)
        shutil.rmtree(out, ignore_errors=True)  # each op starts with no outputs, as perfbench's do
        with redirect_stdout(StringIO()):
            status = timed("main", cli.main, argv)
        if status != 0 or (out / "reports.json").read_text(encoding="utf-8") != text:
            raise SystemExit(f"{model_path.name}: exit status {status}, or reports.json is not the writer's text")
    return {"times": {phase: values[OP_WARMUP:] for phase, values in times.items()},
            "reports_sha256": hashlib.sha256(text.encode()).hexdigest()}


def measure_ops(trees: dict[str, Path]) -> dict[str, dict]:
    """Per column, per op input: each phase's 10th percentile and median over OP_ROUNDS x OP_BATCH ops."""
    columns = list(trees)
    runs: dict[str, dict[str, list[dict]]] = {column: {name: [] for name in OP_INPUTS} for column in columns}
    with tempfile.TemporaryDirectory() as scratch:
        inputs = {name: write_op_inputs(Path(scratch), *spec) for name, spec in OP_INPUTS.items()}
        for repeat in range(OP_ROUNDS):
            for column in columns if repeat % 2 == 0 else columns[::-1]:
                env = {**os.environ, "PYTHONPATH": str(trees[column])}
                for name, paths in inputs.items():
                    done = subprocess.run([sys.executable, __file__, "--ops-child", *map(str, paths),
                                           str(Path(scratch) / "out")], env=env, capture_output=True, text=True,
                                          check=True)
                    runs[column][name].append(json.loads(done.stdout))
    table: dict[str, dict] = {column: {} for column in columns}
    for name in OP_INPUTS:
        digests = {run["reports_sha256"] for column in columns for run in runs[column][name]}
        if len(digests) != 1:
            raise SystemExit(f"{name}: the ops wrote different reports.json")
        line = [f"{name:<16}"]
        for column in columns:
            times = {phase: [t for run in runs[column][name] for t in run["times"][phase]] for phase in PHASES}
            table[column][name] = {
                "ops": len(times["main"]),
                "reports_sha256": next(iter(digests)),
                **{phase: {"p10_s": statistics.quantiles(values, n=10)[0], "median_s": statistics.median(values)}
                   for phase, values in times.items()},
            }
            line.append(column + "".join(f" {phase} {table[column][name][phase]['p10_s'] * 1e3:.3f}" for phase in PHASES))
        print("  ".join(line) + " (p10, ms)", flush=True)
    return table


def run_child(src: Path, family: str, n: int) -> dict:
    """``run_case`` in a fresh interpreter that imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__, "--child", family, str(n)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(runs: list[dict]) -> dict:
    timed = [name for name in CSV_COMMANDS if f"{name}_s" in runs[0]]
    return {
        "support": runs[0]["support"],
        "denominator_bits": runs[0]["denominator_bits"],
        "output_bytes": runs[0]["output_bytes"],
        **{f"{key}_median": statistics.median(run[key] for run in runs) for key in TIMES},
        **{f"{name}_s_median": statistics.median(run[f"{name}_s"] for run in runs) for name in timed},
        **{f"{name}_sha256": runs[0][f"{name}_sha256"] for name in timed},
        "peak_rss_mb_median": statistics.median(run["peak_rss_mb"] for run in runs),
        "peak_rss_mb_runs": [run["peak_rss_mb"] for run in runs],
        "verify_s_runs": [run["verify_s"] for run in runs],
        "serialize_s_runs": [run["serialize_s"] for run in runs],
    }


def measure(trees: dict[str, Path]) -> dict[str, dict]:
    """Per column, per case: the summary of REPEAT runs, alternating the columns run by run."""
    cases: dict[str, dict] = {column: {} for column in trees}
    columns = list(trees)
    for family, n in CASES:
        runs: dict[str, list[dict]] = {column: [] for column in columns}
        for repeat in range(REPEAT):
            for column in columns if repeat % 2 == 0 else columns[::-1]:
                runs[column].append(run_child(trees[column], family, n))
        name = f"{family} n={n}"
        line = [f"{name:<17}"]
        for column in columns:
            cases[column][name] = summary(runs[column])
            if any(len({run.get(key) for run in runs[column]}) != 1 for key in SAME):
                raise SystemExit(f"{name}: the runs of {column} wrote different outputs")
            case = cases[column][name]
            line.append(f"{column} load {case['load_s_median']:6.3f} s verify {case['verify_s_median']:7.3f} s"
                        f" serialize {case['serialize_s_median']:7.3f} s"
                        f" {case['output_bytes']:>11,} B {case['peak_rss_mb_median']:6.1f} MB"
                        + "".join(f" {command} {case[f'{command}_s_median']:6.3f} s" for command in CSV_COMMANDS
                                  if f"{command}_s_median" in case))
        print("  ".join(line), flush=True)
        if any(len({cases[column][name].get(key) for column in columns}) != 1 for key in SAME):
            raise SystemExit(f"{name}: the columns wrote different outputs")
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="src directory of the version before the change")
    parser.add_argument("--change", type=Path, help="src directory of the changed version")
    parser.add_argument("--parent-commit", default=None, help="commit of the parent tree (default: git describe)")
    parser.add_argument("--change-commit", default=None, help="commit of the changed tree (default: git describe)")
    parser.add_argument("--child", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--ops-child", nargs=3, type=Path, metavar=("MODEL", "RANKING", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_case(args.child[0], int(args.child[1]))))
        return 0
    if args.ops_child:
        print(json.dumps(run_ops(*args.ops_child)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {"parent": args.parent_commit, "change": args.change_commit}
    ops = measure_ops(trees)
    cases = measure(trees)
    record = {
        "what": (
            "verify_all_claims wall time (seconds, median of repeat) against support size N and "
            "denominator bit-length; model build, load_model of its saved file, statistic+ranking and "
            "reports_to_json timed separately, "
            "output_bytes the size of that JSON, peak_rss_mb the peak resident set size of the run's process; "
            "pvalues_s and cdf_s the wall time of mdpv pvalues and mdpv cdf --theta theta1 in a fresh process "
            "at binomial n=1000 and 4000, with the sha256 of each CSV; "
            "each run in a fresh process, the two columns alternating case by case and run by run; "
            "ops: the per-op phase table of an in-process mdpv verify on model and ranking files of the "
            "benchmark's verify sizes, each phase's 10th percentile and median in seconds"
        ),
        "repeat": REPEAT,
        "targets_s": TARGETS,
        "columns": {
            column: {
                "commit": commits[column] or source_commit(tree),
                "python": platform.python_version(),
                "cpu": cpu_name(),
                "cpus": os.cpu_count(),
                "cases": cases[column],
                "ops": ops[column],
                "targets_met": {
                    name: cases[column][name]["verify_s_median"] < limit for name, limit in TARGETS.items()
                },
            }
            for column, tree in trees.items()
        },
    }
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
