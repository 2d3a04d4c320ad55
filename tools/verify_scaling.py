"""How `verify_all_claims` scales with support size and denominator size.

Times the full C1-C9 suite on two model families and merges the result
into a JSON record under one named column, so that two versions of the
package can be compared on the same inputs:

  - Bernoulli products, theta 1/2 vs 4/5, n = 8, 10, 12, 14 coins
    (support N = 2^n), likelihood-ratio statistic, lexicographic ranking;
  - binomial(n), theta 1/2 vs 3/5, n = 200, 1000, 4000: few classes per
    point but null and alternative denominators of n and 2.3 n bits.

Each case is built and verified REPEAT (3) times from scratch; the
record keeps every run and the median.  Model build, statistic plus
ranking, verification and ``orders.reports_to_json`` (what ``mdpv
verify`` writes as reports.json) are timed separately, and the size of
that JSON is recorded in bytes.  The package measured is
whichever ``mdpvalues`` is first on the import path:

    PYTHONPATH=src python tools/verify_scaling.py --column change
    PYTHONPATH=../other-checkout/src python tools/verify_scaling.py --column parent --commit abc1234

The script writes nothing but BENCH_verify.json at the repository root.
``--commit`` names the measured source where ``git describe`` cannot (a
``git archive`` copy has no history).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from mdpvalues import (
    bernoulli_product_model,
    binomial_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    verify_all_claims,
)
from mdpvalues.orders import reports_to_json

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_verify.json"
REPEAT = 3

CASES = [("bernoulli", n) for n in (8, 10, 12, 14)] + [("binomial", n) for n in (200, 1000, 4000)]
BUILDERS = {
    "bernoulli": lambda n: bernoulli_product_model(n, ["1/2", "4/5"]),
    "binomial": lambda n: binomial_model(n, ["1/2", "3/5"]),
}
TARGETS = {"bernoulli n=14": 3.0, "binomial n=4000": 10.0}


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_commit() -> str:
    """``git describe`` of the checkout that holds the imported package, or "unknown"."""
    import mdpvalues

    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(mdpvalues.__file__).parent, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_case(family: str, n: int) -> dict:
    start = time.perf_counter()
    model = BUILDERS[family](n)
    built = time.perf_counter()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    ranked = time.perf_counter()
    reports = verify_all_claims(model, lr, ranking, ["theta0", "theta1"])
    verified = time.perf_counter()
    # json.dumps escapes every non-ASCII character, so the text has one byte per character.
    output_bytes = len(reports_to_json(reports))
    serialized = time.perf_counter()
    verdicts = sorted({r.verdict for r in reports})
    if verdicts != ["pass"]:
        raise SystemExit(f"{family} n={n}: verdicts {verdicts}, expected all pass")
    null_bits, alt_bits = (model.int_row(theta)[0].bit_length() for theta in ("theta0", "theta1"))
    return {
        "model_s": built - start,
        "statistic_s": ranked - built,
        "verify_s": verified - ranked,
        "serialize_s": serialized - verified,
        "output_bytes": output_bytes,
        "support": model.size,
        "denominator_bits": [null_bits, alt_bits],
    }


def measure() -> dict:
    cases = {}
    for family, n in CASES:
        runs = [run_case(family, n) for _ in range(REPEAT)]
        name = f"{family} n={n}"
        cases[name] = {
            "support": runs[0]["support"],
            "denominator_bits": runs[0]["denominator_bits"],
            "output_bytes": runs[0]["output_bytes"],
            **{
                f"{key}_median": statistics.median(run[key] for run in runs)
                for key in ("model_s", "statistic_s", "verify_s", "serialize_s")
            },
            "verify_s_runs": [run["verify_s"] for run in runs],
        }
        print(f"{name:<20} N={runs[0]['support']:<6} verify {cases[name]['verify_s_median']:9.3f} s"
              f"  serialize {cases[name]['serialize_s_median']:9.3f} s  {runs[0]['output_bytes']:>11,} B", flush=True)
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", required=True, help="name of the record column, e.g. parent or change")
    parser.add_argument("--commit", default=None, help="commit of the measured source (default: git describe)")
    args = parser.parse_args(argv)

    cases = measure()
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["what"] = (
        "verify_all_claims wall time (seconds, median of repeat) against support size N and "
        "denominator bit-length; model build, statistic+ranking and reports_to_json timed separately, "
        "output_bytes the size of that JSON"
    )
    record["repeat"] = REPEAT
    record["targets_s"] = TARGETS
    record.setdefault("columns", {})[args.column] = {
        "commit": args.commit or source_commit(),
        "python": platform.python_version(),
        "cpu": cpu_name(),
        "cpus": os.cpu_count(),
        "cases": cases,
        "targets_met": {
            name: cases[name]["verify_s_median"] < limit for name, limit in TARGETS.items()
        },
    }
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
