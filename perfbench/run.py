"""Closed-loop benchmark of the mdpvalues package, one client, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times ops untraced and reports the end-to-end
metrics; with ``--trace 1`` it runs whole cycles untraced, then whole
cycles with layer spans, and reports the per-layer metrics per cycle.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit, the environment and the input digests.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import calibration
import tracing
import workloads
from workloads import NAMES, SRC, Sizes, Workload

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_SAMPLES = 7  # set-up is timed this many times per run; setup_s is their median
PROBE_SAMPLES = 3  # interpreter and import-time probes per traced run
MAX_TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Span metrics: (metric prefix, fields, span names summed into it).
SPAN_METRICS = (
    ("testing.size_alpha_test", ("calls", "self_s"), None),
    ("model.event_prob", ("calls", "self_s"), None),
    ("orders.randomized_pvalue_cdf_at", ("calls", "self_s"), None),
    ("orders.check_martingale_projection", ("calls", "self_s"), None),
    ("orders.check_convex_order_chain", ("s", "self_s"), None),
    ("orders.integrated_cdf", ("calls", "self_s"), None),
    ("orders.check_usual_order", ("s",), None),
    ("orders.verify_all_claims", ("s", "self_s"), None),
    ("testing.pvalue_family", ("calls", "s"), None),
    ("testing.alpha_breakpoints", ("s",), None),
    ("ranking.build_agreeing_ranking", ("s",), None),
    ("ranking.verify_agreement", ("calls",), None),
    ("model.load", ("s",), ("model.load_model",)),
    ("ranking.likelihood_ratio_statistic", ("s",), None),
    ("downstream.simulate", ("s", "self_s"), None),
    ("downstream.bh_threshold", ("calls", "self_s"), None),
    ("downstream.fisher_test", ("calls", "self_s"), None),
    ("downstream.geometric_mean_combination", ("calls", "self_s"), None),
    ("special.chi2_upper_quantile", ("calls", "s"), None),
    ("special.chi2_survival", ("calls",), None),
    ("cli.main", ("s",), None),
    ("cli.serialize", ("s",), ("orders.reports_to_json", "orders.reports_to_text", "downstream.report_to_json")),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
OTHER_LAYER_METRICS = (
    ("orders.grid_points", "count"),
    ("orders.max_denominator_bits", "bits"),
    ("cli.output_bytes", "bytes"),
    ("cli.interpreter_s", "s"),
    ("cli.import.mdpvalues_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = [(f"{prefix}.{f}", FIELD_UNITS[f]) for prefix, fields, _ in SPAN_METRICS for f in fields]
    return names + list(OTHER_LAYER_METRICS)


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": loadavg,
    }


class Phase:
    """Ops run back to back until the deadline; the outcome of each op is recorded."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # reference-speed seconds
        self.failures: list[str] = []
        self.attempted = 0
        self.wall = 0.0
        self.cycles = 0


def run_phase(
    wl: Workload, seconds: float, state: dict, *, whole_cycles: bool,
    tracer: tracing.Tracer | None = None, layer: dict | None = None, spans_dir: Path | None = None,
) -> Phase:
    """Run ops until the deadline, calibrating the host speed now and then."""
    phase = Phase()
    stop_every = len(wl.ops) if whole_cycles else wl.stop_every
    where = "child" if wl.in_children else "process"
    marks = [(time.perf_counter(), calibration.measure(where))]  # (time, calibration seconds)
    spans = []  # (start, end) of each op
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        if time.perf_counter() - marks[-1][0] >= calibration.EVERY_S:
            marks.append((time.perf_counter(), calibration.measure(where)))
        op = wl.ops[i % len(wl.ops)]
        op.prepare()
        spans_path = spans_dir / f"op{i}.jsonl" if tracer is not None and op.child else None
        if tracer is not None:
            tracer.op_id = i
            root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            status = workloads.run_op(op, spans_path)
            error = None
        except Exception:  # an op that raises is a failed op, not a failed run
            status, error = -1, traceback.format_exc().strip()
        t1 = time.perf_counter()
        phase.latencies.append(t1 - t0)
        spans.append((t0, t1))
        if tracer is not None:
            tracer.close(root)
            if spans_path is not None and spans_path.is_file():
                tracer.adopt(spans_path, root)
        if error is None:
            try:
                error = op.check(op, status, state)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        if error is not None:
            phase.failures.append(f"op {i} ({op.key}): {error}")
        elif layer is not None:
            collect_outputs(op, layer)
        phase.attempted += 1
        i += 1
        if i % stop_every == 0 and time.perf_counter() >= deadline:
            break
    phase.wall = time.perf_counter() - start
    marks.append((time.perf_counter(), calibration.measure(where)))
    phase.cycles = i // len(wl.ops)
    phase.scaled = calibration.scale_spans(spans, marks, where)
    return phase


def collect_outputs(op: workloads.Op, layer: dict) -> None:
    """Output size, and grid size and largest denominator from any reports.json."""
    files = [p for p in op.out.rglob("*") if p.is_file()] if op.out.is_dir() else op.expect
    layer["cli.output_bytes"] += sum(p.stat().st_size for p in files if p.is_file())
    reports_path = op.out / "reports.json"
    if reports_path.is_file():
        for report in json.loads(reports_path.read_text(encoding="utf-8")):
            layer["orders.grid_points"] += len(report["grid"])
            values = report["grid"] + ([report["worst_margin"]] if report["worst_margin"] else [])
            for value in values:
                bits = int(value.split("/")[1]).bit_length()
                layer["orders.max_denominator_bits"] = max(layer["orders.max_denominator_bits"], bits)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    MAX_TAIL_BEYOND samples beyond it; the median when so few ops ran that
    no such percentile lies above it."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - MAX_TAIL_BEYOND
    if index < len(ordered) / 2:
        return statistics.median(ordered), 50.0, len(ordered) // 2
    return ordered[index], 100.0 * (index + 1) / len(ordered), MAX_TAIL_BEYOND


def timed_setup(name: str, seed: int, directory: Path, sizes: Sizes) -> tuple[Workload, float]:
    t0 = time.perf_counter()
    wl = workloads.setup(name, seed, directory, sizes)
    return wl, time.perf_counter() - t0


def setup_probe(name: str, seed: int, sizes: Sizes) -> float:
    """Time the set-up again in a fresh interpreter, where nothing is imported yet."""
    directory = WORK / f"probe-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed),
           "--sizes", json.dumps(sizes.__dict__), "--seconds", "1", "--trace", "0", "--dir", str(directory)]
    done = subprocess.run(cmd, env=workloads.child_env(), capture_output=True, text=True, check=True,
                          timeout=workloads.SUBPROCESS_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


def interpreter_probes() -> dict[str, float]:
    """Bare interpreter start, and import times of mdpvalues and numpy from -X importtime."""
    env = workloads.child_env()
    starts, packages, numpys = [], [], []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        starts.append(time.perf_counter() - t0)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mdpvalues"], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        packages.append(cumulative.get("mdpvalues", 0.0))
        numpys.append(cumulative.get("numpy", 0.0))
    return {
        "cli.interpreter_s": statistics.median(starts),
        "cli.import.mdpvalues_s": statistics.median(packages),
        "cli.import.numpy_s": statistics.median(numpys),
    }


def peak_rss_mb(wl: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def end_to_end(wl: Workload, seconds: float, state: dict, setups: list[float]) -> tuple[dict, dict, Phase]:
    phase = run_phase(wl, seconds, state, whole_cycles=False)
    completed = phase.attempted - len(phase.failures)
    tail_s, tail_pct, beyond = tail(phase.scaled)
    metrics = {
        "ops_per_s": completed / sum(phase.scaled),
        "op_s_p50": statistics.median(phase.scaled),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(wl),
    }
    notes = {
        "samples": len(phase.scaled),
        "op_s_p50": f"median of {len(phase.scaled)} ops",
        "op_s_tail": f"p{tail_pct:.1f}, {beyond} of {len(phase.scaled)} ops beyond it",
        "op_failure_ratio": len(phase.failures) / phase.attempted,
        "wall": {
            "ops_per_s": completed / phase.wall,
            "op_s_p50": statistics.median(phase.latencies),
            "op_s_tail": tail(phase.latencies)[0],
        },
        "latencies_s": phase.latencies,
        "scaled_latencies_s": phase.scaled,
        "setup_samples_s": setups,
    }
    return metrics, notes, phase


def per_layer(wl: Workload, seconds: float, state: dict, spans_path: Path) -> tuple[dict, dict, list[Phase]]:
    plain = run_phase(wl, seconds / 2, state, whole_cycles=True)
    tracer = tracing.Tracer()
    layer = {"cli.output_bytes": 0, "orders.grid_points": 0, "orders.max_denominator_bits": 0}
    spans_dir = spans_path.with_suffix("")
    spans_dir.mkdir(parents=True, exist_ok=True)
    origin = time.perf_counter()
    tracer.install()
    try:
        traced = run_phase(wl, seconds / 2, state, whole_cycles=True, tracer=tracer, layer=layer,
                           spans_dir=spans_dir)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(spans_path, origin)
    shutil.rmtree(spans_dir)

    cycles = traced.cycles
    table = tracing.summarize(tracer.spans, tracer.counts)
    metrics = {}
    for prefix, fields, span_names in SPAN_METRICS:
        for f in fields:
            total = sum(table.get(s, {}).get(f, 0) for s in span_names or (prefix,))
            metrics[f"{prefix}.{f}"] = total // cycles if f == "calls" else total / cycles
    metrics["orders.grid_points"] = layer["orders.grid_points"] // cycles
    metrics["orders.max_denominator_bits"] = layer["orders.max_denominator_bits"]
    metrics["cli.output_bytes"] = layer["cli.output_bytes"] // cycles
    metrics.update(interpreter_probes())
    untraced_rate = plain.attempted / sum(plain.scaled)
    traced_rate = traced.attempted / sum(traced.scaled)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    metrics["trace.spans"] = len(tracer.spans) // cycles
    notes = {"cycles_traced": cycles, "cycles_untraced": plain.cycles,
             "spans_file": str(spans_path)}
    return metrics, notes, [plain, traced]


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Set up, measure and check one workload; return the full result."""
    env = environment()
    directory = WORK / "run"  # one fixed place, so that outputs echoing input paths repeat exactly
    if directory.exists():
        shutil.rmtree(directory)
    try:
        before = calibration.measure("process")
        wl, setup_s = timed_setup(name, seed, directory, sizes)
        state: dict = {}
        if trace:
            spans_path = WORK / "results" / f"{name}-seed{seed}-trace1.spans.jsonl"
            metrics, notes, phases = per_layer(wl, seconds, state, spans_path)
            units = dict(per_layer_names())
        else:
            # Each set-up is scaled by the mean of the calibrations around it.
            after = calibration.measure("process")
            setups = [calibration.scale(setup_s, (before + after) / 2, "process")]
            for _ in range(setup_samples - 1):
                before = after
                probe = setup_probe(name, seed, sizes)
                after = calibration.measure("process")
                setups.append(calibration.scale(probe, (before + after) / 2, "process"))
            metrics, notes, phase = end_to_end(wl, seconds, state, setups)
            phases = [phase]
            units = dict(END_TO_END)
    finally:
        if directory.exists():
            shutil.rmtree(directory)
    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.attempted for p in phases)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
            "environment": env, "inputs": wl.inputs,
            "op_failure_ratio": len(failures) / attempted, "failures": failures[:20], **notes,
        },
    }


def print_result(result: dict) -> None:
    info = result["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  trace {int(info['trace'])}")
    print("environment " + json.dumps(info["environment"], sort_keys=True))
    print("inputs " + json.dumps(info["inputs"], sort_keys=True))
    for name, m in result["metrics"].items():
        note = info.get(name)
        print(f"  {name:<44} {m['value']:<22.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  {'op_failure_ratio':<44} {info['op_failure_ratio']:<22.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops failed)")
    for name, value in info.get("wall", {}).items():
        print(f"  {'wall ' + name:<44} {value:<22.6g} (unscaled)")
    for failure in info["failures"]:
        print(f"  FAILED {failure}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so that each peak RSS is its own."""
    summary = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", default="{}", help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mdpvalues" / "__init__.py").is_file():
        print(f"error: no mdpvalues package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    sizes = Sizes(**json.loads(args.sizes))
    if args.setup_probe:
        directory = Path(args.dir)
        _, elapsed = timed_setup(args.workload, args.seed, directory, sizes)
        shutil.rmtree(directory)
        print(repr(elapsed))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
