"""Workloads of the mdpvalues benchmark: seeded inputs, one op each, output checks.

Every workload is a fixed cycle of ops.  An op is one ``mdpv`` command,
run in process through ``mdpvalues.cli.main`` or as a fresh
``python -m mdpvalues`` child.  Inputs are written from the seed by this
module alone, so the program under test sees only the generated files.
A seed changes values (tie-break order, theta, Monte Carlo seed), never
sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

NAMES = ("verify-bernoulli", "verify-binomial", "simulate-matrix", "cli-cold")

BINOMIAL_THETA1 = ("4/7", "5/7", "6/7")
PROCEDURES = ("bh", "bonferroni", "fisher", "geometric-mean")
U_POLICIES = ("natural", "mid", "randomized")
FAMILIES = ("t", "md")
SIM_ALPHA = "1/10"
CLAIMS = [f"C{i}" for i in range(1, 10)]
SUBPROCESS_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the tests shrink them, a seed never changes them."""

    coins: int = 7  # verify-bernoulli support N = 2**coins
    binomial_n: int = 100
    hypotheses: int = 200
    replicates: int = 200


@dataclass
class Op:
    """One command.  Ops with equal ``key`` run on equal inputs."""

    key: str
    argv: list[str]
    out: Path
    expect: list[Path]
    check: Callable[["Op", int, dict], str | None]
    child: bool = False

    def prepare(self) -> None:
        """Remove the outputs of the previous op so that a stale file never passes a check."""
        if self.out.is_dir():
            shutil.rmtree(self.out)
        for path in (self.out, *self.expect):
            if path.is_file():
                path.unlink()


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]  # one cycle, run in this order
    stop_every: int  # ops between deadline checks: a whole cycle where a cycle is short
    inputs: dict[str, str] = field(default_factory=dict)  # generated file -> sha256

    @property
    def in_children(self) -> bool:
        """True when every op runs as a child process."""
        return all(op.child for op in self.ops)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_op(op: Op, spans_path: Path | None = None) -> int:
    """Run the command; return its exit status.  Exceptions propagate."""
    if op.child:
        if spans_path is None:
            cmd = [sys.executable, "-m", "mdpvalues", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *op.argv]
        done = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        return done.returncode
    cli = sys.modules["mdpvalues.cli"]  # looked up per call so that trace wrappers apply
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(op.argv)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _same_as_first(state: dict, key: str, data: bytes, what: str) -> str | None:
    digest = _digest(data)
    first = state.setdefault(key, digest)
    return None if first == digest else f"{what} differs from the first op on input {key}"


def check_verify(op: Op, status: int, state: dict) -> str | None:
    if status != 0:
        return f"exit status {status}"
    data = (op.out / "reports.json").read_bytes()
    reports = json.loads(data)
    claims = [r["claim"] for r in reports]
    if claims != CLAIMS:
        return f"claims {claims}, expected {CLAIMS}"
    failing = [r["claim"] for r in reports if r["verdict"] != "pass"]
    if failing:
        return f"claims not passing: {failing}"
    return _same_as_first(state, op.key, data, "reports.json")


def check_simulate(op: Op, status: int, state: dict) -> str | None:
    if status != 0:
        return f"exit status {status}"
    data = (op.out / "report.json").read_bytes()
    report = json.loads(data)
    if report["config"]["procedure"] in ("bh", "bonferroni"):
        limit = float(Fraction(SIM_ALPHA)) + 3 * report["fdr_mcse"]
        if report["fdr"] > limit:
            return f"FDR {report['fdr']} exceeds alpha + 3 MCSE = {limit}"
    return _same_as_first(state, op.key, data, "report.json")


def check_files(op: Op, status: int, state: dict) -> str | None:
    if status != 0:
        return f"exit status {status}"
    missing = [p.name for p in op.expect if not p.is_file()]
    return f"missing outputs {missing}" if missing else None


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _write(path: Path, payload: object, inputs: dict[str, str]) -> None:
    data = (json.dumps(payload, indent=1) + "\n").encode()
    path.write_bytes(data)
    inputs[path.name] = _digest(data)


def _model_inputs(
    directory: Path, stem: str, labels: list[str], pmf: Callable[[Fraction, int], Fraction],
    theta1: Fraction, seed: int, inputs: dict[str, str],
) -> tuple[Path, Path]:
    """Write a theta0=1/2 vs theta1 model and a ranking that agrees with its likelihood ratio.

    Ties in the likelihood ratio are broken by a shuffle drawn from the seed.
    """
    thetas = {"theta0": Fraction(1, 2), "theta1": theta1}
    rows = {name: [pmf(theta, i) for i in range(len(labels))] for name, theta in thetas.items()}
    model = {
        "parameters": {name: _rational(theta) for name, theta in thetas.items()},
        "support": labels,
        "pmf": {name: [_rational(p) for p in row] for name, row in rows.items()},
    }
    tie = list(range(len(labels)))
    random.Random(seed).shuffle(tie)
    ratio = [p1 / p0 for p0, p1 in zip(rows["theta0"], rows["theta1"])]
    order = sorted(range(len(labels)), key=lambda i: (-ratio[i], tie[i]))
    model_path, ranking_path = directory / f"{stem}.model.json", directory / f"{stem}.ranking.json"
    _write(model_path, model, inputs)
    _write(ranking_path, [labels[i] for i in order], inputs)
    return model_path, ranking_path


def _arg(path: Path) -> str:
    """Paths reach the program relative to the working directory, so outputs that
    echo them (the manifests) do not depend on where the checkout lives."""
    return os.path.relpath(path)


def _verify_op(key: str, model_path: Path, ranking_path: Path, out: Path) -> Op:
    argv = ["verify", "--model", _arg(model_path), "--ranking-file", _arg(ranking_path), "--out", _arg(out)]
    return Op(key, argv, out, [], check_verify)


def _verify_bernoulli(wl: Workload, directory: Path, sizes: Sizes) -> None:
    n = sizes.coins
    labels = ["".join(bits) for bits in product("01", repeat=n)]
    ones = [label.count("1") for label in labels]
    model_path, ranking_path = _model_inputs(
        directory, "bernoulli", labels, lambda t, i: t ** ones[i] * (1 - t) ** (n - ones[i]),
        Fraction(4, 5), wl.seed, wl.inputs,
    )
    wl.ops = [_verify_op("bernoulli", model_path, ranking_path, directory / "out")]
    wl.stop_every = 1


def _verify_binomial(wl: Workload, directory: Path, sizes: Sizes) -> None:
    # The three theta1 values cost different amounts, so every run visits all
    # of them; the seed picks which comes first.
    n = sizes.binomial_n
    labels = [str(k) for k in range(n + 1)]
    start = wl.seed % len(BINOMIAL_THETA1)
    for j in range(len(BINOMIAL_THETA1)):
        theta1 = BINOMIAL_THETA1[(start + j) % len(BINOMIAL_THETA1)]
        stem = f"binomial-{theta1.replace('/', 'over')}"
        model_path, ranking_path = _model_inputs(
            directory, stem, labels, lambda t, k: comb(n, k) * t**k * (1 - t) ** (n - k),
            Fraction(theta1), wl.seed, wl.inputs,
        )
        wl.ops.append(_verify_op(stem, model_path, ranking_path, directory / "out"))
    wl.stop_every = 1


def _simulate_matrix(wl: Workload, directory: Path, sizes: Sizes) -> None:
    master_seed = random.Random(wl.seed).randrange(2**31)
    for procedure in PROCEDURES:
        for u_policy in U_POLICIES:
            for family in FAMILIES:
                stem = f"sim-{procedure}-{u_policy}-{family}"
                config = {
                    "model": "example1", "hypotheses": sizes.hypotheses, "pi0": "3/4",
                    "family": family, "u_policy": u_policy, "procedure": procedure,
                    "alpha": SIM_ALPHA, "replicates": sizes.replicates, "seed": master_seed,
                }
                path = directory / f"{stem}.json"
                _write(path, config, wl.inputs)
                argv = ["simulate", "--config", _arg(path), "--out", _arg(directory / "out")]
                wl.ops.append(Op(stem, argv, directory / "out", [], check_simulate))
    wl.stop_every = len(wl.ops)


def _cli_cold(wl: Workload, directory: Path, sizes: Sizes) -> None:
    def file_op(key: str, argv: list[str], name: str) -> Op:
        out = directory / name
        manifest = out.with_name(out.name + ".manifest.json")
        return Op(key, [*argv, "--out", _arg(out)], out, [out, manifest], check_files, child=True)

    verify_out = directory / "verify"
    ops = [
        file_op("table1", ["table1"], "table1.csv"),
        file_op("pvalues", ["pvalues", "--model", "binomial:50,1/2,3/5"], "pvalues.csv"),
        file_op("cdf", ["cdf", "--model", "example1", "--family", "md"], "cdf.csv"),
        Op("verify", ["verify", "--model", "example1", "--out", _arg(verify_out)], verify_out,
           [verify_out / "reports.json", verify_out / "reports.txt", verify_out / "manifest.json"],
           check_files, child=True),
    ]
    start = wl.seed % len(ops)
    wl.ops = ops[start:] + ops[:start]
    wl.stop_every = len(ops)


BUILDERS = {
    "verify-bernoulli": _verify_bernoulli,
    "verify-binomial": _verify_binomial,
    "simulate-matrix": _simulate_matrix,
    "cli-cold": _cli_cold,
}


def setup(name: str, seed: int, directory: Path, sizes: Sizes = Sizes()) -> Workload:
    """Import the package and write the workload's inputs under ``directory``.

    This is the set-up the benchmark times as ``setup_s``.
    """
    importlib.import_module("mdpvalues.cli")
    directory.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, seed, [], 1)
    BUILDERS[name](wl, directory, sizes)
    return wl
