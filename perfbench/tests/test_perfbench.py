"""Toy-size tests of the benchmark itself: metric names, failure counting, span arithmetic.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.Sizes(coins=3, binomial_n=6, hypotheses=8, replicates=4)
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name):
    plain = run.run_workload(name, 7, 0.0, False, TOY, setup_samples=2)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert plain["info"]["op_failure_ratio"] == 0

    traced = run.run_workload(name, 7, 0.0, True, TOY)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced["metrics"]["cli.main.s"]["value"] > 0
    assert traced["metrics"]["trace.overhead_ratio"]["value"] > 0
    for key in ("python", "numpy", "nproc", "cpu", "loadavg"):
        assert key in traced["info"]["environment"]


def test_counts_repeat_exactly_and_wrappers_are_removed():
    import mdpvalues.orders
    import mdpvalues.testing

    first = run.run_workload("verify-bernoulli", 3, 0.0, True, TOY)
    second = run.run_workload("verify-bernoulli", 3, 0.0, True, TOY)
    exact = [k for k in first["metrics"] if k.endswith(".calls") or k.startswith("orders.grid")
             or k == "orders.max_denominator_bits"]
    assert first["metrics"]["testing.size_alpha_test.calls"]["value"] > 0
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert mdpvalues.orders.size_alpha_test is mdpvalues.testing.size_alpha_test
    assert not hasattr(mdpvalues.testing.size_alpha_test, "__wrapped__")


def test_seed_changes_values_not_sizes():
    a = run.run_workload("verify-bernoulli", 1, 0.0, False, TOY, setup_samples=1)["info"]["inputs"]
    b = run.run_workload("verify-bernoulli", 2, 0.0, False, TOY, setup_samples=1)["info"]["inputs"]
    assert a.keys() == b.keys()
    assert a["bernoulli.model.json"] == b["bernoulli.model.json"]
    assert a["bernoulli.ranking.json"] != b["bernoulli.ranking.json"]


def test_forced_check_failure_raises_op_failure_ratio(monkeypatch):
    import mdpvalues.cli

    real = mdpvalues.cli.reports_to_json
    monkeypatch.setattr(mdpvalues.cli, "reports_to_json", lambda reports: real(reports[:-1]))
    result = run.run_workload("verify-bernoulli", 1, 0.0, False, TOY, setup_samples=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["info"]["op_failure_ratio"] == 1
    assert "claims" in result["info"]["failures"][0]


def test_op_that_raises_is_counted_not_fatal(monkeypatch):
    import mdpvalues.cli

    def boom(argv):
        raise RuntimeError("forced")

    monkeypatch.setattr(mdpvalues.cli, "main", boom)
    result = run.run_workload("simulate-matrix", 1, 0.0, False, TOY, setup_samples=1)
    assert result["failed"] == result["attempted"] == len(workloads.PROCEDURES) * len(workloads.U_POLICIES) * len(workloads.FAMILIES)
    assert "RuntimeError: forced" in result["info"]["failures"][0]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: together they cover [1, 6]
        ["c", 2.0, 3.0, 1, 0],
        ["d", 9.0, 12.0, 0, 0],  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    table = tracing.summarize(spans, Counter({"x": 4}))
    assert table["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert table["x"]["calls"] == 4


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(22)]) == (11.0, 100 * 12 / 22, 10)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0, 2)  # too few ops: the median
