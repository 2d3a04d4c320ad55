"""CLI subcommands: golden outputs, exit codes, manifests, byte determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import mdpvalues
import mdpvalues.cli as cli
from mdpvalues import (
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_statistic,
    orders,
    pvalue_family,
    verify_all_claims,
)
from mdpvalues.cli import main
from mdpvalues.rational import decimal_string, format_rational, parse_rational
from mdpvalues.registry import default_statistic, resolve_model

from claims_oracle import atom_cdf, randomized_cdf_at, scan_pvalue_family

# Three points where a and b share the likelihood ratio 1/2: the saved model of the CI smoke's tie.json.
TIE_MODEL = {"parameters": {"theta0": "1/2", "theta1": "3/4"}, "support": ["a", "b", "c"],
             "pmf": {"theta0": ["1/6", "1/3", "1/2"], "theta1": ["1/12", "1/6", "3/4"]}}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestTable1:
    def test_reference_rows(self, tmp_path):
        out = tmp_path / "table1.csv"
        assert main(["table1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 32
        first = rows[0]
        assert first["label"] == "11111"
        assert parse_rational(first["p0"]) == Fraction(1, 32)
        assert parse_rational(first["p1"]) == Fraction(4096, 12500)
        assert parse_rational(first["lr"]) == Fraction(32768, 3125)
        assert first["rank"] == "1"
        assert parse_rational(first["md_natural"]) == Fraction(1, 32)
        assert parse_rational(first["t_natural"]) == Fraction(1, 32)
        assert parse_rational(rows[7]["md_natural"]) == Fraction(1, 4)
        assert rows[7]["label"] == "10011"

    def test_p0_column_sums_to_one(self, tmp_path):
        out = tmp_path / "table1.csv"
        main(["table1", "--out", str(out)])
        total = sum(parse_rational(row["p0"]) for row in read_csv(out))
        assert total == 1

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "table1.csv"
        main(["table1", "--out", str(out)])
        manifest = json.loads((tmp_path / "table1.csv.manifest.json").read_text())
        assert manifest["command"] == "table1"
        assert manifest["version"]


class TestCdf:
    def test_md_natural_staircase(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(["cdf", "--model", "example1", "--family", "md",
                     "--theta", "theta0", "--u", "natural", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 32
        for row in rows:
            t, value = parse_rational(row["t"]), parse_rational(row["F"])
            assert value == t  # uniform staircase on the diagonal grid points

    def test_t_natural_has_six_steps(self, tmp_path):
        out = tmp_path / "cdf.csv"
        main(["cdf", "--model", "example1", "--family", "t", "--theta", "theta0", "--out", str(out)])
        assert len(read_csv(out)) == 6

    def test_uniform_reference_is_diagonal(self, tmp_path):
        out = tmp_path / "uniform.csv"
        main(["cdf", "--model", "example1", "--family", "md", "--uniform", "--out", str(out)])
        for row in read_csv(out):
            assert parse_rational(row["t"]) == parse_rational(row["F"])

    def test_randomized_cdf_is_diagonal_under_null(self, tmp_path):
        out = tmp_path / "rand.csv"
        main(["cdf", "--model", "example1", "--family", "t", "--u", "rand", "--out", str(out)])
        for row in read_csv(out):
            assert parse_rational(row["t"]) == parse_rational(row["F"])

    def test_binomial_builtin(self, tmp_path):
        out = tmp_path / "cdf.csv"
        assert main(["cdf", "--model", "binomial:3,1/2,3/4", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 4

    @pytest.mark.parametrize("spec, classes", [("binomial:40,1/2,3/5", 41), ("tie.json", 2)],
                             ids=["binomial:40,1/2,3/5", "tie.json"])
    def test_every_row_matches_the_oracle(self, tmp_path, spec, classes):
        """t/md x natural/mid/rand x both thetas, and --uniform, row by row against the claims oracle's scan.

        In the saved model file, a and b have equal likelihood ratios (1/2), so the t family has a tie class.
        """
        if spec == "tie.json":
            spec = str(tmp_path / spec)
            Path(spec).write_text(json.dumps(TIE_MODEL), encoding="utf-8")
        model, _ = resolve_model(spec)
        statistic = default_statistic(model)
        assert len(statistic.keys) == classes
        for family, source in (("t", statistic), ("md", build_agreeing_ranking(model, statistic))):
            forms = scan_pvalue_family(model, source)
            kinks = sorted({*forms.a, Fraction(1)})  # the class starts and 1
            cases = {("uniform", None): [(t, t) for t in kinks]}
            for theta in ("theta0", "theta1"):
                for u, value in (("natural", 1), ("mid", Fraction(1, 2))):
                    cdf = atom_cdf(model, theta, forms, value)
                    cases[(u, theta)] = list(zip(cdf.jumps, cdf.cum))
                cases[("rand", theta)] = [(t, randomized_cdf_at(model, theta, forms, t)) for t in kinks]
            for (u, theta), expected in cases.items():
                out = tmp_path / f"{family}-{u}-{theta}.csv"
                flags = ["--uniform"] if theta is None else ["--u", u, "--theta", theta]
                assert main(["cdf", "--model", spec, "--family", family, *flags, "--out", str(out)]) == 0
                assert [tuple(row.values()) for row in read_csv(out)] == [
                    (format_rational(t), format_rational(f), decimal_string(t), decimal_string(f)) for t, f in expected
                ], (family, u, theta)

    def test_unknown_theta_is_usage_error(self, tmp_path, capsys):
        code = main(["cdf", "--model", "example1", "--theta", "nope",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: unknown parameter 'nope'\n"

    # n follows the integer grammar of simulate's fields: no digit separators, no non-ASCII digits.
    @pytest.mark.parametrize("spec", ["binomial:1.5,1/2,3/5", "binomial:x,1/2,3/5", "binomial:5,1/2,0.6",
                                      "binomial:1_0,1/2,3/5", "binomial:\u0661\u0660,1/2,3/5",
                                      "binomial:\uff11\uff10,1/2,3/5"])
    def test_malformed_binomial_spec_is_usage_error(self, tmp_path, capsys, spec):
        assert main(["pvalues", "--model", spec, "--out", str(tmp_path / "pv.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_builtin_example_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert main(["verify", "--model", "example1", "--out", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())
        assert [r["claim"] for r in reports] == [f"C{i}" for i in range(1, 10)]
        assert all(r["verdict"] == "pass" for r in reports)
        assert "C9" in capsys.readouterr().out

    def test_reports_json_is_streamed_from_the_cli_name(self, tmp_path, monkeypatch):
        """verify writes what ``cli.reports_to_json`` yields, so a patch of that name reaches the file."""
        spec = "binomial:30,1/2,3/5"
        model, _ = resolve_model(spec)
        statistic = default_statistic(model)
        reports = verify_all_claims(model, statistic, build_agreeing_ranking(model, statistic),
                                    list(model.parameter_names))
        assert main(["verify", "--model", spec, "--out", str(tmp_path / "whole")]) == 0
        text = (tmp_path / "whole" / "reports.json").read_text(encoding="utf-8")
        assert text == "".join(orders.reports_to_json(reports))
        assert [r["claim"] for r in json.loads(text)] == [r.claim for r in reports]

        real = cli.reports_to_json
        monkeypatch.setattr(cli, "reports_to_json", lambda reports: real(reports[:-1]))
        assert main(["verify", "--model", spec, "--out", str(tmp_path / "short")]) == 0
        written = json.loads((tmp_path / "short" / "reports.json").read_text(encoding="utf-8"))
        assert [r["claim"] for r in written] == [f"C{i}" for i in range(1, 9)]
        manifest = json.loads((tmp_path / "short" / "manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["claims"]) == 9

    def test_thetas_picks_the_theta_grid(self, tmp_path):
        model, _ = resolve_model("example1")
        statistic = default_statistic(model)
        reports = verify_all_claims(model, statistic, build_agreeing_ranking(model, statistic), ["theta1"])
        assert main(["verify", "--model", "example1", "--thetas", "theta1", "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "reports.json").read_text(encoding="utf-8") == "".join(orders.reports_to_json(reports))
        assert json.loads((tmp_path / "v" / "manifest.json").read_text())["thetas"] == ["theta1"]

    def test_empty_thetas_skips_the_theta_claims(self, tmp_path):
        assert main(["verify", "--model", "example1", "--thetas", "", "--out", str(tmp_path / "v")]) == 0
        reports = {r["claim"]: r for r in json.loads((tmp_path / "v" / "reports.json").read_text())}
        skipped = {claim for claim, r in reports.items() if r["verdict"] == "skipped"}
        assert skipped == {"C1", "C3", "C6"}
        assert all(reports[claim]["note"] == "empty theta grid" for claim in skipped)
        assert all(r["verdict"] == "pass" for claim, r in reports.items() if claim not in skipped)

    def test_unknown_theta_exits_two(self, tmp_path, capsys):
        argv = ["verify", "--model", "example1", "--thetas", "theta1,nope", "--out", str(tmp_path / "v")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unknown parameter 'nope'\n"
        assert not (tmp_path / "v").exists()

    def test_tampered_ranking_file_exits_two(self, tmp_path, capsys):
        order_path = tmp_path / "ranking.json"
        out = tmp_path / "verify"
        good = main(["cdf", "--model", "example1", "--family", "md",
                     "--out", str(tmp_path / "ignored.csv")])
        assert good == 0
        # rank order that swaps a top point below a weaker class
        from mdpvalues.registry import example1_model, table1_priority
        labels = table1_priority(example1_model())
        labels[0], labels[8] = labels[8], labels[0]
        order_path.write_text(json.dumps(labels))
        assert main(["verify", "--model", "example1", "--ranking-file", str(order_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ranking does not agree") and "Traceback" not in err

    def test_explicit_agreeing_ranking_file_accepted(self, tmp_path):
        from mdpvalues.registry import example1_model, table1_priority
        order_path = tmp_path / "ranking.json"
        order_path.write_text(json.dumps(table1_priority(example1_model())))
        out = tmp_path / "verify"
        assert main(["verify", "--model", "example1", "--ranking-file", str(order_path),
                     "--out", str(out)]) == 0

    def test_ranking_file_that_repeats_a_label_exits_two(self, tmp_path, capsys):
        # the CI smoke's m.json, with "11" listed twice and "01" left out
        model_path, order_path = tmp_path / "m.json", tmp_path / "ranking.json"
        model_path.write_text(json.dumps({
            "parameters": {"theta0": "1/2", "theta1": "3/4"}, "support": ["00", "01", "10", "11"],
            "pmf": {"theta0": ["1/4", "1/4", "1/4", "1/4"], "theta1": ["1/16", "3/16", "3/16", "9/16"]}}))
        order_path.write_text(json.dumps(["11", "11", "10", "00"]))
        assert main(["verify", "--model", str(model_path), "--ranking-file", str(order_path),
                     "--out", str(tmp_path / "verify")]) == 2
        assert capsys.readouterr().err == (
            "error: a ranking needs each rank 1..4 exactly once: list every support label once\n")
        assert not (tmp_path / "verify").exists()

    def test_ranking_file_of_indices_exits_two(self, tmp_path):
        # support indices in an agreeing order are still not labels
        from mdpvalues.registry import example1_model, table1_priority
        model = example1_model()
        order_path = tmp_path / "ranking.json"
        order_path.write_text(json.dumps([model.point(label).index for label in table1_priority(model)]))
        assert main(["verify", "--model", "example1", "--ranking-file", str(order_path),
                     "--out", str(tmp_path / "verify")]) == 2

    def test_null_flag_is_refused(self, tmp_path, capsys):
        # p-values are always formed under the model's first parameter
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "example1", "--null", "theta1", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --null theta1" in capsys.readouterr().err

    def test_t_grid_flag_is_refused(self, tmp_path, capsys):
        # C5's grid is the randomized CDF's kink set, derived from the model
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--model", "example1", "--t-grid", "20", "--out", str(tmp_path / "v")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t-grid 20" in capsys.readouterr().err

    def test_skip_note_names_the_class_by_its_pointwise_ratio(self, tmp_path):
        """LR(theta1:theta0) is not sufficient for theta2: C6 and C8 name the class of 'a' by its key, p1/p0."""
        spec = {"parameters": {"theta0": "1/2", "theta1": "3/4", "theta2": "1/4"}, "support": ["a", "b", "c", "d"],
                "pmf": {"theta0": ["1/6", "1/6", "1/3", "1/3"], "theta1": ["1/10", "1/10", "2/5", "2/5"],
                        "theta2": ["1/12", "3/12", "4/12", "4/12"]}}
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(spec))
        model, _ = resolve_model(str(model_path))
        ratios = [p1 / p0 for p0, p1 in zip(model.probs("theta0"), model.probs("theta1"))]
        statistic = default_statistic(model)
        assert model.int_row("theta0")[0] != model.int_row("theta1")[0]  # the scale D_null / D_alt is not 1
        assert statistic == make_statistic(model, statistic.name, ratios)
        assert main(["verify", "--model", str(model_path), "--out", str(tmp_path / "v")]) == 0
        reports = {r["claim"]: r for r in json.loads((tmp_path / "v" / "reports.json").read_text(encoding="utf-8"))}
        note = (f"hypothesis unmet: conditional law given [lr(theta1:theta0)={ratios[0]}] differs: "
                "point 'a' under theta2 vs theta0")
        assert str(ratios[0]) == "3/5"
        assert reports["C6"]["note"] == reports["C8"]["note"] == note

    def test_model_file_input(self, tmp_path):
        from mdpvalues import bernoulli_product_model, save_model
        model_path = tmp_path / "model.json"
        save_model(bernoulli_product_model(2, ["1/2", "2/3"]), model_path)
        assert main(["verify", "--model", str(model_path), "--out", str(tmp_path / "v")]) == 0

    def test_missing_model_is_usage_error(self, tmp_path):
        assert main(["verify", "--model", "no-such-model",
                     "--out", str(tmp_path / "v")]) == 2

    @pytest.mark.parametrize("directory", [False, True], ids=["empty", "directory"])
    def test_model_that_is_not_a_file_is_named(self, tmp_path, capsys, directory):
        spec = str(tmp_path) if directory else ""
        assert main(["verify", "--model", spec, "--out", str(tmp_path / "v")]) == 2
        assert "is neither builtin nor an existing file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            [{"support": ["x", "y"]}],
            {"parameters": ["1/2", "3/4"], "support": ["x", "y"], "pmf": {"a": ["1/2", "1/2"]}},
            {"parameters": {"a": "1/2", "b": "3/4"}, "support": ["x", "y"], "pmf": {"a": None, "b": ["1/4", "3/4"]}},
            {"parameters": {"a": "1/2", "b": "3/4"}, "support": ["x", "y"], "pmf": [["1/2", "1/2"], ["1/4", "3/4"]]},
            {"parameters": {"a": "1/2", "b": "3/4"}, "support": "xy", "pmf": {"a": ["1/2", "1/2"], "b": ["1/4", "3/4"]}},
            {"parameters": {"a": "1/2", "b": "3/4"}, "support": [["x"], {"y": 1}],
             "pmf": {"a": ["1/2", "1/2"], "b": ["1/4", "3/4"]}},
        ],
        ids=["top-level-array", "parameters-array", "null-row", "pmf-array", "string-support", "non-string-labels"],
    )
    def test_malformed_model_file_is_usage_error(self, tmp_path, capsys, spec):
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(spec))
        assert main(["verify", "--model", str(model_path), "--out", str(tmp_path / "v")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_null_parameter_is_not_a_rational(self, tmp_path, capsys):
        spec = {"parameters": {"a": None, "b": "3/4"}, "support": ["x", "y"],
                "pmf": {"a": ["1/2", "1/2"], "b": ["1/4", "3/4"]}}
        model_path = tmp_path / "null.json"
        model_path.write_text(json.dumps(spec))
        assert main(["verify", "--model", str(model_path), "--out", str(tmp_path / "v")]) == 2
        assert "not a rational: None" in capsys.readouterr().err

    def test_rationals_past_the_int_digit_limit(self, tmp_path):
        # 10^4400 has 4,401 digits, past CPython's default 4,300-digit int/str conversion limit
        tiny = "1/1" + "0" * 4400
        spec = {"parameters": {"t0": "1/2", "t1": tiny}, "support": ["x", "y"],
                "pmf": {"t0": ["1/2", "1/2"], "t1": [tiny, "9" * 4400 + "/1" + "0" * 4400]}}
        model_path = tmp_path / "tiny.json"
        model_path.write_text(json.dumps(spec))
        limit = getattr(sys, "get_int_max_str_digits", None)  # absent before CPython 3.10.7
        before = limit() if limit else None
        if limit:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)  # as in a fresh interpreter
        try:
            assert main(["pvalues", "--model", str(model_path), "--out", str(tmp_path / "pv.csv")]) == 0
            assert main(["verify", "--model", str(model_path), "--out", str(tmp_path / "v")]) == 0
        finally:
            if limit:
                sys.set_int_max_str_digits(before)
        rows = {row["label"]: row for row in read_csv(tmp_path / "pv.csv")}
        assert rows["x"]["statistic"] == "1/5" + "0" * 4399  # p_t1(x) / p_t0(x) = 2 / 10^4400


class TestSimulateCommand:
    def test_bundled_null_config_controls_fdr(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", "bh_null", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fdr"] <= 0.1 + 3 * max(report["fdr_mcse"], 1e-3)
        summary = read_csv(out / "summary.csv")
        assert summary[0]["procedure"] == "bh"

    def test_alpha_override_is_the_configs_alpha(self, tmp_path):
        """--alpha 1/20 writes the bytes of the same config with "alpha": "1/20"."""
        config = json.loads(Path(mdpvalues.__file__).with_name("configs").joinpath("bh_null.json").read_text())
        (tmp_path / "alpha.json").write_text(json.dumps({**config, "alpha": "1/20"}), encoding="utf-8")
        assert main(["simulate", "--config", "bh_null", "--alpha", "1/20", "--out", str(tmp_path / "flag")]) == 0
        assert main(["simulate", "--config", str(tmp_path / "alpha.json"), "--out", str(tmp_path / "file")]) == 0
        for name in ("report.json", "summary.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes(), name
        # the manifests differ only in the digest of the config text read
        flag, file = (json.loads((tmp_path / side / "manifest.json").read_text()) for side in ("flag", "file"))
        assert flag.pop("config_sha256") != file.pop("config_sha256")
        assert flag == file and flag["config"]["alpha"] == "1/20"

    def test_seed_override_changes_manifest(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", "bh_null", "--seed", "7", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_bad_config_exits_two(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"model": "example1", "hypotheses": 0}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 2

    def test_zero_replicates_rejected(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "model": "example1", "hypotheses": 5, "pi0": "1", "family": "t",
            "u_policy": "natural", "procedure": "bh", "alpha": "1/10",
            "replicates": 0, "seed": 3}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 2

    def test_null_other_than_the_models_exits_two(self, tmp_path, capsys):
        config = tmp_path / "swapped.json"
        fields = {"model": "example1", "hypotheses": 5, "pi0": "1", "family": "t", "u_policy": "natural",
                  "procedure": "bh", "alpha": "1/10", "replicates": 2, "seed": 3}
        config.write_text(json.dumps({**fields, "null": "theta1", "alt": "theta0"}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        assert "null 'theta1' is not the model's null 'theta0'" in capsys.readouterr().err
        config.write_text(json.dumps({**fields, "null": "theta0"}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("data", [[], [{"model": "example1"}], "bh_null"], ids=["empty", "array", "string"])
    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys, data):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config must be a JSON object") and "Traceback" not in err

    def test_config_without_model_names_the_field(self, tmp_path, capsys):
        config = tmp_path / "no_model.json"
        config.write_text(json.dumps({"hypotheses": 5, "replicates": 2, "seed": 3}))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == "error: config is missing field 'model'\n"

    @pytest.mark.parametrize("seed", ["1_0", "\u0661\u0660", "1.5", "0x10", ""])
    def test_seed_override_outside_the_integer_grammar_exits_two(self, tmp_path, capsys, seed):
        assert main(["simulate", "--config", "bh_null", "--seed", seed, "--out", str(tmp_path / "s")]) == 2
        assert f"seed must be an integer, got {seed!r}" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        assert main(["simulate", "--config", "bh_null", "--seed", "-1", "--out", str(tmp_path / "s")]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err


class TestAltOption:
    """--alt names the alternative of the likelihood-ratio statistic (default: the second parameter)."""

    SPEC = "binomial:30,1/2,3/5,7/10"

    @pytest.fixture(scope="class")
    def theta2(self):
        model, _ = resolve_model(self.SPEC)
        statistic = likelihood_ratio_statistic(model, "theta0", "theta2")
        assert statistic.keys != default_statistic(model).keys
        return model, statistic

    def test_pvalues(self, tmp_path, theta2):
        model, statistic = theta2
        assert main(["pvalues", "--model", self.SPEC, "--alt", "theta2", "--out", str(tmp_path / "pv.csv")]) == 0
        ranking = build_agreeing_ranking(model, statistic)
        assert [row["statistic"] for row in read_csv(tmp_path / "pv.csv")] == [
            format_rational(statistic.value(model.support[i])) for i in ranking.order()]

    def test_cdf(self, tmp_path, theta2):
        model, statistic = theta2
        out = tmp_path / "cdf.csv"
        assert main(["cdf", "--model", self.SPEC, "--alt", "theta2", "--theta", "theta2", "--out", str(out)]) == 0
        cdf = atom_cdf(model, "theta2", scan_pvalue_family(model, statistic), 1)
        assert [(parse_rational(row["t"]), parse_rational(row["F"])) for row in read_csv(out)] == list(
            zip(cdf.jumps, cdf.cum))

    def test_verify(self, tmp_path, theta2):
        model, statistic = theta2
        reports = verify_all_claims(model, statistic, build_agreeing_ranking(model, statistic),
                                    list(model.parameter_names))
        assert main(["verify", "--model", self.SPEC, "--alt", "theta2", "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "reports.json").read_text(encoding="utf-8") == "".join(orders.reports_to_json(reports))

    def test_unknown_alternative_exits_two(self, tmp_path, capsys):
        assert main(["pvalues", "--model", self.SPEC, "--alt", "nope", "--out", str(tmp_path / "pv.csv")]) == 2
        assert capsys.readouterr().err == "error: unknown parameter 'nope'\n"


class TestPValuesCommand:
    def test_emits_family_table(self, tmp_path):
        out = tmp_path / "pv.csv"
        assert main(["pvalues", "--model", "example1", "--family", "md", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 32
        assert parse_rational(rows[0]["natural"]) == Fraction(1, 32)

    @pytest.mark.parametrize("family", ["md", "t"])
    def test_labels_that_need_quoting_write_what_csv_writer_writes(self, tmp_path, family):
        """Only labels go through csv: each row is csv.writer's for rows built from Fractions, and reads back."""
        labels = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\nx", " lead", "", "plain"]
        spec = {"parameters": {"theta0": "1/2", "theta1": "3/4"}, "support": labels,
                "pmf": {"theta0": ["1/8"] * 8,
                        "theta1": ["1/16", "1/8", "1/8", "3/16", "1/16", "1/8", "3/16", "1/8"]}}
        model_path, out = tmp_path / "model.json", tmp_path / "pv.csv"
        model_path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["pvalues", "--model", str(model_path), "--family", family, "--out", str(out)]) == 0
        model, _ = resolve_model(str(model_path))
        statistic = default_statistic(model)
        ranking = build_agreeing_ranking(model, statistic)
        table = pvalue_family(model, ranking if family == "md" else statistic)

        def line(row):
            # A "\r\n" terminator makes csv.writer quote a field's "\r" before Python 3.13 too; the file ends
            # each row in "\n".
            text = io.StringIO(newline="")
            csv.writer(text, lineterminator="\r\n").writerow(row)
            return text.getvalue()[:-2] + "\n"

        expected = [line(["label", "rank", "statistic", "a", "b", "natural", "mid", "natural_dec", "mid_dec"])]
        for i in ranking.order():
            pt = model.support[i]
            a, natural, mid = (table.evaluate(pt, u) for u in (0, 1, Fraction(1, 2)))
            expected.append(line([pt.label, ranking.rank(pt), *map(format_rational, (statistic.value(pt), a,
                                                                                       natural - a, natural, mid)),
                                  decimal_string(natural), decimal_string(mid)]))
        assert out.read_bytes() == "".join(expected).encode("utf-8")
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == [model.support[i].label for i in ranking.order()]
        assert len(rows) == len(labels) + 1


@pytest.mark.parametrize("spec", ["example1", "binomial:200,1/2,3/5"])
def test_builtin_and_its_saved_model_file_write_the_same_outputs(tmp_path, spec):
    # The builtins build their integer rows directly; a model file goes through make_model.
    from mdpvalues import save_model
    from mdpvalues.registry import resolve_model
    model_path = tmp_path / "model.json"
    save_model(resolve_model(spec)[0], model_path)
    for side, model in (("builtin", spec), ("file", str(model_path))):
        out = tmp_path / side
        assert main(["verify", "--model", model, "--out", str(out / "v")]) == 0
        for family in ("t", "md"):
            assert main(["pvalues", "--model", model, "--family", family, "--out", str(out / f"{family}.csv")]) == 0
    for rel in ("v/reports.json", "v/reports.txt", "t.csv", "md.csv"):
        assert (tmp_path / "builtin" / rel).read_bytes() == (tmp_path / "file" / rel).read_bytes(), rel


@pytest.mark.parametrize("spec, injective", [("binomial:50,1/2,3/5", True), ("example1", False)])
def test_injective_statistic_makes_the_t_and_md_families_one(tmp_path, spec, injective):
    """When every statistic class is one point, the agreeing ranking's classes are the statistic's.

    Then the two families' lattices are equal under every theta, and pvalues and cdf write the same
    bytes for --family t and --family md.  example1's tied classes make every one of them differ.
    """
    model, _ = resolve_model(spec)
    statistic = default_statistic(model)
    t_family = pvalue_family(model, statistic)
    md_family = pvalue_family(model, build_agreeing_ranking(model, statistic))
    assert (len(statistic.keys) == model.size) == injective
    for theta in model.parameter_names:
        assert (t_family.lattice(theta) == md_family.lattice(theta)) == injective, theta
    commands = [["pvalues"], *(["cdf", "--theta", "theta1", "--u", u] for u in ("natural", "mid", "rand"))]
    for i, command in enumerate(commands):
        tables = []
        for family in ("t", "md"):
            out = tmp_path / f"{i}-{family}.csv"
            assert main([*command, "--model", spec, "--family", family, "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert (tables[0] == tables[1]) == injective, command


class TestManifestPlacement:
    """The command decides where its manifest goes, whatever the name of --out."""

    @pytest.mark.parametrize("argv", [["table1"], ["cdf", "--model", "example1"], ["pvalues", "--model", "example1"]],
                             ids=["table1", "cdf", "pvalues"])
    def test_file_command_without_suffix_writes_beside_the_file(self, tmp_path, argv):
        out = tmp_path / "table"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "table.manifest.json").read_text())
        assert out.is_file() and manifest["command"] == argv[0] and manifest["outputs"] == ["table"]

    @pytest.mark.parametrize("argv", [["verify", "--model", "example1"], ["simulate", "--config", "bh_null"]],
                             ids=["verify", "simulate"])
    def test_directory_command_with_suffix_writes_inside(self, tmp_path, argv):
        out = tmp_path / "run.v1"
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["command"] == argv[0]
        assert not (tmp_path / "run.v1.manifest.json").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{", b"{", None], ids=["not-utf8", "not-json", "directory"])
@pytest.mark.parametrize("role", ["model", "ranking", "config"])
def test_unreadable_input_file_exits_two(tmp_path, capsys, role, content):
    source = tmp_path / "input.json"
    if content is None:
        source.mkdir()
    else:
        source.write_bytes(content)
    out = str(tmp_path / "out")
    argv = {
        "model": ["verify", "--model", str(source), "--out", out],
        "ranking": ["verify", "--model", "example1", "--ranking-file", str(source), "--out", out],
        "config": ["simulate", "--config", str(source), "--out", out],
    }[role]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        # Fisher and the geometric mean decide rows near their cuts by a left fold of math.log
        combinations = {
            "fisher": {"model": "example1", "pi0": "1", "family": "md", "u_policy": "randomized"},
            "geometric-mean": {"model": "binomial:20,1/2,7/10", "pi0": "0", "family": "t", "u_policy": "natural"},
        }
        for procedure, config in combinations.items():
            (tmp_path / f"{procedure}.json").write_text(json.dumps({
                **config, "procedure": procedure, "hypotheses": 30, "alpha": "1/10", "replicates": 200, "seed": 3}))
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            out.mkdir()
            assert main(["table1", "--out", str(out / "t.csv")]) == 0
            assert main(["cdf", "--model", "example1", "--family", "md",
                         "--out", str(out / "c.csv")]) == 0
            assert main(["pvalues", "--model", "example1", "--out", str(out / "p.csv")]) == 0
            assert main(["simulate", "--config", "bh_null", "--out", str(out / "sim")]) == 0
            for procedure in combinations:
                config = str(tmp_path / f"{procedure}.json")
                assert main(["simulate", "--config", config, "--out", str(out / procedure)]) == 0
            assert main(["verify", "--model", "example1", "--out", str(out / "v")]) == 0
        for rel in ("t.csv", "t.csv.manifest.json", "c.csv", "p.csv", "sim/report.json",
                    "sim/summary.csv", "sim/manifest.json", "v/reports.json", "v/reports.txt",
                    "fisher/report.json", "geometric-mean/report.json"):
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


class TestParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_handler_is_looked_up_at_each_call(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_table1", lambda args: seen.append(args.out) or 7)
        assert main(["table1", "--out", "t.csv"]) == 7
        assert seen == ["t.csv"]
        monkeypatch.undo()
        assert main(["table1", "--out", str(tmp_path / "t.csv")]) == 0


class TestImports:
    # The CLI and the package load the exact layers only: verify imports orders in its handler, and
    # simulate imports downstream and special, which import numpy inside functions only.
    ENV = {**os.environ, "PYTHONPATH": str(Path(mdpvalues.__file__).resolve().parents[1])}
    ENGINES = ("mdpvalues.orders", "mdpvalues.downstream", "mdpvalues.special", "numpy")
    LAZY = {
        "orders": ("OrderReport", "OrdersError", "verify_all_claims"),
        "downstream": ("ConfigError", "FisherResult", "GeometricMeanResult", "SimulationConfig",
                       "SimulationReport", "bh_threshold", "bonferroni", "config_from_dict", "fisher_test",
                       "geometric_mean_combination", "simulate"),
    }

    def run_python(self, code, cwd=None):
        subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=self.ENV, cwd=cwd, check=True, timeout=120)

    def test_cli_import_does_not_load_numpy(self):
        """Nor the engine modules, from the package or from the CLI."""
        self.run_python(f"""
            import sys
            import mdpvalues
            loaded = [name for name in {self.ENGINES!r} if name in sys.modules]
            assert not loaded, loaded
            import mdpvalues.cli
            loaded = [name for name in {self.ENGINES!r} if name in sys.modules]
            assert not loaded, loaded
        """)

    def test_exact_commands_do_not_load_numpy(self, tmp_path):
        """Nor any engine module; verify then loads orders and nothing else."""
        self.run_python(f"""
            import sys
            from mdpvalues.cli import main
            for argv in (["table1", "--out", "t.csv"], ["cdf", "--model", "example1", "--out", "c.csv"],
                         ["pvalues", "--model", "example1", "--out", "p.csv"]):
                assert main(argv) == 0, argv
            loaded = [name for name in {self.ENGINES!r} if name in sys.modules]
            assert not loaded, loaded
            assert main(["verify", "--model", "example1", "--out", "v"]) == 0
            loaded = [name for name in {self.ENGINES!r} if name in sys.modules]
            assert loaded == ["mdpvalues.orders"], loaded
        """, cwd=tmp_path)

    def test_lazy_names_are_their_modules_own_and_bound_on_first_use(self):
        self.run_python(f"""
            import sys, mdpvalues
            for module, names in {self.LAZY!r}.items():
                assert f"mdpvalues.{{module}}" not in sys.modules, module
                for name in names:
                    assert name in dir(mdpvalues) and name not in vars(mdpvalues), name
                    value = getattr(mdpvalues, name)
                    assert value is getattr(sys.modules[f"mdpvalues.{{module}}"], name), name
                    assert vars(mdpvalues)[name] is value, name
        """)
        assert sorted(mdpvalues._LAZY) == sorted(name for names in self.LAZY.values() for name in names)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mdpvalues.no_such_name

    def test_every_layer_error_is_a_usage_error(self):
        """main catches UsageError, so it names no engine module's error class."""
        errors = (cli.CliError, mdpvalues.ModelError, mdpvalues.RankingError, mdpvalues.TestingError,
                  mdpvalues.OrdersError, mdpvalues.ConfigError)
        assert all(issubclass(error, mdpvalues.UsageError) for error in errors)
        assert issubclass(mdpvalues.UsageError, ValueError)

    def run_cli(self, tmp_path, argv):
        """(exit status, stderr) of ``python -m mdpvalues`` in a fresh process."""
        done = subprocess.run([sys.executable, "-m", "mdpvalues", *argv], env=self.ENV, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stderr

    def test_bad_simulate_config_in_a_fresh_process_exits_two(self, tmp_path):
        """downstream loads only after main has started; its ConfigError still exits 2."""
        config = {"model": "example1", "hypotheses": 0, "pi0": "1", "family": "t", "u_policy": "natural",
                  "procedure": "bh", "alpha": "1/10", "replicates": 2, "seed": 3}
        (tmp_path / "bad.json").write_text(json.dumps(config), encoding="utf-8")
        assert self.run_cli(tmp_path, ["simulate", "--config", "bad.json", "--out", "s"]) == (
            2, "error: invalid config value: hypotheses must be >= 1\n")

    def test_non_agreeing_ranking_file_in_a_fresh_process_exits_two(self, tmp_path):
        """orders loads only after main has started; its OrdersError still exits 2."""
        from mdpvalues.registry import example1_model, table1_priority
        labels = table1_priority(example1_model())
        labels[0], labels[8] = labels[8], labels[0]
        (tmp_path / "ranking.json").write_text(json.dumps(labels), encoding="utf-8")
        argv = ["verify", "--model", "example1", "--ranking-file", "ranking.json", "--out", "v"]
        assert self.run_cli(tmp_path, argv) == (
            2, "error: ranking does not agree with statistic: witness ('01111', '01011')\n")
