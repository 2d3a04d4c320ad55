"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here: "exact" means rational equality through
Fraction arithmetic, Monte Carlo bounds use the stated alpha + 3*MCSE /
minus 2*MCSE forms, and each criterion asserts its stated runtime budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import csv
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mdpvalues import (
    bernoulli_product_model,
    binomial_model,
    build_agreeing_ranking,
    config_from_dict,
    likelihood_ratio_statistic,
    make_statistic,
    pvalue_family,
    simulate,
    verify_all_claims,
)
from mdpvalues.cli import main
from mdpvalues.rational import parse_rational
from mdpvalues.registry import example1_model, table1_ranking

from claims_oracle import (
    StepCDF,
    breakpoints,
    phi_expectation_by_tails,
    pointwise_projection,
    randomized_cdf_at,
    rectangle_integral,
    scan_size_alpha_test,
)
from conftest import (
    brute_expectation,
    engine_forms,
    lattice_cdf,
    random_model_and_statistic,
    randomization_dependence_prob,
)

ALPHA = Fraction(1, 10)
HALF = Fraction(1, 2)


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2} PASS ({elapsed:.2f}s < {budget_seconds}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


@pytest.fixture(scope="module")
def worked_example():
    model = example1_model()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    count = make_statistic(model, "successes", lambda pt: Fraction(pt.label.count("1")))
    ranking = table1_ranking(model)
    return model, lr, count, ranking


def test_criterion_1_table1_reproduction(tmp_path, worked_example):
    with criterion(1, 1.0, "table reproduction matches all eight reference rows exactly"):
        out = tmp_path / "table1.csv"
        assert main(["table1", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32
        p1_by_count = {
            5: Fraction(32768, 100000), 4: Fraction(8192, 100000), 3: Fraction(2048, 100000)}
        lr_by_count = {
            5: Fraction(32768, 3125), 4: Fraction(8192, 3125), 3: Fraction(2048, 3125)}
        t_nat_by_count = {5: Fraction(1, 32), 4: Fraction(3, 16), 3: Fraction(1, 2)}
        expected_labels = ["11111", "01111", "10111", "11011", "11101", "11110", "00111", "10011"]
        for k, row in enumerate(rows[:8], start=1):
            ones = row["label"].count("1")
            assert row["label"] == expected_labels[k - 1]
            assert parse_rational(row["p0"]) == Fraction(1, 32)
            assert parse_rational(row["p1"]) == p1_by_count[ones]
            assert parse_rational(row["lr"]) == lr_by_count[ones]
            assert int(row["rank"]) == k
            assert parse_rational(row["md_natural"]) == Fraction(k, 32)
            assert parse_rational(row["t_natural"]) == t_nat_by_count[ones]
        # 10.4857 in the publication is the 6-significant-figure rendering
        assert float(parse_rational(rows[0]["lr"])) == 10.48576


def test_criterion_2_size_and_power(worked_example):
    with criterion(2, 1.0, "both level-0.1 tests have exact size 1/10 and power 39680/78125"):
        model, _lr, count, ranking = worked_example
        t_family, md_family = pvalue_family(model, count), pvalue_family(model, ranking)
        assert t_family.power("theta0", ALPHA) == ALPHA
        assert md_family.power("theta0", ALPHA) == ALPHA
        expected = Fraction(39680, 78125)
        assert t_family.power("theta1", ALPHA) == expected
        assert md_family.power("theta1", ALPHA) == expected
        assert float(expected) == 0.507904


def test_criterion_3_theorem1_c1_to_c4(worked_example):
    with criterion(3, 5.0, "C1-C4 pass exhaustively on the worked and binomial models"):
        model, _lr, count, ranking = worked_example
        reports = {r.claim: r for r in verify_all_claims(
            model, count, ranking, ["theta0", "theta1"])}
        for claim in ("C1", "C2", "C3", "C4"):
            assert reports[claim].verdict == "pass"
            assert reports[claim].worst_margin >= 0

        binom = binomial_model(3, ["1/2", "3/4"])
        stat = likelihood_ratio_statistic(binom, "theta0", "theta1")
        binom_reports = {r.claim: r for r in verify_all_claims(
            binom, stat, build_agreeing_ranking(binom, stat), ["theta0", "theta1"])}
        for claim in ("C1", "C2", "C3", "C4"):
            assert binom_reports[claim].verdict == "pass"


def test_criterion_4_theorem2_c5_c6_c7():
    with criterion(4, 5.0, "C5 exact at 1000 grid points; C6 exact on the theta grid; C7 pointwise"):
        thetas = ["1/2", "3/5", "7/10", "4/5", "9/10"]  # 0.5, 0.6, 0.7, 0.8, 0.9
        model = bernoulli_product_model(5, thetas)
        count = make_statistic(model, "successes", lambda pt: Fraction(pt.label.count("1")))
        ranking = build_agreeing_ranking(model, count)
        t_family = pvalue_family(model, count)
        md_family = pvalue_family(model, ranking)

        t_forms, md_forms = engine_forms(t_family), engine_forms(md_family)

        # C5: randomized p-value CDF equals t exactly, both families.
        for k in range(1001):
            t = Fraction(k, 1000)
            assert randomized_cdf_at(model, "theta0", t_forms, t) == t
            assert randomized_cdf_at(model, "theta0", md_forms, t) == t

        # C6: identical power functions at every breakpoint and grid theta.
        names = list(model.parameter_names)
        for alpha in breakpoints(t_forms, md_forms):
            t_test = scan_size_alpha_test(model, count, alpha)
            for theta in names:
                assert t_family.power(theta, alpha) == md_family.power(theta, alpha) == \
                    phi_expectation_by_tails(model, t_test, theta)

        # C7: minimal tie mass pointwise; variance ratio exactly 25 on [T=4].
        for i, pt in enumerate(model.support):
            assert md_forms.b[i] <= t_forms.b[i]
            if pt.label.count("1") == 4:
                ratio = (t_forms.b[i] ** 2 / 12) / (md_forms.b[i] ** 2 / 12)  # Var(P(x, U) | x) = b(x)^2 / 12
                assert ratio == 25


def test_criterion_5_theorem3_c8_c9(worked_example):
    with criterion(5, 5.0, "C8 holds at every breakpoint (class average 11/25); C9 chain exact"):
        model, _lr, count, ranking = worked_example
        t_family = pvalue_family(model, count)
        md_family = pvalue_family(model, ranking)
        for alpha in breakpoints(engine_forms(t_family), engine_forms(md_family)):
            report = pointwise_projection(
                model,
                scan_size_alpha_test(model, count, alpha),
                scan_size_alpha_test(model, ranking, alpha),
            )
            assert report.passed, f"martingale projection failed at alpha={alpha}"
        # the reference randomization fraction on the tie class at alpha = 1/10
        tie = [pt for pt in model.support if pt.label.count("1") == 4]
        md_test = scan_size_alpha_test(model, ranking, ALPHA)
        assert md_family.threshold(ALPHA) == (md_test.k, md_test.gamma)
        class_average = sum(md_test.phi(pt) for pt in tie) / len(tie)
        assert class_average == Fraction(11, 25) == t_family.threshold(ALPHA)[1]

        cdf_t = lattice_cdf(t_family, "theta0", HALF)
        cdf_md = lattice_cdf(md_family, "theta0", HALF)
        for s in sorted(set(cdf_t.jumps) | set(cdf_md.jumps) | {Fraction(1)}):
            low = rectangle_integral(cdf_t, s)
            mid_i = rectangle_integral(cdf_md, s)
            assert low <= mid_i <= s * s / 2
        for family in (t_family, md_family):
            assert brute_expectation(model, "theta0", lambda pt: family.evaluate(pt, HALF)) == HALF


def test_criterion_6_randomization_dependence(worked_example):
    with criterion(6, 1.0, "u-dependence at alpha=0.05 is 0.15625 vs 0.03125, ratio exactly 5"):
        model, _lr, count, ranking = worked_example
        alpha = Fraction(1, 20)
        t_prob = randomization_dependence_prob("theta0", pvalue_family(model, count), alpha)
        md_prob = randomization_dependence_prob("theta0", pvalue_family(model, ranking), alpha)
        assert t_prob == Fraction(5, 32)
        assert md_prob == Fraction(1, 32)
        assert t_prob / md_prob == 5


def _load_cdf(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return StepCDF(
        tuple(parse_rational(r["t"]) for r in rows),
        tuple(parse_rational(r["F"]) for r in rows),
    )


def test_criterion_7_figure_data(tmp_path):
    with criterion(7, 2.0, "emitted CDF data reproduces the pictured orderings exactly"):
        cdfs = {}
        for family in ("t", "md"):
            for theta in ("theta0", "theta1"):
                out = tmp_path / f"{family}-{theta}-nat.csv"
                assert main(["cdf", "--model", "example1", "--family", family,
                             "--theta", theta, "--u", "natural", "--out", str(out)]) == 0
                cdfs[(family, theta, "nat")] = _load_cdf(out)
            out = tmp_path / f"{family}-mid.csv"
            assert main(["cdf", "--model", "example1", "--family", family,
                         "--theta", "theta0", "--u", "mid", "--out", str(out)]) == 0
            cdfs[(family, "theta0", "mid")] = _load_cdf(out)

        for theta in ("theta0", "theta1"):
            t_nat = cdfs[("t", theta, "nat")]
            md_nat = cdfs[("md", theta, "nat")]
            for t in sorted(set(t_nat.jumps) | set(md_nat.jumps)):
                assert md_nat.evaluate(t) >= t_nat.evaluate(t)
        md_null = cdfs[("md", "theta0", "nat")]
        for t in md_null.jumps:
            assert md_null.evaluate(t) <= t

        t_mid = cdfs[("t", "theta0", "mid")]
        md_mid = cdfs[("md", "theta0", "mid")]
        for s in sorted(set(t_mid.jumps) | set(md_mid.jumps) | {Fraction(1)}):
            assert rectangle_integral(t_mid, s) <= rectangle_integral(md_mid, s) <= s * s / 2


def test_criterion_8_property_suite():
    with criterion(8, 60.0, "50 random models pass all applicable claims with oracle cross-checks"):
        rng = random.Random(20250809)
        gated = ("C6", "C8")
        for index in range(50):
            model, statistic = random_model_and_statistic(rng, max_support=64)
            ranking = build_agreeing_ranking(model, statistic)
            reports = {r.claim: r for r in verify_all_claims(
                model, statistic, ranking, ["t0", "t1"])}
            for claim, report in reports.items():
                if claim in gated:
                    assert report.verdict in ("pass", "skipped"), f"model {index}: {claim}"
                else:
                    assert report.verdict == "pass", f"model {index}: {claim} {report.witness}"

            # oracle cross-check: tail/CDF expectations equal straight-line sums
            t_family = pvalue_family(model, statistic)
            alphas = breakpoints(engine_forms(t_family))
            for alpha in (alphas[1], alphas[len(alphas) // 2], alphas[-2]):
                for source in (statistic, ranking):
                    family = pvalue_family(model, source)
                    test = scan_size_alpha_test(model, source, alpha)
                    assert family.threshold(alpha) == (test.k, test.gamma)
                    for theta in ("t0", "t1"):
                        assert family.power(theta, alpha) == phi_expectation_by_tails(model, test, theta) == \
                            brute_expectation(model, theta, test.phi)
                nat = lattice_cdf(t_family, "t1", 1)
                oracle = brute_expectation(
                    model, "t1",
                    lambda pt: Fraction(1) if t_family.evaluate(pt, 1) <= alpha else Fraction(0))
                assert nat.evaluate(alpha) == oracle


def _simulation(**overrides):
    base = {
        "model": "example1",
        "hypotheses": 200,
        "pi0": "3/4",
        "family": "t",
        "u_policy": "natural",
        "procedure": "bh",
        "alpha": "1/10",
        "replicates": 2000,
        "seed": 987654321,
    }
    base.update(overrides)
    return config_from_dict(base, example1_model(), "example1")


def test_criterion_9_monte_carlo():
    with criterion(9, 300.0, "BH FDR bounds for all five families; paired power and Fisher bounds"):
        alpha = 0.1
        bh_reports = {}
        for family, policy in (
            ("t", "natural"), ("md", "natural"), ("t", "mid"), ("md", "mid"), ("t", "randomized"),
        ):
            report = simulate(_simulation(family=family, u_policy=policy))
            bh_reports[(family, policy)] = report
            assert report.fdr <= alpha + 3 * report.fdr_mcse, (family, policy, report.fdr)

        t_nat = bh_reports[("t", "natural")]
        md_nat = bh_reports[("md", "natural")]
        assert md_nat.power >= t_nat.power - 2 * t_nat.power_mcse

        fisher = {}
        for family in ("t", "md"):
            report = simulate(_simulation(
                family=family, u_policy="mid", procedure="fisher",
                hypotheses=20, pi0="1"))
            fisher[family] = report
            assert report.fdr <= alpha + 3 * max(report.fdr_mcse, 1e-12), (family, report.fdr)
        assert fisher["md"].fdr >= fisher["t"].fdr - 2 * max(fisher["t"].fdr_mcse, 1e-12)


def test_criterion_10_determinism(tmp_path):
    with criterion(10, 60.0, "seeded commands rerun byte-identically"):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "model": "example1", "hypotheses": 30, "pi0": "2/3", "family": "md",
            "u_policy": "randomized", "procedure": "bh", "alpha": "1/10",
            "replicates": 60, "seed": 424242}))
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            out.mkdir()
            assert main(["simulate", "--config", str(config_path), "--out", str(out / "sim")]) == 0
            assert main(["verify", "--model", "example1", "--out", str(out / "verify")]) == 0
            assert main(["table1", "--out", str(out / "table1.csv")]) == 0
            assert main(["cdf", "--model", "example1", "--family", "md",
                         "--out", str(out / "cdf.csv")]) == 0
            runs.append(out)
        for rel in ("sim/report.json", "sim/summary.csv", "sim/manifest.json",
                    "verify/reports.json", "verify/reports.txt", "verify/manifest.json",
                    "table1.csv", "table1.csv.manifest.json", "cdf.csv"):
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel
