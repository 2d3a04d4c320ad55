"""Size-alpha tests, decisions, p-value families, and their exact identities."""

import csv
import random
from fractions import Fraction

import numpy as np
import pytest

import mdpvalues
from mdpvalues import (
    ModelError,
    PValueFamily,
    TestingError,
    bernoulli_product_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_statistic,
    pvalue_family,
)
from mdpvalues import testing
from mdpvalues.cli import main

from claims_oracle import breakpoints, scan_pvalue_family, scan_size_alpha_test
from conftest import COHERENCE_US, brute_expectation, decision_coherence_witness, engine_forms

ALPHA = Fraction(1, 10)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def count_stat(example1):
    return make_statistic(example1, "successes", lambda pt: Fraction(pt.label.count("1")))


class TestSizeAlphaTest:
    """The worked level-0.1 pair: reject T=5 surely, randomize on T=4."""

    def test_t_based_threshold_and_gamma(self, example1, count_stat):
        k, gamma = pvalue_family(example1, count_stat).threshold(ALPHA)
        assert count_stat.keys[k] == 4
        assert gamma == Fraction(11, 25)  # 0.44

    def test_md_threshold_and_gamma(self, example1, table1_ranking):
        family = pvalue_family(example1, table1_ranking)
        k, gamma = family.threshold(ALPHA)
        assert k + 1 == 4
        assert gamma == Fraction(1, 5)  # ranks 1-3 sure, rank 4 at 0.2
        scan = scan_size_alpha_test(example1, table1_ranking, ALPHA)
        assert (scan.k, scan.gamma) == (k, gamma)
        by_rank = {table1_ranking.rank(pt): pt for pt in example1.support}
        assert [scan.phi(by_rank[r]) for r in (1, 2, 3)] == [1, 1, 1]
        assert scan.phi(by_rank[4]) == Fraction(1, 5)
        assert all(scan.phi(by_rank[r]) == 0 for r in range(5, 33))
        assert all(family.evaluate(by_rank[r], 1) <= ALPHA for r in (1, 2, 3))
        assert family.evaluate(by_rank[4], gamma) <= ALPHA < family.evaluate(by_rank[4], Fraction(21, 100))
        assert all(family.evaluate(by_rank[r], 0) > ALPHA for r in range(5, 33))

    def test_boundary_sizes(self, example1, count_stat, table1_ranking):
        for source in (count_stat, table1_ranking):
            family = pvalue_family(example1, source)
            for alpha in (0, 1):
                scan = scan_size_alpha_test(example1, source, alpha)
                assert family.threshold(alpha) == (scan.k, scan.gamma)
                assert all(scan.phi(pt) == alpha for pt in example1.support)
                assert all((family.evaluate(pt, HALF) <= alpha) == bool(alpha) for pt in example1.support)

    def test_size_identity_on_dense_grid(self, example1, count_stat, table1_ranking):
        grid = set(Fraction(k, 100) for k in range(101))
        grid.update(breakpoints(scan_pvalue_family(example1, count_stat)))
        for alpha in sorted(grid):
            for source in (count_stat, table1_ranking):
                scan = scan_size_alpha_test(example1, source, alpha)
                assert pvalue_family(example1, source).threshold(alpha) == (scan.k, scan.gamma)
                assert pvalue_family(example1, source).power("theta0", alpha) == alpha
                assert brute_expectation(example1, "theta0", scan.phi) == alpha

    def test_gamma_is_exactly_zero_or_one_at_boundaries(self, example1, count_stat):
        k, gamma = pvalue_family(example1, count_stat).threshold(Fraction(1, 32))
        assert gamma == 0 and count_stat.keys[k] == 4
        assert pvalue_family(example1, count_stat).threshold(1)[1] == 1

    def test_monotone_in_alpha_pointwise(self, example1, count_stat, table1_ranking):
        # phi_alpha(x) is 1, gamma or 0 as x's class is before, at or after k, so (k, gamma) rising
        # lexicographically is phi rising at every point
        for source in (count_stat, table1_ranking):
            grid = breakpoints(scan_pvalue_family(example1, source))
            thresholds = [pvalue_family(example1, source).threshold(a) for a in grid]
            assert thresholds == sorted(thresholds)
            scans = [scan_size_alpha_test(example1, source, a) for a in grid]
            assert thresholds == [(scan.k, scan.gamma) for scan in scans]
            for lo, hi in zip(scans, scans[1:]):
                for pt in example1.support:
                    assert lo.phi(pt) <= hi.phi(pt)

    def test_alpha_out_of_range(self, example1, count_stat):
        with pytest.raises(TestingError):
            pvalue_family(example1, count_stat).threshold(Fraction(3, 2))

    @pytest.mark.parametrize(
        "alpha", [Fraction(3, 2), Fraction(-1, 2), 0.1, "1_0/40", "\u0661/\u0664", True],
        ids=["above-one", "negative", "float", "underscore", "arabic-indic-digits", "bool"])
    def test_family_entry_points_refuse_bad_alpha(self, example1, lr, alpha):
        # unchecked, 3/2 gave a power above 1 and -1/2 wrapped to the last class; the model-file
        # grammar refuses the last three, which Fraction(str) and Fraction(True) read as 1/4, 1/4 and 1
        family = pvalue_family(example1, lr)
        for call in (lambda: family.threshold(alpha), lambda: family.power("theta1", alpha)):
            with pytest.raises(TestingError):
                call()

    def test_float_alpha_refused(self, example1, lr):
        # 0.1 as a binary float is 3602879701896397/36028797018963968, not 1/10
        for alpha in (0.1, np.float64(0.1), np.float32(0.1), 0.5):
            with pytest.raises(TestingError, match="refusing float"):
                pvalue_family(example1, lr).threshold(alpha)
        exact = pvalue_family(example1, lr).threshold(Fraction(1, 10))
        assert exact[1] == Fraction(11, 25)
        assert pvalue_family(example1, lr).threshold("1/10") == exact
        assert pvalue_family(example1, lr).threshold(1)[1] == 1

    def test_float_u_refused(self, example1, lr):
        family = pvalue_family(example1, lr)
        top = example1.point("11111")
        for u in (0.5, np.float64(0.5), np.float32(0.5)):
            with pytest.raises(TestingError, match="refusing float"):
                family.evaluate(top, u)
        for u in ("1_0/40", "\u0661/\u0664", True):
            with pytest.raises(TestingError, match="must be an exact number"):
                family.evaluate(top, u)
        assert family.evaluate(top, Fraction(1, 2)) <= ALPHA
        assert family.evaluate(top, " 1/2 ") == family.evaluate(top, Fraction(1, 2))
        assert family.evaluate(top, "+1/4") == family.evaluate(top, Fraction(1, 4))


class TestPower:
    def test_reference_power_both_tests(self, example1, count_stat, table1_ranking):
        expected = Fraction(39680, 78125)  # 0.507904
        for source in (count_stat, table1_ranking):
            assert pvalue_family(example1, source).power("theta1", ALPHA) == expected
            assert brute_expectation(example1, "theta1", scan_size_alpha_test(example1, source, ALPHA).phi) == expected
        assert float(expected) == 0.507904

    def test_size_at_null_is_alpha(self, example1, count_stat):
        for alpha in (Fraction(1, 32), Fraction(1, 10), Fraction(1, 2)):
            assert pvalue_family(example1, count_stat).power("theta0", alpha) == alpha
            assert brute_expectation(example1, "theta0", scan_size_alpha_test(example1, count_stat, alpha).phi) == alpha

    def test_level_property_of_natural_decisions(self, example1, count_stat):
        family = pvalue_family(example1, count_stat)
        for alpha in breakpoints(scan_pvalue_family(example1, count_stat)):
            natural = brute_expectation(
                example1, "theta0",
                lambda pt: Fraction(1) if family.evaluate(pt, 1) <= alpha else Fraction(0),
            )
            assert natural <= alpha


class TestDecision:
    """A decision is P(x, u) <= alpha."""

    def test_sure_rejection_class(self, example1, count_stat):
        family = pvalue_family(example1, count_stat)
        top = example1.point("11111")
        for u in (0, Fraction(1, 2), 1):
            assert family.evaluate(top, u) <= ALPHA

    def test_sure_retention_class(self, example1, count_stat):
        family = pvalue_family(example1, count_stat)
        low = example1.point("00111")
        for u in (0, Fraction(1, 4), 1):
            assert not family.evaluate(low, u) <= ALPHA

    def test_threshold_class_splits_at_gamma(self, example1, count_stat):
        family = pvalue_family(example1, count_stat)
        tied = example1.point("01111")
        assert family.evaluate(tied, Fraction(44, 100)) <= ALPHA
        assert not family.evaluate(tied, Fraction(45, 100)) <= ALPHA

    def test_u_out_of_range(self, example1, count_stat):
        with pytest.raises(TestingError):
            pvalue_family(example1, count_stat).evaluate(example1.point("11111"), Fraction(11, 10))


class TestPValueFamily:
    def test_md_natural_values_are_rank_over_n(self, example1, table1_ranking):
        family = pvalue_family(example1, table1_ranking)
        for pt in example1.support:
            assert family.evaluate(pt, 1) == Fraction(table1_ranking.rank(pt), 32)

    def test_t_natural_values_per_class(self, example1, count_stat):
        family = pvalue_family(example1, count_stat)
        assert family.evaluate(example1.point("11111"), 1) == Fraction(1, 32)
        assert family.evaluate(example1.point("01111"), 1) == Fraction(6, 32)
        assert family.evaluate(example1.point("00111"), 1) == Fraction(16, 32)

    def test_mid_values(self, example1, count_stat):
        family = pvalue_family(example1, count_stat)
        assert family.evaluate(example1.point("11111"), Fraction(1, 2)) == Fraction(1, 64)    # 0.015625
        assert family.evaluate(example1.point("01111"), Fraction(1, 2)) == Fraction(7, 64)    # 0.109375

    def test_pair_invariants(self, example1, count_stat, table1_ranking):
        null = example1.probs("theta0")
        for source, one_per_class in ((count_stat, False), (table1_ranking, True)):
            family = pvalue_family(example1, source)
            assert (len(set(family.class_of)) == example1.size) == one_per_class
            forms = engine_forms(family)
            assert forms == scan_pvalue_family(example1, source)
            for i in range(example1.size):
                assert forms.b[i] > 0
                assert forms.a[i] >= 0
                assert forms.a[i] + forms.b[i] <= 1
                if one_per_class:
                    assert forms.b[i] == null[i]

    def test_md_attains_n_distinct_naturals(self, example1, table1_ranking):
        family = pvalue_family(example1, table1_ranking)
        attained = {family.evaluate(i, 1) for i in range(example1.size)}
        assert attained == {Fraction(k, 32) for k in range(1, 33)}

    def test_coherence_with_decisions_is_exact(self, example1, count_stat, table1_ranking):
        assert decision_coherence_witness(example1, count_stat) is None
        assert decision_coherence_witness(example1, table1_ranking) is None

    def test_evaluate_endpoints(self, example1, table1_ranking):
        family = pvalue_family(example1, table1_ranking)
        top = example1.point("11111")
        assert family.evaluate(top, 0) == 0          # a = 0 at the most extreme point
        assert family.evaluate(top, 1) == Fraction(1, 32)
        assert family.evaluate(top, Fraction(1, 2)) == family.evaluate(top, "1/2") == Fraction(1, 64)


@pytest.mark.parametrize("coins", [3, 6])  # fewer and more points than example1's 5 coins
@pytest.mark.parametrize("kind", ["statistic", "ranking"])
def test_source_built_on_another_support_is_refused(example1, coins, kind):
    # A 3-coin likelihood ratio used to give gamma = 109/5 on example1, a 6-coin one a bare IndexError.
    # A family built directly refuses it too: its lattice zips a pmf row with class_of, which would
    # stop at the shorter one and say nothing.
    other = bernoulli_product_model(coins, ["1/2", "4/5"])
    source = likelihood_ratio_statistic(other, "theta0", "theta1")
    if kind == "ranking":
        source = build_agreeing_ranking(other, source)
    for build in (pvalue_family, PValueFamily):
        with pytest.raises(TestingError, match=f"{kind} covers {2 ** coins} points, the model 32"):
            build(example1, source)


@pytest.mark.parametrize("ref", ["minus-one", "past-the-end", "point-of-another-model", "bool"])
def test_point_refs_outside_the_model_are_refused(example1, ref):
    # -1 used to read the last point, 8 raised a bare IndexError, and example1's point 3 ("00011")
    # read the 3-coin model's point 3 ("011"), and True read point 1
    model = bernoulli_product_model(3, ["1/2", "4/5"])
    family = pvalue_family(model, likelihood_ratio_statistic(model, "theta0", "theta1"))
    point = {"minus-one": -1, "past-the-end": model.size, "point-of-another-model": example1.support[3],
             "bool": True}[ref]
    with pytest.raises(ModelError):
        family.evaluate(point, 1)


@pytest.mark.parametrize(
    "case",
    ["coins5-count", "coins5-lr", "coins5-count-ranking", "coins5-table1-ranking",
     "coins3-count", "coins3-lr", "coins3-count-ranking"],
)
def test_decision_is_evaluate_at_most_alpha(example1, table1_ranking, case):
    """evaluate(x, u) <= alpha rejects exactly where threshold's (k, gamma) says, at every u in [0, 1].

    Classes before k reject at every u, class k at u <= gamma, where P(x, gamma) == alpha
    exactly, and classes after k at no u.
    """
    coins, kind = case.split("-", 1)
    model = example1 if coins == "coins5" else bernoulli_product_model(3, ["1/2", "3/4"])
    count = make_statistic(model, "successes", lambda pt: Fraction(pt.label.count("1")))
    source = {"count": count, "lr": likelihood_ratio_statistic(model, "theta0", "theta1"),
              "count-ranking": build_agreeing_ranking(model, count), "table1-ranking": table1_ranking}[kind]
    family = pvalue_family(model, source)
    step = Fraction(1, 1000)
    for alpha in breakpoints(scan_pvalue_family(model, source)):
        k, gamma = family.threshold(alpha)
        us = set(COHERENCE_US) | {gamma, max(gamma - step, 0), min(gamma + step, 1)}
        for pt in model.support:
            c = family.class_of[pt.index]
            if c == k:
                assert family.evaluate(pt, gamma) == alpha
            for u in us:
                assert (family.evaluate(pt, u) <= alpha) == (c < k or (c == k and u <= gamma)), (pt.label, alpha, u)


@pytest.mark.parametrize(
    "owner, name",
    [("mdpvalues", "TestFunction"), ("mdpvalues.testing", "TestFunction"), ("PValueFamily", "test"),
     ("PValueFamily", "keys"), ("Ranking", "keys")],
)
def test_no_second_decision_path(example1, table1_ranking, owner, name):
    # a size-alpha test is threshold's (k, gamma) and a decision is evaluate(x, u) <= alpha; the
    # TestFunction wrapper, family.test, and the key views only it read are gone
    holder = {"mdpvalues": mdpvalues, "mdpvalues.testing": testing,
              "PValueFamily": pvalue_family(example1, table1_ranking), "Ranking": table1_ranking}[owner]
    assert not hasattr(holder, name)


class TestDrawRandomized:
    """A randomized p-value is the family's linear form at a u drawn from the caller's stream."""

    @staticmethod
    def draw(family, pt, rng):
        u = Fraction(rng.random())  # the float draw, read exactly
        return family.evaluate(pt, u), u

    def test_fixed_seed_reproduces(self, example1, table1_ranking):
        family = pvalue_family(example1, table1_ranking)
        pt = example1.point("01111")
        first = self.draw(family, pt, random.Random(99))
        second = self.draw(family, pt, random.Random(99))
        assert first == second

    def test_value_is_linear_in_u(self, example1, table1_ranking):
        family = pvalue_family(example1, table1_ranking)
        pt = example1.point("01111")
        value, u = self.draw(family, pt, random.Random(5))
        a, b = family.evaluate(pt, 0), family.evaluate(pt, 1) - family.evaluate(pt, 0)
        assert value == a + u * b
        assert 0 <= u <= 1


def test_write_pvalue_table(tmp_path):
    # the MD family's per-point table is written by `mdpv pvalues`
    path = tmp_path / "pvalues.csv"
    assert main(["pvalues", "--model", "example1", "--family", "md", "--out", str(path)]) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 32
    assert rows[0]["label"] == "11111"
    assert rows[0]["a"] == "0/1"
    assert rows[0]["natural"] == "1/32"
    assert rows[0]["natural_dec"] == "0.031250"
    assert rows[7]["natural"] == "1/4"
