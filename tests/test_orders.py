"""Exact ordering machinery: CDFs, convex order, martingale projection, claims."""

import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from mdpvalues import (
    OrdersError,
    Ranking,
    binomial_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_model,
    make_statistic,
    pvalue_family,
    verify_all_claims,
)
from mdpvalues.orders import (
    OrderReport,
    _natural_order,
    _sufficiency,
    _threshold_classes,
    reports_to_json,
    reports_to_text,
)
from mdpvalues.rational import common_denominator, format_rational
from mdpvalues.testing import alpha_lattice

from claims_oracle import check_sufficiency as oracle_sufficiency
from claims_oracle import (
    merge_atoms,
    phi_expectation_by_tails,
    pointwise_projection,
    randomized_cdf_at,
    rectangle_integral,
    scan_pvalue_family,
    scan_size_alpha_test,
)
from conftest import brute_expectation, engine_forms, lattice_cdf

HALF = Fraction(1, 2)


def engine_sufficiency(model, statistic, thetas):
    return _sufficiency(pvalue_family(model, statistic), thetas)


def natural_order(theta, family_a, family_b):
    """F_A <= F_B for the natural p-values under theta, read at the alpha kinks after 0 of both families."""
    model = family_a.model
    steps = alpha_lattice(2 * model.int_row(model.null)[0], family_a, family_b)[2::2]
    families = (family_a, family_b)
    classes = [_threshold_classes(family, steps) for family in families]
    return _natural_order("usual-order", families, steps, classes, [theta], lambda theta: ("A", "B"))


def c9_report(model, statistic, ranking):
    return next(r for r in verify_all_claims(model, statistic, ranking, ["theta0", "theta1"]) if r.claim == "C9")


@pytest.fixture(scope="module")
def count_stat(example1):
    return make_statistic(example1, "successes", lambda pt: Fraction(pt.label.count("1")))


@pytest.fixture(scope="module")
def t_family(example1, count_stat):
    return pvalue_family(example1, count_stat)


@pytest.fixture(scope="module")
def md_family(example1, table1_ranking):
    return pvalue_family(example1, table1_ranking)


class TestStepCDF:
    def test_md_natural_staircase(self, md_family):
        cdf = lattice_cdf(md_family, "theta0", 1)
        assert cdf.jumps == tuple(Fraction(k, 32) for k in range(1, 33))
        assert cdf.cum == tuple(Fraction(k, 32) for k in range(1, 33))

    def test_t_natural_has_one_jump_per_class(self, t_family):
        cdf = lattice_cdf(t_family, "theta0", 1)
        assert len(cdf.jumps) == 6

    def test_right_continuous_evaluation(self, md_family):
        cdf = lattice_cdf(md_family, "theta0", 1)
        assert cdf.evaluate(1) == 1
        assert cdf.evaluate(Fraction(1, 32)) == Fraction(1, 32)
        assert cdf.evaluate(Fraction(1, 33)) == 0
        assert cdf.evaluate(-1) == 0 and cdf.evaluate(2) == 1

    def test_atoms_at_equal_locations_merge(self):
        cdf = merge_atoms([(HALF, Fraction(1, 4)), (HALF, Fraction(3, 4))])
        assert cdf.jumps == (HALF,)
        assert cdf.cum == (Fraction(1),)


class TestRandomizedCDF:
    """The oracle's sum over the support, fed the engine's per-point forms."""

    def test_exactly_uniform_under_null(self, example1, t_family, md_family):
        t_forms, md_forms = engine_forms(t_family), engine_forms(md_family)
        for k in range(51):
            t = Fraction(k, 50)
            assert randomized_cdf_at(example1, "theta0", t_forms, t) == t
            assert randomized_cdf_at(example1, "theta0", md_forms, t) == t

    def test_endpoints(self, example1, t_family):
        assert randomized_cdf_at(example1, "theta0", engine_forms(t_family), 0) == 0
        assert randomized_cdf_at(example1, "theta0", engine_forms(t_family), 1) == 1

    def test_families_coincide_under_alternative(self, example1, t_family, md_family):
        t = Fraction(1, 10)
        assert randomized_cdf_at(
            example1, "theta1", engine_forms(t_family), t
        ) == randomized_cdf_at(example1, "theta1", engine_forms(md_family), t)


class TestIntegratedCDF:
    def test_zero_at_origin(self, t_family):
        cdf = lattice_cdf(t_family, "theta0", 1)
        assert rectangle_integral(cdf, 0) == 0

    def test_t_mid_rectangle_sum(self, t_family):
        # Frozen from the independent rectangle-sum oracle over the
        # enumerated 32-point support (jumps at 1/64 and 7/64 below 3/16).
        cdf = lattice_cdf(t_family, "theta0", HALF)
        assert rectangle_integral(cdf, Fraction(3, 16)) == Fraction(9, 512)

    def test_matches_brute_rectangles(self, md_family):
        cdf = lattice_cdf(md_family, "theta0", HALF)
        for s in (Fraction(1, 5), HALF, Fraction(9, 10), Fraction(1)):
            brute = Fraction(0)
            locations = list(cdf.jumps) + [Fraction(1)]
            for i, left in enumerate(cdf.jumps):
                right = min(locations[i + 1], s)
                if right > left:
                    brute += cdf.cum[i] * (right - left)
            assert rectangle_integral(cdf, s) == brute


class TestUsualOrder:
    """``orders._natural_order``, the check behind C1-C4, at the alpha kinks' threshold classes."""

    def test_identical_cdfs_pass_with_zero_margin(self, t_family):
        report = natural_order("theta0", t_family, t_family)
        assert report.passed and report.worst_margin == 0

    def test_null_sandwich(self, t_family, md_family):
        report = natural_order("theta0", t_family, md_family)
        assert report.passed
        # the grid is every class end of either family, over D_null: the MD family's are the k / 32
        assert report.grid == tuple(Fraction(k, 32) for k in range(1, 33))

    def test_md_dominates_under_alternative_strictly(self, t_family, md_family):
        assert natural_order("theta1", t_family, md_family).passed
        t = Fraction(2, 32)
        assert lattice_cdf(md_family, "theta1", 1).evaluate(t) > lattice_cdf(t_family, "theta1", 1).evaluate(t)

    def test_violation_reports_witness(self, t_family, md_family):
        report = natural_order("theta1", md_family, t_family)  # deliberately reversed
        assert report.verdict == "fail"
        assert report.worst_margin < 0
        t, value, bound = map(Fraction, re.fullmatch(r"F_A\((\S+)\) = (\S+) vs B bound (\S+)", report.witness).groups())
        assert value == lattice_cdf(md_family, "theta1", 1).evaluate(t)
        assert bound == lattice_cdf(t_family, "theta1", 1).evaluate(t)
        assert bound - value == report.worst_margin


class TestConditionalVariance:
    """Var(P(x, U) | X = x) = b(x)^2 / 12, with b the tie mass P(x, 1) - P(x, 0)."""

    @staticmethod
    def variance(family, pt):
        return (family.evaluate(pt, 1) - family.evaluate(pt, 0)) ** 2 / 12

    def test_tie_mass_ratio_is_25(self, example1, count_stat, table1_ranking, t_family, md_family):
        pt = example1.point("01111")  # a five-way tie under the count statistic
        var_t = self.variance(t_family, pt)
        var_md = self.variance(md_family, pt)
        assert var_t == Fraction(5, 32) ** 2 / 12
        assert var_md == Fraction(1, 32) ** 2 / 12
        assert var_t / var_md == 25
        for source, var in ((count_stat, var_t), (table1_ranking, var_md)):
            assert scan_pvalue_family(example1, source).b[pt.index] ** 2 / 12 == var

    def test_injective_statistic_gives_equal_variances(self):
        model = binomial_model(3, ["1/2", "3/4"])
        stat = likelihood_ratio_statistic(model, "theta0", "theta1")
        ranking = build_agreeing_ranking(model, stat)
        fam_t = pvalue_family(model, stat)
        fam_md = pvalue_family(model, ranking)
        for pt in model.support:
            assert self.variance(fam_t, pt) == self.variance(fam_md, pt)


class TestMartingaleProjection:
    def test_class_average_is_gamma(self, example1, count_stat, table1_ranking):
        alpha = Fraction(1, 10)
        report = pointwise_projection(
            example1,
            scan_size_alpha_test(example1, count_stat, alpha),
            scan_size_alpha_test(example1, table1_ranking, alpha),
        )
        assert report.passed
        # on the tie class the null-conditional average is (1 + 1 + 1/5)/5
        assert pvalue_family(example1, count_stat).threshold(alpha)[1] == Fraction(11, 25)

    def test_degenerate_alphas_pass(self, example1, count_stat, table1_ranking):
        for alpha in (0, 1):
            report = pointwise_projection(
                example1,
                scan_size_alpha_test(example1, count_stat, alpha),
                scan_size_alpha_test(example1, table1_ranking, alpha),
            )
            assert report.passed

    def test_non_agreeing_ranking_fails_with_witness(self, example1, count_stat, table1_ranking):
        ranks = list(table1_ranking.ranks)
        i = example1.point("01111").index  # T = 4, rank 2
        j = example1.point("00111").index  # T = 3, rank 7
        ranks[i], ranks[j] = ranks[j], ranks[i]
        tampered = Ranking(tuple(ranks))
        report = pointwise_projection(
            example1,
            scan_size_alpha_test(example1, count_stat, Fraction(1, 10)),
            scan_size_alpha_test(example1, tampered, Fraction(1, 10)),
        )
        assert report.verdict == "fail"
        assert report.witness


class TestSufficiency:
    def test_count_statistic_is_sufficient(self, example1, count_stat):
        assert engine_sufficiency(example1, count_stat, ["theta0", "theta1"]) == (True, None)

    def test_first_coordinate_is_not(self, example1):
        first = make_statistic(example1, "x1", lambda pt: Fraction(int(pt.label[0])))
        ok, witness = engine_sufficiency(example1, first, ["theta0", "theta1"])
        assert not ok and witness

    def test_witness_names_the_first_class_in_support_order(self, example1):
        # Classes are visited in order of first appearance in the support:
        # "00000" opens the x1 = 0 class, though x1 = 1 sorts first as a key.
        first = make_statistic(example1, "x1", lambda pt: Fraction(int(pt.label[0])))
        expected = "conditional law given [x1=0] differs: point '00000' under theta1 vs theta0"
        assert engine_sufficiency(example1, first, ["theta0", "theta1"]) == (False, expected)
        assert oracle_sufficiency(example1, first, ["theta0", "theta1"]) == (False, expected)

    def test_single_point_support_is_vacuous(self):
        model = make_model(["only"], {"a": "1/2", "b": "1/3"}, {"a": ["1/1"], "b": ["1/1"]})
        stat = make_statistic(model, "s", [0])
        assert engine_sufficiency(model, stat, ["a", "b"]) == (True, None)


class TestConvexOrderChain:
    def test_example_chain_passes_with_strict_interior(self, example1, count_stat, table1_ranking):
        report = c9_report(example1, count_stat, table1_ranking)
        assert report.passed
        cdf_t = lattice_cdf(pvalue_family(example1, count_stat), "theta0", HALF)
        cdf_md = lattice_cdf(pvalue_family(example1, table1_ranking), "theta0", HALF)
        strict = [
            s for s in cdf_md.jumps
            if rectangle_integral(cdf_t, s) < rectangle_integral(cdf_md, s) < s * s / 2
        ]
        assert strict, "the MD integrated CDF should sit strictly between somewhere"

    def test_mid_means_are_exactly_half(self, example1, count_stat, table1_ranking):
        for source in (count_stat, table1_ranking):
            family = pvalue_family(example1, source)
            mean = brute_expectation(example1, "theta0", lambda pt: family.evaluate(pt, HALF))
            assert mean == HALF

    def test_injective_statistic_collapses_chain(self):
        model = binomial_model(3, ["1/2", "3/4"])
        stat = likelihood_ratio_statistic(model, "theta0", "theta1")
        ranking = build_agreeing_ranking(model, stat)
        report = c9_report(model, stat, ranking)
        assert report.passed
        cdf_t = lattice_cdf(pvalue_family(model, stat), "theta0", HALF)
        cdf_md = lattice_cdf(pvalue_family(model, ranking), "theta0", HALF)
        for s in cdf_t.jumps:
            assert rectangle_integral(cdf_t, s) == rectangle_integral(cdf_md, s)

    def test_non_agreeing_pair_rejected(self, example1, count_stat, table1_ranking):
        ranks = list(table1_ranking.ranks)
        i = example1.point("11111").index
        j = example1.point("00111").index
        ranks[i], ranks[j] = ranks[j], ranks[i]
        with pytest.raises(OrdersError):
            c9_report(example1, count_stat, Ranking(tuple(ranks)))


class TestReportGrid:
    """A report's grid is ints over any positive denominator; its text is that of the reduced Fractions."""

    @staticmethod
    def reduced(report):
        den, numerators = common_denominator(g.as_integer_ratio() for g in report.grid)
        return replace(report, grid_num=numerators, grid_den=den)

    def test_unreduced_grid_serializes_like_its_fractions(self):
        # over 2 * D with D = 8: every point could be written over a smaller denominator
        wide = OrderReport("C1", "pass", (0, 2, 4, 8, 16), 16, Fraction(0))
        narrow = self.reduced(wide)
        assert narrow.grid_den == 8 and narrow.grid == wide.grid
        assert wide.grid == (0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1)
        assert "".join(reports_to_json([wide])) == "".join(reports_to_json([narrow]))
        assert reports_to_text([wide]) == reports_to_text([narrow])
        assert '"0/1",\n      "1/8",\n      "1/4",\n      "1/2",\n      "1/1"' in "".join(reports_to_json([wide]))

    def test_points_shared_across_denominators_print_alike(self):
        # one point set over 16, a subset over 4 and a disjoint point over 3: the lcm is 48
        reports = [OrderReport("C1", "pass", (0, 2, 4, 8, 16), 16, Fraction(0)),
                   OrderReport("C3", "pass", (1, 2, 4), 4, Fraction(0)),
                   OrderReport("C9", "fail", (2,), 3, Fraction(-1, 3), "w"),
                   OrderReport("C7", "skipped", (), 1, None, None, "n")]
        written = json.loads("".join(reports_to_json(reports)))
        assert [r["grid"] for r in written] == [[format_rational(g) for g in r.grid] for r in reports]
        assert written[1]["grid"] == ["1/4", "1/2", "1/1"] and written[2]["grid"] == ["2/3"]

    def test_grids_of_unequal_value_differ(self):
        assert OrderReport("C1", "pass", (1, 2), 4, None) != OrderReport("C1", "pass", (1, 3), 4, None)
        assert OrderReport("C1", "pass", (1,), 4, None) != OrderReport("C1", "pass", (1, 2), 4, None)


class TestVerifyAllClaims:
    def test_example1_all_nine_pass(self, example1, count_stat, table1_ranking):
        reports = verify_all_claims(
            example1, count_stat, table1_ranking, ["theta0", "theta1"]
        )
        assert [r.claim for r in reports] == [f"C{i}" for i in range(1, 10)]
        assert all(r.verdict == "pass" for r in reports)

    def test_binomial_all_nine_pass(self):
        model = binomial_model(3, ["1/2", "3/4"])
        stat = likelihood_ratio_statistic(model, "theta0", "theta1")
        ranking = build_agreeing_ranking(model, stat)
        reports = verify_all_claims(model, stat, ranking, ["theta0", "theta1"])
        assert all(r.verdict == "pass" for r in reports)

    def test_non_sufficient_statistic_skips_c6_c8(self, example1):
        first = make_statistic(example1, "x1", lambda pt: Fraction(int(pt.label[0])))
        ranking = build_agreeing_ranking(example1, first)
        reports = {r.claim: r for r in verify_all_claims(
            example1, first, ranking, ["theta0", "theta1"])}
        assert reports["C6"].verdict == "skipped"
        assert reports["C8"].verdict == "skipped"
        assert "hypothesis unmet" in reports["C6"].note
        for claim in ("C1", "C2", "C3", "C4", "C5", "C7", "C9"):
            assert reports[claim].verdict == "pass", claim

    def test_empty_theta_grid_skips_c1_c3_c6(self, example1, count_stat, table1_ranking):
        reports = {r.claim: r for r in verify_all_claims(
            example1, count_stat, table1_ranking, [])}
        for claim in ("C1", "C3", "C6"):
            assert reports[claim].verdict == "skipped"
        for claim in ("C2", "C4", "C5", "C7", "C8", "C9"):
            assert reports[claim].verdict == "pass", claim

    def test_non_agreeing_inputs_rejected(self, example1, count_stat, table1_ranking):
        ranks = list(table1_ranking.ranks)
        ranks[0], ranks[-1] = ranks[-1], ranks[0]
        with pytest.raises(OrdersError):
            verify_all_claims(
                example1, count_stat, Ranking(tuple(ranks)), ["theta1"]
            )

    def test_a_bare_string_for_thetas_is_refused(self, example1, count_stat, table1_ranking):
        # A str is a sequence of its characters, which would be read as the parameters 't', 'h', ...
        with pytest.raises(OrdersError, match="list of parameter names, not the string 'theta1'"):
            verify_all_claims(example1, count_stat, table1_ranking, "theta1")

    def test_expectations_cross_check_against_brute_oracle(self, example1, count_stat, t_family, md_family):
        # Claim checkers evaluate expectations through CDFs / tail events;
        # the oracle is the straight-line sum over the support.
        nat_md = lattice_cdf(md_family, "theta1", 1)
        for alpha in (Fraction(1, 32), Fraction(1, 10), Fraction(1, 2), Fraction(31, 32)):
            oracle = brute_expectation(
                example1, "theta1",
                lambda pt: Fraction(1) if md_family.evaluate(pt, 1) <= alpha else Fraction(0),
            )
            assert nat_md.evaluate(alpha) == oracle
            t_test = scan_size_alpha_test(example1, count_stat, alpha)
            assert t_family.power("theta1", alpha) == phi_expectation_by_tails(example1, t_test, "theta1") == \
                brute_expectation(example1, "theta1", t_test.phi)
