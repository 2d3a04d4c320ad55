"""Statistics, agreeing rankings, explicit rank orders, agreement checking."""

import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from mdpvalues import (
    ModelError,
    Ranking,
    RankingError,
    Statistic,
    bernoulli_product_model,
    binomial_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_model,
    make_statistic,
    ranking_from_order,
    verify_agreement,
    verify_all_claims,
)
from mdpvalues.rational import format_rational

from conftest import shuffled_agreeing_ranking


class TestLikelihoodRatio:
    def test_reference_values(self, example1, lr):
        assert lr.value(example1.point("11111")) == Fraction(32768, 3125)
        assert lr.value(example1.point("01111")) == Fraction(8192, 3125)
        assert lr.value(example1.point("00111")) == Fraction(2048, 3125)
        # 10.4857 in print is the 6-significant-figure rendering of 10.48576
        assert float(lr.value(example1.point("11111"))) == 10.48576

    def test_identical_hypotheses_give_constant_one(self):
        model = bernoulli_product_model(3, ["1/2", "1/2"])
        stat = likelihood_ratio_statistic(model, "theta0", "theta1")
        assert set(stat.values) == {Fraction(1)}


def coprime_models(seed, count):
    """Random tie-rich two-row models whose null and alternative weight totals are coprime."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 12)
        null = [rng.randint(1, 4) for _ in range(n)]
        alt = [rng.randint(0, 4) for _ in range(n)]
        while sum(alt) == 0 or gcd(sum(null), sum(alt)) != 1:
            alt[rng.randrange(n)] += 1
        rows = {"t0": [Fraction(w, sum(null)) for w in null], "t1": [Fraction(w, sum(alt)) for w in alt]}
        yield make_model([f"x{i:02d}" for i in range(n)], {"t0": "1/2", "t1": "3/4"}, rows)


def pointwise_ratios(model):
    """The oracle: one Fraction(p1, p0) per support point."""
    return [p1 / p0 for p0, p1 in zip(model.probs("t0"), model.probs("t1"))]


class TestClassTable:
    def test_likelihood_ratio_matches_pointwise_grouping(self):
        for model in coprime_models(seed=2024, count=200):
            ratios = pointwise_ratios(model)
            keys = sorted(set(ratios), reverse=True)
            stat = likelihood_ratio_statistic(model, "t0", "t1")
            assert stat.keys == tuple(keys)
            assert stat.class_of == tuple(keys.index(r) for r in ratios)
            assert stat.values == tuple(ratios)

    def test_equal_ratios_from_different_numerator_pairs_share_a_class(self):
        model = make_model(["a", "b", "c"], {"t0": "1/2", "t1": "3/4"},
                           {"t0": ["1/6", "1/3", "1/2"], "t1": ["1/12", "1/6", "3/4"]})
        assert model.int_row("t0") == (6, (1, 2, 3)) and model.int_row("t1") == (12, (1, 2, 9))
        stat = likelihood_ratio_statistic(model, "t0", "t1")
        assert stat.keys == (Fraction(3, 2), Fraction(1, 2))
        assert stat.class_of == (1, 1, 0)  # a's pair (1, 1) and b's (2, 2) are both 1/2

    @pytest.mark.parametrize("keys, class_of", [
        ((1, 2), (0, 1)),     # increasing keys
        ((2, 2), (0, 1)),     # a duplicate key
        ((2, 1), (0, 0)),     # class 1 holds no point
        ((1,), (0, 1)),       # a point in a class that has no key
        ((Fraction(1, 2), Fraction(2, 3)), (0, 1)),  # increasing over unequal denominators
    ], ids=["unsorted", "duplicate", "empty-class", "unknown-class", "unsorted-cross"])
    def test_invalid_table_is_refused(self, keys, class_of):
        with pytest.raises(RankingError, match="strictly decreasing keys"):
            Statistic("s", tuple(map(Fraction, keys)), class_of)

    @pytest.mark.parametrize("keys, class_of, fault", [
        ((0.5, 0.25, 0.125), (0, 1, 2), "keys must be ints or Fractions, got 0.5"),
        ((Fraction(2), True), (0, 1), "keys must be ints or Fractions, got True"),
        ((3, 2, 1), (2.0, 1, 1, 0), "class indices must be ints, got 2.0"),
        ((2, 1), (0, False), "class indices must be ints, got False"),
    ], ids=["float-keys", "bool-key", "float-class", "bool-class"])
    def test_inexact_table_is_refused(self, keys, class_of, fault):
        """Floats and bools compare equal to exact values, so the ordering check alone lets them through."""
        with pytest.raises(RankingError, match=f"statistic 's': {re.escape(fault)}$"):
            Statistic("s", keys, class_of)

    def test_int_and_fraction_keys_are_exact(self):
        assert Statistic("s", (3, Fraction(5, 2), 1), (2, 1, 1, 0)).values == (1, Fraction(5, 2), Fraction(5, 2), 3)

    def test_agreement_matches_fraction_oracle_on_shuffled_rankings(self):
        def oracle(model, ratios, ranking):
            by_rank = sorted(model.support, key=ranking.rank)
            for a, b in zip(by_rank, by_rank[1:]):
                if ratios[a.index] < ratios[b.index]:
                    return False, (b.label, a.label)
            return True, None

        rng, outcomes = random.Random(7), set()
        for model in coprime_models(seed=99, count=150):
            stat, ratios = likelihood_ratio_statistic(model, "t0", "t1"), pointwise_ratios(model)
            agreeing = shuffled_agreeing_ranking(model, stat, seed=rng.randrange(1000))
            order = [model.support[i].label for i in agreeing.order()]
            swapped = list(order)
            j = rng.randrange(model.size - 1)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            shuffled = rng.sample(order, model.size)
            for labels in (order, swapped, shuffled):
                ranking = ranking_from_order(model, labels)
                result = verify_agreement(model, stat, ranking)
                assert result == oracle(model, ratios, ranking)
                outcomes.add(result[0])
        assert outcomes == {True, False}


@st.composite
def lr_models(draw):
    """Two-row models with mixed row denominators, ties and zeros in the alternative row.

    Each row is integer weights over their total, so the reduced entries
    have mixed denominators and the two rows' common denominators mostly
    differ: the likelihood ratio's scale D_null / D_alt is then not 1.
    """
    n = draw(st.integers(1, 10))
    null = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    alt = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
    rows = {"t0": [Fraction(w, sum(null)) for w in null], "t1": [Fraction(w, sum(alt)) for w in alt]}
    return make_model([f"x{i}" for i in range(n)], {"t0": "1/2", "t1": "3/4"}, rows)


class TestScaledKeys:
    """The likelihood ratio keeps its ratios and one scale; its keys are built on first read."""

    @given(lr_models())
    @example(make_model(["x0", "x1"], {"t0": "1/2", "t1": "3/4"}, {"t0": ["1/4", "3/4"], "t1": ["3/4", "1/4"]}))
    @settings(max_examples=200, deadline=None)
    def test_likelihood_ratio_equals_its_pointwise_statistic(self, model):
        """The example has D_null == D_alt, a scale of 1, and an int ratio 3: its key is still Fraction(3, 1)."""
        stat = likelihood_ratio_statistic(model, "t0", "t1")
        oracle = make_statistic(model, stat.name, pointwise_ratios(model))
        # Read before the keys are built, then after.
        assert stat._key_texts() == [format_rational(key) for key in oracle.keys]
        assert stat == oracle and oracle == stat
        assert hash(stat) == hash(oracle)
        assert repr(stat) == repr(oracle)
        assert stat.keys == oracle.keys and stat.class_of == oracle.class_of and stat.values == oracle.values
        assert [stat.value(pt) for pt in model.support] == list(oracle.values)

    def test_scale_is_not_one_on_the_reference_model(self, example1, lr):
        assert example1.int_row("theta0")[0] != example1.int_row("theta1")[0]
        assert lr.keys[0] == Fraction(32768, 3125) and lr._key_texts()[0] == "32768/3125"

    def test_constructor_by_position_and_keyword(self):
        by_position = Statistic("s", (Fraction(3, 2), 1), (1, 0, 0))
        assert Statistic(name="s", keys=(Fraction(3, 2), 1), class_of=(1, 0, 0)) == by_position
        assert by_position.keys == (Fraction(3, 2), 1)
        assert repr(by_position) == "Statistic(name='s', keys=(Fraction(3, 2), 1), class_of=(1, 0, 0))"

    def test_instances_are_immutable(self, lr):
        with pytest.raises(FrozenInstanceError):
            lr.name = "other"

    @pytest.mark.parametrize("model, c6", [
        (binomial_model(30, ["1/2", "3/5"]), "pass"),
        (make_model(["a", "b", "c", "d"], {"t0": "1/2", "t1": "3/4", "t2": "1/4"},
                    {"t0": ["1/6", "1/6", "1/3", "1/3"], "t1": ["1/10", "1/10", "2/5", "2/5"],
                     "t2": ["1/12", "3/12", "4/12", "4/12"]}), "skipped"),  # the skip note names one key
    ], ids=["binomial", "unmet-sufficiency"])
    def test_verify_never_builds_the_keys(self, model, c6):
        null, alt = model.parameter_names[:2]
        stat = likelihood_ratio_statistic(model, null, alt)
        reports = verify_all_claims(model, stat, build_agreeing_ranking(model, stat), list(model.parameter_names))
        assert {r.claim: r.verdict for r in reports}["C6"] == c6
        assert "keys" not in vars(stat)


class TestBuildAgreeingRanking:
    def test_lexicographic_head(self, example1, lr, lex_ranking):
        assert lex_ranking.rank(example1.point("11111")) == 1
        # the tie class of five points in label order
        for rank, label in enumerate(["01111", "10111", "11011", "11101", "11110"], start=2):
            assert lex_ranking.rank(example1.point(label)) == rank

    def test_lexicographic_is_deterministic(self, example1, lr, lex_ranking):
        again = build_agreeing_ranking(example1, lr)
        assert again == lex_ranking

    def test_priority_matches_reference_table(self, example1, lr, table1_ranking):
        expected = ["11111", "01111", "10111", "11011", "11101", "11110", "00111", "10011"]
        for rank, label in enumerate(expected, start=1):
            assert table1_ranking.rank(example1.point(label)) == rank


def test_label_map_statistic_is_refused(example1):
    with pytest.raises(RankingError, match="not a label map"):
        make_statistic(example1, "s", {pt.label: 1 for pt in example1.support})


@pytest.mark.parametrize("values, fault", [
    ([0.5, 1], "refusing float 0.5: rationals must be exact"),
    (["x", 1], "not a rational: 'x'"),
], ids=["float", "text"])
def test_inexact_statistic_values_are_a_ranking_error(values, fault):
    model = make_model(["a", "b"], {"t0": "1/2"}, {"t0": ["1/2", "1/2"]})
    with pytest.raises(RankingError, match=f"^{re.escape(fault)}$"):
        make_statistic(model, "s", values)


@pytest.mark.parametrize("build, fault", [
    (lambda model: make_statistic(model, "s", "12"), "statistic 's': values must be a list in support order"),
    (lambda model: ranking_from_order(model, "10"), "rank order must be a list of support labels"),
], ids=["statistic-values", "rank-order"])
def test_a_bare_string_for_a_sequence_is_refused(build, fault):
    """A str is a sequence of its characters: "12" would be the values 1 and 2, "10" the labels '1' and '0'."""
    model = make_model(["0", "1"], {"t0": "1/2"}, {"t0": ["1/2", "1/2"]})
    with pytest.raises(RankingError, match=f"^{re.escape(fault)}, not the string '"):
        build(model)


class TestVerifyAgreement:
    def test_table1_ranking_agrees(self, example1, lr, table1_ranking):
        assert verify_agreement(example1, lr, table1_ranking) == (True, None)

    def test_any_bijection_agrees_with_constant(self, example1):
        constant = make_statistic(example1, "const", [1] * example1.size)
        identity = Ranking(tuple(range(1, example1.size + 1)))
        assert verify_agreement(example1, constant, identity) == (True, None)

    def test_swap_across_classes_detected(self, example1, lr, table1_ranking):
        ranks = list(table1_ranking.ranks)
        i = example1.point("11111").index  # rank 1, the only top-class point
        j = example1.point("00111").index  # rank 7, in the next class down
        ranks[i], ranks[j] = ranks[j], ranks[i]
        tampered = Ranking(tuple(ranks))
        ok, witness = verify_agreement(example1, lr, tampered)
        assert not ok
        assert witness is not None

    def test_duplicate_rank_detected(self, example1, lr, table1_ranking):
        ranks = list(table1_ranking.ranks)
        ranks[1] = ranks[0]
        with pytest.raises(RankingError, match="exactly once"):
            Ranking(tuple(ranks))


class TestRankingTable:
    def test_one_point_per_class(self, table1_ranking):
        n = len(table1_ranking.ranks)
        assert table1_ranking.class_of == tuple(rank - 1 for rank in table1_ranking.ranks)
        assert table1_ranking.order() == tuple(sorted(range(n), key=table1_ranking.ranks.__getitem__))

    @pytest.mark.parametrize("ranks", [(0, 1, 2), (1, 2, 4), (1, 1, 3), (2, 1, 3, 3)],
                             ids=["zero", "past-n", "repeat", "repeat-last"])
    def test_only_permutations_of_one_to_n(self, ranks):
        with pytest.raises(RankingError, match=f"each rank 1..{len(ranks)} exactly once"):
            Ranking(ranks)

    @pytest.mark.parametrize("ranks", [(4.0, 2.0, 3.0, 1.0), (2, True), (1, Fraction(2))],
                             ids=["floats", "bool", "fraction"])
    def test_ranks_must_be_ints(self, ranks):
        """(4.0, 2.0, 3.0, 1.0) is a set of 1..4, but its class indices would be floats."""
        with pytest.raises(RankingError, match="^ranks must be ints, got "):
            Ranking(ranks)

    def test_equality_reads_the_ranks_only(self, table1_ranking):
        assert Ranking(tuple(table1_ranking.ranks)) == table1_ranking
        assert hash(Ranking(tuple(table1_ranking.ranks))) == hash(table1_ranking)


class TestRankingFromOrder:
    def test_round_trip(self, example1, table1_ranking):
        order = [example1.support[i].label for i in table1_ranking.order()]
        rebuilt = ranking_from_order(example1, order)
        assert rebuilt.ranks == table1_ranking.ranks

    def test_partial_order_rejected(self, example1):
        with pytest.raises(RankingError):
            ranking_from_order(example1, ["11111", "01111"])

    def test_repeated_label_rejected(self, example1, table1_ranking):
        order = [example1.support[i].label for i in table1_ranking.order()]
        order[-1] = order[0]
        with pytest.raises(RankingError, match="exactly once"):
            ranking_from_order(example1, order)

    @pytest.mark.parametrize("entry", [0, 31, True, None], ids=["index-0", "index-31", "bool", "none"])
    def test_entry_that_is_not_a_label_is_refused(self, example1, table1_ranking, entry):
        order = [example1.support[i].label for i in table1_ranking.order()]
        order[5] = entry
        with pytest.raises(RankingError, match=f"^rank order must list support labels, got {re.escape(repr(entry))}$"):
            ranking_from_order(example1, order)

    def test_indices_and_points_are_not_read_as_labels(self, example1):
        with pytest.raises(RankingError, match="got 31$"):
            ranking_from_order(example1, list(range(31, -1, -1)))
        with pytest.raises(RankingError, match="got SupportPoint"):
            ranking_from_order(example1, list(example1.support))

    def test_unknown_label_rejected(self, example1, table1_ranking):
        order = [example1.support[i].label for i in table1_ranking.order()]
        order[3] = "99999"
        with pytest.raises(ModelError, match="99999"):
            ranking_from_order(example1, order)


@st.composite
def random_model_and_statistic(draw):
    n = draw(st.integers(2, 12))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(weights)
    labels = [f"x{i:02d}" for i in range(n)]
    model = make_model(
        labels, {"t0": "1/2"}, {"t0": [Fraction(w, total) for w in weights]}
    )
    values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return model, make_statistic(model, "s", values)


@given(random_model_and_statistic())
@settings(max_examples=60)
def test_built_ranking_always_agrees(case):
    model, stat = case
    ranking = build_agreeing_ranking(model, stat)
    assert verify_agreement(model, stat, ranking) == (True, None)
    assert sorted(ranking.ranks) == list(range(1, model.size + 1))
