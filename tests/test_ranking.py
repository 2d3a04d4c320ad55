"""Statistics, agreeing rankings, tie-break policies, agreement checking."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdpvalues import (
    Ranking,
    RankingError,
    bernoulli_product_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_model,
    make_statistic,
    ranking_from_order,
    verify_agreement,
)
from mdpvalues.registry import table1_priority


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

    def test_incomplete_priority_rejected(self, example1, lr):
        with pytest.raises(RankingError):
            build_agreeing_ranking(
                example1, lr, "user-priority", priority=["11111", "01111"]
            )

    def test_unknown_priority_label_rejected(self, example1, lr):
        bad = table1_priority(example1)
        bad[3] = "99999"
        with pytest.raises(RankingError):
            build_agreeing_ranking(example1, lr, "user-priority", priority=bad)

    def test_seeded_shuffle_reproducible(self, example1, lr):
        first = build_agreeing_ranking(example1, lr, "seeded-shuffle", seed=7)
        second = build_agreeing_ranking(example1, lr, "seeded-shuffle", seed=7)
        assert first == second
        assert verify_agreement(example1, lr, first) == (True, None)

    def test_seeded_shuffle_requires_seed(self, example1, lr):
        with pytest.raises(RankingError):
            build_agreeing_ranking(example1, lr, "seeded-shuffle")

    def test_injective_statistic_ignores_policy(self):
        model = make_model(
            ["a", "b", "c"], {"t": "1/2"}, {"t": ["1/2", "1/3", "1/6"]}
        )
        stat = make_statistic(model, "s", ["3", "1", "2"])
        lex = build_agreeing_ranking(model, stat)
        shuffled = build_agreeing_ranking(model, stat, "seeded-shuffle", seed=123)
        assert lex.ranks == shuffled.ranks == (1, 3, 2)


def test_label_map_statistic_is_refused(example1):
    with pytest.raises(RankingError, match="not a label map"):
        make_statistic(example1, "s", {pt.label: 1 for pt in example1.support})


class TestVerifyAgreement:
    def test_table1_ranking_agrees(self, example1, lr, table1_ranking):
        assert verify_agreement(example1, lr, table1_ranking) == (True, None)

    def test_any_bijection_agrees_with_constant(self, example1):
        constant = make_statistic(example1, "const", [1] * example1.size)
        identity = Ranking("const", tuple(range(1, example1.size + 1)), "explicit")
        assert verify_agreement(example1, constant, identity) == (True, None)

    def test_swap_across_classes_detected(self, example1, lr, table1_ranking):
        ranks = list(table1_ranking.ranks)
        i = example1.point("11111").index  # rank 1, the only top-class point
        j = example1.point("00111").index  # rank 7, in the next class down
        ranks[i], ranks[j] = ranks[j], ranks[i]
        tampered = Ranking(table1_ranking.agrees_with, tuple(ranks), "explicit")
        ok, witness = verify_agreement(example1, lr, tampered)
        assert not ok
        assert witness is not None

    def test_duplicate_rank_detected(self, example1, lr, table1_ranking):
        ranks = list(table1_ranking.ranks)
        ranks[1] = ranks[0]
        broken = Ranking(table1_ranking.agrees_with, tuple(ranks), "explicit")
        ok, witness = verify_agreement(example1, lr, broken)
        assert not ok and witness is not None


class TestRankingFromOrder:
    def test_round_trip(self, example1, table1_ranking):
        order = [example1.support[i].label for i in table1_ranking.order()]
        rebuilt = ranking_from_order(example1, order)
        assert rebuilt.ranks == table1_ranking.ranks

    def test_partial_order_rejected(self, example1):
        with pytest.raises(RankingError):
            ranking_from_order(example1, ["11111", "01111"])


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
