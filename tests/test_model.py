"""Model construction, exact pmf arithmetic, and the JSON wire format."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mdpvalues import (
    CapacityError,
    DiscreteModel,
    ModelError,
    SupportPoint,
    bernoulli_product_model,
    binomial_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    load_model,
    make_model,
    pvalue_family,
    save_model,
)
from mdpvalues.model import model_from_dict, model_to_dict
from mdpvalues.rational import parse_rational

from conftest import brute_expectation


def ones(pt):
    return pt.label.count("1")


class TestBernoulliProduct:
    def test_null_pmf_is_uniform(self, example1):
        assert example1.probs("theta0") == (Fraction(1, 32),) * 32

    def test_alternative_pmf_values(self, example1):
        p1 = example1.probs("theta1")
        assert p1[example1.point("11111").index] == Fraction(32768, 100000)
        assert p1[example1.point("01111").index] == Fraction(8192, 100000)
        assert p1[example1.point("00111").index] == Fraction(2048, 100000)

    def test_single_coin(self):
        model = bernoulli_product_model(1, ["1/2"])
        assert [pt.label for pt in model.support] == ["0", "1"]
        assert model.probs("theta0") == (Fraction(1, 2), Fraction(1, 2))

    def test_exchangeability(self, example1):
        by_count = {}
        p1 = example1.probs("theta1")
        for pt in example1.support:
            by_count.setdefault(ones(pt), set()).add(p1[pt.index])
        assert all(len(values) == 1 for values in by_count.values())

    def test_invalid_theta_rejected(self):
        with pytest.raises(ModelError):
            bernoulli_product_model(3, ["0"])
        with pytest.raises(ModelError):
            bernoulli_product_model(3, ["1"])
        with pytest.raises(ModelError):
            bernoulli_product_model(0, ["1/2"])

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            bernoulli_product_model(5, ["1/2"], cap=16)
        bernoulli_product_model(4, ["1/2"], cap=16)  # boundary fits


class TestEventProb:
    def test_tail_probabilities(self, example1):
        assert example1.event_prob("theta0", lambda pt: ones(pt) >= 5) == Fraction(1, 32)
        assert example1.event_prob("theta0", lambda pt: ones(pt) >= 4) == Fraction(3, 16)

    def test_always_true_predicate(self, example1):
        assert example1.event_prob("theta1", lambda pt: True) == 1

    def test_complementary_predicates_sum_to_one(self, example1):
        hit = example1.event_prob("theta1", lambda pt: ones(pt) >= 3)
        miss = example1.event_prob("theta1", lambda pt: ones(pt) < 3)
        assert hit + miss == 1

    def test_matches_brute_oracle(self, example1):
        direct = example1.event_prob("theta1", lambda pt: ones(pt) >= 4)
        oracle = brute_expectation(
            example1, "theta1", lambda pt: Fraction(1) if ones(pt) >= 4 else Fraction(0)
        )
        assert direct == oracle


class TestValidation:
    def test_normalization_is_exact(self, example1):
        for theta in example1.parameter_names:
            assert sum(example1.probs(theta)) == 1

    def test_bad_sum_rejected(self):
        with pytest.raises(ModelError):
            make_model(["a", "b"], {"t": "1/2"}, {"t": ["1/2", "1/3"]})

    def test_zero_null_prob_rejected(self):
        with pytest.raises(ModelError):
            make_model(["a", "b"], {"t": "1/2"}, {"t": ["0/1", "1/1"]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ModelError):
            make_model(["a", "a"], {"t": "1/2"}, {"t": ["1/2", "1/2"]})

    @pytest.mark.parametrize(
        "row, fault",
        [((0, (0, 0)), "positive int, got 0"), ((-2, (-1, -1)), "positive int, got -2"),
         ((1.0, (0.5, 0.5)), "positive int, got 1.0"), ((2, (1.0, 1)), "int numerators"),
         ((2, (1, 1, 0)), "3 entries"), ((2, (3, -1)), "negative probability"),
         ((3, (1, 1)), "sums to 2/3")],
    )
    def test_direct_rows_are_validated(self, row, fault):
        support = (SupportPoint(0, "a"), SupportPoint(1, "b"))
        null = (2, (1, 1))
        with pytest.raises(ModelError, match=fault):
            DiscreteModel(support, {"t0": Fraction(1, 2), "t1": Fraction(1, 3)}, {"t0": null, "t1": row})
        with pytest.raises(ModelError, match=fault):
            DiscreteModel(support, {"t0": Fraction(1, 2)}, {"t0": row})

    def test_unknown_lookups(self, example1):
        with pytest.raises(ModelError):
            example1.probs("theta9")
        with pytest.raises(ModelError):
            example1.point("22222")

    @pytest.mark.parametrize("ref", [SupportPoint(-1, "111"), SupportPoint(-8, "000"), SupportPoint(8, "111"), -1, 8],
                             ids=["point-minus-1", "point-minus-8", "point-8", "int-minus-1", "int-8"])
    def test_index_outside_the_support_is_refused(self, ref):
        """Python's negative indexing must not resolve a point: SupportPoint(-1, "111") is not point 7."""
        model = bernoulli_product_model(3, ["1/2", "3/4"])
        ranking = build_agreeing_ranking(model, likelihood_ratio_statistic(model, "theta0", "theta1"))
        family = pvalue_family(model, ranking)
        with pytest.raises(ModelError, match=r"^point index -?\d+ out of range$"):
            model.point(ref)
        with pytest.raises(ModelError, match=r"^point index -?\d+ out of range$"):
            family.evaluate(ref, 1)

    def test_equal_valued_point_is_the_models_own(self):
        model = bernoulli_product_model(3, ["1/2", "3/4"])
        assert model.point(SupportPoint(7, "111")) is model.support[7]
        with pytest.raises(ModelError, match="point '000' does not belong to this model"):
            model.point(SupportPoint(7, "000"))

    @pytest.mark.parametrize("parameters, row, fault", [
        ({"t0": 0.5}, ["1/2", "1/2"], "refusing float 0.5: rationals must be exact"),
        ({"t0": "1/2"}, [0.5, "1/2"], "refusing float 0.5: rationals must be exact"),
        ({"t0": "1/2"}, ["x", "1/2"], "not a rational: 'x'"),
    ], ids=["float-parameter", "float-pmf", "text-pmf"])
    def test_inexact_inputs_are_a_model_error(self, parameters, row, fault):
        """Every layer's error derives from UsageError, so ``except UsageError`` also catches these."""
        with pytest.raises(ModelError, match=f"^{re.escape(fault)}$"):
            make_model(["a", "b"], parameters, {"t0": row})

    @pytest.mark.parametrize("build, fault", [
        (lambda: make_model("ab", {"t0": "1/2"}, {"t0": ["1/2", "1/2"]}), "labels must be a list of support labels"),
        (lambda: make_model(["a", "b"], {"t0": "1/2"}, {"t0": "11"}),
         "pmf row for 't0' must be a list of probabilities"),
        (lambda: bernoulli_product_model(2, "1/2"), "thetas must be a list of parameter values"),
        (lambda: binomial_model(2, "1/2"), "thetas must be a list of parameter values"),
    ], ids=["labels", "pmf-row", "bernoulli-thetas", "binomial-thetas"])
    def test_a_bare_string_for_a_sequence_is_refused(self, build, fault):
        """A str is a sequence of its characters: "ab" would be the labels 'a' and 'b', "11" a row summing to 2."""
        with pytest.raises(ModelError, match=f"^{re.escape(fault)}, not the string '"):
            build()

    @pytest.mark.parametrize("row, fault", [
        ((True, (True,)), "needs int numerators over a positive int, got True"),
        ((1, (True,)), "needs int numerators over a positive int, got 1"),
        ((True, (1,)), "needs int numerators over a positive int, got True"),
    ], ids=["bool-row", "bool-numerator", "bool-denominator"])
    def test_a_bool_is_no_pmf_entry(self, row, fault):
        """True == 1, so a row of bools would sum to its denominator, and ``model_to_dict`` would write "1/1"."""
        with pytest.raises(ModelError, match=f"^pmf row for 't0' {re.escape(fault)}$"):
            DiscreteModel((SupportPoint(0, "a"),), {"t0": Fraction(1, 2)}, {"t0": row})

    def test_a_bool_is_no_support_id(self):
        """SupportPoint(True, "b") at position 1 would pass as id 1."""
        support = (SupportPoint(0, "a"), SupportPoint(True, "b"))
        with pytest.raises(ModelError, match="^support ids must be contiguous from 0, got True at 1$"):
            DiscreteModel(support, {"t0": Fraction(1, 2)}, {"t0": (2, (1, 1))})

    @pytest.mark.parametrize("value", [0.1, True, "1/2", None], ids=["float", "bool", "text", "none"])
    def test_parameters_must_be_ints_or_fractions(self, value):
        """A float parameter would be written by ``model_to_dict`` as its binary expansion, as if it were exact."""
        support = (SupportPoint(0, "a"), SupportPoint(1, "b"))
        fault = f"parameter 't1' must be an int or a Fraction, got {value!r}"
        with pytest.raises(ModelError, match=f"^{re.escape(fault)}$"):
            DiscreteModel(support, {"t0": Fraction(1, 2), "t1": value}, {"t0": (2, (1, 1)), "t1": (2, (1, 1))})
        assert DiscreteModel(support, {"t0": 1, "t1": Fraction(1, 3)}, {"t0": (2, (1, 1)), "t1": (2, (1, 1))})

    def test_float_probabilities_rejected(self):
        with pytest.raises(ValueError):
            parse_rational(0.5)
        with pytest.raises(ValueError):
            parse_rational("0.5")

    @pytest.mark.parametrize(
        "value, fault",
        [("0.5", "refusing decimal literal"), ("1e-3", "refusing decimal literal"),
         (None, "not a rational"), ("seven", "not a rational")],
    )
    def test_unparsable_values_name_their_fault(self, value, fault):
        with pytest.raises(ValueError, match=fault):
            parse_rational(value)


class TestWireFormat:
    def test_round_trip(self, tmp_path, example1):
        path = tmp_path / "model.json"
        save_model(example1, path)
        loaded = load_model(path)
        assert loaded.parameters == example1.parameters
        for theta in example1.parameter_names:
            assert loaded.int_row(theta) == example1.int_row(theta)
        assert [pt.label for pt in loaded.support] == [pt.label for pt in example1.support]

    def test_rationals_serialized_as_num_den(self, example1):
        data = model_to_dict(example1)
        assert data["parameters"]["theta0"] == "1/2"
        assert data["pmf"]["theta0"][0] == "1/32"

    def test_non_utf8_file_is_a_model_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ModelError, match="invalid model file"):
            load_model(path)

    def test_missing_field_rejected(self):
        with pytest.raises(ModelError):
            model_from_dict({"support": ["a"], "pmf": {}})

    @pytest.mark.parametrize("build", [bernoulli_product_model, binomial_model])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("thetas", [["1/2", "4/5"], ["1/3", "2/3", "5/12"], ["3/7", "1/6"], ["7/11", "1/4"]])
    def test_builtins_store_the_lcm_denominator_of_their_wire_form(self, build, n, thetas):
        # The builtins put q^n under every row; make_model puts the lcm of the
        # row's reduced denominators.  Equal models means the two agree.
        model = build(n, thetas)
        assert model_from_dict(model_to_dict(model)) == model
        for theta, value in zip(model.parameter_names, thetas):
            assert model.int_row(theta)[0] == Fraction(value).denominator ** n


class TestBinomial:
    def test_pmf(self):
        model = binomial_model(3, ["1/2", "3/4"])
        assert model.probs("theta0") == (
            Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))
        assert model.probs("theta1") == (
            Fraction(1, 64), Fraction(9, 64), Fraction(27, 64), Fraction(27, 64))


@given(
    weights=st.lists(st.integers(1, 50), min_size=1, max_size=20),
)
def test_random_weight_models_normalize(weights):
    total = sum(weights)
    labels = [f"w{i}" for i in range(len(weights))]
    model = make_model(
        labels, {"t": "1/2"}, {"t": [Fraction(w, total) for w in weights]}
    )
    assert sum(model.probs("t")) == 1
    assert model.event_prob("t", lambda pt: True) == 1
