"""Multiple-testing procedures, combinations, and the simulation harness."""

import itertools
import math
import operator
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mdpvalues.downstream as downstream
from mdpvalues import (
    ConfigError,
    bernoulli_product_model,
    bh_threshold,
    bonferroni,
    build_agreeing_ranking,
    config_from_dict,
    fisher_test,
    geometric_mean_combination,
    randomization_dependence_prob,
    simulate,
    size_alpha_test,
)
from mdpvalues.downstream import report_to_json
from mdpvalues.registry import resolve_model
from mdpvalues.special import chi2_upper_quantile
from simulate_oracle import simulate_oracle


def bh_candidate_sup_oracle(pvalues, alpha):
    """Literal candidate-set supremum: largest attained s with s*M <= alpha * #{P <= s}."""
    m = len(pvalues)
    best = 0.0
    found = False
    for s in sorted(set(pvalues)):
        count = sum(1 for p in pvalues if p <= s)
        if s * m <= alpha * count:
            best = s
            found = True
    return best if found else 0.0


class TestBenjaminiHochberg:
    def test_single_pvalue_is_level_alpha_test(self):
        assert bh_threshold([0.01], 0.05) == (0.01, (0,))
        assert bh_threshold([0.06], 0.05) == (0.0, ())
        assert bh_threshold([0.05], 0.05) == (0.05, (0,))  # p * M <= alpha * i holds with equality

    def test_all_ones_reject_nothing(self):
        threshold, rejected = bh_threshold([1.0] * 5, 0.05)
        assert threshold == 0.0 and rejected == ()

    def test_worked_example(self):
        # Frozen from the candidate-sup oracle: feasible candidates are
        # 0.01 (1*0.05/4 ge 0.01? no: 0.0125 ge 0.01) and 0.02; 0.04 fails
        # since 0.04*4 > 0.05*3.
        assert bh_candidate_sup_oracle([0.01, 0.02, 0.04, 0.9], 0.05) == 0.02
        threshold, rejected = bh_threshold([0.01, 0.02, 0.04, 0.9], 0.05)
        assert threshold == 0.02
        assert rejected == (0, 1)

    def test_empty_input(self):
        assert bh_threshold([], 0.05) == (0.0, ())

    def test_rejects_everything_when_all_tiny(self):
        threshold, rejected = bh_threshold([0.001, 0.002, 0.003], 0.05)
        assert rejected == (0, 1, 2)

    def test_out_of_range_pvalue_rejected(self):
        with pytest.raises(ConfigError):
            bh_threshold([1.5], 0.05)

    @given(
        ps=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
        ),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.25]),
    )
    @settings(max_examples=150)
    def test_stepup_equals_candidate_sup_formula(self, ps, alpha):
        threshold, rejected = bh_threshold(ps, alpha)
        assert threshold == bh_candidate_sup_oracle(ps, alpha)
        assert set(rejected) == {i for i, p in enumerate(ps) if p <= threshold}

    @given(
        ps=st.lists(
            st.sampled_from([0.001, 0.01, 0.02, 0.04, 0.2, 0.5, 0.9]), min_size=1, max_size=25
        )
    )
    @settings(max_examples=100)
    def test_rejections_monotone_in_alpha(self, ps):
        _, lo = bh_threshold(ps, 0.05)
        _, hi = bh_threshold(ps, 0.1)
        assert set(lo) <= set(hi)


class TestBonferroni:
    def test_single_pvalue(self):
        assert bonferroni([0.04], 0.05) == (0,)

    def test_threshold_is_alpha_over_m(self):
        assert bonferroni([0.01, 0.3], 0.05) == (0,)
        assert bonferroni([0.026, 0.3], 0.05) == ()

    def test_none_above_alpha(self):
        assert bonferroni([0.9, 0.8], 0.05) == ()


class TestFisher:
    def test_single_input_reduces_to_level_alpha(self):
        result = fisher_test([0.04], 0.05)
        assert result.critical_value == pytest.approx(-2 * math.log(0.05), rel=1e-9)
        assert result.reject  # p <= alpha iff -2 log p >= -2 log alpha
        assert not fisher_test([0.06], 0.05).reject

    def test_all_ones_statistic_zero(self):
        result = fisher_test([1.0, 1.0, 1.0], 0.05)
        assert result.statistic == 0.0 and not result.reject

    def test_two_inputs_critical_value(self):
        assert fisher_test([0.5, 0.5], 0.05).critical_value == pytest.approx(9.4877, abs=5e-4)

    def test_zero_pvalue_diverges_with_note(self):
        result = fisher_test([0.0, 0.5], 0.05)
        assert math.isinf(result.statistic) and result.reject and result.note

    def test_statistic_additivity(self):
        first, second = [0.1, 0.4], [0.2, 0.7, 0.9]
        combined = fisher_test(first + second, 0.05).statistic
        parts = fisher_test(first, 0.05).statistic + fisher_test(second, 0.05).statistic
        assert combined == pytest.approx(parts, rel=1e-12)


class TestGeometricMean:
    def test_single_pvalue_passes_through(self):
        assert geometric_mean_combination([0.3]).combined == pytest.approx(0.3, rel=1e-12)

    def test_equal_inputs_are_fixed_point(self):
        assert geometric_mean_combination([0.2, 0.2, 0.2]).combined == pytest.approx(0.2, rel=1e-12)

    def test_worked_example(self):
        combined = geometric_mean_combination([0.04, 0.09]).combined
        assert combined == pytest.approx(0.06, rel=1e-12)

    def test_decision_divides_alpha_by_e(self):
        result = geometric_mean_combination([0.01])
        assert result.rejects_at(0.05) == (result.combined <= 0.05 / math.e)


PROCEDURES_AT_ALPHA = {
    "bh": lambda alpha: bh_threshold([0.5, 0.9], alpha),
    "bh-empty": lambda alpha: bh_threshold([], alpha),
    "bonferroni": lambda alpha: bonferroni([0.5, 0.9], alpha),
    "fisher": lambda alpha: fisher_test([0.5, 0.9], alpha),
    "geometric-mean": lambda alpha: geometric_mean_combination([0.5]).rejects_at(alpha),
}


@pytest.mark.parametrize("alpha", [0, 1, 2.0, -1, math.nan, Fraction(3, 2)], ids=["0", "1", "2", "-1", "nan", "3/2"])
@pytest.mark.parametrize("procedure", sorted(PROCEDURES_AT_ALPHA))
def test_procedures_refuse_alpha_outside_the_unit_interval(procedure, alpha):
    with pytest.raises(ConfigError, match=r"must lie strictly in \(0, 1\)"):
        PROCEDURES_AT_ALPHA[procedure](alpha)


class TestRandomizationDependence:
    def test_reference_ratio_of_five(self, example1, lr):
        ranking = build_agreeing_ranking(example1, lr)
        alpha = Fraction(1, 20)
        t_prob = randomization_dependence_prob("theta0", size_alpha_test(example1, lr, alpha))
        md_prob = randomization_dependence_prob("theta0", size_alpha_test(example1, ranking, alpha))
        assert t_prob == Fraction(5, 32)   # 0.15625, the five-point tie class
        assert md_prob == Fraction(1, 32)  # 0.03125, a single point
        assert t_prob / md_prob == 5

    def test_zero_alpha_never_depends_on_u(self, example1, lr):
        test = size_alpha_test(example1, lr, 0)
        assert randomization_dependence_prob("theta0", test) == 0


def _config(**overrides):
    base = {
        "model": "example1",
        "hypotheses": 40,
        "pi0": "3/4",
        "family": "t",
        "u_policy": "randomized",
        "procedure": "bh",
        "alpha": "1/10",
        "replicates": 50,
        "seed": 1234,
    }
    base.update(overrides)
    model = bernoulli_product_model(5, ["1/2", "4/5"])
    return config_from_dict(base, model, "example1")


class TestSimulate:
    def test_seed_determinism(self):
        config = _config()
        assert simulate(config).to_dict() == simulate(config).to_dict()

    def test_pi0_zero_has_no_false_discoveries(self):
        report = simulate(_config(pi0="0"))
        assert report.fdr == 0.0 and report.m_null == 0

    def test_pi0_count_is_floored(self):
        assert _config(pi0="1/3", hypotheses=40).n_null == 13

    def test_null_bh_fdr_within_three_mcse(self):
        report = simulate(_config(pi0="1", hypotheses=60, replicates=200))
        assert report.fdr <= 0.1 + 3 * report.fdr_mcse

    def test_dependence_rate_only_for_randomized_policy(self):
        assert simulate(_config()).dependence_rate is not None
        assert simulate(_config(u_policy="natural")).dependence_rate is None

    def test_shared_seed_pairs_data_across_families(self):
        # With identical master seeds the data stream is identical, so the
        # MD-natural rejections dominate the T-natural ones replicate by
        # replicate; on aggregate counts the means must be ordered.
        t_report = simulate(_config(family="t", u_policy="natural", replicates=120))
        md_report = simulate(_config(family="md", u_policy="natural", replicates=120))
        assert md_report.mean_rejections >= t_report.mean_rejections

    def test_fisher_global_null_is_conservative(self):
        report = simulate(_config(
            procedure="fisher", u_policy="mid", pi0="1", hypotheses=20, replicates=300))
        assert report.fdr <= 0.1 + 3 * max(report.fdr_mcse, 1e-3)

    def test_fisher_critical_value_solved_once_per_run(self, monkeypatch):
        calls = []

        def counting_quantile(alpha, df):
            calls.append((alpha, df))
            return chi2_upper_quantile(alpha, df)

        monkeypatch.setattr(downstream, "chi2_upper_quantile", counting_quantile)
        downstream._fisher_critical.cache_clear()
        simulate(_config(procedure="fisher", u_policy="randomized", replicates=200))
        assert calls == [(0.1, 80)]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            _config(replicates=0)
        with pytest.raises(ConfigError):
            _config(pi0="3/2")
        with pytest.raises(ConfigError):
            _config(procedure="storey")
        with pytest.raises(ConfigError):
            _config(u_policy="fuzzy")
        with pytest.raises(ConfigError):
            _config(seed=-1)
        with pytest.raises(ConfigError, match="unsupported tie_break 'bogus'"):
            _config(tie_break="bogus")
        for field, value in [("hypotheses", 20.9), ("hypotheses", 40.0), ("hypotheses", "20.9"),
                             ("replicates", True), ("seed", 3.7), ("seed", "three"),
                             ("hypotheses", "\u0661\u0660"), ("replicates", "1_0"), ("seed", "1_0"),
                             ("seed", "\u0661\u0660"), ("seed", "\uff11"), ("seed", "0x10"), ("seed", "1e3")]:
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                _config(**{field: value})
        assert _config(hypotheses="40").hypotheses == 40
        assert _config(hypotheses=" +40 ").hypotheses == 40

    def test_replicates_past_one_spawn_word_refused(self):
        with pytest.raises(ConfigError, match=r"replicates must lie in \[1, 2\*\*32\]"):
            _config(replicates=2**32 + 1)
        assert _config(replicates=2**32).replicates == 2**32

    def test_report_records_rng_identity(self):
        assert "Philox" in simulate(_config()).rng


SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7]  # 2**130 + 7 has 5 words, past the pool's 4


class TestKernel:
    """The blocked harness's substream keys and log sums against numpy's and Python's own."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substream_keys_are_seed_sequence_keys(self, seed):
        keys = list(downstream._substream_keys(seed, 300))
        assert len(keys) == 300
        for r, key in enumerate(keys):
            expected = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64)
            assert key.dtype == np.uint64 and key.tolist() == expected.tolist(), r

    @pytest.mark.parametrize("seed", SEEDS)
    def test_substreams_draw_the_seed_sequence_streams(self, seed):
        for r, rng in enumerate(downstream._substreams(seed, 300)):
            expected = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))
            assert rng.random(600).tolist() == expected.random(600).tolist(), r

    def test_keys_span_chunks(self, monkeypatch):
        monkeypatch.setattr(downstream, "KEY_CHUNK", 7)
        keys = list(downstream._substream_keys(5, 30))
        assert [k.tolist() for k in keys] == [
            np.random.SeedSequence(5, spawn_key=(r,)).generate_state(2, np.uint64).tolist() for r in range(30)]

    def test_row_log_sums_are_the_left_fold(self):
        rng = np.random.default_rng(7)
        rows = rng.random((400, 60)) ** rng.choice([1, 5, 40], size=(400, 1))
        logs = downstream._logs(rows)
        assert logs.tolist() == [[math.log(p) for p in row] for row in rows.tolist()]
        for scale in (1.0, 1 / 60):
            folds = [reduce(operator.add, (scale * math.log(p) for p in row)) for row in rows.tolist()]
            assert downstream._row_log_sums(logs, scale).tolist() == folds
            # np.sum adds pairwise: these rows tell the two apart
            assert np.sum(scale * logs, axis=1).tolist() != folds

    def test_zero_pvalue_rows(self):
        # A randomized p-value a + u * b is exactly 0 when a = 0 and u = 0.
        ps = np.array([[0.9, 0.0, 0.8], [0.9, 0.7, 0.8]])
        assert downstream._logs(ps)[0].tolist() == [math.log(0.9), -math.inf, math.log(0.8)]
        critical, rejected = downstream._decide_rows(ps, 0.1, "fisher")
        assert rejected[:, 0].tolist() == [True, False]
        assert fisher_test(ps[0], 0.1) == (math.inf, critical, True, "zero p-value: statistic diverges")
        with pytest.raises(ConfigError, match="strictly positive"):
            downstream._decide_rows(ps, 0.1, "geometric-mean")
        with pytest.raises(ConfigError, match="strictly positive"):
            geometric_mean_combination(ps[0])
        _, rejected = downstream._decide_rows(ps[1:], 0.1, "geometric-mean")
        assert rejected.tolist() == [[False]]

    def test_statistics_on_their_cuts_reject(self):
        def first_float(condition, p):
            """The first float from p up, within 400 ulp, that meets ``condition``."""
            for _ in range(400):
                if condition(p):
                    return p
                p = math.nextafter(p, 1.0)
            pytest.fail("no float within 400 ulp meets the condition")

        critical = downstream._fisher_critical(0.1, 2)
        # a float p whose statistic is the cut exactly
        p = first_float(lambda p: -2.0 * math.log(p) == critical, math.exp(-critical / 2) * (1 - 1e-14))
        assert fisher_test([p], 0.1).reject
        assert downstream._decide_rows(np.array([[p]]), 0.1, "fisher")[1].tolist() == [[True]]
        # a float p whose P~ is alpha / e exactly for alpha = P~ * e
        p = first_float(lambda p: (math.exp(math.log(p)) * math.e) / math.e == math.exp(math.log(p)), 0.03)
        alpha = math.exp(math.log(p)) * math.e
        assert geometric_mean_combination([p]).rejects_at(alpha)
        assert downstream._decide_rows(np.array([[p]]), alpha, "geometric-mean")[1].tolist() == [[True]]


def _oracle_config(spec, **fields):
    model, model_id = resolve_model(spec)
    return config_from_dict({"alpha": "1/10", "family": "md", "pi0": "3/4", **fields}, model, model_id)


def _assert_matches_oracle(config):
    assert report_to_json(simulate(config)) == report_to_json(simulate_oracle(config)), config.to_dict()


class TestSimulateAgainstOracle:
    """The blocked harness against the replicate-at-a-time loop, byte for byte."""

    @pytest.mark.parametrize("procedure", downstream.PROCEDURES)
    def test_matrix_is_byte_identical(self, procedure):
        for spec, u_policy, family, pi0, m, (seed, replicates) in itertools.product(
            ("example1", "binomial:12,1/2,3/5"), downstream.U_POLICIES, ("t", "md"),
            ("0", "3/4", "1"), (1, 7, 50), ((3, 50), (11, 23)),
        ):
            _assert_matches_oracle(_oracle_config(
                spec, procedure=procedure, u_policy=u_policy, family=family, pi0=pi0,
                hypotheses=m, seed=seed, replicates=replicates))

    @pytest.mark.parametrize("procedure", downstream.PROCEDURES)
    def test_more_hypotheses_than_a_block_holds(self, procedure):
        assert 5000 > downstream.BLOCK_ELEMENTS  # one replicate per block
        _assert_matches_oracle(_oracle_config(
            "example1", procedure=procedure, u_policy="randomized", hypotheses=5000, replicates=3, seed=8))

    def test_ragged_last_block(self):
        rows = downstream.BLOCK_ELEMENTS // 200
        assert 30 > rows and 30 % rows  # a full block, then a shorter one
        for procedure in downstream.PROCEDURES:
            _assert_matches_oracle(_oracle_config(
                "example1", procedure=procedure, u_policy="randomized", hypotheses=200, replicates=30, seed=2))

    def test_block_size_changes_no_report(self, monkeypatch):
        monkeypatch.setattr(downstream, "BLOCK_ELEMENTS", 63)  # 9 rows of 7: blocks of 9, 9 and 5
        for procedure, u_policy in itertools.product(downstream.PROCEDURES, downstream.U_POLICIES):
            _assert_matches_oracle(_oracle_config(
                "binomial:12,1/2,3/5", procedure=procedure, u_policy=u_policy, hypotheses=7,
                replicates=23, seed=21))

    def test_single_replicate_has_zero_mcse(self):
        for procedure in downstream.PROCEDURES:
            config = _oracle_config(
                "example1", procedure=procedure, u_policy="randomized", hypotheses=40, replicates=1, seed=4)
            report = simulate(config)
            assert report.fdr_mcse == report.power_mcse == 0.0
            _assert_matches_oracle(config)
