"""Multiple-testing procedures, combinations, and the simulation harness."""

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    pvalue_family,
    simulate,
)
from mdpvalues.downstream import report_to_json
from mdpvalues.registry import resolve_model
from mdpvalues.special import chi2_upper_quantile
from conftest import randomization_dependence_prob
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


PROCEDURES_ON_PVALUES = {
    "bh": lambda ps: bh_threshold(ps, 0.5),
    "bonferroni": lambda ps: bonferroni(ps, 0.1),
    "fisher": lambda ps: fisher_test(ps, 0.1),
    "geometric-mean": geometric_mean_combination,
}


@pytest.mark.parametrize("procedure", sorted(PROCEDURES_ON_PVALUES))
def test_procedures_refuse_a_bare_string_of_pvalues(procedure):
    # Read as a sequence, "0110" was the p-values 0, 1, 1, 0: bonferroni returned (0, 3).
    with pytest.raises(ConfigError, match="p-values must be a list of numbers, not the string '0110'"):
        PROCEDURES_ON_PVALUES[procedure]("0110")


@pytest.mark.parametrize("value", ["x", None, [0.1]], ids=["text", "none", "list"])
@pytest.mark.parametrize("procedure", sorted(PROCEDURES_ON_PVALUES))
def test_procedures_refuse_a_non_numeric_pvalue_as_a_usage_error(procedure, value):
    with pytest.raises(ConfigError, match=r"p-value must be a number, got"):
        PROCEDURES_ON_PVALUES[procedure]([0.5, value])


@pytest.mark.parametrize("alpha", ["x", None], ids=["text", "none"])
@pytest.mark.parametrize("procedure", sorted(PROCEDURES_AT_ALPHA))
def test_procedures_refuse_a_non_numeric_alpha_as_a_usage_error(procedure, alpha):
    with pytest.raises(ConfigError, match=r"alpha must be a number, got"):
        PROCEDURES_AT_ALPHA[procedure](alpha)


class TestRandomizationDependence:
    def test_reference_ratio_of_five(self, example1, lr):
        ranking = build_agreeing_ranking(example1, lr)
        alpha = Fraction(1, 20)
        t_prob = randomization_dependence_prob("theta0", pvalue_family(example1, lr), alpha)
        md_prob = randomization_dependence_prob("theta0", pvalue_family(example1, ranking), alpha)
        assert t_prob == Fraction(5, 32)   # 0.15625, the five-point tie class
        assert md_prob == Fraction(1, 32)  # 0.03125, a single point
        assert t_prob / md_prob == 5

    def test_zero_alpha_never_depends_on_u(self, example1, lr):
        assert randomization_dependence_prob("theta0", pvalue_family(example1, lr), 0) == 0


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

    def test_shared_seed_pairs_data_across_families(self, monkeypatch):
        # With identical master seeds the data stream is identical under
        # every family and u policy, so every run draws the same points; the
        # MD-natural rejections then dominate the T-natural ones replicate by
        # replicate, and on aggregate counts the means must be ordered.
        draw_points, runs = downstream._draw_points, []

        def recording_draw_points(table, u):
            points = draw_points(table, u)
            runs[-1].append(points.tolist())
            return points

        monkeypatch.setattr(downstream, "_draw_points", recording_draw_points)
        reports = {}
        for family, u_policy in itertools.product(("t", "md"), downstream.U_POLICIES):
            runs.append([])
            reports[family, u_policy] = simulate(_config(family=family, u_policy=u_policy, replicates=120))
        assert len(runs) == 6 and len(runs[0]) == 4  # two blocks of 102 and 18 rows, null and alternative columns
        assert all(run == runs[0] for run in runs)
        assert reports["md", "natural"].mean_rejections >= reports["t", "natural"].mean_rejections

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

    def test_replicates_past_2_32_refused(self):
        with pytest.raises(ConfigError, match=r"replicates must lie in \[1, 2\*\*32\]"):
            _config(replicates=2**32 + 1)
        assert _config(replicates=2**32).replicates == 2**32

    def test_report_records_rng_identity(self):
        assert "Philox" in simulate(_config()).rng


SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7]  # 2**130 + 7 is a five-word seed


class _RecordingGenerator(np.random.Generator):
    """A Generator that keeps every array its ``random`` returns, in the order of the Generators built."""

    built: list = []

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.draws = []
        self.built.append(self)

    def random(self, *args, **kwargs):
        out = super().random(*args, **kwargs)
        self.draws.append(out)
        return out


def _record_streams(monkeypatch, config):
    """simulate(config)'s uniforms: the data rows each block passes to _draw_points, and each Generator's draws."""
    draw_points, data_rows = downstream._draw_points, []

    def recording_draw_points(table, u):
        data_rows.append(u.copy())
        return draw_points(table, u)

    monkeypatch.setattr(downstream, "_draw_points", recording_draw_points)
    monkeypatch.setattr(np.random, "Generator", _RecordingGenerator)
    monkeypatch.setattr(_RecordingGenerator, "built", [])
    simulate(config)
    # Each block passes its null columns, then its alternative columns.
    blocks = [np.hstack(data_rows[i:i + 2]) for i in range(0, len(data_rows), 2)]
    return blocks, _RecordingGenerator.built


class TestKernel:
    """The blocked harness's random streams against numpy's own, and its log sums against Python's."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_data_uniforms_are_one_philox_counter_range(self, seed, monkeypatch):
        # Blocks of 5 rows of 7 end at data doubles 35 and 70: inside Philox's groups of 4.
        monkeypatch.setattr(downstream, "BLOCK_ELEMENTS", 35)
        blocks, _ = _record_streams(monkeypatch, _config(hypotheses=7, pi0="3/7", replicates=13, seed=seed))
        assert [len(block) for block in blocks] == [5, 5, 3]
        expected = np.random.Generator(np.random.Philox(seed)).random(13 * 7).reshape(13, 7)
        assert np.vstack(blocks).tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_auxiliary_uniforms_are_the_jumped_counter_range(self, seed, monkeypatch):
        # Replicate r's auxiliary u, then its regenerated u, are doubles r*2M..(r+1)*2M-1 of the jumped key.
        monkeypatch.setattr(downstream, "BLOCK_ELEMENTS", 35)
        _, (data, aux) = _record_streams(monkeypatch, _config(hypotheses=7, pi0="3/7", replicates=13, seed=seed))
        assert [d.shape for d in data.draws] == [(5, 7), (5, 7), (3, 7)]
        assert [d.shape for d in aux.draws] == [(5, 2, 7), (5, 2, 7), (3, 2, 7)]
        expected = np.random.Generator(np.random.Philox(seed).jumped()).random(13 * 2 * 7).reshape(13, 2, 7)
        assert np.concatenate(aux.draws).tolist() == expected.tolist()

    def test_streams_span_blocks(self, monkeypatch):
        # The block size only cuts each stream's counter range; every report is the one-block report.
        reports = []
        for block_elements in (10**6, 4096, 40, 7, 1):
            monkeypatch.setattr(downstream, "BLOCK_ELEMENTS", block_elements)
            reports.append([report_to_json(simulate(_config(u_policy=u_policy, replicates=30)))
                            for u_policy in downstream.U_POLICIES])
        assert all(report == reports[0] for report in reports)

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

    @pytest.mark.parametrize("fold_side", ["on the cut", "above the cut"])
    def test_rows_straddling_the_cut_follow_the_left_fold(self, monkeypatch, fold_side):
        """A row whose np.log sum and left fold lie on opposite sides of the Fisher cut."""
        rng = np.random.default_rng(11)
        for _ in range(2000):
            ps = rng.random((1, 200)) ** 3
            fold = reduce(operator.add, map(math.log, ps[0].tolist()))
            approximate = float(np.log(ps).sum(axis=1)[0])
            cut = fold if fold_side == "on the cut" else math.nextafter(fold, -math.inf)
            if (approximate > cut) if fold_side == "on the cut" else (approximate < cut):
                break
        else:
            pytest.fail("no straddling row among 2000 draws")
        # -2.0 * fold >= critical iff fold <= cut, and -2.0 * cut is exact
        monkeypatch.setattr(downstream, "_fisher_critical", lambda alpha, df: -2.0 * cut)
        _, rejected = downstream._decide_rows(ps, 0.1, "fisher")
        assert rejected.tolist() == [[fold <= cut]]
        assert fisher_test(ps[0].tolist(), 0.1).reject == (fold <= cut)


@st.composite
def _blocks_and_cuts(draw):
    """A block of p-values, tiny ones and ones near 1 among them, an alpha, and maybe a shift in ULP.

    With a shift, the tests put the cut that many ULP from the first row's left fold.
    """
    rows, m = draw(st.integers(1, 4)), draw(st.integers(1, 300))
    kinds = sorted(draw(st.sets(st.sampled_from(range(3)), min_size=1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ps = np.choose(rng.choice(kinds, size=(rows, m)), [
        2.0 ** -rng.uniform(990.0, 1074.0, (rows, m)),  # tiny, subnormals included
        1.0 - rng.random((rows, m)),
        1.0 - 2.0**-20 * rng.random((rows, m)),  # near 1
    ])
    return ps, draw(st.floats(min_value=1e-9, max_value=0.5)), draw(st.none() | st.integers(-3, 3))


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(max_examples=200, deadline=None)
@given(_blocks_and_cuts())
# The geometric mean's cut among the subnormals, where exp keeps fewer than 53 bits.
@example((np.array([[1.42784972e-321, 1.27670263e-316], [2.16286129e-300, 6.95406096e-001]]), 0.5, 0))
@example((np.array([[1e-320, 1e-320]]), 0.5, 1))
def test_combined_decisions_are_the_left_folds(case):
    """Fisher and the geometric mean decide each row as the reduce fold of math.log does, near the cut too."""
    ps, alpha, ulps = case
    rows = ps.tolist()
    m = ps.shape[1]
    folds = [reduce(operator.add, map(math.log, row)) for row in rows]
    critical = downstream._fisher_critical(alpha, 2 * m) if ulps is None else -2.0 * _nudged(folds[0], ulps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(downstream, "_fisher_critical", lambda alpha, df: critical)
        _, rejected = downstream._decide_rows(ps, alpha, "fisher")
    assert rejected[:, 0].tolist() == [-2.0 * fold >= critical for fold in folds]

    means = [math.exp(reduce(operator.add, ((1.0 / m) * math.log(p) for p in row))) for row in rows]
    if ulps is not None and 0.0 < (on_cut := _nudged(means[0] * math.e, ulps)) < 1.0:
        alpha = on_cut
    _, rejected = downstream._decide_rows(ps, alpha, "geometric-mean")
    assert rejected[:, 0].tolist() == [mean <= alpha / math.e for mean in means]


def _adversarial_uniforms(table):
    """Data uniforms in [0, 1) at the table's seams: each cum value and its neighbouring floats, each
    bucket edge b/K and the float below it, 0.0 and the largest uniform, 1 - 2**-53."""
    edges = np.arange(len(table.lo)) / len(table.lo)
    u = np.concatenate([table.cum, np.nextafter(table.cum, -1.0), np.nextafter(table.cum, 2.0),
                        edges, np.nextafter(edges, -1.0), [0.0, 1.0 - 2.0**-53]])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_table_draws_as_searchsorted(den, row):
    table = downstream._bucket_table(den, row)
    cum = np.cumsum([float(Fraction(p, den)) for p in row])
    cum[-1] = 1.0
    assert table.cum.tolist() == cum.tolist()
    n = len(row)
    assert len(table.lo) == min(max(2 ** math.ceil(math.log2(64 * n)), 2**8), 2**16)
    # flagged exactly where a cum value lies strictly inside a bucket, so at most N - 1 are
    scaled = cum[cum < 1.0] * len(table.lo)
    inside = np.zeros(len(table.lo), dtype=bool)
    inside[np.floor(scaled[scaled != np.floor(scaled)]).astype(int)] = True
    assert table.flagged.tolist() == inside.tolist() and inside.sum() <= n - 1
    u = _adversarial_uniforms(table)
    points = downstream._draw_points(table, u)
    assert points.tolist() == np.searchsorted(cum, u, side="right").tolist()
    assert points.max() < n
    return table


def _tail_row(seed, n, den):
    """n masses over ``den``, the last of them 1/den: a float cumsum can pass 1.0 before it."""
    rng = random.Random(seed)
    cuts = sorted(rng.randrange(1, den - 1) for _ in range(n - 2))
    return [b - a for a, b in zip([0, *cuts], [*cuts, den - 1])] + [1]


class TestBucketTable:
    """simulate's inverse-CDF lookup against np.searchsorted, on the floats where they could part."""

    @pytest.mark.parametrize("den, row", [
        (1, [1]),  # N = 1
        (7, [7]),
        (2**5, [math.comb(5, k) for k in range(6)]),  # every cum value on a bucket edge: none flagged
        (2**60, [2**60 - 1, 1]),  # cum reaches 1.0 at its first entry
        (2**60, [math.comb(60, k) for k in range(61)]),  # tail masses far below 1/K
        (2**1500, [math.comb(1500, k) for k in range(1501)]),  # N > 1024: K at its cap
        (3000, [1] * 3000),  # K at its cap, one cum value in most flagged buckets
    ])
    def test_examples(self, den, row):
        _assert_table_draws_as_searchsorted(den, row)

    def test_cum_past_one_before_its_last_entry(self):
        row = _tail_row(0, 100, 10**18)
        assert np.cumsum([p / 10**18 for p in row])[-2] > 1.0
        _assert_table_draws_as_searchsorted(10**18, row)

    def test_tail_heavy_model_flags_buckets_in_simulate(self):
        # binomial:60's tail masses below 1/K share its first bucket, so simulate searches there
        model, _ = resolve_model("binomial:60,1/2,3/5")
        for theta in model.parameter_names:
            table = _assert_table_draws_as_searchsorted(*model.int_row(theta))
            assert table.flagged.any() and table.lo[1] > 1


@st.composite
def _integer_pmfs(draw):
    """A denominator and 1 to 1,200 integer masses spread over 60 binary orders, zeros among them."""
    n = draw(st.integers(1, 1200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    orders = draw(st.integers(1, 60))
    row = [rng.randrange(2 ** rng.randrange(orders + 1)) for _ in range(n)]
    row[rng.randrange(n)] += 1
    if draw(st.booleans()):
        row[-1] = 1  # a last mass far below the others
    return sum(row), row


@settings(max_examples=150, deadline=None)
@given(_integer_pmfs())
def test_bucket_table_draws_as_searchsorted(case):
    _assert_table_draws_as_searchsorted(*case)


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
            ("example1", "binomial:12,1/2,3/5", "binomial:60,1/2,3/5"), downstream.U_POLICIES, ("t", "md"),
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

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeds_with_blocks_ending_inside_a_philox_group(self, seed, monkeypatch):
        # Blocks of 5 rows of 7 end at data doubles 35, 70 and auxiliary doubles 70, 140: inside groups of 4.
        monkeypatch.setattr(downstream, "BLOCK_ELEMENTS", 35)
        for procedure in downstream.PROCEDURES:
            _assert_matches_oracle(_oracle_config(
                "binomial:12,1/2,3/5", procedure=procedure, u_policy="randomized", hypotheses=7,
                replicates=13, seed=seed))

    @pytest.mark.parametrize("procedure", ["fisher", "geometric-mean"])
    def test_fixed_u_combinations_at_many_hypotheses(self, procedure):
        # natural and mid p-values take one value per support point, but their logs are taken per element
        for spec, u_policy, family in itertools.product(
            ("example1", "binomial:12,1/2,3/5"), ("natural", "mid"), ("t", "md"),
        ):
            _assert_matches_oracle(_oracle_config(
                spec, procedure=procedure, u_policy=u_policy, family=family, hypotheses=2000,
                replicates=9, seed=13))

    def test_single_replicate_has_zero_mcse(self):
        for procedure in downstream.PROCEDURES:
            config = _oracle_config(
                "example1", procedure=procedure, u_policy="randomized", hypotheses=40, replicates=1, seed=4)
            report = simulate(config)
            assert report.fdr_mcse == report.power_mcse == 0.0
            _assert_matches_oracle(config)
