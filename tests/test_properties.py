"""Property tests: invariants that must hold on arbitrary finite models."""

import json
import math
import random
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mdpvalues import (
    Ranking,
    build_agreeing_ranking,
    make_model,
    make_statistic,
    orders,
    pvalue_family,
    ranking_from_order,
    verify_agreement,
    verify_all_claims,
)
from mdpvalues.cli import main

from mdpvalues.rational import (
    _RATIO,
    common_denominator,
    decimal_ratio,
    format_ratios,
    format_rational,
    parse_ratio,
    parse_rational,
    ratio_row,
    ratio_terms,
)

from claims_oracle import (
    breakpoints,
    check_agreement,
    phi_expectation_by_tails,
    randomized_cdf_at,
    scan_pvalue_family,
    scan_size_alpha_test,
)
from conftest import (
    agreement_gates_opened,
    brute_expectation,
    decision_coherence_witness,
    engine_forms,
    random_model_and_statistic,
    shuffled_agreeing_ranking,
    tilted_to_sufficiency,
)


@st.composite
def small_models(draw):
    n = draw(st.integers(2, 10))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    total = sum(weights)
    model = make_model(
        [f"x{i}" for i in range(n)],
        {"t0": "1/2"},
        {"t0": [Fraction(w, total) for w in weights]},
    )
    return model, make_statistic(model, "s", values)


@contextmanager
def no_int_digit_limit():
    """Lift CPython's int/str digit limit for one test, as ``mdpv`` does for its own run."""
    limit = getattr(sys, "get_int_max_str_digits", None)  # absent before CPython 3.10.7
    before = limit() if limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(before)


WIDE = 10**4400  # 4,401 digits, past the default 4,300-digit int/str limit


@given(st.integers(1, 10**30).flatmap(lambda d: st.tuples(st.integers(-3 * d, 3 * d), st.just(d))),
       st.integers(0, 9))
@example((0, 7), 6)
@example((12, 12), 6)
@example((2 * WIDE // 3, 2 * WIDE), 9)
@example((WIDE - 1, WIDE), 0)
@settings(max_examples=200, deadline=None)
def test_integer_ratio_text_matches_fraction_text(ratio, places):
    n, d = ratio
    units = round(Fraction(n, d) * 10**places)  # Fraction rounds half to even
    whole, part = divmod(abs(units), 10**places)
    with no_int_digit_limit():
        assert format_ratios([n], d) == [format_rational(Fraction(n, d))]
        assert decimal_ratio(n, d, places) == f"{'-' if units < 0 else ''}{whole}.{part:0{places}d}"


def test_integer_ratio_text_edges():
    assert format_ratios([0, 5, 10, 4, -6], 10) == ["0/1", "1/2", "1/1", "2/5", "-3/5"]
    with no_int_digit_limit():
        assert format_ratios([WIDE // 2, 1], WIDE) == ["1/2", f"1/{WIDE}"]


@pytest.mark.parametrize(
    "value, parsed",
    [("+3/4", (3, 4)), (" 3/4 ", (3, 4)), ("-0/5", (0, 1)), ("6/8", (3, 4)), ("-12", (-12, 1)),
     (7, (7, 1)), (Fraction(-6, 8), (-3, 4))],
)
def test_rational_grammar_accepts(value, parsed):
    assert parse_ratio(value) == parsed
    assert parse_rational(value) == Fraction(*parsed)
    assert Fraction(*ratio_terms(value)) == Fraction(*parsed)
    assert ratio_row(["1/3", value]) == [(1, 3), ratio_terms(value)]


@pytest.mark.parametrize(
    "value, fault",
    [("1_0/40", "not a rational: '1_0/40'"),  # Fraction(str) takes it from CPython 3.11 on
     ("1 / 2", "not a rational: '1 / 2'"),  # Fraction(str) takes it from CPython 3.12 on
     ("\u0661/\u0662", "not a rational: '\u0661/\u0662'"),  # Arabic-Indic digits: Fraction(str) takes them
     ("\u0663/4", "not a rational: '\u0663/4'"),
     ("1/0", "not a rational: '1/0'"),
     ("3/00", "not a rational: '3/00'"),
     ("0.25", "refusing decimal literal '0.25'"),
     ("1e3", "refusing decimal literal '1e3'"),
     ("inf", "not a rational: 'inf'"),
     (0.5, "refusing float 0.5"),
     (True, "not a rational: True")],
)
def test_rational_grammar_refuses(value, fault):
    """One grammar on every Python version: ASCII digits, an optional sign and "/digits", outer whitespace."""
    for parse in (ratio_terms, parse_ratio, parse_rational, lambda v: ratio_row(["1/3", v])):
        with pytest.raises(ValueError) as caught:
            parse(value)
        assert str(caught.value).startswith(fault)


@given(st.from_regex(_RATIO, fullmatch=True))
@settings(max_examples=300, deadline=None)
def test_rational_grammar_agrees_with_fraction(text):
    """Every string the grammar takes is one that Fraction(str) reads, to the same value."""
    expected = Fraction(text)
    assert parse_ratio(text) == (expected.numerator, expected.denominator)
    assert Fraction(*ratio_terms(text)) == expected


@st.composite
def _unreduced_rows(draw):
    """A row of "n/d" texts whose entries share factors between n and d, zeros and negatives among them."""
    size = draw(st.integers(1, 12))
    values = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    dens = draw(st.lists(st.integers(1, 360), min_size=size, max_size=size))
    factors = draw(st.lists(st.sampled_from([1, 2, 3, 6, 7, 10, 2**40]), min_size=size, max_size=size))
    return [f"{n * c}/{d * c}" for n, d, c in zip(values, dens, factors)]


@given(_unreduced_rows())
@example(["0/6", "0/4", "0/9"])
@example(["-2/4", "6/4", "0/3"])
@settings(max_examples=300, deadline=None)
def test_one_gcd_per_row_is_per_entry_reduction(texts):
    """A row read unreduced and reduced by one gcd is the row with each entry reduced first."""
    reduced = common_denominator(map(parse_ratio, texts))
    assert common_denominator(map(ratio_terms, texts)) == reduced
    assert ratio_row(texts) == list(map(ratio_terms, texts))
    values = [Fraction(text) for text in texts]
    den = math.lcm(*(v.denominator for v in values))
    assert reduced == (den, tuple(int(v * den) for v in values))


# Entries the row reader must refuse as ratio_terms does: the listed ones, and the malformed shapes a split
# at "," and "/" could misread.
_BAD_ENTRIES = [0.5, True, None, "1/0", "1_0", "\u0661/\u0664", "0.5", "1e3", "1\x002", "",
                "5/", "/5", "1/2/3", "5/-3", "5/+3", "1,2", "1 /2", "+", "1-2"]


@st.composite
def _rows_with_a_fault(draw):
    """A row of valid entries, texts padded and signed, with leading zeros, over shared or distinct denominators,
    ints and Fractions among them; with one bad entry at any position, or none."""
    dens = draw(st.lists(st.integers(1, 10**30), min_size=1, max_size=3))
    pad = st.sampled_from(["", " ", "\t", "\u2003"])
    row = []
    for _ in range(draw(st.integers(0, 12))):
        n, d = draw(st.integers(-10**40, 10**40)), draw(st.sampled_from(dens))
        sign, digits = "-" if n < 0 else draw(st.sampled_from(["", "+"])), "0" * draw(st.integers(0, 2)) + str(abs(n))
        text = f"{sign}{digits}" + draw(st.sampled_from(["", f"/{'0' * draw(st.integers(0, 2))}{d}"]))
        row.append(draw(st.sampled_from([draw(pad) + text + draw(pad), n, Fraction(n, d)])))
    if draw(st.booleans()):
        row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(_BAD_ENTRIES)))
    return row


@given(_rows_with_a_fault())
@example(["1/4", "2", " 1/4 "])
@example(["1/4", "5/", "1"])
@example(["1/2/3", "4"])
@example(["1/2", "5/+3"])
@example(["1,2", "3/4"])
@example(["1/2", "\u0661/4"])
@settings(max_examples=300, deadline=None)
def test_ratio_row_reads_a_row_as_its_entries(row):
    """``ratio_row`` of a row is ``ratio_terms`` of each entry, or the error ``ratio_terms`` raises for the first bad one."""
    try:
        expected = [ratio_terms(value) for value in row]
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            ratio_row(row)
        assert str(caught.value) == str(exc)
    else:
        assert ratio_row(row) == expected


def test_ratio_row_reads_each_denominator_string_once():
    row = ["1/1024", "3/1024", "5/0001024", "-7/1024", "2", " 9/1024 "]
    expected = list(map(ratio_terms, row))
    with mock.patch("mdpvalues.rational.int", side_effect=int, create=True) as read:
        assert ratio_row(row) == expected
    # every numerator, and each distinct denominator string once
    assert sorted(call.args[0] for call in read.call_args_list) == sorted(
        ["1", "3", "5", "-7", "2", "9", "1024", "0001024"])


@given(small_models(), st.integers(0, 20))
@settings(max_examples=50, deadline=None)
def test_size_identity_everywhere(case, numerator):
    model, statistic = case
    alpha = Fraction(numerator, 20)
    for source in (statistic, build_agreeing_ranking(model, statistic)):
        scan = scan_size_alpha_test(model, source, alpha)
        assert pvalue_family(model, source).power("t0", alpha) == brute_expectation(model, "t0", scan.phi) == alpha


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_threshold_and_power_match_the_scan_at_every_breakpoint(case):
    model, statistic = case
    ranking = build_agreeing_ranking(model, statistic)
    for alpha in breakpoints(scan_pvalue_family(model, statistic), scan_pvalue_family(model, ranking)):
        for source in (statistic, ranking):
            family = pvalue_family(model, source)
            scan = scan_size_alpha_test(model, source, alpha)
            assert family.threshold(alpha) == (scan.k, scan.gamma)
            for theta in model.parameter_names:
                assert family.power(theta, alpha) == phi_expectation_by_tails(model, scan, theta)


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_pvalue_decision_coherence(case):
    model, statistic = case
    assert decision_coherence_witness(model, statistic) is None
    assert decision_coherence_witness(model, build_agreeing_ranking(model, statistic)) is None


@given(small_models(), st.integers(0, 13))
@settings(max_examples=40, deadline=None)
def test_randomized_pvalues_uniform(case, numerator):
    model, statistic = case
    t = Fraction(numerator, 13)
    for source in (statistic, build_agreeing_ranking(model, statistic)):
        forms = engine_forms(pvalue_family(model, source))
        assert randomized_cdf_at(model, "t0", forms, t) == t


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_md_tie_mass_never_exceeds_t_tie_mass(case):
    model, statistic = case
    t_forms = engine_forms(pvalue_family(model, statistic))
    md_forms = engine_forms(pvalue_family(model, build_agreeing_ranking(model, statistic)))
    for i in range(model.size):
        assert md_forms.b[i] <= t_forms.b[i]


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_md_natural_attains_every_rank_cumulative(case):
    # as many support points as possible: one distinct natural value per rank
    model, statistic = case
    ranking = build_agreeing_ranking(model, statistic)
    family = pvalue_family(model, ranking)
    null = model.probs("t0")
    running = Fraction(0)
    expected = set()
    for index in ranking.order():
        running += null[index]
        expected.add(running)
    attained = {family.evaluate(i, 1) for i in range(model.size)}
    assert attained == expected
    assert len(attained) == model.size


@given(small_models())
@settings(max_examples=40, deadline=None)
def test_natural_decisions_nested_and_level(case):
    model, statistic = case
    ranking = build_agreeing_ranking(model, statistic)
    t_family, md_family = pvalue_family(model, statistic), pvalue_family(model, ranking)
    for alpha in breakpoints(scan_pvalue_family(model, statistic), scan_pvalue_family(model, ranking)):
        t_nat = brute_expectation(
            model, "t0", lambda pt: Fraction(1) if t_family.evaluate(pt, 1) <= alpha else Fraction(0))
        md_nat = brute_expectation(
            model, "t0", lambda pt: Fraction(1) if md_family.evaluate(pt, 1) <= alpha else Fraction(0))
        assert t_nat <= md_nat <= alpha


@st.composite
def _ranked_statistics(draw):
    """A 1-9 point model, a tie-rich statistic, and an agreeing ranking with its ties shuffled, or any permutation."""
    n = draw(st.integers(1, 9))
    model = make_model([f"x{i}" for i in range(n)], {"t0": "1/2"}, {"t0": [Fraction(1, n)] * n})
    statistic = make_statistic(model, "s", draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        ranking = shuffled_agreeing_ranking(model, statistic, seed=draw(st.integers(0, 2**16)))
    else:
        ranking = Ranking(tuple(draw(st.permutations(range(1, n + 1)))))
    return model, statistic, ranking


@given(_ranked_statistics())
@settings(max_examples=300, deadline=None)
def test_the_oracle_gate_over_all_pairs_gives_the_verdict_of_verify_agreement(case):
    """The claims oracle's gate compares statistic values over all pairs; the engine's scans class indices in
    rank order.  Both give one verdict, and on a refused ranking the same witness pair."""
    model, statistic, ranking = case
    assert check_agreement(model, statistic, ranking) == verify_agreement(model, statistic, ranking)


def test_random_suite_smoke():
    """A couple of seeded random models run the full claim suite cleanly.

    The fifty-model version is acceptance criterion 8; this keeps a quick
    guard in the unit suite.
    """
    from mdpvalues import verify_all_claims

    rng = random.Random(2024)
    for _ in range(3):
        model, statistic = random_model_and_statistic(rng, max_support=24)
        ranking = build_agreeing_ranking(model, statistic)
        assert verify_agreement(model, statistic, ranking) == (True, None)
        reports = verify_all_claims(model, statistic, ranking, ["t0", "t1"])
        assert all(r.verdict in ("pass", "skipped") for r in reports)
        assert all(r.verdict == "pass" for r in reports if r.claim in
                   ("C1", "C2", "C3", "C4", "C5", "C7", "C9"))


# Metamorphic relations: two runs of the engine on inputs that must give the same answer, no oracle needed.

@st.composite
def _model_file_forms(draw):
    """A 2-8 point, two-parameter model file, written reduced, unreduced entry by entry, and over a common multiple."""
    n = draw(st.integers(2, 8))
    rows = {}
    for name, low in (("theta0", 1), ("theta1", 0)):
        weights = draw(st.lists(st.integers(low, 9), min_size=n, max_size=n).filter(any))
        rows[name] = [Fraction(w, sum(weights)) for w in weights]
    factors = st.sampled_from([1, 2, 3, 6, 7, 10, 2**40])
    forms = ([], [], [])
    for row in rows.values():
        scale = math.lcm(*(v.denominator for v in row)) * draw(factors)
        forms[0].append([f"{v.numerator}/{v.denominator}" for v in row])
        ks = draw(st.lists(factors, min_size=n, max_size=n))
        forms[1].append([f"{v.numerator * k}/{v.denominator * k}" for v, k in zip(row, ks)])
        forms[2].append([f"{v.numerator * (scale // v.denominator)}/{scale}" for v in row])
    return [{"parameters": {"theta0": "1/2", "theta1": "3/4"}, "support": [f"x{i}" for i in range(n)],
             "pmf": dict(zip(rows, form))} for form in forms]


@given(_model_file_forms())
@settings(max_examples=40, deadline=None)
def test_rows_written_unreduced_or_over_a_common_multiple_verify_to_the_same_bytes(files):
    """``mdpv verify --model FILE`` reads a row's value, not its text: k*n/k*d and n/d give one reports.json."""
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, data in enumerate(files):
            model_path, out = Path(tmp) / f"m{i}.json", Path(tmp) / f"v{i}"
            model_path.write_text(json.dumps(data), encoding="utf-8")
            assert main(["verify", "--model", str(model_path), "--out", str(out)]) == 0
            written.append((out / "reports.json").read_bytes())
    assert written[1] == written[0] and written[2] == written[0]


@st.composite
def _theta_grids(draw):
    """A 2-8 point model with three parameters, a tie-rich statistic, a theta grid, and that grid reordered with repeats.

    Each non-null row is random or the null tilted by a weight per statistic value, so the statistic is
    sufficient on some grids and C6 runs there.
    """
    n = draw(st.integers(2, 8))
    values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    null = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    rows = {"t0": null}
    for name in ("t1", "t2"):
        if draw(st.booleans()):
            tilt = draw(st.lists(st.integers(1, 9), min_size=4, max_size=4))
            rows[name] = [w * tilt[v] for w, v in zip(null, values)]
        else:
            rows[name] = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    model = make_model([f"x{i}" for i in range(n)], {"t0": "1/2", "t1": "3/4", "t2": "1/4"},
                       {name: [Fraction(w, sum(row)) for w in row] for name, row in rows.items()})
    ranking = Ranking(tuple(draw(st.permutations(range(1, n + 1)))))
    grid = draw(st.lists(st.sampled_from(list(rows)), min_size=1, max_size=3, unique=True))
    repeats = draw(st.lists(st.sampled_from(grid), max_size=3))
    return model, make_statistic(model, "s", values), ranking, grid, draw(st.permutations(grid + repeats))


@given(_theta_grids())
@settings(max_examples=60, deadline=None)
def test_theta_grid_order_and_repeats_leave_c1_c3_c6_unchanged(case):
    """C1, C3 and C6 quantify over every theta of the grid, so only the grid's set of thetas can matter.

    The ranking is any permutation, the agreement check switched off, so that C1 and C3 fail with
    nonzero worst margins too.  Notes are not compared: a skipped C6 names the first theta, in grid
    order, at which sufficiency fails.
    """
    model, statistic, ranking, grid, shuffled = case

    def outcome(thetas):
        reports = verify_all_claims(model, statistic, ranking, thetas)
        return {r.claim: (r.verdict, r.worst_margin) for r in reports if r.claim in ("C1", "C3", "C6")}

    with agreement_gates_opened():
        assert outcome(shuffled) == outcome(grid)


def _permuted_support(model, statistic, ranking, rng):
    """The same model, statistic and ranking with the support points listed in a random order."""
    order = list(range(model.size))
    rng.shuffle(order)
    labels = [model.support[i].label for i in order]
    pmf = {theta: [model.probs(theta)[i] for i in order] for theta in model.parameter_names}
    permuted = make_model(labels, {"t0": "1/2", "t1": "3/4"}, pmf)
    by_rank = [model.support[i].label for i in ranking.order()]
    return (permuted, make_statistic(permuted, statistic.name, [statistic.values[i] for i in order]),
            ranking_from_order(permuted, by_rank))


UNMET = "hypothesis unmet: conditional law given [s="


def test_permuting_the_support_leaves_reports_unchanged_but_an_unmet_note():
    """Listing the support in another order, the ranking mapped with it, writes the same reports.json.

    Except for one note: a C6 or C8 skipped for an unmet sufficiency hypothesis names its first failing
    point, and ``_sufficiency`` visits the tie classes in order of first appearance in the support, so
    another order can name another point, or another class.  Those notes are compared by their prefix only.
    """
    rng = random.Random(1414)
    differing_notes = 0
    for index in range(300):
        model, statistic = random_model_and_statistic(rng, max_support=12)
        if index % 2:
            model, statistic = tilted_to_sufficiency(rng, model, statistic)
        ranking = shuffled_agreeing_ranking(model, statistic, seed=index)
        texts = ["".join(orders.reports_to_json(verify_all_claims(*case, ["t0", "t1"])))
                 for case in ((model, statistic, ranking), _permuted_support(model, statistic, ranking, rng))]
        if texts[0] == texts[1]:
            continue
        pair = [json.loads(text) for text in texts]
        for reports in pair:
            for report in reports:
                if report["verdict"] == "skipped" and report["note"].startswith(UNMET):
                    assert report["claim"] in ("C6", "C8")
                    report["note"] = UNMET
        assert pair[0] == pair[1], index
        differing_notes += 1
    assert differing_notes > 0  # the exclusion is needed on these models
