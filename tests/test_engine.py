"""The integer-lattice engine against the per-grid-point Fraction reference, byte for byte."""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest

from mdpvalues import (
    OrdersError,
    Ranking,
    bernoulli_product_model,
    binomial_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_model,
    make_statistic,
    pvalue_family,
    verify_all_claims,
)
from mdpvalues import orders
from mdpvalues.orders import _threshold_classes, reports_to_json
from mdpvalues.testing import alpha_lattice

from claims_oracle import (
    atom_cdf,
    breakpoints,
    randomized_cdf_at,
    reference_claims,
    reports_json,
    scan_pvalue_family,
)
from conftest import (
    agreement_gates_opened,
    lattice_cdf,
    random_model_and_statistic,
    shuffled_agreeing_ranking,
    tilted_to_sufficiency,
)


def assert_same_reports(model, statistic, ranking, thetas):
    engine = "".join(reports_to_json(verify_all_claims(model, statistic, ranking, thetas)))
    assert engine == "".join(reports_to_json(reference_claims(model, statistic, ranking, thetas)))
    return engine


def test_random_models_match_reference():
    rng = random.Random(1729)
    skipped = 0
    for index in range(30):
        model, statistic = random_model_and_statistic(rng, max_support=40)
        if index % 2 == 0:
            model, statistic = tilted_to_sufficiency(rng, model, statistic)
        ranking = shuffled_agreeing_ranking(model, statistic, seed=index)
        engine = assert_same_reports(model, statistic, ranking, ["t0", "t1"])
        skipped += '"verdict": "skipped"' in engine
    assert 0 < skipped < 30  # both the gated and the sufficient paths ran


PRIMES = [p for p in range(101, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]


def coprime_model_and_statistic(rng, size):
    """A random model whose rows put a distinct prime under every point but the last.

    The last point takes the remainder, so each row's common denominator is
    the product of its primes: D_theta grows to the sum of their bit-lengths.
    """
    primes = rng.sample(PRIMES, 2 * (size - 1))
    pmf = {}
    for name, row_primes in (("t0", primes[: size - 1]), ("t1", primes[size - 1 :])):
        row = [Fraction(rng.randint(1, p // size), p) for p in row_primes]
        pmf[name] = [*row, 1 - sum(row)]
    labels = [f"x{i:03d}" for i in range(size)]
    model = make_model(labels, {"t0": "1/2", "t1": "3/4"}, pmf)
    assert model.int_row("t0")[0] == math.prod(primes[: size - 1])
    statistic = make_statistic(model, "s", [Fraction(rng.randint(0, 5)) for _ in range(size)])
    return model, statistic


def test_coprime_denominator_models_match_reference():
    rng = random.Random(2357)
    for index in range(8):
        model, statistic = coprime_model_and_statistic(rng, rng.randint(2, 30))
        if index % 2 == 0:
            model, statistic = tilted_to_sufficiency(rng, model, statistic)
        ranking = shuffled_agreeing_ranking(model, statistic, seed=index)
        assert_same_reports(model, statistic, ranking, ["t0", "t1"])


@agreement_gates_opened()
def test_failing_claims_match_reference():
    """With both agreement gates opened, shuffled rankings make claims fail; witnesses match too.

    Only C1-C5 and C7 are compared with the oracle: C6, C8 and C9 are proved from the agreement
    that the patch removes, so the engine passes them on any ranking, and shuffled rankings fail
    only the natural-order claims.
    """
    rng = random.Random(3)
    failed, c1_witnesses = set(), []
    compared = ("C1", "C2", "C3", "C4", "C5", "C7")
    for index in range(20):
        model, statistic = random_model_and_statistic(rng, max_support=14)
        if index % 2 == 0:
            model, statistic = tilted_to_sufficiency(rng, model, statistic)
        ranks = list(range(1, model.size + 1))
        rng.shuffle(ranks)
        ranking = Ranking(tuple(ranks))
        thetas = ["t0", "t1"]
        engine = [r for r in verify_all_claims(model, statistic, ranking, thetas) if r.claim in compared]
        oracle = [r for r in reference_claims(model, statistic, ranking, thetas) if r.claim in compared]
        assert "".join(reports_to_json(engine)) == "".join(reports_to_json(oracle))
        failures = [r for r in engine if r.verdict == "fail"]
        failed.update(r.claim for r in failures)
        c1_witnesses += [r.witness for r in failures if r.claim == "C1"]
    assert failed == {"C1", "C2", "C3", "C4"}
    assert any(w.startswith(("F_T@t0(", "F_T@t1(")) and "vs MD@t" in w for w in c1_witnesses)


def escaped_names(model, statistic):
    """The model and statistic again, with labels and names that JSON must escape: quotes, backslashes, non-ASCII."""
    names = {"t0": 'th\u00e9ta"0', "t1": "th\u00e9ta\\1"}
    labels = [f'"x{i}\\\u2603' for i in range(model.size)]
    renamed = make_model(labels, {names[n]: v for n, v in model.parameters.items()},
                         {names[n]: model.probs(n) for n in model.parameter_names})
    return renamed, make_statistic(renamed, 's"\\\u03bb', statistic.values), list(names.values())


@agreement_gates_opened()
def test_direct_json_writer_matches_json_dumps():
    """reports_to_json writes json.dumps' indent=2, sort_keys=True layout itself, escapes and all."""
    assert "".join(reports_to_json([])) == reports_json([]) == "[]\n"
    rng = random.Random(5)
    verdicts, escapes = set(), set()
    for index in range(12):
        model, statistic = random_model_and_statistic(rng, max_support=12)
        if index % 2 == 0:
            model, statistic = tilted_to_sufficiency(rng, model, statistic)
        model, statistic, thetas = escaped_names(model, statistic)
        ranks = list(range(1, model.size + 1))
        if index % 3:
            rng.shuffle(ranks)
        ranking = Ranking(tuple(ranks))
        for grid in (thetas, []):
            reports = verify_all_claims(model, statistic, ranking, grid)
            text = "".join(reports_to_json(reports))
            assert text == reports_json(reports)
            verdicts.update(r.verdict for r in reports)
            escapes.update(e for e in ('\\"', "\\\\", "\\u") if e in text)
            assert json.loads(text)[0]["claim"] == "C1"
    assert verdicts == {"pass", "fail", "skipped"} and len(escapes) == 3


def test_empty_theta_grid_matches_reference(example1, lr, table1_ranking):
    engine = assert_same_reports(example1, lr, table1_ranking, [])
    assert engine.count('"verdict": "skipped"') == 3


def shift_one_unit(family, theta):
    """Move one unit of theta mass from the heaviest class to a neighbour: the lattice still totals D_theta."""
    den, mass, _ = family.lattice(theta)
    mass = list(mass)
    heavy = mass.index(max(mass))
    mass[heavy] -= 1
    mass[heavy - 1 if heavy else 1] += 1
    family._by_theta[theta] = (den, tuple(mass), tuple(accumulate(mass, initial=0)))
    return family


SHIFTED_MODELS = {
    "binomial-3": lambda: binomial_model(3, ["1/2", "3/4"]),
    "example1": lambda: bernoulli_product_model(5, ["1/2", "4/5"]),
}


@pytest.mark.parametrize("shape", list(SHIFTED_MODELS))
@pytest.mark.parametrize("side", ["T", "MD"])
@pytest.mark.parametrize("theta", ["theta0", "theta1"])
def test_a_unit_moved_between_classes_changes_reports_against_the_oracle(monkeypatch, shape, side, theta):
    """A family whose cached theta lattice moves one unit of mass between two classes still totals D_theta.

    The engine reports C5, C6, C8 and C9 as proved on every accepted input, so the evidence that its
    lattices are right is the per-alpha oracle, which scans the support itself: each such shift, null or
    theta1, of the T or the MD family, changes the engine's reports.json away from the oracle's.
    """
    model = SHIFTED_MODELS[shape]()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    thetas = ["theta0", "theta1"]
    assert_same_reports(model, lr, ranking, thetas)
    shifted_source = lr if side == "T" else ranking

    def shifted(model, source):
        family = pvalue_family(model, source)
        return shift_one_unit(family, theta) if source is shifted_source else family

    monkeypatch.setattr(orders, "pvalue_family", shifted)
    engine = "".join(reports_to_json(verify_all_claims(model, lr, ranking, thetas)))
    assert engine != "".join(reports_to_json(reference_claims(model, lr, ranking, thetas)))


BENCHMARK_SHAPES = {
    "bernoulli-5": lambda: bernoulli_product_model(5, ["1/2", "4/5"]),
    "bernoulli-7": lambda: bernoulli_product_model(7, ["1/2", "4/5"]),
    "binomial-100": lambda: binomial_model(100, ["1/2", "5/7"]),
}


@pytest.mark.parametrize("shape", list(BENCHMARK_SHAPES))
def test_benchmark_shapes_with_shuffled_rankings_match_reference(shape):
    """Bernoulli products and binomial(100), the sizes the verify benchmarks run, each with a shuffled agreeing ranking."""
    model = BENCHMARK_SHAPES[shape]()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = shuffled_agreeing_ranking(model, lr, seed=model.size)
    assert_same_reports(model, lr, ranking, ["theta0", "theta1"])


@pytest.mark.parametrize("shape", ["bernoulli-7", "binomial-100"])
def test_agreeing_inputs_prove_c6_c8_c9_without_their_sweeps(shape):
    """Agreeing inputs prove C6, C8 and C9 with margin 0, no alpha swept."""
    model = BENCHMARK_SHAPES[shape]()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    reports = verify_all_claims(model, lr, shuffled_agreeing_ranking(model, lr, seed=1), ["theta0", "theta1"])
    assert [r.verdict for r in reports] == ["pass"] * 9
    assert [str(r.worst_margin) for r in reports if r.claim in ("C6", "C8", "C9")] == ["0"] * 3


def test_broken_nesting_declines_the_proof():
    """A ranking that puts b before a breaks the nesting of the MD classes in the T classes {a}, {b, c}, {d},
    which C6, C8 and C9 are proved from: the engine and the claims oracle both refuse it and name the pair."""
    model = make_model(["a", "b", "c", "d"], {"theta0": "1/2", "theta1": "3/4"},
                       {"theta0": ["2/10", "3/10", "4/10", "1/10"], "theta1": ["2/24", "9/24", "12/24", "1/24"]})
    statistic = make_statistic(model, "s", [2, 1, 1, 0])
    ranking = Ranking((2, 1, 3, 4))
    for verify in (verify_all_claims, reference_claims):
        with pytest.raises(OrdersError, match=r"does not agree with statistic: witness \('a', 'b'\)"):
            verify(model, statistic, ranking, ["theta0", "theta1"])


def skips_every_other_adjacent_pair(model, statistic, ranking):
    """A mutant of ``verify_agreement`` that checks only the adjacent pairs at ranks (1, 2), (3, 4), ..."""
    by_rank = ranking.order()
    for a, b in zip(by_rank[::2], by_rank[1::2]):
        if statistic.class_of[a] > statistic.class_of[b]:
            return False, (model.support[b].label, model.support[a].label)
    return True, None


def test_engine_vs_oracle_catches_a_gate_that_skips_adjacent_pairs(monkeypatch):
    """The oracle's gate checks every pair of points itself, so a mutant engine gate does not carry over.

    The identity ranking of statistic (1, 0, 1, 0) has class indices 0, 1, 0, 1 in rank order: its only
    inversions are at ranks 2 and 3, which the mutant never compares, so the mutant engine proves C6, C8
    and C9 on it while the oracle refuses it as both real gates do.
    """
    model = make_model(list("abcd"), {"theta0": "1/2", "theta1": "3/4"},
                       {"theta0": ["1/4"] * 4, "theta1": ["3/8", "1/8", "3/8", "1/8"]})
    statistic = make_statistic(model, "s", [1, 0, 1, 0])
    ranking = Ranking((1, 2, 3, 4))
    refused = r"does not agree with statistic: witness \('c', 'b'\)"
    for verify in (verify_all_claims, reference_claims):
        with pytest.raises(OrdersError, match=refused):
            verify(model, statistic, ranking, ["theta0", "theta1"])
    monkeypatch.setattr(orders, "verify_agreement", skips_every_other_adjacent_pair)
    reports = verify_all_claims(model, statistic, ranking, ["theta0", "theta1"])
    assert [r.verdict for r in reports if r.claim in ("C6", "C8", "C9")] == ["pass"] * 3
    with pytest.raises(OrdersError, match=refused):
        assert_same_reports(model, statistic, ranking, ["theta0", "theta1"])


def test_table_power_is_the_randomized_cdf():
    """Pr_theta{P(X, U) <= t} read off the class table equals the sum over the support."""
    rng = random.Random(13)
    for _ in range(20):
        model, statistic = random_model_and_statistic(rng, max_support=30)
        for source in (statistic, shuffled_agreeing_ranking(model, statistic, seed=3)):
            family, points = pvalue_family(model, source), scan_pvalue_family(model, source)
            grid = set(breakpoints(points)) | {Fraction(rng.randint(0, 89), 89) for _ in range(10)}
            for theta in ("t0", "t1"):
                for t in sorted(grid):
                    assert family.power(theta, t) == randomized_cdf_at(model, theta, points, t)


def test_family_cdf_matches_merged_atoms():
    """The engine's CDF, its class jumps (``orders._jumps``) against ``lattice(theta)``, equals the scan's atom merge."""
    rng = random.Random(21)
    for _ in range(20):
        model, statistic = random_model_and_statistic(rng, max_support=30)
        for source in (statistic, shuffled_agreeing_ranking(model, statistic, seed=4)):
            family, points = pvalue_family(model, source), scan_pvalue_family(model, source)
            for theta in ("t0", "t1"):
                for u in (0, Fraction(1, 4), Fraction(1, 2), 1):
                    assert lattice_cdf(family, theta, u) == atom_cdf(model, theta, points, u)


def test_natural_cdf_at_a_kink_is_the_theta_mass_before_its_threshold_class():
    """What C1-C4 read: at an alpha kink t < 1, Pr_theta{P(X, 1) <= t} = before_theta[k(t)] / D_theta.

    Against the scan's atom merge, for agreeing, shuffled agreeing and shuffled non-agreeing rankings.
    Under the null the value is at most t, and equals t exactly at the family's own class starts.
    """
    rng = random.Random(34)
    for index in range(20):
        model, statistic = random_model_and_statistic(rng, max_support=30)
        shuffled = list(range(1, model.size + 1))
        rng.shuffle(shuffled)
        scale = 2 * model.int_row(model.null)[0]
        agreeing = build_agreeing_ranking(model, statistic), shuffled_agreeing_ranking(model, statistic, seed=index)
        for ranking in (*agreeing, Ranking(tuple(shuffled))):
            sources = (statistic, ranking)
            families = [pvalue_family(model, source) for source in sources]
            kinks = alpha_lattice(scale, *families)[::2][:-1]
            for family, source in zip(families, sources):
                points = scan_pvalue_family(model, source)
                classes = _threshold_classes(family, kinks)
                starts = {2 * s for s in family.lattice(model.null)[2]}
                for theta in ("t0", "t1"):
                    den, _mass, before = family.lattice(theta)
                    cdf = atom_cdf(model, theta, points, 1)
                    for x, k in zip(kinks, classes):
                        t, value = Fraction(x, scale), Fraction(before[k], den)
                        assert cdf.evaluate(t) == value, (index, theta, t)
                        if theta == model.null:
                            assert value <= t and (value == t) == (x in starts), (index, t)


def test_support_1024_verifies_within_budget():
    """N = 2^10: about 91 s by per-alpha rebuilds; here C1-C5 sweep the alpha grid and C6, C8 and C9 are proved."""
    model = bernoulli_product_model(10, ["1/2", "4/5"])
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = shuffled_agreeing_ranking(model, lr, seed=10)
    start = time.perf_counter()
    reports = verify_all_claims(model, lr, ranking, ["theta0", "theta1"])
    elapsed = time.perf_counter() - start
    assert [r.verdict for r in reports] == ["pass"] * 9
    assert elapsed < 20.0, f"N=1024 took {elapsed:.1f}s"


def test_oracle_usual_order_catches_an_engine_mutant(monkeypatch, example1, lr, table1_ranking):
    """The oracle's C1-C4 do not run through the engine's _natural_order, so a bug there shows as a mismatch.

    The engine's C1 and C2 are C3 and C4 read on the alpha grid, not separate _natural_order
    sweeps, so the grid-dropping mutant moves C3 and C4 only.
    """
    real = orders._natural_order

    def drops_last_grid_point(*args):
        report = real(*args)
        return replace(report, grid_num=report.grid_num[:-1])

    monkeypatch.setattr(orders, "_natural_order", drops_last_grid_point)
    thetas = ["theta0", "theta1"]
    engine = {r.claim: "".join(reports_to_json([r])) for r in verify_all_claims(example1, lr, table1_ranking, thetas)}
    oracle = {r.claim: "".join(reports_to_json([r])) for r in reference_claims(example1, lr, table1_ranking, thetas)}
    usual = ("C3", "C4")
    assert all(engine[claim] != oracle[claim] for claim in usual)
    assert all(engine[claim] == oracle[claim] for claim in engine if claim not in usual)
