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

import claims_oracle
from claims_oracle import (
    atom_cdf,
    breakpoints,
    pointwise_projection,
    randomized_cdf_at,
    reference_claims,
    reports_json,
    scan_pvalue_family,
)
from conftest import lattice_cdf, random_model_and_statistic, shuffled_agreeing_ranking, tilted_to_sufficiency


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


def test_failing_claims_match_reference(monkeypatch):
    """With the agreement gate opened, shuffled rankings make claims fail; witnesses match too.

    Only C1-C5 and C7 are compared with the oracle: C6, C8 and C9 are proved from the agreement
    that the patch removes, so the engine passes them on any class tables whose lattices equal
    their recounts, and shuffled rankings fail only the natural-order claims.
    """
    for module in (orders, claims_oracle):
        monkeypatch.setattr(module, "verify_agreement", lambda *args: (True, None))
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


def test_direct_json_writer_matches_json_dumps(monkeypatch):
    """reports_to_json writes json.dumps' indent=2, sort_keys=True layout itself, escapes and all."""
    assert "".join(reports_to_json([])) == reports_json([]) == "[]\n"
    for module in (orders, claims_oracle):
        monkeypatch.setattr(module, "verify_agreement", lambda *args: (True, None))
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


def claim_report(claim, model, statistic, ranking):
    return next(r for r in verify_all_claims(model, statistic, ranking, ["theta0", "theta1"]) if r.claim == claim)


def c5_report(model, statistic, ranking):
    return claim_report("C5", model, statistic, ranking)


def shift_one_unit(family, theta):
    """Move one unit of theta mass from the heaviest class to a neighbour: the lattice still totals D_theta."""
    den, mass, _ = family.lattice(theta)
    mass = list(mass)
    heavy = mass.index(max(mass))
    mass[heavy] -= 1
    mass[heavy - 1 if heavy else 1] += 1
    family._by_theta[theta] = (den, tuple(mass), tuple(accumulate(mass, initial=0)))
    return family


def assert_null_identity_fails(model, statistic, ranking, margin, witness):
    """C5 and the proofs of C8 and C9 read the same null identity and fail at its first class off its recount."""
    reports = {r.claim: r for r in verify_all_claims(model, statistic, ranking, ["theta0", "theta1"])}
    for claim in ("C5", "C8", "C9"):
        report = reports[claim]
        assert (report.verdict, report.worst_margin, report.witness) == ("fail", margin, witness), claim
    return reports


def test_c5_fails_on_a_wrong_null_class_mass(monkeypatch):
    """A family whose null lattice moves one unit of mass between classes still totals D, but C5 sees it."""
    model = binomial_model(3, ["1/2", "3/4"])  # null class masses 1, 3, 3, 1 over 8
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    assert c5_report(model, lr, ranking).verdict == "pass"

    monkeypatch.setattr(orders, "pvalue_family", lambda model, source: shift_one_unit(
        pvalue_family(model, source), model.null))
    report = c5_report(model, lr, ranking)
    assert report.grid == tuple(Fraction(x, 16) for x in (0, 4, 8, 14, 16))  # the kinks of the shifted lattices
    assert_null_identity_fails(model, lr, ranking, Fraction(-1, 8),
                               "T family, theta0: class 0 mass 1/4 vs recount 1/8")


def null_lattice_patch(model, sources, mass, before):
    """``pvalue_family`` with the null lattice of each of ``sources``' families replaced by (mass, before)."""

    def patched(model, source):
        family = pvalue_family(model, source)
        if any(source is s for s in sources):
            family._by_theta[model.null] = (family.lattice(model.null)[0], mass, before)
        return family

    return patched


def test_c5_fails_on_a_zero_mass_null_class(monkeypatch):
    """Both null lattices (1, 3, 4, 0)/8 for a 1, 3, 3, 1 row: each randomized CDF is still the diagonal at every
    kink (0, 1/8, 1/2 and 1), since the class of zero mass starts at 1, but class 2 holds 1/2, not its points' 3/8."""
    model = binomial_model(3, ["1/2", "3/4"])
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    patch = null_lattice_patch(model, (lr, ranking), (1, 3, 4, 0), (0, 1, 4, 8, 8))
    monkeypatch.setattr(orders, "pvalue_family", patch)
    assert c5_report(model, lr, ranking).grid == tuple(Fraction(x, 16) for x in (0, 2, 8, 16))
    reports = assert_null_identity_fails(model, lr, ranking, Fraction(-1, 8),
                                         "T family, theta0: class 2 mass 1/2 vs recount 3/8")
    assert reports["C6"].witness == reports["C5"].witness


def test_c5_fails_on_a_shifted_null_class_start(monkeypatch):
    """Masses equal to their recounts but class 1 starting at 2/8, not 1/8: the start half of the identity."""
    model = binomial_model(3, ["1/2", "3/4"])
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    monkeypatch.setattr(orders, "pvalue_family", null_lattice_patch(model, (lr,), (1, 3, 3, 1), (0, 2, 4, 7, 8)))
    assert_null_identity_fails(model, lr, ranking, Fraction(-1, 8),
                               "T family, theta0: class 1 start 1/4 vs recount 1/8")


def test_c6_fails_on_a_wrong_theta_class_mass(monkeypatch):
    """The sufficiency gate sums the theta class masses again from the row, so a wrong theta lattice
    fails C6 instead of closing the gate and skipping it."""
    model = binomial_model(3, ["1/2", "3/4"])  # theta1 class masses 27, 27, 9, 1 over 64
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    ranking = build_agreeing_ranking(model, lr)
    assert claim_report("C6", model, lr, ranking).verdict == "pass"

    def shifted(model, source):
        family = pvalue_family(model, source)
        return shift_one_unit(family, "theta1") if source is lr else family

    monkeypatch.setattr(orders, "pvalue_family", shifted)
    report = claim_report("C6", model, lr, ranking)
    assert report.verdict == "fail" and report.worst_margin == Fraction(-1, 64)
    assert report.witness == "T family, theta1: class 0 mass 13/32 vs recount 27/64"


@pytest.mark.parametrize(
    "broken, witness",
    [
        # the last class repeats '11111', so both lattices total 33/32
        (lambda members: (*members[:-1], members[-1] + members[0][:1]),
         "T family, theta0: class 5 mass 1/16 vs recount 1/32"),
        # the second class drops a point: one of the T family's five with four ones
        (lambda members: (members[0], members[1][1:], *members[2:]),
         "T family, theta0: class 1 mass 1/8 vs recount 5/32"),
    ],
    ids=["repeated", "missing"],
)
def test_c5_fails_when_classes_do_not_partition_the_support(monkeypatch, example1, lr, table1_ranking, broken, witness):
    """C5 re-sums each point once into its own class, so member lists that miss or repeat a point fail it.

    Both families read each point's class from their source's ``class_of``, not from the broken
    members, so the recount sees every point once while the lattice sums the broken members.
    """

    def unpartitioned(model, source):
        family = pvalue_family(model, source)
        return replace(family, members=broken(family.members))

    monkeypatch.setattr(orders, "pvalue_family", unpartitioned)
    assert_null_identity_fails(example1, lr, table1_ranking, Fraction(-1, 32), witness)


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
    """Lattices equal to their recounts prove C6, C8 and C9 with margin 0 on agreeing inputs, no alpha swept."""
    model = BENCHMARK_SHAPES[shape]()
    lr = likelihood_ratio_statistic(model, "theta0", "theta1")
    reports = verify_all_claims(model, lr, shuffled_agreeing_ranking(model, lr, seed=1), ["theta0", "theta1"])
    assert [r.verdict for r in reports] == ["pass"] * 9
    assert [str(r.worst_margin) for r in reports if r.claim in ("C6", "C8", "C9")] == ["0"] * 3


def tied_sufficient_model():
    """T classes {a}, {b, c}, {d}; the heaviest MD class, c, and its neighbour b share a T class under both thetas."""
    model = make_model(["a", "b", "c", "d"], {"theta0": "1/2", "theta1": "3/4"},
                       {"theta0": ["2/10", "3/10", "4/10", "1/10"], "theta1": ["2/24", "9/24", "12/24", "1/24"]})
    statistic = make_statistic(model, "s", [2, 1, 1, 0])
    return model, statistic, build_agreeing_ranking(model, statistic)


def family_reference(claim, model, t_family, md_family, thetas):
    """C6 or C8 per alpha on Fractions, from the two families' own tests, as the claims oracle words them."""
    scale = 2 * model.int_row(model.null)[0]
    alphas = [Fraction(x, scale) for x in alpha_lattice(scale, t_family, md_family)]
    margins = []
    for alpha in alphas:
        if claim == "C8":
            report = pointwise_projection(model, t_family.test(alpha), md_family.test(alpha))
            margins.append((report.worst_margin, f"alpha={alpha}: {report.witness}"))
            continue
        for theta in thetas:
            e_t, e_md = t_family.power(theta, alpha), md_family.power(theta, alpha)
            margins.append((-abs(e_t - e_md), f"theta={theta}, alpha={alpha}: {e_t} vs {e_md}"))
    return claims_oracle._worst(claim, alphas, margins)


@pytest.mark.parametrize(
    "theta, claim, witness",
    [
        ("theta0", "C8", "MD family, theta0: class 1 mass 2/5 vs recount 3/10"),
        ("theta1", "C6", "MD family, theta1: class 1 mass 5/12 vs recount 3/8"),
    ],
    ids=["null-mass", "theta-mass"],
)
def test_a_unit_moved_between_md_classes_of_one_t_class_declines_the_proof(monkeypatch, theta, claim, witness):
    """One unit of mass moved from MD class c to b, inside T class {b, c}: the MD classes still nest, but the
    lattice no longer equals its recount, so the claim fails at b, and so does the per-alpha check."""
    model, statistic, ranking = tied_sufficient_model()
    thetas = ["theta0", "theta1"]
    assert all(r.passed for r in verify_all_claims(model, statistic, ranking, thetas))

    def shifted(model, source):
        family = pvalue_family(model, source)
        return shift_one_unit(family, theta) if source is ranking else family

    monkeypatch.setattr(orders, "pvalue_family", shifted)
    reports = {r.claim: r for r in verify_all_claims(model, statistic, ranking, thetas)}
    report = reports[claim]
    assert report.verdict == "fail" and report.witness == witness
    assert report.worst_margin == -Fraction(1, model.int_row(theta)[0])
    # The null shift fails every proof that reads the null lattice; a theta shift only C6's.
    failed = {r.claim for r in reports.values() if r.verdict == "fail"}
    assert failed == ({"C5", "C6", "C8", "C9"} if claim == "C8" else {"C6"})
    expected = family_reference(claim, model, pvalue_family(model, statistic), shifted(model, ranking), thetas)
    assert expected.verdict == "fail" and expected.grid == report.grid


def test_broken_nesting_declines_the_proof():
    """A ranking that puts b before a breaks the nesting of the MD classes in the T classes, which C6, C8 and
    C9 are proved from: the engine and the claims oracle both refuse it and name the pair that disagrees."""
    model, statistic, _ = tied_sufficient_model()
    ranking = Ranking((2, 1, 3, 4))
    for verify in (verify_all_claims, reference_claims):
        with pytest.raises(OrdersError, match=r"does not agree with statistic: witness \('a', 'b'\)"):
            verify(model, statistic, ranking, ["theta0", "theta1"])


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
