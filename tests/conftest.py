"""Shared fixtures, the brute-force expectation oracle, the decision-coherence check, random model factory.

Also the engine's own p-values in the oracle's types, for tests that check
the engine with the oracle's helpers: ``engine_forms`` and ``lattice_cdf``;
agreeing rankings with each tie class in a seeded random order:
``shuffled_agreeing_ranking``; both agreement gates, the engine's and the
oracle's, opened for a block or a test: ``agreement_gates_opened``; a random model redrawn so that its statistic
is sufficient: ``tilted_to_sufficiency``; and the exact probability that a family's
size-alpha decision hinges on its auxiliary u: ``randomization_dependence_prob``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from mdpvalues import (
    bernoulli_product_model,
    build_agreeing_ranking,
    likelihood_ratio_statistic,
    make_model,
    make_statistic,
    orders,
    pvalue_family,
    ranking_from_order,
)
from mdpvalues.orders import _jumps
from mdpvalues.registry import table1_ranking as build_table1_ranking

import claims_oracle
from claims_oracle import PointForms, StepCDF, breakpoints, scan_pvalue_family, scan_size_alpha_test


def brute_expectation(model, theta, fn):
    """Straight-line enumeration oracle: sum_x p_theta(x) * fn(x), exact."""
    row = model.probs(theta)
    return sum((row[pt.index] * fn(pt) for pt in model.support), Fraction(0))


def engine_forms(family) -> PointForms:
    """The engine's per-point linear forms, read through ``PValueFamily.evaluate``: a = P(x, 0), b = P(x, 1) - a."""
    a = tuple(family.evaluate(i, 0) for i in range(family.model.size))
    return PointForms(a, tuple(family.evaluate(i, 1) - start for i, start in enumerate(a)))


def lattice_cdf(family, theta, u) -> StepCDF:
    """The engine's law of P(X, u) under theta, as its claims sweep it: ``orders._jumps`` against ``lattice(theta)``."""
    u = Fraction(u)
    scale = family.lattice(family.model.null)[0] * u.denominator
    theta_den, _mass, before = family.lattice(theta)
    return StepCDF(tuple(Fraction(j, scale) for j in _jumps(family, u)),
                   tuple(Fraction(b, theta_den) for b in before[1:]))


def shuffled_agreeing_ranking(model, statistic, seed):
    """An agreeing ranking with each tie class in a seeded random order, given as an explicit rank order."""
    rng = random.Random(seed)
    key = {pt.label: (statistic.class_of[pt.index], rng.random()) for pt in model.support}
    return ranking_from_order(model, sorted(key, key=key.__getitem__))


@contextmanager
def agreement_gates_opened():
    """``orders.verify_agreement`` and ``claims_oracle.check_agreement`` accept every ranking; also a decorator."""
    accept = lambda *args: (True, None)
    with mock.patch.object(orders, "verify_agreement", accept), mock.patch.object(claims_oracle, "check_agreement", accept):
        yield


COHERENCE_US = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def decision_coherence_witness(model, source):
    """First (label, alpha, u) where I(P(x,u) <= alpha) differs from the scan's test, else None.

    Cross-checks ``PValueFamily.evaluate`` against the oracle's size-alpha
    test, which rejects x at u when its zone is > 0, or 0 and u <= gamma, at
    every breakpoint alpha and at u in ``COHERENCE_US``.
    """
    family = pvalue_family(model, source)
    for alpha in breakpoints(scan_pvalue_family(model, source)):
        test = scan_size_alpha_test(model, source, alpha)
        for pt in model.support:
            zone = test.zone(pt)
            for u in COHERENCE_US:
                if (family.evaluate(pt, u) <= alpha) != (zone > 0 or (zone == 0 and u <= test.gamma)):
                    return pt.label, alpha, u
    return None


def randomization_dependence_prob(theta: str, family, alpha) -> Fraction:
    """Exact Pr_theta{phi_alpha(X) in (0,1)}: how often the family's size-alpha decision hinges on u.

    That is the theta mass of the threshold class when 0 < gamma < 1.
    """
    k, gamma = family.threshold(alpha)
    if not 0 < gamma < 1:
        return Fraction(0)
    den, mass, _ = family.lattice(theta)
    return Fraction(mass[k], den)


def random_model_and_statistic(rng: random.Random, max_support: int = 64):
    """A random finite model with rational pmfs and a tie-rich statistic.

    The lexicographic tie-break then yields a random injective ranking, so
    the pair exercises the generic-agreement path of every claim.
    """
    n = rng.randint(2, max_support)
    labels = [f"x{i:03d}" for i in range(n)]
    w0 = [rng.randint(1, 99) for _ in range(n)]
    w1 = [rng.randint(1, 99) for _ in range(n)]
    model = make_model(
        labels,
        {"t0": "1/2", "t1": "3/4"},
        {
            "t0": [Fraction(w, sum(w0)) for w in w0],
            "t1": [Fraction(w, sum(w1)) for w in w1],
        },
    )
    values = [Fraction(rng.randint(0, 7)) for _ in range(n)]
    statistic = make_statistic(model, "s", values)
    return model, statistic


def tilted_to_sufficiency(rng, model, statistic):
    """Redraw t1 as t0 tilted by a weight per statistic value, so the statistic is sufficient."""
    weight = {value: rng.randint(1, 9) for value in set(statistic.values)}
    t0 = model.probs("t0")
    raw = [p * weight[v] for p, v in zip(t0, statistic.values)]
    total = sum(raw)
    pmf = {"t0": list(t0), "t1": [w / total for w in raw]}
    tilted = make_model([pt.label for pt in model.support], {"t0": "1/2", "t1": "3/4"}, pmf)
    return tilted, make_statistic(tilted, statistic.name, statistic.values)


@pytest.fixture(scope="session")
def example1():
    """Five iid fair-vs-0.8 coins; the worked model behind the golden values."""
    return bernoulli_product_model(5, ["1/2", "4/5"])


@pytest.fixture(scope="session")
def lr(example1):
    return likelihood_ratio_statistic(example1, "theta0", "theta1")


@pytest.fixture(scope="session")
def lex_ranking(example1, lr):
    return build_agreeing_ranking(example1, lr)


@pytest.fixture(scope="session")
def table1_ranking(example1):
    """The ranking whose first eight ranks match the reference table."""
    return build_table1_ranking(example1)
