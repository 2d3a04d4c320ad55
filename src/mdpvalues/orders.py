"""Exact verification of the ordering claims C1-C9 on the integer lattice of two class tables.

Universally quantified claims ("for all alpha", "for all t") are discharged
on finite grids: every asserted quantity is piecewise linear in the grid
variable, with kinks only at attained null tail probabilities (or CDF jump
points), so checking kinks plus midpoints is equivalent to checking
everywhere.  All comparisons are exact; each claim returns an OrderReport
carrying the grid, a signed worst margin (pass iff >= 0) and a witness on
failure.

The engine takes each source's class table once, the statistic's tie
classes and the ranking's one class per rank, through one path
(``testing.pvalue_family``), and then works on
integers only.  Each pmf row is held as numerators over its common
denominator D_theta, so class masses, class starts and theta prefixes are
ints; the alpha grid (class starts of both families, 0, 1 and the
midpoints) is ints over 2 * D_null.  Counting each family's class starts
among its kinks gives the threshold class k(alpha) there, which C1-C4
read; C5, C6, C8 and C9 are proved, no margin formed:

  - C3 and C4 read the natural CDFs at the kinks (the grid without
    midpoints), each the theta mass before the threshold class there
    (``_natural_order``); C1 and C2 are their reports on the alpha grid, as
    a natural test rejects iff P <= alpha: E_theta[d_alpha] = F_theta(alpha);
  - C5 holds for every t: each family's null class masses are its points'
    null masses, summed by ``class_of``, and their prefix sums the class
    starts, so the classes tile [0, 1] and P(X, U) is uniform on each; it
    is reported on the kinks (0, 1 and the class starts of both families);
  - C6, C8 and C9 hold for every ranking that agrees with the statistic,
    which ``verify_all_claims`` checks first; each is reported as passing on
    the grid a sweep of its margins would use, like C5;
  - the CDF of P(X, u) at a fixed u = g / h jumps once per class, by its
    theta mass, at start * h + g * mass over h * D_null (``_jumps``); C9's
    grid is the mid-p (u = 1/2) jumps of both families.

Each claim's margins are ints over one positive denominator, and each
report keeps its grid as the sorted ints it was swept on, over that
sweep's scale (``grid_num`` over ``grid_den``).  Only the worst margin and
a failure's witness become Fractions, at the failing grid point or class.
``reports_to_json`` rescales each shared grid object once (C1, C2, C6 and
C8 hold the alpha grid, C3 and C4 its steps, all over 2 * D_null), reduces
and prints each distinct grid point once, and yields the JSON in pieces,
one report grid at most per piece.  No step CDF is built as an object: the
claims sweep the class jumps and theta prefixes, and ``mdpv cdf`` prints
the same lattice columns.

Claim summary, for a statistic T and an agreeing one-to-one ranking R:
  C1  natural MD decisions dominate in power at every theta and alpha (C3 on the alpha grid)
  C2  level sandwich under the null: E0[dT] <= E0[dMD] <= alpha (C4 on the alpha grid)
  C3  usual stochastic order of natural p-values at every theta
  C4  null sandwich of natural p-value CDFs: F_T <= F_MD <= t
  C5  randomized p-values are exactly uniform under the null
  C6  equal power functions when T is sufficient
  C7  tie mass (hence auxiliary-u variance) is minimal pointwise for MD
  C8  martingale projection of the MD test onto the T test, per alpha
  C9  convex-order chain of mid-p-values via integrated CDFs
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence

from .model import DiscreteModel, UsageError, refuse_string
from .ranking import Ranking, Statistic, verify_agreement
from .rational import decimal_ratio, format_ratios
from .testing import PValueFamily, alpha_lattice, pvalue_family

class OrdersError(UsageError):
    """Precondition failure in an ordering check."""


def _jumps(family: PValueFamily, u: Fraction) -> list[int]:
    """The CDF jumps of P(X, u) at a fixed u = g / h: start * h + g * mass per class, ints over h * D_null."""
    g, h = u.numerator, u.denominator
    _den, mass, before = family.lattice(family.model.null)
    return [s * h + g * m for s, m in zip(before, mass)]


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one exact ordering verification.

    Grid point i is ``grid_num[i] / grid_den``, not necessarily in lowest
    terms.
    """

    claim: str
    verdict: str  # "pass" | "fail" | "skipped"
    grid_num: tuple[int, ...]
    grid_den: int
    worst_margin: Fraction | None
    witness: str | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def grid(self) -> tuple[Fraction, ...]:
        """The grid as ``Fraction``s, derived anew on each read."""
        return tuple(Fraction(n, self.grid_den) for n in self.grid_num)


def _claim(
    claim: str,
    grid: Sequence[int],
    grid_den: int,
    margins: list[int],
    denominator: int,
    witness: Callable[[int], str],
    note: str | None = None,
) -> OrderReport:
    """Report the first worst of ``margins``, ints over ``denominator`` > 0, on ``grid`` over ``grid_den``.

    A failure's witness is ``witness(index)``.
    """
    least = min(margins)
    grid = tuple(grid)
    if least >= 0:
        return OrderReport(claim, "pass", grid, grid_den, Fraction(least, denominator), None, note)
    return OrderReport(claim, "fail", grid, grid_den, Fraction(least, denominator), witness(margins.index(least)), note)


def _natural_order(claim: str, families: Sequence[PValueFamily], steps: tuple[int, ...],
                   classes: Sequence[Sequence[int]], thetas: Sequence[str],
                   labels: Callable[[str], tuple[str, str]]) -> OrderReport:
    """One report for F_A <= F_B, the natural p-value CDFs of families (A, B), under each of ``thetas``.

    ``steps`` is the alpha grid's kinks after 0, ints over 2 D_null up to
    2 D_null, and ``classes`` holds each family's threshold class k at each
    of them.  A natural CDF jumps at class ends only, each of them a kink,
    so the steps suffice for all t; they are the report's grid, held as
    given.  Every null class has positive mass, so the classes ending at or
    below a step t < 1 are those before k: F_theta(t) is before_theta[k],
    and D_theta at t = 1, over D_theta.  ``labels(theta)`` names A and B.
    """
    scale, (ks_a, ks_b) = steps[-1], classes
    den = math.lcm(*(families[0].lattice(theta)[0] for theta in thetas))
    margins = []
    for theta in thetas:
        (d, _, before_a), (_, _, before_b) = (family.lattice(theta) for family in families)
        f = den // d
        margins += [(before_b[b] - before_a[a]) * f for a, b in zip(ks_a[:-1], ks_b[:-1])]
        margins.append(0)  # t = 1, where both CDFs are 1

    def witness(index: int) -> str:
        theta, i = thetas[index // len(steps)], index % len(steps)
        (d, _, before_a), (_, _, before_b) = (family.lattice(theta) for family in families)
        (label_a, label_b), value, bound = labels(theta), Fraction(before_a[ks_a[i]], d), Fraction(before_b[ks_b[i]], d)
        return f"F_{label_a}({Fraction(steps[i], scale)}) = {value} vs {label_b} bound {bound}"

    return _claim(claim, steps, scale, margins, den, witness)


def _threshold_classes(family: PValueFamily, kinks: Iterable[int]) -> list[int]:
    """Threshold class k(alpha) at each alpha = x / (2 D) of sorted ``kinks`` that hold every class start.

    k is the number of class starts in (0, x], so it counts the kinks up to
    x that are starts: s / D is the kink 2 s.
    """
    _den, _mass, before = family.lattice(family.model.null)
    starts = {2 * s for s in before[1:-1]}
    return list(accumulate(map(starts.__contains__, kinks), initial=0))[1:]


def _sufficiency(t_family: PValueFamily, thetas: Sequence[str]) -> tuple[bool, str | None]:
    """(True, None) iff the conditional laws given each statistic value match across ``thetas``, else a witness.

    Division-free cross-ratio test within each tie class, visited in order
    of first appearance in the support:
    p_theta(x) * m_base(class) == p_base(x) * m_theta(class), which also
    handles classes with zero mass under some theta (vacuously equal).
    Masses under one theta share its denominator, so the cross-ratio is an
    identity between integer numerators, the class masses of
    ``t_family.lattice(theta)``.
    """
    model = t_family.model
    classes: dict[int, list[int]] = {}
    for i, k in enumerate(t_family.class_of):
        classes.setdefault(k, []).append(i)
    base = thetas[0]
    base_row, base_mass = model.int_row(base)[1], t_family.lattice(base)[1]
    for theta in thetas[1:]:
        row, mass = model.int_row(theta)[1], t_family.lattice(theta)[1]
        for k, points in classes.items():
            for i in points:
                if row[i] * base_mass[k] != base_row[i] * mass[k]:
                    statistic, point = t_family.source, model.support[i]
                    return False, (
                        f"conditional law given [{statistic.name}={statistic.value(point)}] differs: "
                        f"point {point.label!r} under {theta} vs {base}"
                    )
    return True, None


def verify_all_claims(
    model: DiscreteModel,
    statistic: Statistic,
    ranking: Ranking,
    thetas: Sequence[str],
) -> list[OrderReport]:
    """Run the full C1-C9 suite; one report per claim.

    ``thetas`` is the parameter grid for the claims quantified over theta
    (C1, C3, C6); null-only claims always run against the model's null.
    C6 and C8 are gated on sufficiency of the statistic and report
    "skipped" with a note when the hypothesis is unmet.  C8's proof below
    reads the null only, but the paper states the projection under
    sufficiency, where it holds under every theta, so C8 keeps that
    hypothesis.  Every grid comes
    from the two families' class starts, plus 0 and 1 (and midpoints for alpha).

    C4 checks F_T <= F_MD, not F_MD <= t: t - F_MD(t) = t - (last MD class
    end <= t) is never negative, on a subset of the F_T <= F_MD grid, whose
    margin at t = 1 is 0, so C4's grid, worst margin, verdict and witness are
    the full sandwich's; ``tests/claims_oracle.py`` checks F_MD <= t on its own.

    C5 is the null identity: each family's null class mass m_k is the null
    mass of its points, summed by ``class_of``, and its start s_k the mass of
    the classes before it; every class has a point (the ``Statistic`` and
    ``Ranking`` constructors refuse a class without one) and the null pmf is
    positive (``DiscreteModel`` refuses a zero), so every m_k > 0.  Then
    P(X, U) is uniform on [s_k, s_k + m_k] given X in k, so P is uniform on
    [0, 1].

    C6, C8 and C9 are proved, no margin formed, from the agreement that
    ``verify_agreement`` checks first: the T class of each point, read in
    rank order, never falls, so the MD classes split each T class
    k = [s_k, s_k + m_k] in rank order, all masses positive, and the MD
    threshold class r lies in k(alpha).
      - C8: ranks before k are below r, ranks after k above it, and k's null
        mass ranked before r is s_r - s_k, so every margin is 0.
      - C9: k's MD mid-p atoms average to T's atom s_k + m_k / 2, so by Jensen
        I_MD - I_T and s^2 / 2 - I_MD are 0 at class starts and >= 0 between;
        both means are 1/2, and the plateau points F(s) = s are the MD starts.
      - C6, given the gate's zero cross-ratios e(x) = p_theta(x) M_0(k) -
        p_0(x) M_theta(k): E_T - E_MD = -(sum of e(x) over x in k ranked
        before r, plus gamma_MD e(r)) / M_0(k) = 0.
    A proved report passes with worst margin 0 on the grid a sweep of its
    margins would use (C9's note ``means (1/2, 1/2)``), as does C5, on the
    kinks.  The per-alpha reference in ``tests/claims_oracle.py`` forms
    every margin of these claims from its own scan of the support, so the
    tests that compare it with this engine catch a wrong lattice.
    """
    refuse_string(thetas, "thetas must be a list of parameter names", OrdersError)
    ok, witness = verify_agreement(model, statistic, ranking)
    if not ok:
        raise OrdersError(f"ranking does not agree with statistic: witness {witness}")
    thetas = list(thetas)
    null = model.null
    t_family, md_family = families = pvalue_family(model, statistic), pvalue_family(model, ranking)
    den, t_mass, _ = t_family.lattice(null)
    _, md_mass, md_before = md_family.lattice(null)
    # The alpha grid: ints over 2 * D_null, which carries every class start and midpoint.  Every
    # integer helper below reads alpha = x / (2 * D_null), a class start s / D_null as 2 * s.
    scale = 2 * den
    grid = alpha_lattice(scale, *families)
    # The kinks are the alpha grid without midpoints; C3 and C4 share its steps, the kinks after 0, and read both
    # families' threshold classes k(alpha) there.
    kinks = grid[::2]
    steps = kinks[1:]
    step_classes = tuple(_threshold_classes(family, steps) for family in families)

    grid_thetas = list(dict.fromkeys([null, *thetas]))
    sufficient, suff_witness = _sufficiency(t_family, grid_thetas)

    def proved(claim: str, grid: Iterable[int], note: str | None = None) -> OrderReport:
        return OrderReport(claim, "pass", tuple(grid), scale, Fraction(0), None, note)

    def no_thetas(claim: str) -> OrderReport:
        return OrderReport(claim, "skipped", (), 1, None, None, "empty theta grid")

    def unmet(claim: str) -> OrderReport:
        return OrderReport(claim, "skipped", (), 1, None, None, f"hypothesis unmet: {suff_witness}")

    # C3 and C4: usual stochastic order of natural p-values, read at the kinks (C4 as the docstring says).
    c3 = (_natural_order("C3", families, steps, step_classes, thetas, lambda theta: (f"T@{theta}", f"MD@{theta}"))
          if thetas else no_thetas("C3"))
    c4 = _natural_order("C4", families, steps, step_classes, [null], lambda theta: ("T", "MD"))
    # C1 and C2: a natural test has E_theta[d_alpha] = F_theta(alpha), so they are C3 and C4 on the alpha
    # grid: 0 (every margin 0), every jump, and midpoints, where F_MD - F_T keeps its value at the point
    # before and t - F_MD is larger.  So the worst margin and the first worst witness are C3's and C4's.
    c1 = replace(c3, claim="C1", grid_num=grid, grid_den=scale) if thetas else no_thetas("C1")
    reports = [c1, replace(c4, claim="C2", grid_num=grid, grid_den=scale), c3, c4]

    # C5: randomized p-values exactly uniform under the null, proved on the kinks.
    reports.append(proved("C5", kinks))

    # C6: equal power functions under sufficiency, proved on the alpha grid.
    if not thetas:
        reports.append(no_thetas("C6"))
    else:
        reports.append(proved("C6", grid) if sufficient else unmet("C6"))

    # C7: pointwise minimal tie mass, hence minimal auxiliary-u variance.
    margins = [t_mass[k] - md_mass[r] for k, r in zip(t_family.class_of, md_family.class_of)]
    reports.append(_claim("C7", (), 1, margins, den, lambda i: f"point {model.support[i].label!r}",
                          "checked at every support point"))

    # C8: martingale projection at every alpha of the grid (gated on sufficiency).
    reports.append(proved("C8", grid) if sufficient else unmet("C8"))

    # C9: convex-order chain of mid-p-values, on both families' mid-p jumps, the MD class starts (the
    # plateau points) and 1.
    points = {*_jumps(t_family, Fraction(1, 2)), *_jumps(md_family, Fraction(1, 2)), *(2 * s for s in md_before[1:])}
    reports.append(proved("C9", sorted(points), "means (1/2, 1/2)"))

    return reports


def _margin_texts(margin: Fraction) -> tuple[str, str]:
    """``format_rational`` and ``decimal_string(margin, 9)`` of a worst margin, read off its terms."""
    n, d = margin.numerator, margin.denominator
    return f"{n}/{d}", decimal_ratio(n, d, 9)


def _string(value: str | None) -> str:
    """``json.dumps`` of a str or None, by the encoder that it calls."""
    return "null" if value is None else encode_basestring_ascii(value)


def reports_to_json(reports: Sequence[OrderReport]) -> Iterator[str]:
    """The reports as JSON, every rational as "num/den" in lowest terms, as an iterator of pieces.

    Join the pieces for the text, or pass them to a file's ``writelines``:
    no piece holds more than one report's grid, so the whole text is never
    held at once.  Each distinct grid object is rescaled to the lcm of the
    reports' grid denominators once (C1, C2, C6 and C8 share the alpha grid,
    and C3 and C4 its steps), and each distinct point of those grids is
    reduced and printed once, by one ``format_ratios``.  The text is the layout of
    ``json.dumps(..., indent=2, sort_keys=True)``, written directly: grid
    entries are digits and "/", which need no escaping, and the scalar
    fields go through ``json.dumps``' own string encoder.
    """
    if not reports:
        yield "[]\n"
        return
    scale = math.lcm(*(r.grid_den for r in reports))
    grids = {}  # (id, denominator) of each distinct grid object -> its numerators over scale
    for r in reports:
        key, c = (id(r.grid_num), r.grid_den), scale // r.grid_den
        if key not in grids:
            grids[key] = r.grid_num if c == 1 else list(map(c.__mul__, r.grid_num))
    points = list(dict.fromkeys(chain.from_iterable(grids.values())))
    text = dict(zip(points, format_ratios(points, scale)))
    for i, r in enumerate(reports):
        margin = r.worst_margin
        worst = (None, None) if margin is None else _margin_texts(margin)
        yield f'{"," if i else "["}\n  {{\n    "claim": {_string(r.claim)},\n    "grid": '
        grid = grids[id(r.grid_num), r.grid_den]
        if grid:
            yield '[\n      "'
            yield '",\n      "'.join(map(text.__getitem__, grid))
            yield '"\n    ]'
        else:
            yield "[]"
        yield (f',\n    "note": {_string(r.note)},\n    "verdict": {_string(r.verdict)},\n'
               f'    "witness": {_string(r.witness)},\n    "worst_margin": {_string(worst[0])},\n'
               f'    "worst_margin_dec": {_string(worst[1])}\n  }}')
    yield "\n]\n"


def reports_to_text(reports: Sequence[OrderReport]) -> str:
    lines = [f"{'claim':<6} {'verdict':<8} {'worst margin':<24} {'grid':>6}  note"]
    for r in reports:
        margin = "-" if r.worst_margin is None else "{} ({})".format(*_margin_texts(r.worst_margin))
        detail = r.witness if r.verdict == "fail" else (r.note or "-")
        lines.append(f"{r.claim:<6} {r.verdict:<8} {margin:<24} {len(r.grid_num):>6}  {detail}")
    return "\n".join(lines) + "\n"
