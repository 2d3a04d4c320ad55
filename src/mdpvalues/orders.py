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
midpoints) is ints over 2 * D_null.  One two-pointer sweep of it against
each family's sorted class starts gives the threshold class k(alpha) at
every grid point, which C1-C6 and C8 read; only C9 sweeps its own grid.
C6, C8 and C9 sweep only where ``verify_all_claims`` cannot prove them:

  - the size-alpha test at alpha keeps the last class starting at or below
    alpha, so the power behind C6 is before_theta[k] + gamma * mass_theta[k],
    and the two families' powers are compared by cross-multiplication at
    the kinks of the alpha grid only, where the first worst gap lies, since
    both powers are linear between the class starts of either family; its
    sufficiency gate sums the theta class masses again from the pmf rows;
  - C5 holds for every t: the randomized null CDF, rebuilt from class masses
    summed again point by point, is checked at its kinks (0, 1 and the
    class starts of both families), so a wrong class mass makes it fail;
  - C8 is decided per threshold class: the largest rank before it and the
    smallest rank after it give the sure-reject and sure-retain margins,
    and a rank-ordered null-mass prefix inside it gives the tie average;
  - C3 and C4 read the natural CDFs at the kinks (the grid without
    midpoints), each the theta mass before the threshold class there
    (``_natural_order``); C1 and C2 are their reports on the alpha grid, as
    a natural test rejects iff P <= alpha: E_theta[d_alpha] = F_theta(alpha);
  - the CDF of P(X, u) at a fixed u = g / h jumps once per class, by its
    theta mass, at start * h + g * mass over h * D_null (``_jumps``); C9
    integrates the mid-p CDFs (u = 1/2) as integer prefixes of cum * width.

Each claim's margins are ints over one positive denominator, and each
report keeps its grid as the sorted ints it was swept on, over that
sweep's scale (``grid_num`` over ``grid_den``).  Only the worst margin and
a failure's witness become Fractions: a witness is rebuilt at its grid
point alone on Fractions, through ``PValueFamily.power`` (C6) or a
point-by-point C8 check; a proved C6, C8 or C9 forms neither.
``reports_to_json`` reduces and prints each distinct grid point once and
yields the JSON text in pieces, one report grid at most per piece, so
``mdpv verify`` writes it without ever holding it whole.  No step CDF is
built as an object: the claims sweep the class jumps and theta prefixes,
and ``mdpv cdf`` prints the same lattice columns.

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

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Sequence

from .model import DiscreteModel, UsageError
from .ranking import Ranking, Statistic, verify_agreement
from .rational import decimal_string, format_ratios, format_rational
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


def _counts(steps: Sequence[int], grid: Iterable[int]) -> list[int]:
    """For each point of a sorted grid, how many of the sorted ``steps`` lie at or below it.

    Both are ints on one scale; the step pointer only moves forward.
    """
    out = []
    j, n = 0, len(steps)
    for x in grid:
        while j < n and steps[j] <= x:
            j += 1
        out.append(j)
    return out


def _claim(
    claim: str,
    grid: Sequence[int],
    grid_den: int,
    margins: Sequence[int],
    denominator: int,
    witness: Callable[[int], str],
    note: str | None = None,
) -> OrderReport:
    """Report the first worst of ``margins``, ints over ``denominator`` > 0, on ``grid`` over ``grid_den``.

    A failure's witness is ``witness(index)``.
    """
    i = min(range(len(margins)), key=margins.__getitem__)
    worst = Fraction(margins[i], denominator)
    grid = tuple(grid)
    if margins[i] >= 0:
        return OrderReport(claim, "pass", grid, grid_den, worst, None, note)
    return OrderReport(claim, "fail", grid, grid_den, worst, witness(i), note)


def _one_denominator(margins: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Rewrite (numerator, denominator) margins over one denominator, the lcm of the nonzero ones' (1 if none)."""
    margins = list(margins)
    den = math.lcm(*(d for n, d in margins if n))
    return [n * (den // d) if n else 0 for n, d in margins], den


def _natural_order(claim: str, families: Sequence[PValueFamily], kinks: Sequence[int],
                   classes: Sequence[Sequence[int]], thetas: Sequence[str],
                   labels: Callable[[str], tuple[str, str]]) -> OrderReport:
    """One report for F_A <= F_B, the natural p-value CDFs of families (A, B), under each of ``thetas``.

    ``kinks`` is the alpha grid without midpoints, ints over 2 D_null from
    0 to 2 D_null, and ``classes`` holds each family's threshold class k at
    each kink.  A natural CDF jumps at class ends only, each of them a kink,
    so the kinks after 0 suffice for all t; they are the report's grid, over
    D_null.  Every null class has positive mass, so the classes ending at or
    below a kink t < 1 are those before k: F_theta(t) is before_theta[k],
    and D_theta at t = 1, over D_theta.  ``labels(theta)`` names A and B.
    """
    grid, null_den = [x // 2 for x in kinks[1:]], kinks[-1] // 2
    den = math.lcm(*(families[0].lattice(theta)[0] for theta in thetas))
    margins, cdfs = [], []
    for theta in thetas:
        d = families[0].lattice(theta)[0]
        f = den // d
        cdf_a, cdf_b = ([*map(fam.lattice(theta)[2].__getitem__, ks[1:-1]), d] for fam, ks in zip(families, classes))
        margins.extend((b - a) * f for a, b in zip(cdf_a, cdf_b))
        cdfs.append((theta, d, cdf_a, cdf_b))

    def witness(index: int) -> str:
        (theta, d, cdf_a, cdf_b), i = cdfs[index // len(grid)], index % len(grid)
        (label_a, label_b), value, bound = labels(theta), Fraction(cdf_a[i], d), Fraction(cdf_b[i], d)
        return f"F_{label_a}({Fraction(grid[i], null_den)}) = {value} vs {label_b} bound {bound}"

    return _claim(claim, grid, null_den, margins, den, witness)


def _convex_order_chain(t_family: PValueFamily, md_family: PValueFamily, claim: str) -> OrderReport:
    """Convex-order chain of mid-p-values under the null, for the families of an agreeing pair.

    The margins: both mid-p means equal 1/2 exactly, and at every jump of
    either mid-p CDF (plus interior plateau critical points and s = 1) the
    integrated CDFs satisfy

        int_0^s F_T-mid  <=  int_0^s F_MD-mid  <=  s^2 / 2.

    With equal means this is the convex order itself, so it already
    implies E0[phi(P)] ordered for every convex phi, hinges, squares and
    -2 log included; no separate probe margin is needed.

    Mid-p jumps 2 * start + mass are ints over 2D, the null CDF after each
    jump is an int over D, so integrated CDFs are ints over 2D^2 and every
    margin, s^2 / 2 included, is an int over 8D^2.
    """
    den = t_family.model.int_row(t_family.model.null)[0]
    two, square = 2 * den, den * den
    sides = []
    for family in (t_family, md_family):
        _, mass, before = family.lattice(family.model.null)
        jumps = _jumps(family, Fraction(1, 2))
        cum = before[1:]
        tops = jumps[1:] + [two]
        plateaus = {2 * c for c, left, right in zip(cum, jumps, tops) if left < 2 * c < right}
        areas = list(accumulate((c * (right - left) for c, left, right in zip(cum, jumps, jumps[1:])), initial=0))
        mean = sum(m * j for m, j in zip(mass, jumps))
        sides.append((jumps, cum, areas, plateaus, mean))
    (jumps_t, _, _, plateaus_t, mean_t), (jumps_md, _, _, plateaus_md, mean_md) = sides

    points = sorted(set(jumps_t).union(jumps_md, (two,), plateaus_t, plateaus_md))
    lower, middle = (
        [0 if j == 0 else areas[j - 1] + cum[j - 1] * (s - jumps[j - 1]) for s, j in zip(points, _counts(jumps, points))]
        for jumps, cum, areas, _, _ in sides
    )
    margins = [-4 * abs(mean_t - square), -4 * abs(mean_md - square)]
    for s, low, mid in zip(points, lower, middle):
        margins.append(4 * (mid - low))
        margins.append(s * s - 4 * mid)

    def witness(index: int) -> str:
        if index < 2:
            return f"mean of {('T', 'MD')[index]} mid-p is {Fraction((mean_t, mean_md)[index], 2 * square)}"
        i, upper = divmod(index - 2, 2)
        s, low, mid = Fraction(points[i], two), Fraction(lower[i], 2 * square), Fraction(middle[i], 2 * square)
        if upper:
            return f"integrated CDFs at s={s}: MD {mid} vs uniform {s * s / 2}"
        return f"integrated CDFs at s={s}: T {low} vs MD {mid}"

    note = f"means ({Fraction(mean_t, 2 * square)}, {Fraction(mean_md, 2 * square)})"
    return _claim(claim, points, two, margins, 8 * square, witness, note)


def _threshold_classes(family: PValueFamily, grid: Sequence[int]) -> list[int]:
    """Threshold class k(alpha) at each alpha = x / (2 D) of a sorted grid: the last class starting at or below it.

    A start s / D lies at or below x / (2 D) iff 2 s <= x.
    """
    _den, _mass, before = family.lattice(family.model.null)
    return [n - 1 for n in _counts([2 * s for s in before[:-1]], grid)]


def _recount(family: PValueFamily, theta: str) -> list[int]:
    """Each class's theta mass summed again from the pmf row, each point once into its own class, over D_theta."""
    mass = [0] * len(family.keys)
    for p, k in zip(family.model.int_row(theta)[1], family.class_of):
        mass[k] += p
    return mass


def _uniformity_gaps(family: PValueFamily, summed: Sequence[int], grid: Sequence[int],
                     classes: Sequence[int]) -> list[tuple[int, int]]:
    """(F(t) - t) * mass_k * 2 D and mass_k at each t = x / (2 D) of a grid, F = Pr_0{P(X, U) <= t}.

    ``classes`` holds the threshold class k of each t, and
    F(t) - t = (prior_k - start_k) + (summed_k - mass_k) * (t - start_k) / mass_k:
    ``summed`` holds the masses summed again from the null row (``_recount``), against the lattice.
    """
    _den, mass, before = family.lattice(family.model.null)
    offsets = [(a - b) * m * 2 for a, b, m in zip(accumulate(summed, initial=0), before, mass)]
    excess = [s - m for s, m in zip(summed, mass)]
    return [(offsets[k] + excess[k] * (x - before[k] * 2), mass[k]) for x, k in zip(grid, classes)]


def _projection_margins(
    t_family: PValueFamily,
    md_family: PValueFamily,
    grid: Sequence[int],
    t_classes: Sequence[int],
    md_classes: Sequence[int],
) -> list[tuple[int, int]]:
    """Worst margin of the C8 projection identity at each alpha = x / (2 D), as (numerator, denominator).

    At alpha = grid[i] the T test has threshold class k = t_classes[i] and
    the MD test threshold class r = md_classes[i], the point of rank r + 1,
    with randomization gamma_MD.  Ranks are read 0-based, as the MD
    family's ``class_of``.  A sure-rejection point (class before k) has
    margin 0, gamma_MD - 1 or -1 as its rank is below, at or above r, so
    the largest rank before class k decides them all; the sure-retention
    side is decided by the smallest rank after class k.  With gamma =
    (alpha - start) / mass, all three margins share mass_T[k] * mass_MD[r] * 2.
    """
    _den, t_mass, t_before = t_family.lattice(t_family.model.null)
    _, md_mass, md_before = md_family.lattice(md_family.model.null)
    ranks = md_family.class_of
    null_row = t_family.model.int_row(t_family.model.null)[1]
    by_rank = [sorted((ranks[i], null_row[i]) for i in members) for members in t_family.members]
    class_ranks = [[rank for rank, _ in pairs] for pairs in by_rank]
    below = [tuple(accumulate((m for _, m in pairs), initial=0)) for pairs in by_rank]
    before_max = list(accumulate((r[-1] for r in class_ranks), max, initial=-1))
    after_min = [len(ranks)] * (len(class_ranks) + 1)
    for k in range(len(class_ranks) - 1, -1, -1):
        after_min[k] = min(after_min[k + 1], class_ranks[k][0])

    out = []
    current, j = -1, 0
    for x, k, r in zip(grid, t_classes, md_classes):
        inside = class_ranks[k]
        if k != current:
            current, j = k, 0
        while j < len(inside) and inside[j] < r:
            j += 1
        m_k, m_r = t_mass[k], md_mass[r]
        q = m_r * 2  # gamma_MD = u_md / q and gamma_T = u_t / (m_k * 2)
        u_t, u_md = x - t_before[k] * 2, x - md_before[r] * 2
        value = below[k][j] * q
        if j < len(inside) and inside[j] == r:
            value += u_md * by_rank[k][j][1]
        total = m_k * q
        top, bottom = before_max[k], after_min[k + 1]
        reject = -total if top > r else ((u_md - q) * m_k if top == r else 0)
        retain = -total if bottom < r else (-u_md * m_k if bottom == r else 0)
        out.append((min(-abs(value - u_t * m_r), reject, retain), total))
    return out


def _projection_witness(t_family: PValueFamily, md_family: PValueFamily, alpha: Fraction) -> str:
    """Why E0[phi_MD | phi_T] = phi_T fails at one alpha: its first worst point in support order.

    Grouped by the T test's threshold zones: the sure-rejection class must
    have phi_MD = 1 pointwise, the sure-retention class phi_MD = 0, and on
    the threshold class the null-conditional average of phi_MD, checked
    last, must equal gamma(alpha).
    """
    t_test, md_test = t_family.test(alpha), md_family.test(alpha)
    model = t_family.model
    row = model.int_row(model.null)[1]  # the common denominator cancels in the average
    margins: list[tuple[Fraction, str]] = []
    tie_mass, tie_value = 0, Fraction(0)
    for pt in model.support:
        zone = t_test.zone(pt)
        phi_md = md_test.phi(pt)
        if zone > 0:
            margins.append((-abs(phi_md - 1), f"phi_MD({pt.label}) = {phi_md} on the sure-rejection class"))
        elif zone < 0:
            margins.append((-abs(phi_md), f"phi_MD({pt.label}) = {phi_md} on the sure-retention class"))
        else:
            tie_mass += row[pt.index]
            tie_value += row[pt.index] * phi_md
    average = tie_value / tie_mass
    margins.append((-abs(average - t_test.gamma), f"threshold class average {average} vs gamma {t_test.gamma}"))
    return min(margins, key=lambda margin: margin[0])[1]


def _sufficiency(t_family: PValueFamily, thetas: Sequence[str]) -> tuple[bool, str | None]:
    """(True, None) iff the conditional laws given each statistic value match across ``thetas``, else a witness.

    Division-free cross-ratio test within each tie class, visited in order
    of first appearance in the support:
    p_theta(x) * m_base(class) == p_base(x) * m_theta(class), which also
    handles classes with zero mass under some theta (vacuously equal).
    Masses under one theta share its denominator, so the cross-ratio is an
    identity between integer numerators.  The class masses are summed
    again from each row, not read off the family's lattice, so a wrong
    lattice mass cannot close the gate: C6 reads the lattice and fails.
    """
    model, members = t_family.model, t_family.members
    order = sorted(range(len(members)), key=lambda k: members[k][0])
    base = thetas[0]
    base_row, base_mass = model.int_row(base)[1], _recount(t_family, base)
    for theta in thetas[1:]:
        row, mass = model.int_row(theta)[1], _recount(t_family, theta)
        for k in order:
            for i in members[k]:
                if row[i] * base_mass[k] != base_row[i] * mass[k]:
                    return False, (
                        f"conditional law given [{t_family.source.name}={t_family.keys[k]}] differs: "
                        f"point {model.support[i].label!r} under {theta} vs {base}"
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
    "skipped" with a note when the hypothesis is unmet.  Every grid comes
    from the two families' class starts, plus 0 and 1 (and midpoints for alpha).

    C4 checks F_T <= F_MD, not F_MD <= t: t - F_MD(t) = t - (last MD class
    end <= t) is never negative, on a subset of the F_T <= F_MD grid, whose
    margin at t = 1 is 0, so C4's grid, worst margin, verdict and witness are
    the full sandwich's.  C5 sums the class masses again from the null row,
    and ``tests/claims_oracle.py`` checks F_MD <= t on its own.

    C6, C8 and C9 are proved, no margin formed, when (N) the T class of each
    point, read in rank order, never falls and (R) both null lattices equal
    C5's recount: the MD classes then split each T class k = [s_k, s_k + m_k]
    in rank order, all masses positive; the MD threshold class r lies in k(alpha).
      - C8: ranks before k are below r, ranks after k above it, and k's null
        mass ranked before r is s_r - s_k, so every margin is 0.
      - C9: k's MD mid-p atoms average to T's atom s_k + m_k / 2, so by Jensen
        I_MD - I_T and s^2 / 2 - I_MD are 0 at class starts and >= 0 between;
        both means are 1/2, and the plateau points F(s) = s are the MD starts.
      - C6, given the gate's zero cross-ratios e(x) = p_theta(x) M_0(k) -
        p_0(x) M_theta(k) and (R) for every theta: E_T - E_MD = -(sum of e(x)
        over x in k ranked before r, plus gamma_MD e(r)) / M_0(k) = 0.
    A proved report is the passing sweep's (same grid, worst margin 0, C9's note
    ``means (1/2, 1/2)``); a failed check runs ``power_gap``, ``_projection_margins``
    or ``_convex_order_chain`` for the exact worst margin and witness.
    """
    ok, witness = verify_agreement(model, statistic, ranking)
    if not ok:
        raise OrdersError(f"ranking does not agree with statistic: witness {witness}")
    thetas = list(thetas)
    null = model.null
    t_family, md_family = pvalue_family(model, statistic), pvalue_family(model, ranking)
    den, t_mass, t_before = t_family.lattice(null)
    _, md_mass, md_before = md_family.lattice(null)

    # The alpha grid: ints over 2 * D_null, which carries every class start and midpoint.  Every
    # integer helper below reads alpha = x / (2 * D_null), a class start s / D_null as c * s.
    c, scale = 2, 2 * den
    grid = alpha_lattice(scale, t_family, md_family)
    # Threshold classes k(alpha) of both families for C1-C6 and C8, also at the kinks (no midpoints).
    t_classes, md_classes = _threshold_classes(t_family, grid), _threshold_classes(md_family, grid)
    kinks, kink_classes = grid[::2], (t_classes[::2], md_classes[::2])

    sufficient, suff_witness = _sufficiency(t_family, list(dict.fromkeys([null, *thetas])))

    def no_thetas(claim: str) -> OrderReport:
        return OrderReport(claim, "skipped", (), 1, None, None, "empty theta grid")

    # C3 and C4: usual stochastic order of natural p-values, read at the kinks (C4 as the docstring says).
    families = t_family, md_family
    c3 = (_natural_order("C3", families, kinks, kink_classes, thetas, lambda theta: (f"T@{theta}", f"MD@{theta}"))
          if thetas else no_thetas("C3"))
    c4 = _natural_order("C4", families, kinks, kink_classes, [null], lambda theta: ("T", "MD"))
    # C1 and C2: a natural test has E_theta[d_alpha] = F_theta(alpha), so they are C3 and C4 on the alpha
    # grid: 0 (every margin 0), every jump, and midpoints, where F_MD - F_T keeps its value at the point
    # before and t - F_MD is larger.  So the worst margin and the first worst witness are C3's and C4's.
    c1 = replace(c3, claim="C1", grid_num=grid, grid_den=scale) if thetas else no_thetas("C1")
    reports = [c1, replace(c4, claim="C2", grid_num=grid, grid_den=scale), c3, c4]

    # C5: randomized p-values exactly uniform under the null, for every t: their null CDF is linear
    # between kinks, so it is the diagonal iff it is at its kinks.
    summed = [_recount(family, null) for family in families]
    gaps = list(zip(*(_uniformity_gaps(f, s, kinks, ks) for f, s, ks in zip(families, summed, kink_classes))))
    margins, c5_den = _one_denominator((-abs(gap), m * scale) if gap else (0, 1) for pair in gaps for gap, m in pair)

    def uniform_witness(index: int) -> str:
        i, side = divmod(index, 2)
        gap, m = gaps[i][side]
        t = Fraction(kinks[i], scale)
        return f"{('T', 'MD')[side]} family at t={t}: CDF {Fraction(kinks[i] * m + gap, m * scale)}"

    reports.append(_claim("C5", kinks, scale, margins, c5_den, uniform_witness))

    # (N) and (R) of the docstring: a proved C6, C8 or C9 passes on its sweep's grid with margin 0.
    ranked = list(map(t_family.class_of.__getitem__, chain.from_iterable(md_family.members)))
    tiled = ranked == sorted(ranked) and all(list(f.lattice(null)[1]) == m for f, m in zip(families, summed))

    # C6: equal power functions under sufficiency.
    if not thetas:
        reports.append(no_thetas("C6"))
    elif not sufficient:
        reports.append(OrderReport("C6", "skipped", (), 1, None, None, f"hypothesis unmet: {suff_witness}"))
    elif tiled and all(list(f.lattice(theta)[1]) == _recount(f, theta) for theta in thetas for f in families):
        reports.append(OrderReport("C6", "pass", grid, scale, Fraction(0)))
    else:
        def power_gap(x: int, k: int, r: int, tm, tb, mm, mb) -> int:
            """(E_T - E_MD) * D_theta * m_k * m_r * c at alpha = x / scale, whose threshold classes are k and r."""
            m_k, m_r = t_mass[k], md_mass[r]
            return ((tb[k] - mb[r]) * m_k * m_r * c
                    + (x - t_before[k] * c) * tm[k] * m_r - (x - md_before[r] * c) * mm[r] * m_k)

        # Both powers are continuous and linear in alpha between the class starts of either family,
        # so the first worst |gap| lies at a kink, as in C5, and only the kinks are evaluated.  At the
        # null both tests have exact size alpha, so the gap is identically zero and is not computed.
        lattices = [None if theta == null else (*t_family.lattice(theta), *md_family.lattice(theta)[1:])
                    for theta in thetas]
        items = []
        for x, k, r in zip(kinks, *kink_classes):
            for lattice in lattices:
                gap = power_gap(x, k, r, *lattice[1:]) if lattice else 0
                items.append((-abs(gap), lattice[0] * t_mass[k] * md_mass[r] * c) if gap else (0, 1))
        margins, c6_den = _one_denominator(items)

        def power_witness(index: int) -> str:
            alpha, theta = Fraction(kinks[index // len(thetas)], scale), thetas[index % len(thetas)]
            return f"theta={theta}, alpha={alpha}: {t_family.power(theta, alpha)} vs {md_family.power(theta, alpha)}"

        # The report keeps the full alpha grid; its worst margin and witness are the kinks'.
        reports.append(_claim("C6", grid, scale, margins, c6_den, power_witness))

    # C7: pointwise minimal tie mass, hence minimal auxiliary-u variance.
    margins = [t_mass[k] - md_mass[r] for k, r in zip(t_family.class_of, md_family.class_of)]
    reports.append(_claim("C7", (), 1, margins, den, lambda i: f"point {model.support[i].label!r}",
                          "checked at every support point"))

    # C8: martingale projection at every breakpoint alpha (gated on sufficiency).
    if not sufficient:
        reports.append(OrderReport("C8", "skipped", (), 1, None, None, f"hypothesis unmet: {suff_witness}"))
    elif tiled:
        reports.append(OrderReport("C8", "pass", grid, scale, Fraction(0)))
    else:
        def projection_witness(i: int) -> str:
            alpha = Fraction(grid[i], scale)
            return f"alpha={alpha}: {_projection_witness(t_family, md_family, alpha)}"

        margins, c8_den = _one_denominator(_projection_margins(t_family, md_family, grid, t_classes, md_classes))
        reports.append(_claim("C8", grid, scale, margins, c8_den, projection_witness))

    # C9: convex-order chain of mid-p-values.
    if tiled:  # the sweep's grid: both families' mid-p jumps, the MD class starts (its plateau points) and 1
        points = {*_jumps(t_family, Fraction(1, 2)), *_jumps(md_family, Fraction(1, 2)), *(2 * s for s in md_before[1:])}
        reports.append(OrderReport("C9", "pass", tuple(sorted(points)), scale, Fraction(0), None, "means (1/2, 1/2)"))
    else:
        reports.append(_convex_order_chain(t_family, md_family, "C9"))

    return reports


def reports_to_json(reports: Sequence[OrderReport]) -> Iterator[str]:
    """The reports as JSON, every rational as "num/den" in lowest terms, as an iterator of pieces.

    Join the pieces for the text, or pass them to a file's ``writelines``:
    no piece holds more than one report's grid, so the whole text is never
    held at once.  Grid points are read over the lcm of the reports' grid
    denominators, so each distinct point is reduced and printed once: the
    alpha grid that C1, C2, C6 and C8 share, and its subsets in C3, C4 and
    C5, cost one ``format_ratios`` entry per point.  The text is the layout
    of ``json.dumps(..., indent=2, sort_keys=True)``, written directly:
    grid entries are digits and "/", which need no escaping, so
    ``json.dumps`` encodes only the scalar fields.
    """
    if not reports:
        yield "[]\n"
        return
    scale = math.lcm(*(r.grid_den for r in reports))
    grids = [r.grid_num if r.grid_den == scale else [n * (scale // r.grid_den) for n in r.grid_num]
             for r in reports]
    points = list(dict.fromkeys(n for grid in grids for n in grid))
    text = dict(zip(points, format_ratios(points, scale)))
    for i, (r, grid) in enumerate(zip(reports, grids)):
        margin = r.worst_margin
        yield ",\n" if i else "[\n"
        yield f'  {{\n    "claim": {json.dumps(r.claim)},\n    "grid": '
        if grid:
            yield '[\n      "'
            yield '",\n      "'.join([text[n] for n in grid])
            yield '"\n    ]'
        else:
            yield "[]"
        fields = (
            ("note", json.dumps(r.note)),
            ("verdict", json.dumps(r.verdict)),
            ("witness", json.dumps(r.witness)),
            ("worst_margin", json.dumps(None if margin is None else format_rational(margin))),
            ("worst_margin_dec", json.dumps(None if margin is None else decimal_string(margin, 9))),
        )
        yield "".join(f',\n    "{key}": {value}' for key, value in fields) + "\n  }"
    yield "\n]\n"


def reports_to_text(reports: Sequence[OrderReport]) -> str:
    lines = [f"{'claim':<6} {'verdict':<8} {'worst margin':<24} {'grid':>6}  note"]
    for r in reports:
        if r.worst_margin is None:
            margin = "-"
        else:
            margin = f"{format_rational(r.worst_margin)} ({decimal_string(r.worst_margin, 9)})"
        detail = r.witness if r.verdict == "fail" else (r.note or "-")
        lines.append(f"{r.claim:<6} {r.verdict:<8} {margin:<24} {len(r.grid_num):>6}  {detail}")
    return "\n".join(lines) + "\n"
