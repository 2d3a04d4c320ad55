"""Exact verification of the ordering claims C1-C9 on the integer lattice of two class tables.

Universally quantified claims ("for all alpha", "for all t") are discharged
on finite grids: every asserted quantity is piecewise linear in the grid
variable, with kinks only at attained null tail probabilities (or CDF jump
points), so checking kinks plus midpoints is equivalent to checking
everywhere.  All comparisons are exact; each claim returns an OrderReport
carrying the grid, a signed worst margin (pass iff >= 0) and a witness on
failure.

The engine takes each source's tie classes once, the statistic's own
table and one class per rank (``testing.pvalue_family``), and then works on
integers only.  Each pmf row is held as numerators over its common
denominator D_theta, so class masses, class starts and theta prefixes are
ints; the alpha grid (class starts of both families, 0, 1 and the
midpoints) is ints over 2 * D_null.  Every claim walks its sorted grid
once against the sorted class starts or CDF jumps, a two-pointer sweep
instead of a search per point:

  - the size-alpha test at alpha keeps the last class starting at or below
    alpha, so the power behind C6 is before_theta[k] + gamma * mass_theta[k],
    and the two families' powers are compared by cross-multiplication;
  - C5 holds for every t: the randomized null CDF, rebuilt from class masses
    summed again point by point, is checked at its kinks (0, 1 and the
    class starts of both families), so a wrong class mass makes it fail;
  - C8 is decided per threshold class: the largest rank before it and the
    smallest rank after it give the sure-reject and sure-retain margins,
    and a rank-ordered null-mass prefix inside it gives the tie average;
  - the CDF of P(X, u) at a fixed u = g / h jumps once per class, by its
    theta mass, at start * h + g * mass over h * D_null (``_jumps``): for
    C1-C4 (u = 1) and C9 (u = 1/2) alike;
  - C3 and C4 are one usual-order check, F_T <= F_MD (<= t), at the CDFs'
    jumps plus 1; C1 and C2 are their reports on the alpha grid, since a
    natural test rejects iff P <= alpha, so E_theta[d_alpha] = F_theta(alpha);
  - the integrated CDFs of C9 are integer prefixes of cum * width.

Each claim's margins are ints over one positive denominator, and each
report keeps its grid as the sorted ints it was swept on, over that
sweep's scale (``grid_num`` over ``grid_den``).  Only the worst margin and
a failure's witness become Fractions: a witness is rebuilt at its grid
point alone on Fractions, through ``PValueFamily.power`` (C6) or a
point-by-point C8 check.  ``reports_to_json`` reduces and prints each
distinct grid point once and yields the JSON text in pieces, one report
grid at most per piece, so ``mdpv verify`` writes it without ever holding
it whole.  No step CDF is built as an object: the claims sweep the class
jumps and theta prefixes, and ``mdpv cdf`` prints the same lattice columns.

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
from itertools import accumulate
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


def _usual_order(claim: str, t_den: int, pairs: Sequence[tuple]) -> OrderReport:
    """One report for F_A <= F_B over several pairs of step CDFs on the lattice.

    A pair is (jumps_a, cdf_a, jumps_b, cdf_b, v_den, (label_a, label_b)):
    sorted jump locations as ints over ``t_den``, and cdf_x[j], the CDF
    after j jumps, as ints over ``v_den``.  ``jumps_b=None`` compares F_A(t)
    with the diagonal t.  Each pair is checked at every jump of either CDF
    plus t = 1, where both sides are constant (resp. increasing) up to the
    next grid point, so the check is exact for all t.  The report's grid is
    the union of the pairs' grids.
    """
    den = math.lcm(*(pair[4] for pair in pairs), *(t_den for pair in pairs if pair[2] is None))
    grid_set: set[int] = set()
    margins: list[int] = []
    sweeps = []
    for pair in pairs:
        jumps_a, cdf_a, jumps_b, cdf_b, v_den, _labels = pair
        points = sorted(set(jumps_a).union(jumps_b or (), (t_den,)))
        grid_set.update(points)
        at_a = _counts(jumps_a, points)
        f = den // v_den
        if jumps_b is None:
            at_b = None
            g = den // t_den
            margins.extend(t * g - cdf_a[i] * f for t, i in zip(points, at_a))
        else:
            at_b = _counts(jumps_b, points)
            margins.extend((cdf_b[j] - cdf_a[i]) * f for i, j in zip(at_a, at_b))
        sweeps.append((points, at_a, at_b, pair))

    def witness(index: int) -> str:
        for points, at_a, at_b, (_, cdf_a, _, cdf_b, v_den, (label_a, label_b)) in sweeps:
            if index < len(points):
                break
            index -= len(points)
        t = Fraction(points[index], t_den)
        value = Fraction(cdf_a[at_a[index]], v_den)
        bound = t if at_b is None else Fraction(cdf_b[at_b[index]], v_den)
        return f"F_{label_a}({t}) = {value} vs {label_b} bound {bound}"

    return _claim(claim, sorted(grid_set), t_den, margins, den, witness)


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


def _uniformity_gaps(family: PValueFamily, grid: Sequence[int], classes: Sequence[int]) -> list[tuple[int, int]]:
    """(F(t) - t) * mass_k * 2 D and mass_k at each t = x / (2 D) of a grid, F = Pr_0{P(X, U) <= t}.

    ``classes`` holds the threshold class k of each t, and
    F(t) - t = (prior_k - start_k) + (summed_k - mass_k) * (t - start_k) / mass_k:
    masses summed again from the null row, each point once into its own class, against the lattice.
    """
    _den, mass, before = family.lattice(family.model.null)
    summed = [0] * len(mass)
    for p, k in zip(family.model.int_row(family.model.null)[1], family.class_of):
        summed[k] += p
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
    the MD test threshold rank r (class md_classes[i]) with randomization
    gamma_MD.  A sure-rejection point (class before k) has margin 0,
    gamma_MD - 1 or -1 as its rank is below, at or above r, so the largest
    rank before class k decides them all; the sure-retention side is
    decided by the smallest rank after class k.  With gamma = (alpha -
    start) / mass, all three margins share mass_T[k] * mass_MD[r] * 2.
    """
    _den, t_mass, t_before = t_family.lattice(t_family.model.null)
    _, md_mass, md_before = md_family.lattice(md_family.model.null)
    ranks = md_family.source.ranks
    null_row = t_family.model.int_row(t_family.model.null)[1]
    by_rank = [sorted((ranks[i], null_row[i]) for i in members) for members in t_family.members]
    class_ranks = [[rank for rank, _ in pairs] for pairs in by_rank]
    below = [tuple(accumulate((m for _, m in pairs), initial=0)) for pairs in by_rank]
    before_max = list(accumulate((r[-1] for r in class_ranks), max, initial=0))
    after_min = [len(ranks) + 1] * (len(class_ranks) + 1)
    for k in range(len(class_ranks) - 1, -1, -1):
        after_min[k] = min(after_min[k + 1], class_ranks[k][0])

    out = []
    current, j = -1, 0
    for x, k, r_index in zip(grid, t_classes, md_classes):
        r = md_family.keys[r_index]
        inside = class_ranks[k]
        if k != current:
            current, j = k, 0
        while j < len(inside) and inside[j] < r:
            j += 1
        m_k, m_r = t_mass[k], md_mass[r_index]
        q = m_r * 2  # gamma_MD = u_md / q and gamma_T = u_t / (m_k * 2)
        u_t, u_md = x - t_before[k] * 2, x - md_before[r_index] * 2
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
    identity between integer numerators.
    """
    model, members = t_family.model, t_family.members
    order = sorted(range(len(members)), key=lambda k: members[k][0])
    base = thetas[0]
    base_row, base_mass = model.int_row(base)[1], t_family.lattice(base)[1]
    for theta in thetas[1:]:
        row, mass = model.int_row(theta)[1], t_family.lattice(theta)[1]
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
    # Threshold classes k(alpha) of both families, shared by C5, C6 and C8.
    t_classes, md_classes = _threshold_classes(t_family, grid), _threshold_classes(md_family, grid)

    sufficient, suff_witness = _sufficiency(t_family, list(dict.fromkeys([null, *thetas])))

    def no_thetas(claim: str) -> OrderReport:
        return OrderReport(claim, "skipped", (), 1, None, None, "empty theta grid")

    # C3 and C4: usual stochastic order of natural p-values, whose CDFs jump at class ends, over D_null.
    ends_t, ends_md = _jumps(t_family, Fraction(1)), _jumps(md_family, Fraction(1))
    by_theta = [(ends_t, t_family.lattice(theta)[2], ends_md, md_family.lattice(theta)[2], t_family.lattice(theta)[0],
                 (f"T@{theta}", f"MD@{theta}")) for theta in thetas]
    null_pairs = [(ends_t, t_before, ends_md, md_before, den, ("T", "MD")),
                  (ends_md, md_before, None, None, den, ("MD", "t"))]
    c3 = _usual_order("C3", den, by_theta) if thetas else no_thetas("C3")
    c4 = _usual_order("C4", den, null_pairs)
    # C1 and C2: a natural test has E_theta[d_alpha] = F_theta(alpha), so they are C3 and C4 on the alpha
    # grid: 0 (every margin 0), every jump, and midpoints, where F_MD - F_T keeps its value at the point
    # before and t - F_MD is larger.  So the worst margin and the first worst witness are C3's and C4's.
    c1 = replace(c3, claim="C1", grid_num=grid, grid_den=scale) if thetas else no_thetas("C1")
    reports = [c1, replace(c4, claim="C2", grid_num=grid, grid_den=scale), c3, c4]

    # C5: randomized p-values exactly uniform under the null, for every t: their null CDF is linear
    # between kinks, so it is the diagonal iff it is at its kinks, the alpha grid without midpoints.
    kinks = grid[::2]
    gaps = list(zip(_uniformity_gaps(t_family, kinks, t_classes[::2]),
                    _uniformity_gaps(md_family, kinks, md_classes[::2])))
    margins, c5_den = _one_denominator((-abs(gap), m * scale) if gap else (0, 1) for pair in gaps for gap, m in pair)

    def uniform_witness(index: int) -> str:
        i, side = divmod(index, 2)
        gap, m = gaps[i][side]
        t = Fraction(kinks[i], scale)
        return f"{('T', 'MD')[side]} family at t={t}: CDF {Fraction(kinks[i] * m + gap, m * scale)}"

    reports.append(_claim("C5", kinks, scale, margins, c5_den, uniform_witness))

    # C6: equal power functions under sufficiency.
    if not thetas:
        reports.append(no_thetas("C6"))
    elif not sufficient:
        reports.append(OrderReport("C6", "skipped", (), 1, None, None, f"hypothesis unmet: {suff_witness}"))
    else:
        def gap_line(k: int, r: int, d_theta: int, tm, tb, mm, mb) -> tuple[int, int, int]:
            """(P, Q, D_theta) with E_T - E_MD = (P + x * Q) / (D_theta * m_k * m_r * c) at every alpha
            = x / scale whose threshold classes are k and r: both powers are linear in alpha there."""
            m_k, m_r = t_mass[k], md_mass[r]
            slope_t, slope_md = tm[k] * m_r, mm[r] * m_k
            offset = (tb[k] - mb[r]) * m_k * m_r - t_before[k] * slope_t + md_before[r] * slope_md
            return offset * c, slope_t - slope_md, d_theta

        # At the null both tests have exact size alpha, so the gap line is identically zero (its slope
        # t_mass[k] * m_r - md_mass[r] * m_k and its offset cancel) and is not computed.
        zero = (0, 0, 1)
        lattices = [None if theta == null else (*t_family.lattice(theta), *md_family.lattice(theta)[1:])
                    for theta in thetas]
        items = []
        classes = None
        for x, k, r in zip(grid, t_classes, md_classes):
            if (k, r) != classes:
                classes = (k, r)
                lines = [zero if lattice is None else gap_line(k, r, *lattice) for lattice in lattices]
            for offset, slope, d_theta in lines:
                gap = offset + x * slope if slope else offset
                items.append((-abs(gap), d_theta * t_mass[k] * md_mass[r] * c) if gap else (0, 1))
        margins, c6_den = _one_denominator(items)

        def power_witness(index: int) -> str:
            alpha, theta = Fraction(grid[index // len(thetas)], scale), thetas[index % len(thetas)]
            return f"theta={theta}, alpha={alpha}: {t_family.power(theta, alpha)} vs {md_family.power(theta, alpha)}"

        reports.append(_claim("C6", grid, scale, margins, c6_den, power_witness))

    # C7: pointwise minimal tie mass, hence minimal auxiliary-u variance.
    margins = [t_mass[k] - md_mass[r] for k, r in zip(t_family.class_of, md_family.class_of)]
    reports.append(_claim("C7", (), 1, margins, den, lambda i: f"point {model.support[i].label!r}",
                          "checked at every support point"))

    # C8: martingale projection at every breakpoint alpha (gated on sufficiency).
    if not sufficient:
        reports.append(OrderReport("C8", "skipped", (), 1, None, None, f"hypothesis unmet: {suff_witness}"))
    else:
        def projection_witness(i: int) -> str:
            alpha = Fraction(grid[i], scale)
            return f"alpha={alpha}: {_projection_witness(t_family, md_family, alpha)}"

        margins, c8_den = _one_denominator(_projection_margins(t_family, md_family, grid, t_classes, md_classes))
        reports.append(_claim("C8", grid, scale, margins, c8_den, projection_witness))

    # C9: convex-order chain of mid-p-values.
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
