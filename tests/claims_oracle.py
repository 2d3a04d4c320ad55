"""Slow reference for verify_all_claims: every claim re-derived per grid point.

This is the straight-line form of the claim suite.  It rebuilds the
size-alpha tests at every alpha by the cumulative extremity scan, sums the
tail events of C6 point by point, evaluates the randomized CDF of C5 (at
every attained a, plus 0 and 1) and the integrated CDFs of C9 in O(N) per
query, and runs the martingale projection of C8 pointwise at every alpha.
Its tests are its own records (``ScanTest``): alpha, the threshold class
k, gamma and each point's class, all from that scan, which groups the
support by statistic value or by rank, not by a source's ``class_of``.
Its p-values are per-point (a, b) records from the same scan; their CDFs merge one atom per support
point and their alpha and t grids loop over the points.  The usual-order
check of C1-C4 reads each CDF by scanning its jumps at every grid point.
Its agreement gate (``check_agreement``) compares statistic values over
all pairs of points, where the engine's ``verify_agreement`` scans class
indices in rank order.  So it shares no gate, test record, CDF, grid or
comparison code with the engine: from the library it reads only the
model's rows and labels, the statistic's values and the ranking's ranks,
and it builds the engine's ``OrderReport`` and raises its ``OrdersError``.
Its sufficiency check re-groups the support by statistic
value and sums ``Fraction`` masses, where the engine sums integer class
masses by ``class_of``.  Everything here stays on ``Fraction``s, while the
engine works on integer numerators, so the engine's reports can be
compared against it byte for byte as an independent cross-check.  Its
grids are ``Fraction``s too; ``rational.common_denominator`` turns each
into the report's numerators over their lcm only when the report is built.
C9 keeps the hinge and square probes that the engine leaves to the
integrated-CDF chain, as an independent check that the chain implies them.

The library keeps its p-values on the integer lattice only; the oracle's
``StepCDF`` holds a CDF as ``Fraction`` jumps and cumulative masses, and
its helpers read the scan's per-point forms (``PointForms``), so a test
decides whose a and b it passes in.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from mdpvalues.model import DiscreteModel, SupportPoint
from mdpvalues.orders import OrderReport, OrdersError
from mdpvalues.ranking import Ranking
from mdpvalues.rational import common_denominator, decimal_string, format_rational

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous step CDF with exact rational jumps in [0, 1]."""

    jumps: tuple[Fraction, ...]
    cum: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.jumps) != len(self.cum) or not self.jumps:
            raise OrdersError("step CDF needs aligned, non-empty jump/mass arrays")
        if list(self.jumps) != sorted(set(self.jumps)):
            raise OrdersError("jump locations must be strictly increasing")
        if any(not 0 <= t <= 1 for t in self.jumps):
            raise OrdersError("jump locations must lie in [0, 1]")
        if any(x > y for x, y in zip(self.cum, self.cum[1:])):
            raise OrdersError("cumulative masses must be nondecreasing")
        if self.cum[-1] != 1:
            raise OrdersError(f"final mass is {self.cum[-1]}, not 1")

    def evaluate(self, t) -> Fraction:
        """F(t) for any exact t; t need not lie in [0, 1]."""
        i = bisect_right(self.jumps, Fraction(t))
        return Fraction(0) if i == 0 else self.cum[i - 1]


def _as_unit(value) -> Fraction:
    value = Fraction(value)
    assert 0 <= value <= 1
    return value


def check_agreement(model, statistic, ranking):
    """(ok, witness) over all pairs of points: T(x) > T(y) must give R(x) < R(y).

    Pairs are visited with y in rank order and x from the rank just above y
    upwards, so the first witness (x, y), a larger statistic at x with a worse
    rank, is the adjacent pair in rank order that ``verify_agreement`` names.
    """
    by_rank = sorted(model.support, key=lambda pt: ranking.ranks[pt.index])
    values = [statistic.value(pt) for pt in by_rank]
    for j in range(len(by_rank)):
        for i in range(j - 1, -1, -1):
            if values[j] > values[i]:
                return False, (by_rank[j].label, by_rank[i].label)
    return True, None


def extremity_classes(model, source):
    """Tie classes as (key, null mass, members), most extreme first."""
    null_row = model.probs(model.null)
    if isinstance(source, Ranking):
        by_rank = sorted(model.support, key=lambda pt: source.ranks[pt.index])
        return [(rank, null_row[pt.index], [pt]) for rank, pt in enumerate(by_rank, start=1)]
    classes = {}
    for pt in model.support:
        classes.setdefault(source.value(pt), []).append(pt)
    return [
        (value, sum((null_row[pt.index] for pt in classes[value]), Fraction(0)), classes[value])
        for value in sorted(classes, reverse=True)
    ]


def check_sufficiency(model, statistic, thetas):
    """Cross-ratio sufficiency test on classes re-grouped from the support, in first-appearance order."""
    if len(thetas) < 2:
        raise OrdersError("sufficiency check needs a grid of at least two parameters")
    classes = {}
    for pt in model.support:
        classes.setdefault(statistic.value(pt), []).append(pt)
    base = thetas[0]
    base_row = model.probs(base)
    for theta in thetas[1:]:
        row = model.probs(theta)
        for value, members in classes.items():
            mass_base = sum((base_row[pt.index] for pt in members), Fraction(0))
            mass_theta = sum((row[pt.index] for pt in members), Fraction(0))
            for pt in members:
                if row[pt.index] * mass_base != base_row[pt.index] * mass_theta:
                    return False, (
                        f"conditional law given [{statistic.name}={value}] differs: "
                        f"point {pt.label!r} under {theta} vs {base}"
                    )
    return True, None


@dataclass(frozen=True)
class ScanTest:
    """A size-alpha test from the scan: reject the classes before ``k`` surely and class ``k`` with ``gamma``.

    ``class_index[i]`` is the scan's class of support point i.  ``zone`` and
    ``phi`` read each point's rejection off it; the engine holds a test as
    ``PValueFamily.threshold``'s (k, gamma) alone, which tests compare with this.
    """

    alpha: Fraction
    k: int
    gamma: Fraction
    class_index: tuple[int, ...]

    def zone(self, point: SupportPoint) -> int:
        """+1 strictly more extreme than the threshold class, 0 in it, -1 after it."""
        k = self.class_index[point.index]
        return 1 if k < self.k else (0 if k == self.k else -1)

    def phi(self, point: SupportPoint) -> Fraction:
        zone = self.zone(point)
        return Fraction(1) if zone > 0 else (self.gamma if zone == 0 else Fraction(0))


def scan_size_alpha_test(model, source, alpha) -> ScanTest:
    """k(alpha) and gamma(alpha) by the cumulative scan over the classes."""
    alpha_f = _as_unit(alpha)
    classes = extremity_classes(model, source)
    strict = Fraction(0)
    chosen = None
    for k, (_key, mass, _members) in enumerate(classes):
        if strict <= alpha_f:
            chosen = (k, mass, strict)
        strict += mass
    k, mass, before = chosen
    gamma = (alpha_f - before) / mass
    assert before + gamma * mass == alpha_f
    class_index = [0] * model.size
    for index, (_key, _mass, members) in enumerate(classes):
        for pt in members:
            class_index[pt.index] = index
    return ScanTest(alpha_f, k, gamma, tuple(class_index))


@dataclass(frozen=True)
class PointForms:
    """Per-point linear forms P(x, u) = a(x) + u*b(x), indexed by support index."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def mid(self, i: int) -> Fraction:
        return self.a[i] + HALF * self.b[i]


def scan_pvalue_family(model, source) -> PointForms:
    a = [Fraction(0)] * model.size
    b = [Fraction(0)] * model.size
    strict = Fraction(0)
    for _key, mass, members in extremity_classes(model, source):
        for pt in members:
            a[pt.index] = strict
            b[pt.index] = mass
        strict += mass
    assert strict == 1
    return PointForms(tuple(a), tuple(b))


def merge_atoms(atoms) -> StepCDF:
    """Step CDF of (location, mass) atoms; atoms at equal locations merge into one jump."""
    masses = {}
    for location, mass in atoms:
        masses[location] = masses.get(location, Fraction(0)) + mass
    jumps = sorted(masses)
    cum, total = [], Fraction(0)
    for location in jumps:
        total += masses[location]
        cum.append(total)
    return StepCDF(tuple(jumps), tuple(cum))


def atom_cdf(model, theta, forms: PointForms, u) -> StepCDF:
    """Law of P(X, u) under theta: one atom a + u*b per support point, merged."""
    row = model.probs(theta)
    return merge_atoms((forms.a[i] + u * forms.b[i], row[i]) for i in range(model.size))


def breakpoints(*forms: PointForms) -> tuple[Fraction, ...]:
    """Every attained a and a + b of every point, plus 0, 1 and the midpoints between them."""
    points = {Fraction(0), Fraction(1)}
    for form in forms:
        for a, b in zip(form.a, form.b):
            points.update((a, a + b))
    grid = sorted(points)
    return tuple(sorted(set(grid) | {(x + y) / 2 for x, y in zip(grid, grid[1:])}))


def phi_expectation_by_tails(model: DiscreteModel, test, theta: str) -> Fraction:
    """E_theta[phi] via tail events (independent of the pointwise sum in conftest.brute_expectation).

    ``test`` is a ``ScanTest``: only its zones and gamma are read.
    """
    row = model.probs(theta)
    more = sum((row[pt.index] for pt in model.support if test.zone(pt) > 0), Fraction(0))
    tied = sum((row[pt.index] for pt in model.support if test.zone(pt) == 0), Fraction(0))
    return more + test.gamma * tied


def randomized_cdf_at(model, theta, forms: PointForms, t) -> Fraction:
    """Pr_theta{P(X, U) <= t}: a sum of clamped linear pieces over the support."""
    row = model.probs(theta)
    total = Fraction(0)
    for i in range(model.size):
        a, b = forms.a[i], forms.b[i]
        if t >= a + b:
            total += row[i]
        elif t > a:
            total += row[i] * (t - a) / b
    return total


def scan_cdf_at(cdf: StepCDF, t) -> Fraction:
    """F(t) by scanning the jumps from the left: the cumulative mass of the last jump at or below t."""
    value = Fraction(0)
    for location, cum in zip(cdf.jumps, cdf.cum):
        if location > t:
            break
        value = cum
    return value


def usual_order(claim, comparisons, alphas=None) -> OrderReport:
    """F_A(t) <= F_B(t), or <= t where cdf_b is None, for (cdf_a, cdf_b, labels) comparisons.

    Each comparison is checked at every jump of either CDF plus t = 1, or at
    every point of ``alphas`` when given; the report's grid is the union,
    its margin the first worst in order.
    """
    grid, margins = set(), []
    for cdf_a, cdf_b, (label_a, label_b) in comparisons:
        if alphas is None:
            points = sorted(set(cdf_a.jumps) | set(cdf_b.jumps if cdf_b else ()) | {Fraction(1)})
        else:
            points = alphas
        grid.update(points)
        for t in points:
            value = scan_cdf_at(cdf_a, t)
            bound = t if cdf_b is None else scan_cdf_at(cdf_b, t)
            margins.append((bound - value, f"F_{label_a}({t}) = {value} vs {label_b} bound {bound}"))
    return _worst(claim, tuple(sorted(grid)), margins)


def rectangle_integral(cdf: StepCDF, s) -> Fraction:
    """Integral of F over [0, s] as a sum of rectangles between jumps."""
    total = Fraction(0)
    for i, location in enumerate(cdf.jumps):
        if location >= s:
            break
        right = cdf.jumps[i + 1] if i + 1 < len(cdf.jumps) else Fraction(1)
        total += cdf.cum[i] * (min(right, s) - location)
    return total


def plateau_heights_inside(cdf: StepCDF) -> list[Fraction]:
    """Plateau heights c with jump_i < c < jump_{i+1} (or < 1 after the last).

    These are the interior critical points of s -> s^2/2 - integral(F),
    needed when comparing a step CDF against the uniform in convex order.
    """
    tops = [*cdf.jumps[1:], Fraction(1)]
    return [c for c, left, right in zip(cdf.cum, cdf.jumps, tops) if left < c < right]


def _worst(claim, grid, margins, note=None) -> OrderReport:
    """The first worst margin; the Fraction grid goes into the report as numerators over their lcm."""
    worst, witness = min(margins, key=lambda mw: mw[0])
    grid_den, grid_num = common_denominator(g.as_integer_ratio() for g in grid)
    return OrderReport(claim, "pass" if worst >= 0 else "fail", grid_num, grid_den, worst,
                       None if worst >= 0 else witness, note)


def pointwise_projection(model, t_test, md_test) -> OrderReport:
    """E0[phi_MD | phi_T] = phi_T checked point by point at one alpha."""
    row = model.probs(model.null)
    margins = []
    tie_mass = tie_value = Fraction(0)
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
    return _worst("C8", (t_test.alpha,), margins)


def convex_order_chain(model, t_family: PointForms, md_family: PointForms) -> OrderReport:
    null = model.null
    row = model.probs(null)
    cdf_t = atom_cdf(model, null, t_family, HALF)
    cdf_md = atom_cdf(model, null, md_family, HALF)

    def expect(family, fn):
        return sum((row[i] * fn(family.mid(i)) for i in range(model.size)), Fraction(0))

    margins = []
    mean_t, mean_md = expect(t_family, lambda p: p), expect(md_family, lambda p: p)
    margins.append((-abs(mean_t - HALF), f"mean of T mid-p is {mean_t}"))
    margins.append((-abs(mean_md - HALF), f"mean of MD mid-p is {mean_md}"))
    grid_set = set(cdf_t.jumps) | set(cdf_md.jumps) | {Fraction(1)}
    grid_set.update(plateau_heights_inside(cdf_t))
    grid_set.update(plateau_heights_inside(cdf_md))
    grid = tuple(sorted(grid_set))
    for s in grid:
        lower, middle, upper = rectangle_integral(cdf_t, s), rectangle_integral(cdf_md, s), s * s / 2
        margins.append((middle - lower, f"integrated CDFs at s={s}: T {lower} vs MD {middle}"))
        margins.append((upper - middle, f"integrated CDFs at s={s}: MD {middle} vs uniform {upper}"))
    for c in [Fraction(k, 8) for k in range(8)]:
        e_t = expect(t_family, lambda p: max(p - c, Fraction(0)))
        e_md = expect(md_family, lambda p: max(p - c, Fraction(0)))
        e_u = (1 - c) ** 2 / 2
        margins.append((e_md - e_t, f"hinge probe c={c}: T {e_t} vs MD {e_md}"))
        margins.append((e_u - e_md, f"hinge probe c={c}: MD {e_md} vs uniform {e_u}"))
    sq_t, sq_md = expect(t_family, lambda p: p * p), expect(md_family, lambda p: p * p)
    margins.append((sq_md - sq_t, f"square probe: T {sq_t} vs MD {sq_md}"))
    margins.append((Fraction(1, 3) - sq_md, f"square probe: MD {sq_md} vs uniform 1/3"))
    return _worst("C9", grid, margins, f"means ({mean_t}, {mean_md})")


def reference_claims(model, statistic, ranking, thetas):
    """verify_all_claims, re-derived per grid point; same reports, same order."""
    ok, witness = check_agreement(model, statistic, ranking)
    if not ok:
        raise OrdersError(f"ranking does not agree with statistic: witness {witness}")
    thetas = list(thetas)
    null = model.null
    t_family, md_family = scan_pvalue_family(model, statistic), scan_pvalue_family(model, ranking)
    alphas = breakpoints(t_family, md_family)
    nat_t = {theta: atom_cdf(model, theta, t_family, 1) for theta in set(thetas) | {null}}
    nat_md = {theta: atom_cdf(model, theta, md_family, 1) for theta in set(thetas) | {null}}
    grid_thetas = list(dict.fromkeys([null, *thetas]))
    sufficient, suff_witness = (
        check_sufficiency(model, statistic, grid_thetas) if len(grid_thetas) >= 2 else (True, None))
    unmet = f"hypothesis unmet: {suff_witness}"
    reports = []

    # A natural test has E_theta[d_alpha] = F_theta(alpha): C1 and C2 are C3 and C4 on the alpha grid.
    by_theta = [(nat_t[theta], nat_md[theta], (f"T@{theta}", f"MD@{theta}")) for theta in thetas]
    null_pairs = [(nat_t[null], nat_md[null], ("T", "MD")), (nat_md[null], None, ("MD", "t"))]
    for claim, comparisons, grid in (("C1", by_theta, alphas), ("C2", null_pairs, alphas),
                                     ("C3", by_theta, None), ("C4", null_pairs, None)):
        if comparisons:
            reports.append(usual_order(claim, comparisons, grid))
        else:
            reports.append(OrderReport(claim, "skipped", (), 1, None, None, "empty theta grid"))

    # The randomized CDF kinks only at class starts: each point's a, plus 0 and 1.
    t_grid = tuple(sorted({Fraction(0), Fraction(1), *t_family.a, *md_family.a}))
    margins = []
    for t in t_grid:
        for name, family in (("T", t_family), ("MD", md_family)):
            value = randomized_cdf_at(model, null, family, t)
            margins.append((-abs(value - t), f"{name} family at t={t}: CDF {value}"))
    reports.append(_worst("C5", t_grid, margins))

    if not thetas:
        reports.append(OrderReport("C6", "skipped", (), 1, None, None, "empty theta grid"))
    elif not sufficient:
        reports.append(OrderReport("C6", "skipped", (), 1, None, None, unmet))
    else:
        margins = []
        for alpha in alphas:
            t_test = scan_size_alpha_test(model, statistic, alpha)
            md_test = scan_size_alpha_test(model, ranking, alpha)
            for theta in thetas:
                e_t = phi_expectation_by_tails(model, t_test, theta)
                e_md = phi_expectation_by_tails(model, md_test, theta)
                margins.append((-abs(e_t - e_md), f"theta={theta}, alpha={alpha}: {e_t} vs {e_md}"))
        reports.append(_worst("C6", alphas, margins))

    reports.append(_worst("C7", (), [
        (t_family.b[i] - md_family.b[i], f"point {model.support[i].label!r}") for i in range(model.size)
    ], "checked at every support point"))

    if not sufficient:
        reports.append(OrderReport("C8", "skipped", (), 1, None, None, unmet))
    else:
        margins = []
        for alpha in alphas:
            report = pointwise_projection(
                model, scan_size_alpha_test(model, statistic, alpha), scan_size_alpha_test(model, ranking, alpha))
            margins.append((report.worst_margin, f"alpha={alpha}: {report.witness}"))
        reports.append(_worst("C8", alphas, margins))

    reports.append(convex_order_chain(model, t_family, md_family))
    return reports


def reports_json(reports) -> str:
    """``orders.reports_to_json``'s text by way of the stdlib encoder: each report a dict, each rational a Fraction."""
    return json.dumps([{
        "claim": r.claim,
        "verdict": r.verdict,
        "grid": [format_rational(g) for g in r.grid],
        "worst_margin": None if r.worst_margin is None else format_rational(r.worst_margin),
        "worst_margin_dec": None if r.worst_margin is None else decimal_string(r.worst_margin, 9),
        "witness": r.witness,
        "note": r.note,
    } for r in reports], indent=2, sort_keys=True) + "\n"
