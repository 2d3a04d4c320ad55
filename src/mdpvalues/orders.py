"""Exact verification of the ordering claims C1-C9 from one class table per source.

Universally quantified claims ("for all alpha", "for all t") are discharged
on finite grids: every asserted quantity is piecewise linear in the grid
variable, with kinks only at attained null tail probabilities (or CDF jump
points), so checking kinks plus midpoints is equivalent to checking
everywhere.  All comparisons are exact rational identities or inequalities;
each claim returns an OrderReport carrying the grid, a signed worst margin
(pass iff >= 0) and a witness on failure.

The engine sorts the support into tie classes once per source, the
statistic and the ranking (``testing.pvalue_family``, whose p-value family
is that sorted class table), and answers every claim from prefix sums
over those two tables with one bisect per grid point, instead of
rebuilding a size-alpha test at each alpha:

  - the size-alpha test at alpha is a bisect on the class starts, so the
    power behind C6 is prefix_theta[k] + gamma * mass_theta[k];
  - the randomized null CDF of C5 at t is the same lookup, because the
    classes tile [0, 1] and only the class containing t is partly below t;
  - C8 is decided per threshold class: the largest rank before it and the
    smallest rank after it give the sure-reject and sure-retain margins,
    and a rank-ordered null-mass prefix inside it gives the tie average;
  - the CDF of P(X, u) at a fixed u jumps once per class, at
    start + u * mass, by the class's mass under theta, so the natural
    (C1-C4) and mid (C9) p-value CDFs are read off the table too;
  - the integrated CDFs of C9 are prefixes of cum * width on StepCDF.

A failing claim names its witness by re-running the single-alpha check at
the failing grid point only.

Claim summary, for a statistic T and an agreeing one-to-one ranking R:
  C1  natural MD decisions dominate in power at every theta and alpha
  C2  level sandwich under the null: E0[dT] <= E0[dMD] <= alpha
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .model import DiscreteModel, SupportPoint
from .ranking import Ranking, Statistic, verify_agreement
from .rational import decimal_string, format_rational
from .testing import (
    MD,
    T_BASED,
    PValueFamily,
    TestFunction,
    _as_unit,
    _exact,
    alpha_breakpoints,
    pvalue_family,
)

CLAIM_IDS = tuple(f"C{i}" for i in range(1, 10))

HALF = Fraction(1, 2)


class OrdersError(ValueError):
    """Precondition failure in an ordering check."""


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

    def evaluate(self, t: object) -> Fraction:
        """F(t) for any exact t; floats are refused, t need not lie in [0, 1]."""
        if not isinstance(t, (Fraction, int)):
            t = _exact(t, "t")
        i = bisect_right(self.jumps, t)
        return Fraction(0) if i == 0 else self.cum[i - 1]

    @cached_property
    def _areas(self) -> tuple[Fraction, ...]:
        """Entry i is the integral of F over [0, jumps[i]]: a running sum of cum * width."""
        widths = (right - left for left, right in zip(self.jumps, self.jumps[1:]))
        return tuple(accumulate((c * w for c, w in zip(self.cum, widths)), initial=Fraction(0)))

    def integral(self, s: Fraction) -> Fraction:
        """Exact integral of F over [0, s] for s in [0, 1]: one bisect into the prefix."""
        i = bisect_left(self.jumps, s)
        if i == 0:
            return Fraction(0)
        return self._areas[i - 1] + self.cum[i - 1] * (s - self.jumps[i - 1])

    def plateau_heights_inside(self) -> list[Fraction]:
        """Plateau heights c with jump_i < c < jump_{i+1} (or < 1 after the last).

        These are the interior critical points of s -> s^2/2 - integral(F),
        needed when comparing a step CDF against the uniform in convex order.
        """
        out = []
        for i, c in enumerate(self.cum):
            left = self.jumps[i]
            right = self.jumps[i + 1] if i + 1 < len(self.jumps) else Fraction(1)
            if left < c < right:
                out.append(c)
        return out


def pvalue_cdf(model: DiscreteModel, theta: str, family: PValueFamily, u: object) -> StepCDF:
    """Exact distribution of P(X, u) under theta for a fixed u; ``model`` is the family's.

    Class k puts its theta mass at start + u * mass.  Every class has
    positive null mass, so these jumps increase strictly for every u in [0, 1].
    """
    if model != family.model:
        raise OrdersError("the p-value family was built on another model")
    uu = _as_unit(u)
    _mass, before = family.theta_masses(theta)
    return StepCDF(tuple(s + uu * m for s, m in zip(family.starts, family.mass)), before[1:])


def integrated_cdf(cdf: StepCDF, s: object) -> Fraction:
    """Exact integral of F over [0, s]: a sum of rectangles between jumps."""
    return cdf.integral(_as_unit(s, "s"))


def uniform_integrated(s: object) -> Fraction:
    """Integral of the uniform CDF over [0, s], exactly s^2/2."""
    ss = _as_unit(s, "s")
    return ss * ss / 2


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one exact ordering verification."""

    claim: str
    verdict: str  # "pass" | "fail" | "skipped"
    grid: tuple[Fraction, ...]
    worst_margin: Fraction | None
    witness: str | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "grid": [format_rational(g) for g in self.grid],
            "worst_margin": None if self.worst_margin is None else format_rational(self.worst_margin),
            "worst_margin_dec": None if self.worst_margin is None else decimal_string(self.worst_margin, 9),
            "witness": self.witness,
            "note": self.note,
        }


def _format(template: str, *args: object) -> str:
    return template.format(*args)


def _claim(
    claim: str,
    grid: tuple[Fraction, ...],
    margins: Iterable[tuple[Fraction, tuple]],
    witness: Callable[..., str],
    note: str | None = None,
) -> OrderReport:
    """Report the first worst (margin, where) pair; a failure is named by ``witness(*where)``."""
    margin, where = min(margins, key=itemgetter(0))
    if margin >= 0:
        return OrderReport(claim, "pass", grid, margin, None, note)
    return OrderReport(claim, "fail", grid, margin, witness(*where), note)


def _usual_order(
    claim: str, pairs: Iterable[tuple[StepCDF, StepCDF | None, tuple[str, str]]], sign: int = 1
) -> OrderReport:
    """One report for F_A <= F_B over several (A, B, labels) pairs; B=None is the diagonal.

    Each pair is checked at every jump of either CDF plus t = 1, where both
    sides are constant (resp. increasing) up to the next grid point, so the
    check is exact for all t.  The report's grid is the union of the pairs' grids.
    """
    grid_set: set[Fraction] = set()
    margins = []
    for cdf_a, cdf_b, (label_a, label_b) in pairs:
        pair_grid = set(cdf_a.jumps) | {Fraction(1)}
        if cdf_b is not None:
            pair_grid |= set(cdf_b.jumps)
        grid_set |= pair_grid
        for t in sorted(pair_grid):
            bound = cdf_b.evaluate(t) if cdf_b is not None else t
            value = cdf_a.evaluate(t)
            margins.append((sign * (bound - value), (label_a, t, value, label_b, bound)))
    return _claim(claim, tuple(sorted(grid_set)), margins, "F_{}({}) = {} vs {} bound {}".format)


def check_usual_order(
    cdf_a: StepCDF,
    cdf_b: StepCDF | None = None,
    relation: str = "le",
    *,
    claim: str = "usual-order",
    labels: tuple[str, str] = ("A", "B"),
) -> OrderReport:
    """Verify F_A(t) <= F_B(t) at every jump of either CDF (plus t = 1).

    With ``cdf_b=None`` the comparison is against the diagonal, F_A(t) <= t;
    ``relation="ge"`` flips the inequality.
    """
    if relation not in ("le", "ge"):
        raise OrdersError(f"unknown relation {relation!r}: use 'le' or 'ge'")
    return _usual_order(claim, [(cdf_a, cdf_b, labels)], 1 if relation == "le" else -1)


def conditional_variance(family: PValueFamily, point: SupportPoint | int) -> Fraction:
    """Var(P(x, U) | X = x) = b(x)^2 / 12 exactly (Var of U times tie mass squared)."""
    return family.b[family.model.point(point).index] ** 2 / 12


def _log_probe(family: PValueFamily, mid_cdf: StepCDF, eps: float = 1e-12) -> float:
    """E0[-2 log P_mid] in floats, summed point by point in support order."""
    log_mid = [-2.0 * math.log(max(float(mid), eps)) for mid in mid_cdf.jumps]
    row = family.model.probs(family.model.null)
    return sum(float(p) * log_mid[k] for p, k in zip(row, family.class_of))


def check_convex_order_chain(
    model: DiscreteModel, statistic: Statistic, ranking: Ranking, *, claim: str = "C9"
) -> OrderReport:
    """Convex-order chain of mid-p-values under the null.

    The margins: both mid-p means equal 1/2 exactly, and at every jump of
    either mid-p CDF (plus interior plateau critical points and s = 1) the
    integrated CDFs satisfy

        int_0^s F_T-mid  <=  int_0^s F_MD-mid  <=  s^2 / 2.

    With equal means this is the convex order itself, so it already
    implies E0[phi(P)] ordered for every convex phi, hinges and squares
    included; no separate probe margin is needed.  The clipped -2*log
    probe is an advisory float diagnostic recorded in the note.
    """
    ok, witness = verify_agreement(model, statistic, ranking)
    if not ok:
        raise OrdersError(f"ranking does not agree with statistic: witness {witness}")
    return _convex_order_chain(pvalue_family(model, statistic), pvalue_family(model, ranking), claim)


def _convex_order_chain(t_family: PValueFamily, md_family: PValueFamily, claim: str) -> OrderReport:
    """check_convex_order_chain on the p-value families of an agreeing pair."""
    model = t_family.model
    cdf_t, cdf_md = (pvalue_cdf(model, model.null, family, HALF) for family in (t_family, md_family))

    mean_t, mean_md = (
        sum((m * mid for m, mid in zip(family.mass, cdf.jumps)), Fraction(0))
        for family, cdf in ((t_family, cdf_t), (md_family, cdf_md))
    )
    margins: list[tuple[Fraction, tuple]] = [
        (-abs(mean_t - HALF), ("mean of T mid-p is {}", mean_t)),
        (-abs(mean_md - HALF), ("mean of MD mid-p is {}", mean_md)),
    ]

    grid_set = set(cdf_t.jumps) | set(cdf_md.jumps) | {Fraction(1)}
    grid_set.update(cdf_t.plateau_heights_inside())
    grid_set.update(cdf_md.plateau_heights_inside())
    grid = tuple(sorted(grid_set))
    for s in grid:
        lower = cdf_t.integral(s)
        middle = cdf_md.integral(s)
        upper = s * s / 2
        margins.append((middle - lower, ("integrated CDFs at s={}: T {} vs MD {}", s, lower, middle)))
        margins.append((upper - middle, ("integrated CDFs at s={}: MD {} vs uniform {}", s, middle, upper)))

    log_t, log_md = _log_probe(t_family, cdf_t), _log_probe(md_family, cdf_md)
    log_ordered = log_t <= log_md + 1e-9 and log_md <= 2.0 + 1e-9
    note = (
        f"means ({mean_t}, {mean_md}); "
        f"log probe E0[-2 log P]: T {log_t:.9f}, MD {log_md:.9f}, uniform 2.0 "
        f"({'ordered' if log_ordered else 'NOT ordered (advisory only)'})"
    )
    return _claim(claim, grid, margins, _format, note)


def check_martingale_projection(
    model: DiscreteModel,
    t_test: TestFunction,
    md_test: TestFunction,
    alpha: object | None = None,
    *,
    claim: str = "C8",
) -> OrderReport:
    """Exact conditional-expectation identity E0[phi_MD | phi_T] = phi_T.

    Grouped by the T test's threshold zones: the sure-rejection class must
    have phi_MD = 1 pointwise, the sure-retention class phi_MD = 0, and on
    the threshold class the null-conditional average of phi_MD must equal
    gamma(alpha).
    """
    if t_test.kind != T_BASED or md_test.kind != MD:
        raise OrdersError("martingale projection needs a t-based test and an MD test")
    if t_test.alpha != md_test.alpha:
        raise OrdersError("tests must be built at the same alpha")
    if alpha is not None and _as_unit(alpha, "alpha") != t_test.alpha:
        raise OrdersError("alpha argument disagrees with the tests")
    grid = (t_test.alpha,)
    row = model.probs(model.null)
    margins: list[tuple[Fraction, tuple]] = []
    tie_mass = Fraction(0)
    tie_value = Fraction(0)
    for pt in model.support:
        zone = t_test.zone(pt)
        phi_md = md_test.phi(pt)
        if zone > 0:
            margins.append((-abs(phi_md - 1), ("phi_MD({}) = {} on the sure-rejection class", pt.label, phi_md)))
        elif zone < 0:
            margins.append((-abs(phi_md), ("phi_MD({}) = {} on the sure-retention class", pt.label, phi_md)))
        else:
            tie_mass += row[pt.index]
            tie_value += row[pt.index] * phi_md
    note = None
    if tie_mass > 0:
        average = tie_value / tie_mass
        margins.append(
            (-abs(average - t_test.gamma), ("threshold class average {} vs gamma {}", average, t_test.gamma))
        )
    else:
        note = "threshold class carries no null mass; projection on it skipped"
    if not margins:
        return OrderReport(claim, "pass", grid, Fraction(0), None, note)
    return _claim(claim, grid, margins, _format, note)


def _projection_margins(
    t_family: PValueFamily, md_family: PValueFamily, alphas: Sequence[Fraction]
) -> list[Fraction]:
    """Worst margin of check_martingale_projection at each alpha, read off per class.

    At alpha the T test has threshold class k and the MD test threshold
    rank r with randomization gamma_MD.  A sure-rejection point (class
    before k) has margin 0, gamma_MD - 1 or -1 as its rank is below, at or
    above r, so the largest rank before class k decides them all; the
    sure-retention side is decided by the smallest rank after class k.
    """
    ranks = md_family.source.ranks
    null_row = t_family.model.probs(t_family.model.null)
    by_rank = [sorted((ranks[i], null_row[i]) for i in members) for members in t_family.members]
    class_ranks = [[rank for rank, _ in pairs] for pairs in by_rank]
    below = [tuple(accumulate((m for _, m in pairs), initial=Fraction(0))) for pairs in by_rank]
    before_max = list(accumulate((r[-1] for r in class_ranks), max, initial=0))
    after_min = [len(ranks) + 1] * (len(class_ranks) + 1)
    for k in range(len(class_ranks) - 1, -1, -1):
        after_min[k] = min(after_min[k + 1], class_ranks[k][0])

    out = []
    for alpha in alphas:
        k, gamma_t = t_family.threshold(alpha)
        r_index, gamma_md = md_family.threshold(alpha)
        r = md_family.keys[r_index]
        j = bisect_left(class_ranks[k], r)
        value = below[k][j]
        if j < len(class_ranks[k]) and class_ranks[k][j] == r:
            value += gamma_md * by_rank[k][j][1]
        margin = -abs(value / t_family.mass[k] - gamma_t)
        top, bottom = before_max[k], after_min[k + 1]
        reject = -1 if top > r else (gamma_md - 1 if top == r else 0)
        retain = -1 if bottom < r else (-gamma_md if bottom == r else 0)
        out.append(Fraction(min(margin, reject, retain)))
    return out


def check_sufficiency(
    model: DiscreteModel, statistic: Statistic, thetas: Sequence[str]
) -> tuple[bool, str | None]:
    """True iff conditional laws given each statistic value match across thetas.

    Division-free cross-ratio test within each tie class:
    p_theta(x) * m_base(class) == p_base(x) * m_theta(class), which also
    handles classes with zero mass under some theta (vacuously equal).
    """
    if len(thetas) < 2:
        raise OrdersError("sufficiency check needs a grid of at least two parameters")
    classes: dict[Fraction, list[SupportPoint]] = {}
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


def verify_all_claims(
    model: DiscreteModel,
    statistic: Statistic,
    ranking: Ranking,
    thetas: Sequence[str],
    *,
    t_grid_size: int = 200,
    extra_alphas: Sequence[object] = (),
) -> list[OrderReport]:
    """Run the full C1-C9 suite; one report per claim.

    ``thetas`` is the parameter grid for the claims quantified over theta
    (C1, C3, C6); null-only claims always run against the model's null.
    C6 and C8 are gated on sufficiency of the statistic and report
    "skipped" with a note when the hypothesis is unmet.  C5 is checked at
    t = i / t_grid_size for i = 0..t_grid_size, so t_grid_size must be >= 1.
    """
    if t_grid_size < 1:
        raise OrdersError(f"t_grid_size must be at least 1, got {t_grid_size}")
    ok, witness = verify_agreement(model, statistic, ranking)
    if not ok:
        raise OrdersError(f"ranking does not agree with statistic: witness {witness}")
    thetas = list(thetas)
    for theta in thetas:
        model.probs(theta)
    null = model.null
    t_family, md_family = pvalue_family(model, statistic), pvalue_family(model, ranking)
    alphas = tuple(sorted(set(alpha_breakpoints(t_family, md_family)) | {_as_unit(a, "alpha") for a in extra_alphas}))
    nat_t = {theta: pvalue_cdf(model, theta, t_family, 1) for theta in set(thetas) | {null}}
    nat_md = {theta: pvalue_cdf(model, theta, md_family, 1) for theta in set(thetas) | {null}}

    sufficiency_grid = list(dict.fromkeys([null, *thetas]))
    if len(sufficiency_grid) >= 2:
        sufficient, suff_witness = check_sufficiency(model, statistic, sufficiency_grid)
    else:
        sufficient, suff_witness = True, None

    reports: list[OrderReport] = []

    # C1: natural MD decisions dominate in power, every theta and alpha.
    if not thetas:
        reports.append(OrderReport("C1", "skipped", (), None, None, "empty theta grid"))
    else:
        margins = [
            (nat_md[theta].evaluate(alpha) - nat_t[theta].evaluate(alpha), (theta, alpha))
            for theta in thetas
            for alpha in alphas
        ]
        reports.append(_claim("C1", alphas, margins, "theta={}, alpha={}".format))

    # C2: level sandwich under the null.
    margins = []
    for alpha in alphas:
        f_t = nat_t[null].evaluate(alpha)
        f_md = nat_md[null].evaluate(alpha)
        margins.append((f_md - f_t, ("alpha={}: E0[dT]={} vs E0[dMD]={}", alpha, f_t, f_md)))
        margins.append((alpha - f_md, ("alpha={}: E0[dMD]={} exceeds alpha", alpha, f_md)))
    reports.append(_claim("C2", alphas, margins, _format))

    # C3: usual stochastic order of natural p-values per theta.
    if not thetas:
        reports.append(OrderReport("C3", "skipped", (), None, None, "empty theta grid"))
    else:
        reports.append(_usual_order("C3", [(nat_t[theta], nat_md[theta], ("T", "MD")) for theta in thetas]))

    # C4: null sandwich of natural p-value CDFs.
    reports.append(
        _usual_order("C4", [(nat_t[null], nat_md[null], ("T", "MD")), (nat_md[null], None, ("MD", "t"))])
    )

    # C5: randomized p-values exactly uniform under the null, both families.
    # Pr_0{P(X, U) <= t} is the null power of the size-t test, since
    # P(x, u) <= t exactly when that test rejects x at u.
    t_grid = tuple(Fraction(i, t_grid_size) for i in range(t_grid_size + 1))
    margins = []
    for t in t_grid:
        for name, family in (("T", t_family), ("MD", md_family)):
            value = family.power(null, t)
            margins.append((-abs(value - t), (name, t, value)))
    reports.append(_claim("C5", t_grid, margins, "{} family at t={}: CDF {}".format))

    # C6: equal power functions under sufficiency.
    if not thetas:
        reports.append(OrderReport("C6", "skipped", (), None, None, "empty theta grid"))
    elif not sufficient:
        reports.append(OrderReport("C6", "skipped", (), None, None, f"hypothesis unmet: {suff_witness}"))
    else:
        margins = []
        for alpha in alphas:
            for theta in thetas:
                e_t = t_family.power(theta, alpha)
                e_md = md_family.power(theta, alpha)
                margins.append((-abs(e_t - e_md), (theta, alpha, e_t, e_md)))
        reports.append(_claim("C6", alphas, margins, "theta={}, alpha={}: {} vs {}".format))

    # C7: pointwise minimal tie mass, hence minimal auxiliary-u variance.
    margins = [(t_family.b[i] - md_family.b[i], (model.support[i].label,)) for i in range(model.size)]
    reports.append(_claim("C7", (), margins, "point {!r}".format, "checked at every support point"))

    # C8: martingale projection at every breakpoint alpha (gated on sufficiency).
    if not sufficient:
        reports.append(OrderReport("C8", "skipped", (), None, None, f"hypothesis unmet: {suff_witness}"))
    else:
        def projection_witness(alpha: Fraction) -> str:
            report = check_martingale_projection(model, t_family.test(alpha), md_family.test(alpha))
            return f"alpha={alpha}: {report.witness}"

        margins = zip(_projection_margins(t_family, md_family, alphas), ((a,) for a in alphas))
        reports.append(_claim("C8", alphas, margins, projection_witness))

    # C9: convex-order chain of mid-p-values.
    reports.append(_convex_order_chain(t_family, md_family, "C9"))

    return reports


def reports_to_json(reports: Sequence[OrderReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


def reports_to_text(reports: Sequence[OrderReport]) -> str:
    lines = [f"{'claim':<6} {'verdict':<8} {'worst margin':<24} {'grid':>6}  note"]
    for r in reports:
        if r.worst_margin is None:
            margin = "-"
        else:
            margin = f"{format_rational(r.worst_margin)} ({decimal_string(r.worst_margin, 9)})"
        detail = r.witness if r.verdict == "fail" else (r.note or "-")
        lines.append(f"{r.claim:<6} {r.verdict:<8} {margin:<24} {len(r.grid):>6}  {detail}")
    return "\n".join(lines) + "\n"
