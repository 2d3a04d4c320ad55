"""Size-alpha tests and generalized p-values as exact linear forms.

Everything here is read off one p-value family per source, built from
the source's class table (each point's ``class_of``, decided once by its
constructor): the tie classes of a ``ranking.Statistic``, or a
``ranking.Ranking``'s one class per rank, most extreme first, read the
same way.  The family holds the null mass of each class and the null
mass strictly before it (the class start).  The classes tile [0, 1], so
the size-alpha test keeps the last class whose start does not exceed
alpha, and the randomization fraction gamma then makes the null
expectation exactly alpha: ``family.threshold(alpha)`` is that (k, gamma),
and ``family.power(theta, alpha)`` its expectation under theta.

A point's p-value is the linear form P(x,u) = a(x) + u*b(x) with a its
class start (the null mass strictly more extreme) and b its class mass
(the null tie mass): u=1 gives the natural p-value, u=1/2 the mid-p-value,
and a uniform draw the randomized p-value.  A minimally discrete family
is the same table with one point per class.  The test rejects x at u
exactly when P(x,u) <= alpha: a class before k lies wholly at or below
alpha, a class after k starts above it, and class k's P is at or below
alpha exactly when u <= gamma, for every u in [0,1] and boundary alpha.

The table is held on the integer lattice of the model's pmf rows: under
each theta, the class masses and their prefix sums are integers over the
row's common denominator D_theta (``PValueFamily.lattice``).  The
threshold class is one bisect of those integer starts at floor(alpha*D),
and the claim engine in ``orders`` sweeps them directly.  That lattice is
the only copy of the p-values: ``PValueFamily.evaluate`` reads one point's
P(x,u) off it as a ``Fraction``, and ``mdpv cdf`` and ``mdpv pvalues``
print their tables from it.

Exact inputs (alpha, u) are read with the model files' grammar,
``rational.parse_ratio``; floats are refused.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .model import DiscreteModel, SupportPoint, UsageError
from .ranking import Ranking, Statistic
from .rational import parse_ratio


class TestingError(UsageError):
    """Invalid size, randomization input, or family construction."""

    __test__ = False  # keep pytest's collector away from the Test* name


def _as_unit(u: object, what: str = "u") -> Fraction:
    """An exact number in [0, 1]: a Fraction, an int or a "num/den" string, read by ``parse_ratio``."""
    # numbers.Real covers float and the numpy floating types; ints and
    # Fractions are Rational and stay exact.
    if isinstance(u, numbers.Real) and not isinstance(u, numbers.Rational):
        raise TestingError(f"refusing float {what}={u!r}: pass a Fraction, an int or a 'num/den' string")
    try:
        value = Fraction(*parse_ratio(u))  # type: ignore[arg-type]
    except ValueError as exc:
        raise TestingError(f"{what} must be an exact number, got {u!r}") from exc
    if not 0 <= value <= 1:
        raise TestingError(f"{what}={u} lies outside [0, 1]")
    return value


@dataclass(frozen=True)
class PValueFamily:
    """The p-values P(x,u) = a(x) + u*b(x) of one source, held per tie class.

    The classes are the source's own table: class k holds the points whose
    ``class_of`` is k, a tie class of a statistic (larger values first) or
    the one point of rank k + 1.  Under the null, ``lattice`` gives its
    mass and the mass of the classes before it (its start), so the classes
    tile [0, 1] as the intervals [start, start + mass] and a point's (a, b)
    is its class's (start, mass).  Families compare by model and source;
    the per-theta lattice cache is left out.
    """

    model: DiscreteModel
    source: Statistic | Ranking
    _by_theta: dict[str, tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        size = len(self.source.class_of)
        if size != self.model.size:
            raise TestingError(f"{type(self.source).__name__.lower()} covers {size} points, the model {self.model.size}")

    @property
    def class_of(self) -> tuple[int, ...]:
        """Class index of every support point, in support order."""
        return self.source.class_of

    def lattice(self, theta: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D_theta, mass, before): per-class theta mass as ints over D_theta, and its prefix sums.

        Each point's numerator is added once into its own class.
        ``before[k]`` is the theta mass of the classes before class k, so
        ``before[-1] == D_theta``; under the null, ``before[:-1]`` are the
        class starts over D_null.
        """
        cached = self._by_theta.get(theta)
        if cached is None:
            den, row = self.model.int_row(theta)
            mass = [0] * (max(self.class_of) + 1)  # one per class; a statistic's keys stay unbuilt
            for p, k in zip(row, self.class_of):
                mass[k] += p
            cached = self._by_theta[theta] = (den, tuple(mass), tuple(accumulate(mass, initial=0)))
        return cached

    def evaluate(self, point: SupportPoint | int, u: object) -> Fraction:
        """P(x, u) = a(x) + u * b(x): the start of the point's class plus u times its null mass.

        u = 1 gives the natural p-value, u = 1/2 the mid-p-value.
        """
        u = _as_unit(u)
        den, mass, before = self.lattice(self.model.null)
        k = self.class_of[self.model.point(point).index]
        return Fraction(before[k] * u.denominator + u.numerator * mass[k], den * u.denominator)

    def threshold(self, alpha: object) -> tuple[int, Fraction]:
        """Threshold class k(alpha) and gamma(alpha): the last class starting at or below alpha.

        An integer start s (over D) lies at or below alpha exactly when
        s <= floor(alpha * D), so k is one bisect of the integer starts.
        gamma equals 0 or 1 exactly at boundary alphas; the exact size
        identity E_0[phi_alpha] = alpha holds by construction and is asserted.
        alpha must be exact and in [0, 1], as for ``power``.
        """
        alpha = _as_unit(alpha, "alpha")
        den, mass, before = self.lattice(self.model.null)
        num, q = alpha.numerator, alpha.denominator
        k = bisect_right(before, num * den // q, 0, len(mass)) - 1
        start, tie = before[k], mass[k]
        gamma = Fraction(num * den - start * q, tie * q)
        g, h = gamma.numerator, gamma.denominator
        assert (start * h + g * tie) * q == num * den * h, "size identity violated"
        return k, gamma

    def power(self, theta: str, alpha: object) -> Fraction:
        """E_theta[phi_alpha]: the theta mass before the threshold class plus gamma times its own."""
        k, gamma = self.threshold(alpha)
        den, mass, before = self.lattice(theta)
        g, h = gamma.numerator, gamma.denominator
        return Fraction(before[k] * h + g * mass[k], den * h)


def pvalue_family(model: DiscreteModel, source: Statistic | Ranking) -> PValueFamily:
    """The p-value family of a source's class table: its tie classes, or one class per rank."""
    return PValueFamily(model, source)


def alpha_lattice(scale: int, *families: PValueFamily) -> tuple[int, ...]:
    """The canonical alpha grid as sorted int numerators over ``scale``: class starts, 0, 1 and the midpoints.

    ``scale`` must be a multiple of 2 * D_null for every family, so each
    class start and each midpoint between neighbours is an integer on it.
    """
    points = {0, scale}
    for family in families:
        den, _mass, before = family.lattice(family.model.null)
        c = scale // den
        points.update(b * c for b in before)
    grid = sorted(points)
    return tuple(sorted(grid + [(x + y) // 2 for x, y in zip(grid, grid[1:])]))  # two sorted runs, merged
