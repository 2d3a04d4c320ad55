"""Test statistics and one-to-one rankings of the support.

A ranking agrees with a statistic when a strictly larger statistic value
always receives a strictly smaller rank.  Within a tie class the order is
free, and the dominance results hold for every such order, so one tie rule
is enough: ``build_agreeing_ranking`` breaks ties in label order.  Any
other tie order is an explicit rank order, read by ``ranking_from_order``
and checked by ``verify_agreement``.  Smaller rank means more evidence
against the null.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .model import DiscreteModel, SupportPoint, UsageError
from .rational import parse_rational


class RankingError(UsageError):
    """Invalid statistic or ranking configuration."""


@dataclass(frozen=True)
class Statistic:
    """Exact statistic as its tie-class table: distinct ``keys``, strictly decreasing, and each point's ``class_of``.

    Larger values are evidence against the null.  Real-valued statistics
    must be supplied as exact rationals (use the likelihood ratio itself,
    not its logarithm): tie detection has to be exact.
    """

    name: str
    keys: tuple[Fraction, ...]
    class_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a <= b for a, b in zip(self.keys, self.keys[1:])) or set(self.class_of) != set(range(len(self.keys))):
            raise RankingError(f"statistic {self.name!r} needs strictly decreasing keys, each with a point")

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(map(self.keys.__getitem__, self.class_of))

    def value(self, point: SupportPoint) -> Fraction:
        return self.keys[self.class_of[point.index]]


def _tie_classes(name: str, values: list[Fraction], group_of: Sequence[int], scale: Fraction | int = 1) -> Statistic:
    """Point i has ``values[group_of[i]] * scale``, scale > 0; groups in support order keep a monotone sort one run."""
    keys: list[Fraction] = []
    class_of_group = [0] * len(values)
    for g in sorted(range(len(values)), key=values.__getitem__, reverse=True):
        if not keys or values[g] != keys[-1]:
            keys.append(values[g])
        class_of_group[g] = len(keys) - 1
    return Statistic(name, tuple(key * scale for key in keys), tuple(map(class_of_group.__getitem__, group_of)))


def make_statistic(
    model: DiscreteModel,
    name: str,
    values: Sequence[object] | Callable[[SupportPoint], object],
) -> Statistic:
    """Build a statistic from a sequence aligned with the support, or a callable on points."""
    if callable(values):
        raw = [values(pt) for pt in model.support]
    elif isinstance(values, Mapping):  # its keys would be read as the values
        raise RankingError(f"statistic {name!r}: pass values in support order, not a label map")
    else:
        raw = list(values)
        if len(raw) != model.size:
            raise RankingError(f"statistic {name!r} has {len(raw)} values for {model.size} points")
    return _tie_classes(name, [parse_rational(v) for v in raw], range(len(raw)))


def likelihood_ratio_statistic(model: DiscreteModel, null_name: str, alt_name: str) -> Statistic:
    """Exact likelihood ratio p_alt(x) / p_null(x) per point, one ``Fraction`` per distinct numerator pair."""
    null_den, null_row = model.int_row(null_name)
    alt_den, alt_row = model.int_row(alt_name)
    if any(p == 0 for p in null_row):
        raise RankingError("likelihood ratio needs a strictly positive null pmf")
    pairs: dict[tuple[int, int], int] = {}
    group_of = [pairs.setdefault(pair, len(pairs)) for pair in zip(alt_row, null_row)]
    # Reducing pa/p0 and D0/Da apart keeps each gcd small, and the unscaled ratios are cheaper to sort.
    ratios = [Fraction(pa, p0) for pa, p0 in pairs]
    return _tie_classes(f"lr({alt_name}:{null_name})", ratios, group_of, Fraction(null_den, alt_den))


@dataclass(frozen=True)
class Ranking:
    """Bijection from the support onto {1..N}, as each point's rank; rank 1 is most extreme."""

    ranks: tuple[int, ...]

    def rank(self, point: SupportPoint) -> int:
        return self.ranks[point.index]

    def order(self) -> tuple[int, ...]:
        """Support indices sorted by rank (position r-1 holds rank r)."""
        out = [0] * len(self.ranks)
        for index, rank in enumerate(self.ranks):
            out[rank - 1] = index
        return tuple(out)


def _ranking_from_indices(size: int, indices_in_rank_order: Iterable[int]) -> Ranking:
    """Ranks of support indices listed from rank 1 on; an index left out keeps rank 0."""
    ranks = [0] * size
    for rank, index in enumerate(indices_in_rank_order, start=1):
        ranks[index] = rank
    return Ranking(tuple(ranks))


def build_agreeing_ranking(model: DiscreteModel, statistic: Statistic) -> Ranking:
    """Rank the support so that strictly larger statistic values come first, ties in label order."""
    if len(statistic.class_of) != model.size:
        raise RankingError("statistic and model support sizes differ")
    ordered = sorted(model.support, key=lambda pt: (statistic.class_of[pt.index], pt.label))
    return _ranking_from_indices(model.size, (pt.index for pt in ordered))


def ranking_from_order(model: DiscreteModel, labels_in_rank_order: Sequence[str]) -> Ranking:
    """Ranking given directly as labels listed from rank 1 to rank N: any tie order, checked by ``verify_agreement``."""
    if len(labels_in_rank_order) != model.size:
        raise RankingError(
            f"rank order lists {len(labels_in_rank_order)} labels for {model.size} points"
        )
    ranking = _ranking_from_indices(model.size, (model.point(label).index for label in labels_in_rank_order))
    if 0 in ranking.ranks:  # N labels leave a point unranked only if one repeats
        raise RankingError("rank order must mention every support label exactly once")
    return ranking


def verify_agreement(
    model: DiscreteModel, statistic: Statistic, ranking: Ranking
) -> tuple[bool, tuple[str, str] | None]:
    """Check bijectivity and agreement; return (ok, witness pair of labels).

    The witness (x, y) has a strictly larger statistic at x but a strictly
    larger (worse) rank, i.e. the ranking contradicts the statistic.
    """
    if len(statistic.class_of) != model.size or len(ranking.ranks) != model.size:
        raise RankingError("statistic, ranking and model must share one support")
    seen: dict[int, SupportPoint] = {}
    for pt in model.support:
        rank = ranking.rank(pt)
        if not 1 <= rank <= model.size:
            return False, (pt.label, pt.label)
        if rank in seen:
            return False, (seen[rank].label, pt.label)
        seen[rank] = pt
    by_rank = [seen[r] for r in range(1, model.size + 1)]
    for a, b in zip(by_rank, by_rank[1:]):
        if statistic.class_of[a.index] > statistic.class_of[b.index]:
            return False, (b.label, a.label)
    return True, None
